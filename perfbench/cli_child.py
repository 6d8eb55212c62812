"""One traced crisscodec CLI command in a fresh interpreter.

    PYTHONPATH=src python perfbench/cli_child.py OUT.json <cli arguments...>

Writes the command's traced totals, its spans and the time
`import crisscodec.cli` took (the counter cli.import_s) to OUT.json, then
exits with the command's exit code.
"""

import json
import sys
import time

from tracing import Tracer


def main() -> int:
    start = time.perf_counter()
    from crisscodec import cli  # timed as the CLI's import cost

    import_s = time.perf_counter() - start
    tracer = Tracer()
    tracer.counts["cli.import_s"] = import_s
    with tracer.installed():
        code = cli.main(sys.argv[2:])
    with open(sys.argv[1], "w") as fh:
        json.dump(tracer.dump(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
