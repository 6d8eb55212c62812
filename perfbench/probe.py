"""Set-up time of one workload in a fresh interpreter.

    PYTHONPATH=src python perfbench/probe.py WORKLOAD SEED WORKDIR

Prints the seconds spent importing crisscodec plus running the workload's
first operation (its inputs are made outside that time).
"""

import sys
import time
from pathlib import Path


def main() -> None:
    start = time.perf_counter()
    import crisscodec  # noqa: F401  (timed: the import is part of set-up)

    import_s = time.perf_counter() - start
    import workloads

    name, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    print(import_s + workloads.WORKLOADS[name]().first_op(seed, workdir))


if __name__ == "__main__":
    main()
