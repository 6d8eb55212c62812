"""Package import surface."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import crisscodec


def test_importing_the_codec_does_not_load_numpy():
    src = Path(crisscodec.__file__).resolve().parents[1]
    code = (
        "import sys, crisscodec, crisscodec.crisscross, crisscodec.fileio, "
        "crisscodec.selftest, crisscodec.fixtures, crisscodec.analysis, "
        "crisscodec.cli\n"
        "assert 'numpy' not in sys.modules, 'numpy was imported'"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
