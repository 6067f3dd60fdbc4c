"""The benchmark's own test: its small size, end to end, every check on.

Run with ``python -m pytest servebench``.  It runs both workloads,
traced and untraced, each in a fresh process, and fails if any run
fails an output check, fails an operation or prints no result.
"""

import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def test_smoke():
    proc = subprocess.run(
        [sys.executable, str(RUN), "--smoke"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.count(": ok (") == 4, proc.stdout
