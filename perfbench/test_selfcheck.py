"""Tiny-k self-check of the benchmark: every workload, every output check."""

import subprocess
import sys
from pathlib import Path


def test_selfcheck():
    script = Path(__file__).with_name("run.py")
    proc = subprocess.run(
        [sys.executable, str(script), "--selfcheck"],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
