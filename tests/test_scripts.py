"""The scripts in scripts/ run end to end with their defaults: trace
estimation through the sampler, both reduction compilers through the exact
route, and the conditional error bounds.  Each exits 1 on its own failed
check, so exit 0 and its "(ok)" line mean the check held."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script", ["trace_scaling", "reduction_roundtrip", "error_budget"])
def test_script_passes_its_own_check(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / f"{script}.py")],
        env=env, capture_output=True, text=True, timeout=120, check=False,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "(ok)" in proc.stdout.splitlines()[-1]
