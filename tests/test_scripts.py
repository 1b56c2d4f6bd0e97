"""The example scripts still run against the current API (small sizes)."""

import subprocess
import sys
from pathlib import Path

import pytest

from helpers import child_env

REPO = Path(__file__).resolve().parents[1]
SCRIPTS = {
    "run_consistency.py": ["--n-grid", "300,600", "--replications", "1", "--restarts", "1"],
    "run_nonidentifiable_demo.py": ["--n", "2000"],
}


@pytest.mark.parametrize("script", sorted(SCRIPTS))
def test_script_runs(script):
    result = subprocess.run([sys.executable, str(REPO / "scripts" / script),
                             *SCRIPTS[script]],
                            capture_output=True, text=True, env=child_env(), timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout
