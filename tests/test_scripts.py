"""The example scripts still run against the current API (small sizes)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import rlcm

REPO = Path(__file__).resolve().parents[1]
SCRIPTS = {
    "run_consistency.py": ["--n-grid", "300,600", "--replications", "1", "--restarts", "1"],
    "run_nonidentifiable_demo.py": ["--n", "2000"],
}


@pytest.mark.parametrize("script", sorted(SCRIPTS))
def test_script_runs(script):
    src = str(Path(rlcm.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, str(REPO / "scripts" / script),
                             *SCRIPTS[script]],
                            capture_output=True, text=True, env=env, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout
