"""The example scripts and the README's Python examples still run against the
current API (small sizes)."""

import re
import resource
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


@pytest.mark.parametrize("flag, value", [("--n-grid", "abc"), ("--n-grid", "300,x"),
                                         ("--restarts", "abc")])
def test_consistency_script_names_a_bad_count(flag, value):
    result = subprocess.run([sys.executable, str(REPO / "scripts" / "run_consistency.py"),
                             flag, value],
                            capture_output=True, text=True, env=child_env(), timeout=120)
    assert result.returncode == 2
    assert f"argument {flag}: invalid int value" in result.stderr
    assert "Traceback" not in result.stderr
    assert result.stdout == ""


@pytest.mark.parametrize("script", sorted(SCRIPTS))
def test_scripts_name_a_negative_seed(script):
    result = subprocess.run([sys.executable, str(REPO / "scripts" / script), "--seed", "-1"],
                            capture_output=True, text=True, env=child_env(), timeout=120)
    assert result.returncode == 2
    assert "argument --seed: -1 is negative" in result.stderr
    assert "Traceback" not in result.stderr
    assert result.stdout == ""


@pytest.mark.parametrize("argv, message", [
    (["--replications", "0"], "need at least one replication"),
    (["--restarts", "0"], "restarts must be at least 1, got 0"),
    (["--k", "0"], "Q-matrix needs at least one item and one attribute"),
    (["--k", "7"], "Q-matrix 21x7 exceeds caps J<=20, K<=20"),
    (["--slip", "0.9", "--guess", "0.5"], "DINA: requires 1 - s > g, got s=0.9, g=0.5"),
], ids=["replications", "restarts", "k-0", "k-7", "slip-guess"])
def test_consistency_script_names_a_value_out_of_range(argv, message):
    result = subprocess.run([sys.executable, str(REPO / "scripts" / "run_consistency.py"),
                             "--n-grid", "100", *argv],
                            capture_output=True, text=True, env=child_env(), timeout=120)
    assert result.returncode == 2
    errors = [line for line in result.stderr.splitlines() if "error" in line]
    assert errors == [f"run_consistency.py: error: {message}"]
    assert "Traceback" not in result.stderr
    assert result.stdout == ""


@pytest.mark.parametrize("argv, message", [
    (["--n", "0"], "need at least one subject, got 0"),
    (["--slip", "0.9"], "DINA: requires 1 - s > g, got s=0.9, g=0.1"),
    (["--rho", "0"], "rho must be positive, got 0.0"),
    (["--anchors", "x"], "argument --anchors: expected two comma-separated reals, got 'x'"),
    (["--anchors", "0.2"], "argument --anchors: expected two comma-separated reals, got '0.2'"),
], ids=["n-0", "slip", "rho-0", "anchors-x", "anchors-one"])
def test_demo_script_names_a_value_out_of_range(argv, message):
    result = subprocess.run([sys.executable, str(REPO / "scripts" / "run_nonidentifiable_demo.py"),
                             *argv],
                            capture_output=True, text=True, env=child_env(), timeout=120)
    assert result.returncode == 2
    errors = [line for line in result.stderr.splitlines() if "error" in line]
    assert errors == [f"run_nonidentifiable_demo.py: error: {message}"]
    assert "Traceback" not in result.stderr
    assert result.stdout == ""


def _cap_address_space():
    # a numpy array the machine cannot hold then fails to allocate at once,
    # on any machine, instead of being touched page by page
    resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))


@pytest.mark.parametrize("script, argv", [
    ("run_nonidentifiable_demo.py", ["--n", "100000000000"]),
    ("run_consistency.py", ["--n-grid", "100000000000"]),
    ("run_consistency.py", ["--k", "40000"]),
], ids=["demo-n", "consistency-n-grid", "consistency-k"])
def test_scripts_report_an_allocation_too_large(script, argv):
    # one BLAS thread, since each thread's buffers count against the cap
    env = dict(child_env(), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    result = subprocess.run([sys.executable, str(REPO / "scripts" / script), *argv],
                            capture_output=True, text=True, env=env, timeout=120,
                            preexec_fn=_cap_address_space)
    assert result.returncode == 2
    assert result.stderr.startswith(f"usage: {script}")
    errors = [line for line in result.stderr.splitlines() if "error" in line]
    assert len(errors) == 1 and errors[0].startswith(f"{script}: error: Unable to allocate")
    assert "Traceback" not in result.stderr
    assert result.stdout == ""


def test_readme_python_examples_run():
    blocks = re.findall(r"^```python\n(.*?)^```", (REPO / "README.md").read_text(),
                        flags=re.M | re.S)
    assert blocks
    for block in blocks:
        result = subprocess.run([sys.executable, "-c", block], capture_output=True,
                                text=True, env=child_env(), timeout=120)
        assert result.returncode == 0, result.stderr
