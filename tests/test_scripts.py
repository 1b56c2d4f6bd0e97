"""The example scripts and the README's Python examples still run against the
current API (small sizes), and each script keeps its entry-point contract
on input generated from its own parser."""

import importlib.util
import json
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


# One valid, small invocation per script.  Each flag of the script's own
# parser is dropped, unless its default is a full-size run, or given each
# of VALUES; every run exits 0, or 2 with the usage and one error line
# naming the script, and never in a traceback.
CONTRACT = {
    "run_consistency.py": "--k 2 --n-grid 60 --replications 1 --slip 0.2 --guess 0.1 "
                          "--restarts 1 --seed 1",
    "run_nonidentifiable_demo.py": "--slip 0.2 --guess 0.1 --rho 1.0 --anchors 0.2,0.2 "
                                   "--n 60 --seed 1",
}
COSTLY_DEFAULTS = {"--n-grid", "--replications", "--restarts", "--n"}
VALUES = ["", "-1", "0", str(2**63), "nan", "inf", "text"]

# runs each invocation of its JSON list argument through the script's main()
# in this one interpreter, and prints each run's exit code, stdout and stderr
_RUNNER = """
import contextlib, importlib.util, io, json, sys, traceback
script = sys.argv[1]
spec = importlib.util.spec_from_file_location("script", script)
module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(module)
results = []
for argv in json.loads(sys.argv[2]):
    sys.argv = [script, *argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            module.main(argv)
            code = 0
        except SystemExit as exc:
            code = exc.code
        except BaseException:
            code = traceback.format_exc()
    results.append([argv, code, out.getvalue(), err.getvalue()])
json.dump(results, sys.stdout)
"""


def _script_parser(script):
    spec = importlib.util.spec_from_file_location(script[:-3], REPO / "scripts" / script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.build_parser()


def _contract_cases(script):
    argv = CONTRACT[script].split()
    cases = [argv]
    for action in _script_parser(script)._actions:
        flag = action.option_strings[0]
        if flag == "-h":
            continue
        assert flag in argv, f"{script}: the valid invocation does not give {flag}"
        at = argv.index(flag)
        rest = argv[:at] + argv[at + 2:]
        if flag not in COSTLY_DEFAULTS:
            cases.append(rest)
        cases += [rest + [flag, value] for value in VALUES]
    return cases


def test_each_changed_script_flag_keeps_the_contract():
    # every case of a script in one child under the 3 GiB cap, both at once
    env = dict(child_env(), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    cases = {script: _contract_cases(script) for script in CONTRACT}
    children = {script: subprocess.Popen(
        [sys.executable, "-c", _RUNNER, str(REPO / "scripts" / script), json.dumps(cases[script])],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        preexec_fn=_cap_address_space) for script in CONTRACT}
    for script, child in children.items():
        out, err = child.communicate(timeout=120)
        assert child.returncode == 0, err
        results = json.loads(out)
        assert [argv for argv, *_ in results] == cases[script]
        assert results[0][1] == 0 and results[0][2], results[0]
        for argv, code, stdout, stderr in results:
            assert code in (0, 2), (argv, code, stderr)
            if code == 2:
                assert stderr.startswith(f"usage: {script}"), (argv, stderr)
                errors = [line for line in stderr.splitlines() if "error" in line]
                assert len(errors) == 1 and errors[0].startswith(f"{script}: error: "), \
                    (argv, stderr)
                assert stdout == "", argv
