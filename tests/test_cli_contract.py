"""``rlcm``'s entry-point contract on generated input.

Each case starts from one valid invocation of a subcommand and changes one
flag that ``cli.build_parser()`` declares for that subcommand: the flag is
dropped, or given an empty string, ``-1``, ``0``, ``2**63``, ``nan``,
``inf``, text, a directory, a missing file, an empty file, one of the input
files (each of another format but one), its own file behind a byte-order
mark or with a number beyond float range, an empty JSON object, or bytes
that are not UTF-8.  Every run ends with an exit code README
documents for the subcommand and never in an exception; on exit 1, stderr
is one ``error:`` line, and stdout is empty when ``--out`` is given.
"""

import argparse
import re
import shutil

import pytest

from rlcm import DinaParams, ProportionVector, QMatrix, c1_only_design, fileio, theta_from_params
from rlcm.cli import _path, build_parser, main

from helpers import stacked_identity

# the exit codes README documents; every other subcommand exits 0 or 1
EXIT_CODES = {"check": {0, 1, 2, 3}}

# counts whose default is a full-size run, so dropping them is no mutation;
# the values below either fail to parse or keep the run as small
COSTLY_DEFAULTS = {"--restarts", "--max-iters", "--replications"}

Q = stacked_identity(2, 3)
PARAMS = [DinaParams(0.2, 0.1)] * Q.n_items
INPUTS = {
    "q.csv": lambda path: fileio.write_qmatrix_csv(path, Q),
    "incomplete-q.csv": lambda path: fileio.write_qmatrix_csv(path, QMatrix([[1, 1]] * 6)),
    "extra-q.csv": lambda path: path.write_text("1\n"),
    "params.json": lambda path: fileio.write_item_params_json(path, PARAMS, 2),
    "c1-params.json": lambda path: fileio.write_item_params_json(
        path, PARAMS[:c1_only_design(2, [[1]]).n_items], 2),
    "theta.json": lambda path: fileio.write_theta_json(path, theta_from_params(Q, PARAMS)),
    "p.json": lambda path: fileio.write_proportion_json(path, ProportionVector([0.25] * 4)),
    "data.csv": lambda path: path.write_text("0,1,0,1,0,1\n1,0,1,0,1,0\n1,1,1,1,1,1\n"
                                             "0,0,0,0,0,0\n1,1,0,1,1,0\n"),
}
# the file a flag reads, behind a byte-order mark when the flag is not given
OWN_FILE = {"--q": "q.csv", "--theta": "theta.json", "--params": "params.json",
            "--p": "p.json", "--extra-q": "extra-q.csv", "--data": "data.csv",
            "--pair": "pair.json"}

VALID = {
    "counterexample": "counterexample --mode c1-only --k 2 --extra-q extra-q.csv "
                      "--params c1-params.json --rho 1.0 --anchors 0.12,0.08 --out out.json",
    "counterexample-incomplete": "counterexample --mode incomplete --q incomplete-q.csv "
                                 "--params params.json --p p.json --out out.json",
    "check": "check --q q.csv --params params.json --out out.json",
    "verify-pair": "verify-pair --pair pair.json --out out.json",
    "tmatrix": "tmatrix --q q.csv --params params.json --p p.json --display-order weight "
               "--out out.csv",
    "simulate": "simulate --q q.csv --params params.json --p p.json --n 20 --seed 1 "
                "--out out.csv",
    "fit": "fit --q q.csv --data data.csv --families DINA --restarts 1 --max-iters 2 "
           "--tol 1e-6 --seed 1 --out out.json",
    "experiment": "experiment --q q.csv --params params.json --p p.json --families DINA "
                  "--n-grid 20 --replications 1 --restarts 1 --max-iters 2 --tol 1e-6 "
                  "--seed 1 --out out.json",
    "verify-transform": "verify-transform --j 2 --k 1 --seed 1",
}

VALUES = ["", "-1", "0", str(2**63), "nan", "inf", "text"]
# a CSV and a JSON input, so that each path flag gets a file of another format;
# "<huge>" is its own file with its last number beyond float range, and "{}"
# a JSON document without the fields any format requires
FILES = ["<dir>", "<missing>", "<empty>", "<bom>", "<huge>", "<not-utf8>", "{}",
         "q.csv", "p.json"]


def _cases():
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    for name, line in VALID.items():
        argv = line.split()
        for action in subparsers.choices[argv[0]]._actions:
            if action.option_strings and action.option_strings[0] != "-h":
                flag = action.option_strings[0]
                values = [None] if flag in argv and flag not in COSTLY_DEFAULTS else []
                values += VALUES
                if action.type in (None, _path) and action.choices is None:
                    values += FILES
                yield pytest.param(name, flag, values, id=f"{name}{flag}")


def _in(inputs, words: list) -> list:
    """``words`` with each input file's name turned into its path in ``inputs``."""
    return [str(inputs / w) if w in INPUTS or w == "pair.json" else w for w in words]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("inputs")
    for name, write in INPUTS.items():
        write(root / name)
    # pair.json is what the valid counterexample invocation writes
    argv = VALID["counterexample"].replace("out.json", "pair.json").split()
    assert main(_in(root, argv)) == 0
    return root


def _value(value: str, flag: str, own, inputs, workdir) -> str:
    """The text given to the changed flag; a file it names is made in
    ``workdir``, so that no run writes over a shared input."""
    target = workdir / "changed"
    if value == "<dir>":
        target.mkdir()
    elif value == "<missing>":
        pass
    elif value == "<empty>":
        target.write_bytes(b"")
    elif value in ("<bom>", "<huge>"):
        source = inputs / (own if (inputs / str(own)).is_file() else OWN_FILE.get(flag, "q.csv"))
        text = source.read_bytes()
        target.write_bytes(b"\xef\xbb\xbf" + text if value == "<bom>"
                           else re.sub(rb"\d+(\.\d+)?(?=\D*$)", b"1" * 400, text))
    elif value == "<not-utf8>":
        target.write_bytes(b"\xff\xfe\x80 not text\n")
    elif value == "{}":
        target.write_text(value)
    elif value in FILES:
        shutil.copyfile(inputs / value, target)
    else:
        return value
    return str(target)


@pytest.mark.parametrize("name, flag, values", _cases())
def test_each_changed_flag_keeps_the_contract(inputs, tmp_path, monkeypatch, capsys,
                                              name, flag, values):
    argv = VALID[name].split()
    own = argv[argv.index(flag) + 1] if flag in argv else None
    if own is not None:
        del argv[argv.index(flag):argv.index(flag) + 2]
    argv = _in(inputs, argv)
    for i, value in enumerate(values):
        workdir = tmp_path / str(i)
        workdir.mkdir()
        monkeypatch.chdir(workdir)   # a relative --out such as "text" lands here
        changed = argv if value is None else \
            argv + [flag, _value(value, flag, own, inputs, workdir)]
        code = main(changed)
        captured = capsys.readouterr()
        assert code in EXIT_CODES.get(argv[0], {0, 1}), (changed, captured.err)
        if code == 1:
            assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, \
                (changed, captured.err)
            if "--out" in changed:
                assert captured.out == "", changed


@pytest.mark.parametrize("name", VALID)
def test_each_valid_invocation_succeeds(inputs, tmp_path, monkeypatch, name):
    # otherwise every changed flag above would meet an error it did not cause
    monkeypatch.chdir(tmp_path)
    assert main(_in(inputs, VALID[name].split())) == 0


def _path_flags():
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    for name, line in VALID.items():
        sub = line.split()[0]
        for action in subparsers.choices[sub]._actions:
            flag = action.option_strings[0] if action.type is _path else None
            if flag:
                yield pytest.param(name, flag, id=f"{name}{flag}")


@pytest.mark.parametrize("name, flag", _path_flags())
def test_an_empty_path_is_named(inputs, tmp_path, monkeypatch, capsys, name, flag):
    monkeypatch.chdir(tmp_path)
    argv = _in(inputs, VALID[name].split())
    if flag in argv:
        del argv[argv.index(flag):argv.index(flag) + 2]
    assert main(argv + [flag, ""]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: rlcm {argv[0]}: argument {flag}: expected a path, got ''\n"
    assert captured.out == ""


# per mode, flags of the other mode, each with a value that would fail if read
OTHER_MODE_FLAGS = {
    "counterexample": [("--q", "missing.csv"), ("--p", "<not-utf8>"), ("--theta", "<empty>")],
    "counterexample-incomplete": [("--k", "-1"), ("--extra-q", "missing.csv"),
                                  ("--rho", "nan"), ("--anchors", "0.1,0.2"), ("--rho", "1.0")],
}


@pytest.mark.parametrize("name, flag, value", [
    pytest.param(name, flag, value, id=f"{name}{flag}={value}")
    for name, flags in OTHER_MODE_FLAGS.items() for flag, value in flags])
def test_a_flag_of_the_other_mode_is_rejected(inputs, tmp_path, monkeypatch, capsys,
                                              name, flag, value):
    monkeypatch.chdir(tmp_path)
    argv = _in(inputs, VALID[name].split())
    mode = argv[argv.index("--mode") + 1]
    assert main(argv + [flag, _value(value, flag, None, inputs, tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: --mode {mode} does not take {flag}\n"
    assert captured.out == "" and not (tmp_path / "out.json").exists()
