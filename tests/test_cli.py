import argparse
import json
import subprocess
import sys

import numpy as np
import pytest

from rlcm import (
    DinaParams,
    EmConfig,
    LlmParams,
    ProportionVector,
    QMatrix,
    ThetaMatrix,
    build_tmatrix,
    marginal_vector,
    response_distribution,
    weight_graded_order,
)
from rlcm import cli, fileio
from rlcm.cli import _em_config, build_parser, main

from helpers import child_env, stacked_identity


@pytest.fixture
def workdir(tmp_path):
    return tmp_path


def _write_q(path, rows):
    fileio.write_qmatrix_csv(path, QMatrix(rows))
    return str(path)


def _write_params(path, params, k):
    fileio.write_item_params_json(path, params, k)
    return str(path)


def _write_p(path, probs):
    fileio.write_proportion_json(path, ProportionVector(probs))
    return str(path)


class TestCheck:
    def test_example_q_exit_3(self, workdir, capsys):
        q = _write_q(workdir / "q.csv", [[1, 0], [0, 1], [1, 1]])
        code = main(["check", "--q", q])
        assert code == 3
        report = json.loads(capsys.readouterr().out)
        assert report["complete"] is True
        assert report["c1_holds"] is False

    def test_three_identities_exit_0(self, workdir, capsys):
        q = _write_q(workdir / "q.csv", stacked_identity(2, 3).entries)
        assert main(["check", "--q", q]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "identifiable-by-sufficient-conditions"
        assert report["three_identity_sufficient"] is True

    def test_incomplete_exit_2(self, workdir, capsys):
        q = _write_q(workdir / "q.csv", [[1, 1], [0, 1]])
        assert main(["check", "--q", q]) == 2
        captured = capsys.readouterr()
        assert json.loads(captured.out)["verdict"] == "non-identifiable-incomplete"
        assert captured.err == ""

    def test_with_params_c2_decides(self, workdir, capsys):
        q = _write_q(workdir / "q.csv",
                     np.vstack([np.eye(2, dtype=int)] * 2 + [[[1, 1]]]))
        params = _write_params(workdir / "params.json",
                               [DinaParams(0.2, 0.1)] * 5, 2)
        assert main(["check", "--q", q, "--params", params]) == 3
        report = json.loads(capsys.readouterr().out)
        assert report["c1_holds"] is True and report["c2_holds"] is False

    def test_malformed_csv_exit_1(self, workdir, capsys):
        bad = workdir / "q.csv"
        bad.write_text("1,0\n0,x\n")
        assert main(["check", "--q", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "line 2" in err and "column 2" in err

    def test_missing_file_exit_1(self, workdir, capsys):
        assert main(["check", "--q", str(workdir / "nope.csv")]) == 1


class TestTmatrix:
    def test_single_item_csv(self, workdir, capsys):
        theta_path = workdir / "theta.json"
        fileio.write_theta_json(theta_path, ThetaMatrix([[0.1, 0.8]]))
        assert main(["tmatrix", "--theta", str(theta_path)]) == 0
        out = capsys.readouterr().out
        rows = [line for line in out.splitlines() if not line.startswith("#")]
        assert rows[0] == "0,1.0,1.0"
        assert rows[1] == "1,0.1,0.8"

    def test_weight_display_order(self, workdir, capsys):
        q = _write_q(workdir / "q.csv", stacked_identity(2, 1).entries)
        params = _write_params(workdir / "params.json", [DinaParams(0.2, 0.1)] * 2, 2)
        assert main(["tmatrix", "--q", q, "--params", params,
                     "--display-order", "weight"]) == 0
        out = capsys.readouterr().out
        rows = [line for line in out.splitlines() if not line.startswith("#")]
        assert [r.split(",")[0] for r in rows] == ["0", "1", "2", "3"]

    def test_distribution_emitted_with_p(self, workdir, capsys):
        theta_path = workdir / "theta.json"
        fileio.write_theta_json(theta_path, ThetaMatrix([[0.1, 0.8]]))
        p = _write_p(workdir / "p.json", [0.5, 0.5])
        assert main(["tmatrix", "--theta", str(theta_path), "--p", p]) == 0
        out = capsys.readouterr().out
        dist_lines = out.splitlines()[out.splitlines().index(
            "# pattern,probability,dominance_probability") + 1:]
        assert dist_lines[0].startswith("0,0.55")
        assert dist_lines[1].startswith("1,0.45")

    @pytest.mark.parametrize("order", ["binary", "weight"])
    @pytest.mark.parametrize("with_p", [False, True])
    def test_dump_matches_per_cell_formatting(self, workdir, capsys, order, with_p):
        rng = np.random.default_rng(4)
        values = rng.uniform(0.02, 0.98, (4, 4))
        values[0, 1], values[2, 3] = 0.1, 0.5
        theta = ThetaMatrix(values)
        probs = [0.1, 0.2, 0.3, 0.4]
        theta_path = workdir / "theta.json"
        fileio.write_theta_json(theta_path, theta)
        argv = ["tmatrix", "--theta", str(theta_path), "--display-order", order]
        if with_p:
            argv += ["--p", _write_p(workdir / "p.json", probs)]
        assert main(argv) == 0
        # the dump as it was formatted one numpy scalar at a time
        t = build_tmatrix(fileio.read_theta_json(theta_path))
        perm = weight_graded_order(4) if order == "weight" else np.arange(16)
        cols = weight_graded_order(2) if order == "weight" else np.arange(4)
        lines = [
            "# marginal table; rows = response patterns, columns = attribute profiles",
            f"# encoding: {fileio.CANONICAL_ORDER}; display order: {order}",
            "# columns: " + ",".join(str(int(c)) for c in cols),
        ]
        for r in perm:
            values = ",".join(repr(float(v)) for v in t.values[r][cols])
            lines.append(f"{int(r)},{values}")
        if with_p:
            p = ProportionVector(probs)
            dist = response_distribution(fileio.read_theta_json(theta_path), p)
            dominance = marginal_vector(t, p)
            lines.append("# pattern,probability,dominance_probability")
            for r in perm:
                lines.append(f"{int(r)},{float(dist[r])!r},{float(dominance[r])!r}")
        assert capsys.readouterr().out == "\n".join(lines) + "\n"


class TestCounterexample:
    def test_c1_only_roundtrip(self, workdir, capsys):
        params = _write_params(workdir / "params.json", [DinaParams(0.2, 0.1)] * 5, 2)
        extra = workdir / "extra.csv"
        extra.write_text("1\n")
        out_path = workdir / "pair.json"
        code = main(["counterexample", "--mode", "c1-only", "--k", "2",
                     "--extra-q", str(extra), "--params", params,
                     "--rho", "1.0", "--anchors", "0.12,0.08",
                     "--out", str(out_path)])
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert doc["verified_gap"] <= 1e-10
        assert doc["parameter_distance"] > 1e-6

        # re-read and re-verify through the CLI
        code = main(["verify-pair", "--pair", str(out_path)])
        assert code == 0
        reread = json.loads(capsys.readouterr().out)
        assert reread["max_distribution_gap"] <= 1e-10

    def test_c1_only_rejects_other_families_in_one_line(self, workdir, capsys):
        params = _write_params(workdir / "params.json",
                               [LlmParams(-1.0, (2.0, 0.0))] * 5, 2)
        extra = workdir / "extra.csv"
        extra.write_text("1\n")
        code = main(["counterexample", "--mode", "c1-only", "--k", "2",
                     "--extra-q", str(extra), "--params", params,
                     "--anchors", "0.12,0.08"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "conjunctive" in err and "Traceback" not in err

    def test_incomplete_mode(self, workdir, capsys):
        q = _write_q(workdir / "q.csv", [[1, 1], [0, 1]])
        params = _write_params(workdir / "params.json",
                               [DinaParams(0.2, 0.1), DinaParams(0.1, 0.2)], 2)
        p = _write_p(workdir / "p.json", [0.25] * 4)
        code = main(["counterexample", "--mode", "incomplete", "--q", q,
                     "--params", params, "--p", p])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verified_gap"] <= 1e-12

    def test_incomplete_mode_rejects_complete_design(self, workdir, capsys):
        q = _write_q(workdir / "q.csv", [[1, 0], [0, 1]])
        params = _write_params(workdir / "params.json", [DinaParams(0.2, 0.1)] * 2, 2)
        p = _write_p(workdir / "p.json", [0.25] * 4)
        code = main(["counterexample", "--mode", "incomplete", "--q", q,
                     "--params", params, "--p", p])
        assert code == 1
        assert "does not apply" in capsys.readouterr().err


class TestVerifyTransform:
    def test_residual_small(self, capsys):
        assert main(["verify-transform", "--j", "6", "--k", "2", "--seed", "7"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["max_abs_residual"] <= 1e-12

    @pytest.mark.parametrize("k", ["40", "-1", "0", "21"])
    def test_bad_attribute_count_rejected_before_the_draw(self, capsys, k):
        # K = 40 would ask the draw for 2 x 2**40 doubles
        assert main(["verify-transform", "--j", "2", "--k", k]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("j, k", [("0", "2"), ("13", "2"), ("12", "17")])
    def test_bad_item_count_or_table_size_rejected(self, capsys, j, k):
        assert main(["verify-transform", "--j", j, "--k", k]) == 1
        assert capsys.readouterr().err.count("\n") == 1


class TestSimulateFitPipeline:
    def test_roundtrip_recovers_parameters(self, workdir, capsys):
        q_path = _write_q(workdir / "q.csv", stacked_identity(2, 3).entries)
        params = _write_params(workdir / "params.json", [DinaParams(0.2, 0.1)] * 6, 2)
        p = _write_p(workdir / "p.json", [0.25] * 4)
        data_path = workdir / "data.csv"
        assert main(["simulate", "--q", q_path, "--params", params, "--p", p,
                     "--n", "8000", "--seed", "3", "--out", str(data_path)]) == 0
        fit_path = workdir / "fit.json"
        assert main(["fit", "--q", q_path, "--data", str(data_path),
                     "--families", "DINA", "--restarts", "3", "--seed", "1",
                     "--out", str(fit_path)]) == 0
        doc = json.loads(fit_path.read_text())
        assert doc["converged"] is True
        for item in doc["item_params"]:
            assert abs(item["s"] - 0.2) <= 0.06
            assert abs(item["g"] - 0.1) <= 0.06
        assert np.abs(np.array(doc["p"]) - 0.25).max() <= 0.06

    def test_simulate_deterministic_given_seed(self, workdir):
        q_path = _write_q(workdir / "q.csv", stacked_identity(2, 1).entries)
        params = _write_params(workdir / "params.json", [DinaParams(0.2, 0.1)] * 2, 2)
        p = _write_p(workdir / "p.json", [0.25] * 4)
        out1, out2 = workdir / "a.csv", workdir / "b.csv"
        for out in (out1, out2):
            assert main(["simulate", "--q", q_path, "--params", params, "--p", p,
                         "--n", "100", "--seed", "5", "--out", str(out)]) == 0
        assert out1.read_text() == out2.read_text()


def _simulate_inputs(workdir):
    q_path = _write_q(workdir / "q.csv", stacked_identity(2, 1).entries)
    params = _write_params(workdir / "params.json", [DinaParams(0.2, 0.1)] * 2, 2)
    return ["--q", q_path, "--params", params, "--p", _write_p(workdir / "p.json", [0.25] * 4)]


def _no_memory(*args, **kwargs):
    # what numpy raises for an array larger than the machine can hold
    raise MemoryError("Unable to allocate 745. GiB for an array with shape "
                      "(100000000000, 1) and data type float64")


@pytest.mark.parametrize("command, patched", [
    (["simulate", "--n", "100000000000"], "simulate"),
    (["experiment", "--families", "DINA", "--n-grid", "100000000000"],
     "consistency_experiment"),
])
def test_out_of_memory_is_one_error_line(workdir, capsys, monkeypatch, command, patched):
    monkeypatch.setattr(cli, patched, _no_memory)
    argv = command + _simulate_inputs(workdir) + ["--out", str(workdir / "out")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == "error: Unable to allocate 745. GiB for an array with shape " \
                  "(100000000000, 1) and data type float64\n"
    assert "Traceback" not in err


def _one_error_line(capsys) -> str:
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    return captured.err


def _subcommands():
    action = next(a for a in build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction))
    return sorted(action.choices)


class TestUsageErrors:
    """Every wrong call leaves through main as one error line and exit 1."""

    @pytest.mark.parametrize("extra", [[], ["--bogus"]])
    @pytest.mark.parametrize("sub", _subcommands())
    def test_every_subcommand_without_its_flags(self, capsys, sub, extra):
        assert main([sub] + extra) == 1
        _one_error_line(capsys)

    def test_bare_rlcm(self, capsys):
        assert main([]) == 1
        assert _one_error_line(capsys) == "error: rlcm: a subcommand is required\n"

    def test_missing_flag_is_no_verdict(self, capsys):
        # argparse's own exit status would be 2, which check reserves for "incomplete"
        assert main(["check"]) == 1
        assert _one_error_line(capsys) == \
            "error: rlcm check: the following arguments are required: --q\n"

    def test_malformed_number(self, capsys):
        assert main(["fit", "--q", "q.csv", "--data", "d.csv", "--families", "DINA",
                     "--restarts", "x"]) == 1
        assert _one_error_line(capsys) == \
            "error: rlcm fit: argument --restarts: invalid int value: 'x'\n"

    @pytest.mark.parametrize("command, flag", [
        ("simulate --n 10000000000000000000000000 --out {out} --q {q} --params {params} --p {p}",
         "--n"),
        ("fit --q {q} --data {data} --families DINA --restarts 1000000000000000000000000000000",
         "--restarts"),
    ], ids=["simulate", "fit"])
    def test_integer_too_large(self, workdir, capsys, command, flag):
        _, q, _, params, _, p = _simulate_inputs(workdir)
        data = workdir / "data.csv"
        data.write_text("0,1\n1,0\n")
        files = {"q": q, "params": params, "p": p, "data": data, "out": workdir / "out.csv"}
        assert main([a.format(**files) for a in command.split()]) == 1
        line = _one_error_line(capsys)
        assert "too large" in line and f"argument {flag}: " in line

    @pytest.mark.parametrize("value, message", [
        (str(2**63), "is too large"), ("abc", "invalid int value: 'abc'"),
        ("1e3", "invalid int value: '1e3'")])
    @pytest.mark.parametrize("argv, prefix", [
        (["simulate", "--p", "p.json", "--n"], ""),
        (["fit", "--q", "q.csv", "--data", "d.csv", "--families", "DINA", "--restarts"], ""),
        (["fit", "--q", "q.csv", "--data", "d.csv", "--families", "DINA", "--max-iters"], ""),
        (["experiment", "--q", "q.csv", "--params", "i.json", "--p", "p.json",
          "--families", "DINA", "--n-grid", "100", "--replications"], ""),
        (["experiment", "--q", "q.csv", "--params", "i.json", "--p", "p.json",
          "--families", "DINA", "--n-grid"], "100,200,"),
    ], ids=["n", "restarts", "max-iters", "replications", "n-grid"])
    def test_every_count_flag_is_named(self, capsys, argv, prefix, value, message):
        # the value is checked while parsing, before any file is read
        assert main(argv + [prefix + value]) == 1
        line = _one_error_line(capsys)
        assert f"argument {argv[-1]}: " in line and message in line

    def test_largest_count_is_accepted_by_the_parser(self):
        args = build_parser().parse_args(["simulate", "--p", "p.json", "--n", str(2**63 - 1)])
        assert args.n == 2**63 - 1

    @pytest.mark.parametrize("argv", [["--help"], ["check", "--help"]])
    def test_help_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as stop:
            main(argv)
        assert stop.value.code == 0
        assert capsys.readouterr().out.startswith("usage: rlcm")


@pytest.mark.parametrize("command, message", [
    ("check --q {q} --theta {theta}", "item counts disagree: theta has J=1, Q has J=2"),
    ("counterexample --mode incomplete --params {params} --p {p}",
     "--mode incomplete requires --q"),
    ("counterexample --mode incomplete --q {q} --params {params}",
     "--mode incomplete requires --p"),
    ("counterexample --mode c1-only --k 2 --params {params}",
     "--mode c1-only requires --k, --params and --anchors"),
    ("counterexample --mode c1-only --k 2 --params {params} --anchors 0.1,0.2,0.3",
     "--anchors must hold two comma-separated reals"),
])
def test_input_error_is_named(workdir, capsys, command, message):
    theta = workdir / "theta.json"
    fileio.write_theta_json(theta, ThetaMatrix([[0.1, 0.8]]))
    files = {"q": _write_q(workdir / "q.csv", [[1, 1], [0, 1]]), "theta": theta,
             "params": _write_params(workdir / "params.json", [DinaParams(0.2, 0.1)] * 2, 2),
             "p": _write_p(workdir / "p.json", [0.25] * 4)}
    assert main([a.format(**files) for a in command.split()]) == 1
    assert _one_error_line(capsys) == f"error: {message}\n"


def test_theta_entry_beyond_float_range_is_one_error_line(workdir, capsys):
    # the entry reaches ThetaMatrix as an object array, which is not rejected
    # by dtype; the float cast overflows, and the reader names the file
    big = workdir / "big.json"
    fileio.write_theta_json(big, ThetaMatrix([[0.1, 0.8]]))
    big.write_text(big.read_text().replace("0.8", "1" * 400))
    assert main(["check", "--q", _write_q(workdir / "q.csv", [[1]]), "--theta", str(big)]) == 1
    assert _one_error_line(capsys) == f"error: {big}: int too large to convert to float\n"


def test_simulate_without_out_never_draws(workdir, capsys, monkeypatch):
    draws = []
    monkeypatch.setattr(cli, "simulate", lambda *args: draws.append(args))
    assert main(["simulate", "--n", "100000000000"] + _simulate_inputs(workdir)) == 1
    assert capsys.readouterr().err == "error: simulate requires --out\n"
    assert draws == []

def test_rrum_fit_on_sparse_data(workdir, capsys):
    # EM drives a log-penalty to about -1.4e10 here; exp of it is 0, which
    # the RRUM parameters reject unless the fit clamps it into (0, 1)
    q_path = _write_q(workdir / "q.csv", [[1, 0], [0, 1], [1, 0], [0, 1], [1, 1], [1, 1]])
    data_path = workdir / "data.csv"
    data_path.write_text("0,0,0,1,0,0\n1,1,0,0,1,1\n1,1,1,1,1,0\n1,0,1,0,0,1\n"
                         "0,1,1,0,0,1\n1,0,1,1,0,1\n1,0,0,0,0,0\n1,1,1,1,1,0\n")
    fit_path = workdir / "fit.json"
    assert main(["fit", "--q", q_path, "--data", str(data_path), "--families", "RRUM",
                 "--out", str(fit_path)]) == 0
    items = json.loads(fit_path.read_text())["item_params"]
    assert all(0.0 < r < 1.0 for item in items for r in item["r"])


def test_em_flag_defaults_are_emconfig_defaults():
    parser = build_parser()
    fit = ["fit", "--q", "q.csv", "--data", "d.csv", "--families", "DINA"]
    experiment = ["experiment", "--q", "q.csv", "--params", "p.json", "--p", "p.json",
                  "--families", "DINA", "--n-grid", "100"]
    for argv in fit, experiment:
        assert _em_config(parser.parse_args(argv)) == EmConfig()


class TestExperimentCommand:
    def test_small_grid(self, workdir, capsys):
        q_path = _write_q(workdir / "q.csv", stacked_identity(2, 3).entries)
        params = _write_params(workdir / "params.json", [DinaParams(0.2, 0.1)] * 6, 2)
        p = _write_p(workdir / "p.json", [0.25] * 4)
        out = workdir / "table.json"
        code = main(["experiment", "--q", q_path, "--params", params, "--p", p,
                     "--families", "DINA", "--n-grid", "300,600",
                     "--replications", "1", "--restarts", "2",
                     "--max-iters", "300", "--seed", "2", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["format"] == "consistency-table"
        assert len(doc["rows"]) == 2


class TestSchema:
    def test_schema_flag(self, capsys):
        assert main(["--schema"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert "theta-matrix" in doc and "q-matrix-csv" in doc

    def test_console_script_installed(self):
        result = subprocess.run([sys.executable, "-m", "rlcm.cli", "--schema"],
                                capture_output=True, text=True, env=child_env())
        assert result.returncode == 0
        assert "proportion-vector" in result.stdout


class TestFileFormats:
    def test_theta_roundtrip(self, workdir):
        theta = ThetaMatrix([[0.1, 0.8], [0.2, 0.9]])
        path = workdir / "theta.json"
        fileio.write_theta_json(path, theta)
        assert fileio.read_theta_json(path) == theta

    def test_params_roundtrip(self, workdir):
        from rlcm import GdinaParams, LlmParams, RrumParams
        from rlcm import DinoParams
        params = [
            DinaParams(0.2, 0.1),
            DinoParams(0.25, 0.15),
            GdinaParams({frozenset(): 0.1, frozenset({0, 1}): 0.7}),
            LlmParams(-0.5, (1.0, 2.0)),
            RrumParams(0.9, (0.3, 0.4)),
        ]
        path = workdir / "params.json"
        fileio.write_item_params_json(path, params, 2)
        back, k = fileio.read_item_params_json(path)
        assert k == 2
        assert back[0] == params[0] and back[1] == params[1]
        assert dict(back[2].beta) == dict(params[2].beta)
        assert back[3] == params[3] and back[4] == params[4]

    def test_foreign_order_rejected(self, workdir):
        path = workdir / "p.json"
        path.write_text(json.dumps({
            "format": "proportion-vector", "K": 1,
            "order": "gray-code", "probs": [0.5, 0.5]}))
        with pytest.raises(fileio.FileFormatError, match="order"):
            fileio.read_proportion_json(path)

    def test_pair_reread_reverifies(self, workdir):
        from rlcm import c1_only_counterexample
        pair = c1_only_counterexample(2, [[1]], [DinaParams(0.2, 0.1)] * 5,
                                      1.0, (0.12, 0.08))
        path = workdir / "pair.json"
        fileio.write_pair_json(path, pair)
        back = fileio.read_pair_json(path)
        assert back.max_distribution_gap <= 1e-10
        assert back.parameter_distance == pytest.approx(pair.parameter_distance)

    def test_tampered_pair_rejected(self, workdir, capsys):
        from rlcm import c1_only_counterexample
        pair = c1_only_counterexample(2, [[1]], [DinaParams(0.2, 0.1)] * 5,
                                      1.0, (0.12, 0.08))
        path = workdir / "pair.json"
        fileio.write_pair_json(path, pair)
        doc = json.loads(path.read_text())
        doc["second"]["theta"][0][0] += 0.2  # breaks the distribution equality
        path.write_text(json.dumps(doc))
        assert main(["verify-pair", "--pair", str(path)]) == 1
        assert "gap" in capsys.readouterr().err

    def test_response_csv_roundtrip(self, workdir):
        from rlcm import ResponseData
        data = ResponseData.from_matrix([[1, 0], [0, 1], [1, 1]])
        path = workdir / "data.csv"
        fileio.write_response_csv(path, data)
        assert np.array_equal(fileio.read_response_csv(path).codes, data.codes)
