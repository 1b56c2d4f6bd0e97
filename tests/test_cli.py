import argparse
import json
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from rlcm import (
    DinaParams,
    EmConfig,
    GdinaParams,
    LlmParams,
    ProportionVector,
    QMatrix,
    ThetaMatrix,
    build_tmatrix,
    marginal_vector,
    response_distribution,
    weight_graded_order,
)
from rlcm import cli, core, fileio, inference
from rlcm.cli import _em_config, build_parser, main

from helpers import (
    child_env,
    random_proportions,
    random_theta,
    reference_tmatrix_text,
    stacked_identity,
)


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


def _dump_peak(workdir, n_items, n_attributes) -> int:
    """The ``tracemalloc`` peak of ``rlcm tmatrix --p --out`` on a random
    table of ``n_items`` items and ``n_attributes`` attributes."""
    rng = np.random.default_rng(15)
    theta_path = workdir / "theta.json"
    fileio.write_theta_json(theta_path, random_theta(rng, n_items, n_attributes))
    argv = ["tmatrix", "--theta", str(theta_path),
            "--p", _write_p(workdir / "p.json",
                            random_proportions(rng, n_attributes).probs),
            "--out", str(workdir / "table.csv")]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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

    # 2**5 = 32 display rows: blocks of 3 and 5 leave a short last block, 64
    # makes one block of them all
    @pytest.mark.parametrize("rows", [3, 5, 64])
    @pytest.mark.parametrize("order", ["binary", "weight"])
    @pytest.mark.parametrize("with_p", [False, True])
    @pytest.mark.parametrize("to_file", [False, True])
    def test_blocked_dump_is_the_one_string_dump(self, workdir, capsys, monkeypatch,
                                                  rows, order, with_p, to_file):
        rng = np.random.default_rng(rows)
        theta, p = random_theta(rng, 5, 2), random_proportions(rng, 2)
        theta_path = workdir / "theta.json"
        fileio.write_theta_json(theta_path, theta)
        theta = fileio.read_theta_json(theta_path)
        argv = ["tmatrix", "--theta", str(theta_path), "--display-order", order]
        if with_p:
            argv += ["--p", _write_p(workdir / "p.json", p.probs)]
        if to_file:
            argv += ["--out", str(workdir / "table.csv")]
        # the block rule, patched down to ``rows`` rows of 2**2 doubles
        monkeypatch.setattr(inference, "CHUNK_BYTES", rows * 8 * 2**2)
        parts = []
        write_text = fileio.write_text
        monkeypatch.setattr(fileio, "write_text",
                            lambda path, text: write_text(path, parts.extend(text) or parts))
        assert main(argv) == 0
        blocks = -(-32 // rows)
        # the header, the table's blocks, then the vectors' header and blocks
        assert len(parts) == 1 + blocks + with_p * (1 + blocks)
        out = (workdir / "table.csv").read_text() if to_file else capsys.readouterr().out
        assert out == reference_tmatrix_text(theta, p if with_p else None, order)

    def test_dump_peak_memory_is_a_few_tables(self, workdir):
        # the 2**15 x 2**3 table is 2 MiB and its dump 7.1 MiB of text: formed
        # as one string, with every line held first, the peak was 30 MiB
        assert _dump_peak(workdir, 15, 3) <= 4 * 2 * 2**20

    def test_wide_dump_peak_memory_is_a_few_tables(self, workdir):
        # the 2**4 x 2**15 table is 4 MiB, each row 256 KiB: dumped a row at a
        # time the peak is 10 MiB, with the E-step's floor of 21 rows (the
        # whole table as one block of text) it was 34 MiB
        assert _dump_peak(workdir, 4, 15) <= 4 * 4 * 2**20

    @pytest.mark.parametrize("bad", ["p-json", "p-size", "theta-json"])
    @pytest.mark.parametrize("to_file", [False, True])
    def test_rejected_dump_writes_nothing(self, workdir, capsys, bad, to_file):
        theta_path, p_path = workdir / "theta.json", workdir / "p.json"
        fileio.write_theta_json(theta_path, ThetaMatrix([[0.1, 0.8], [0.2, 0.9]]))
        _write_p(p_path, [0.1, 0.2, 0.3, 0.4] if bad == "p-size" else [0.5, 0.5])
        if bad == "p-json":
            p_path.write_text('{"format": "proportion-vector", "K": 1')
        if bad == "theta-json":
            theta_path.write_text("[")
        out = workdir / "table.csv"
        argv = ["tmatrix", "--theta", str(theta_path), "--p", str(p_path)]
        assert main(argv + ["--out", str(out)] if to_file else argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")
        assert not out.exists()


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

    @pytest.mark.parametrize("j, k", [("12", "15"), ("10", "17")])
    def test_four_tables_past_the_cap_rejected_before_the_draw(self, capsys, j, k):
        # one 2**J x 2**K table is 1 GiB here, and the check holds four
        assert main(["verify-transform", "--j", j, "--k", k]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: 4 dense tables 2^{j} x 2^{k} exceed 2147483648 bytes\n"

    def test_the_cap_accepts_four_tables_within_the_byte_cap(self, monkeypatch, capsys):
        # an accepted call stops at its draw, so no table is formed
        class Drawn(Exception):
            pass

        def no_draw(seed):
            raise Drawn

        monkeypatch.setattr(np.random, "default_rng", no_draw)
        accepted = set()
        for j in range(1, 13):
            for k in range(1, 21):
                try:
                    assert main(["verify-transform", "--j", str(j), "--k", str(k)]) == 1
                except Drawn:
                    accepted.add((j, k))
        capsys.readouterr()
        assert accepted == {(j, k) for j in range(1, 13) for k in range(1, 21)
                            if 32 << (j + k) <= core.MAX_TABLE_BYTES}


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
        ("1e3", "invalid int value: '1e3'"), ("-1", "-1 is negative")])
    @pytest.mark.parametrize("argv, prefix", [
        (["simulate", "--p", "p.json", "--n"], ""),
        (["fit", "--q", "q.csv", "--data", "d.csv", "--families", "DINA", "--restarts"], ""),
        (["fit", "--q", "q.csv", "--data", "d.csv", "--families", "DINA", "--max-iters"], ""),
        (["experiment", "--q", "q.csv", "--params", "i.json", "--p", "p.json",
          "--families", "DINA", "--n-grid", "100", "--replications"], ""),
        (["experiment", "--q", "q.csv", "--params", "i.json", "--p", "p.json",
          "--families", "DINA", "--n-grid"], "100,200,"),
        (["verify-transform", "--j", "2", "--k", "1", "--seed"], ""),
        (["fit", "--q", "q.csv", "--data", "d.csv", "--families", "DINA", "--seed"], ""),
    ], ids=["n", "restarts", "max-iters", "replications", "n-grid", "seed", "fit-seed"])
    def test_every_count_flag_is_named(self, capsys, argv, prefix, value, message):
        # the value is checked while parsing, before any file is read
        assert main(argv + [prefix + value]) == 1
        line = _one_error_line(capsys)
        assert f"argument {argv[-1]}: " in line and message in line

    def test_largest_count_is_accepted_by_the_parser(self):
        args = build_parser().parse_args(["simulate", "--p", "p.json", "--n", str(2**63 - 1),
                                          "--out", "out.csv"])
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
     "rlcm counterexample: argument --anchors: expected two comma-separated reals, "
     "got '0.1,0.2,0.3'"),
    ("counterexample --mode c1-only --k 2 --params {params} --anchors x",
     "rlcm counterexample: argument --anchors: expected two comma-separated reals, got 'x'"),
    ("counterexample --mode c1-only --k 0 --params {params} --anchors 0.1,0.2",
     "--mode c1-only needs --k of at least 2, got 0"),
    ("counterexample --mode c1-only --k -1 --params {params} --anchors 0.1,0.2",
     "--mode c1-only needs --k of at least 2, got -1"),
    ("experiment --q {q} --params {params} --p {p} --families DINA,DINA,DINA --n-grid 100",
     "expected 1 or 2 family names, got 3"),
])
def test_input_error_is_named(workdir, capsys, command, message):
    theta = workdir / "theta.json"
    fileio.write_theta_json(theta, ThetaMatrix([[0.1, 0.8]]))
    files = {"q": _write_q(workdir / "q.csv", [[1, 1], [0, 1]]), "theta": theta,
             "params": _write_params(workdir / "params.json", [DinaParams(0.2, 0.1)] * 2, 2),
             "p": _write_p(workdir / "p.json", [0.25] * 4)}
    assert main([a.format(**files) for a in command.split()]) == 1
    assert _one_error_line(capsys) == f"error: {message}\n"


def test_params_of_another_k_is_named(workdir, capsys):
    # not an input of test_input_error_is_named: the line names the file's path
    q = _write_q(workdir / "q.csv", [[1, 1], [0, 1]])
    params = _write_params(workdir / "params.json", [DinaParams(0.2, 0.1)] * 2, 3)
    assert main(["check", "--q", q, "--params", params]) == 1
    assert _one_error_line(capsys) == \
        f"error: {params}: item parameters declare K=3, expected K=2\n"


@pytest.mark.parametrize("item, message", [
    (LlmParams(1e308, (1e308, 1e308)), "LLM: item 0 coefficients sum beyond float range"),
    (GdinaParams({frozenset(): 0.25, frozenset({0}): 0.5}),
     "item 0: GDINA: partial sum 1e+308 outside [0, 1]"),
], ids=["LLM", "GDINA"])
def test_coefficient_sum_beyond_float_range_is_one_error_line(workdir, capsys, item, message):
    # under the error::RuntimeWarning filter an overflow warning would fail the run
    params = _write_params(workdir / "params.json", [item], 2)
    with open(params) as f:
        text = f.read()
    with open(params, "w") as f:
        f.write(text.replace("0.25", "1e308").replace("0.5", "1e308"))
    assert main(["check", "--q", _write_q(workdir / "q.csv", [[1, 1]]), "--params", params]) == 1
    assert _one_error_line(capsys) == f"error: {params}: {message}\n"


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
    assert capsys.readouterr().err == \
        "error: rlcm simulate: the following arguments are required: --out\n"
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


def test_successive_calls_share_no_parsed_state(workdir, capsys):
    # main parses every call with the one parser of the process
    assert cli._parser() is cli._parser()
    q = _write_q(workdir / "q.csv", [[1, 0], [0, 1], [1, 1]])
    out = workdir / "out.json"
    assert main(["verify-transform", "--j", "2", "--k", "1", "--seed", "5"]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 5
    assert main(["verify-transform", "--j", "2", "--k", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 0
    assert main(["check", "--q", q, "--out", str(out)]) == 3
    assert capsys.readouterr().out == "" and out.is_file()
    out.unlink()
    assert main(["check", "--q", q]) == 3
    assert json.loads(capsys.readouterr().out)["c1_holds"] is False and not out.exists()


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


def test_experiment_rejects_a_sample_size_below_one_in_one_line(workdir, capsys):
    # on a not-covered design the verdict's warning came before the error
    q = _write_q(workdir / "q.csv", [[1, 0], [0, 1], [1, 0], [0, 1], [1, 1]])
    params = _write_params(workdir / "params.json", [DinaParams(0.2, 0.1)] * 5, 2)
    p = _write_p(workdir / "p.json", [0.25] * 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["experiment", "--q", q, "--params", params, "--p", p,
                     "--families", "DINA", "--n-grid", "200,0"]) == 1
    assert _one_error_line(capsys) == "error: n_grid[1] must be at least 1, got 0\n"


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
