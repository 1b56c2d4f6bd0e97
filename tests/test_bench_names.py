"""The benchmark's tracer wraps library functions by module-global name.

Every ``<module>.<function>.self_s`` metric in ``BENCHMARK.json`` outside the
``cli.`` spans must name a callable of ``rlcm.<module>``; a renamed or
deleted function would leave its metric silently empty.  The per-layer EM
counts are read off each traced ``em_fit`` call, so an experiment makes one
``inference.em_fit`` call per sample size and replication, and ``rlcm fit``
one ``cli.em_fit`` call.
"""

import importlib
import json
from pathlib import Path

import pytest

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def _wrapped_names():
    metrics = json.loads(BENCHMARK.read_text(encoding="utf-8"))["per_layer"]
    return [m["name"].removesuffix(".self_s") for m in metrics
            if m["name"].endswith(".self_s") and not m["name"].startswith("cli.")]


def test_benchmark_wraps_library_functions():
    # an empty list would leave the check below with nothing to check
    assert _wrapped_names()


@pytest.mark.parametrize("name", _wrapped_names())
def test_wrapped_name_is_a_function_of_its_module(name):
    module, function = name.split(".")
    assert callable(getattr(importlib.import_module(f"rlcm.{module}"), function, None))


def _counted(monkeypatch, module, calls):
    """Count the calls of ``module.em_fit``, the name the tracer wraps."""
    em_fit = module.em_fit

    def counted(*args, **kwargs):
        calls.append(None)
        return em_fit(*args, **kwargs)

    monkeypatch.setattr(module, "em_fit", counted)


def test_experiment_fits_once_per_size_and_replication(monkeypatch):
    # the per-layer EM counts of an experiment are taken per traced em_fit
    # call, so a fit shared across sizes or replications would blank them
    from rlcm import DinaParams, EmConfig, ProportionVector, QMatrix, consistency_experiment
    from rlcm import inference

    calls = []
    _counted(monkeypatch, inference, calls)
    q = QMatrix([[1, 0], [0, 1], [1, 0], [0, 1], [1, 0], [0, 1]])
    consistency_experiment(q, ["DINA"] * 6, [DinaParams(0.2, 0.1)] * 6,
                           ProportionVector([0.25] * 4), n_grid=[100, 200], replications=2,
                           seed=1, em_config=EmConfig(max_iters=5, restarts=3))
    assert len(calls) == 2 * 2


def test_rlcm_fit_fits_once(monkeypatch, tmp_path):
    from rlcm import QMatrix, ResponseData, cli, fileio

    calls = []
    _counted(monkeypatch, cli, calls)
    fileio.write_qmatrix_csv(tmp_path / "q.csv", QMatrix([[1, 0], [0, 1], [1, 1]]))
    fileio.write_response_csv(tmp_path / "data.csv", ResponseData([0, 7, 3, 5, 6, 1], 3))
    assert cli.main(["fit", "--q", str(tmp_path / "q.csv"), "--data", str(tmp_path / "data.csv"),
                     "--families", "DINA", "--restarts", "3", "--max-iters", "5",
                     "--out", str(tmp_path / "fit.json")]) == 0
    assert len(calls) == 1
