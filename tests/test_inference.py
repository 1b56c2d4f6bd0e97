import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rlcm import (
    DimensionError,
    DinaParams,
    EmConfig,
    EmError,
    ProportionVector,
    QMatrix,
    ResponseData,
    ThetaMatrix,
    build_tmatrix,
    consistency_experiment,
    dina_params_from_theta,
    em_fit,
    empirical_gamma,
    loglik,
    marginal_vector,
    simulate,
    theta_from_params,
)
from rlcm import inference
from rlcm.models import _two_rate_update

from helpers import random_proportions, random_theta, reference_simulate, stacked_identity


def _dina_setup(copies=3, s=0.2, g=0.1):
    q = stacked_identity(2, copies)
    params = [DinaParams(s, g)] * q.n_items
    theta = theta_from_params(q, params)
    p = ProportionVector([0.27, 0.24, 0.26, 0.23])
    return q, params, theta, p


# a sparse RRUM design on which EM drives a penalty below the smallest double
RRUM_SPARSE_Q = QMatrix([[1, 0], [0, 1], [1, 0], [0, 1], [1, 1], [1, 1]])
RRUM_SPARSE_DATA = ResponseData.from_matrix(np.array([
    [0, 0, 0, 1, 0, 0], [1, 1, 0, 0, 1, 1], [1, 1, 1, 1, 1, 0], [1, 0, 1, 0, 0, 1],
    [0, 1, 1, 0, 0, 1], [1, 0, 1, 1, 0, 1], [1, 0, 0, 0, 0, 0], [1, 1, 1, 1, 1, 0]]))


class TestResponseData:
    def test_matrix_roundtrip(self):
        mat = np.array([[1, 0, 1], [0, 0, 0], [1, 1, 1]])
        data = ResponseData.from_matrix(mat)
        assert data.n_subjects == 3 and data.n_items == 3
        assert np.array_equal(data.to_matrix(), mat)

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            ResponseData.from_matrix([[0, 2]])
        with pytest.raises(ValueError):
            ResponseData(np.array([4]), 2)

    @pytest.mark.parametrize("codes", [np.array([0.5, 2.9]), np.array(["1", "2"]),
                                       np.array([1.0, 2.0]), np.array([True, False])])
    def test_rejects_codes_that_are_not_integers(self, codes):
        # a cast would truncate 2.9 to 2 and parse "1" as 1
        with pytest.raises(TypeError, match="response codes must be integers"):
            ResponseData(codes, 2)

    @pytest.mark.parametrize("matrix", [
        np.array([[0, 1, 1], [1, 0, 0]], dtype=np.int8),
        np.array([[False, True], [True, True]]),
        np.array([[0.0, 1.0], [-0.0, 1.0]]),
        np.array([[1, 0]], dtype=np.uint64),
    ])
    def test_accepts_zeros_and_ones_of_any_dtype(self, matrix):
        assert np.isin(matrix, (0, 1)).all()
        weights = (1 << np.arange(matrix.shape[1])).astype(np.int64)
        codes = ResponseData.from_matrix(matrix).codes
        assert codes.dtype == np.int64
        assert np.array_equal(codes, matrix.astype(np.int64) @ weights)

    @pytest.mark.parametrize("n_items", [21, 70, 200])
    def test_too_many_items_rejected_without_a_cast_warning(self, n_items):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DimensionError, match=f"item count {n_items} outside"):
                ResponseData.from_matrix(np.ones((2, n_items), dtype=np.int8))

    @pytest.mark.parametrize("bad", [2, -1, 0.5, np.nan, np.inf])
    def test_rejects_what_is_not_zero_or_one(self, bad):
        matrix = np.array([[0.0, 1.0], [1.0, bad]])
        assert not np.isin(matrix, (0, 1)).all()
        with pytest.raises(ValueError, match="responses must be 0 or 1"):
            ResponseData.from_matrix(matrix)
        if bad in (2, -1):
            with pytest.raises(ValueError, match="responses must be 0 or 1"):
                ResponseData.from_matrix(matrix.astype(np.int8))


class TestSimulate:
    @pytest.mark.parametrize("n_items", [1, 16, 20])
    @pytest.mark.parametrize("seed", range(5))
    def test_codes_match_the_int64_packing(self, n_items, seed):
        rng = np.random.default_rng(100 * n_items + seed)
        theta, p = random_theta(rng, n_items, 3), random_proportions(rng, 3)
        data = simulate(theta, p, 2000, seed)
        assert data.codes.dtype == np.int64
        assert np.array_equal(data.codes, reference_simulate(theta, p, 2000, seed))

    def test_deterministic(self):
        _, _, theta, p = _dina_setup()
        a = simulate(theta, p, 500, seed=9)
        b = simulate(theta, p, 500, seed=9)
        assert np.array_equal(a.codes, b.codes)
        c = simulate(theta, p, 500, seed=10)
        assert not np.array_equal(a.codes, c.codes)

    def test_sure_item_always_positive(self):
        theta = ThetaMatrix([[1.0, 1.0], [0.3, 0.7]])
        p = ProportionVector([1e-6, 1 - 1e-6])
        data = simulate(theta, p, 200, seed=1)
        assert (data.to_matrix()[:, 0] == 1).all()

    def test_item_means_match_model(self):
        _, _, theta, p = _dina_setup()
        n = 100_000
        data = simulate(theta, p, n, seed=4)
        means = data.to_matrix().mean(axis=0)
        expected = theta.values @ p.probs
        se = np.sqrt(expected * (1 - expected) / n)
        assert (np.abs(means - expected) <= 4 * se).all()


class TestEmpiricalGamma:
    def test_single_subject(self):
        data = ResponseData.from_matrix([[1, 0]])
        assert empirical_gamma(data).tolist() == [1.0, 1.0, 0.0, 0.0]

    def test_monotone_along_chains(self):
        rng = np.random.default_rng(0)
        data = ResponseData(rng.integers(0, 16, size=300), 4)
        gamma = empirical_gamma(data)
        for r in range(16):
            for rp in range(16):
                if rp & r == r:  # rp dominates r
                    assert gamma[rp] <= gamma[r] + 1e-15

    def test_law_of_large_numbers(self):
        _, _, theta, p = _dina_setup()
        data = simulate(theta, p, 100_000, seed=12)
        gamma = empirical_gamma(data)
        marginals = marginal_vector(build_tmatrix(theta), p)
        assert np.abs(gamma - marginals).max() <= 0.01


class TestLoglik:
    def test_fair_coin(self):
        data = ResponseData.from_matrix([[1]])
        theta = ThetaMatrix([[0.5, 0.5]])
        p = ProportionVector([0.4, 0.6])
        assert loglik(data, theta, p) == pytest.approx(math.log(0.5))

    def test_duplication_doubles(self):
        rng = np.random.default_rng(3)
        theta = random_theta(rng, 4, 2)
        p = random_proportions(rng, 2)
        data = simulate(theta, p, 100, seed=5)
        doubled = ResponseData(np.concatenate([data.codes, data.codes]), data.n_items)
        assert loglik(doubled, theta, p) == pytest.approx(2 * loglik(data, theta, p))

    def test_truth_beats_perturbation_at_scale(self):
        q, _, theta, p = _dina_setup()
        data = simulate(theta, p, 100_000, seed=8)
        perturbed = ThetaMatrix(np.clip(theta.values + 0.05, 0.0, 1.0))
        assert loglik(data, theta, p) > loglik(data, perturbed, p)


class TestTwoRateUpdate:
    def test_hard_posterior_counting(self):
        # with 0/1 posteriors the update is plain counting per group
        pos = np.array([3.0, 10.0, 2.0, 40.0])
        tot = np.array([30.0, 20.0, 10.0, 50.0])
        capable = np.array([False, True, False, True])
        high, low = _two_rate_update(pos, tot, capable, ( 0.7, 0.2))
        assert high == pytest.approx(50.0 / 70.0)
        assert low == pytest.approx(5.0 / 40.0)

    def test_boundary_pooling(self):
        pos = np.array([8.0, 2.0])
        tot = np.array([10.0, 10.0])
        capable = np.array([False, True])
        high, low = _two_rate_update(pos, tot, capable, (0.7, 0.2))
        assert high == low == pytest.approx(0.5)


class TestEmFit:
    def test_zero_iterations_returns_initialization(self):
        q, _, theta, p = _dina_setup()
        data = simulate(theta, p, 1000, seed=2)
        fit = em_fit(data, q, ["DINA"] * 6,
                     EmConfig(max_iters=0, restarts=1, seed=0))
        assert len(fit.loglik_trace) == 1
        assert not fit.converged

    def test_trace_non_decreasing_all_families(self):
        rng = np.random.default_rng(17)
        q = QMatrix([[1, 0], [0, 1], [1, 1], [1, 0], [0, 1]])
        theta = random_theta(rng, 5, 2)
        # make the table monotone enough to be realistic but arbitrary
        data = simulate(theta, random_proportions(rng, 2), 2000, seed=3)
        for family in ("DINA", "DINO", "GDINA", "LLM", "RRUM"):
            fit = em_fit(data, q, [family] * 5,
                         EmConfig(max_iters=150, restarts=2, seed=11))
            assert (np.diff(fit.loglik_trace) >= -1e-8).all()

    def test_mixed_families(self):
        q, _, theta, p = _dina_setup()
        data = simulate(theta, p, 4000, seed=21)
        families = ("DINA", "DINO", "GDINA", "LLM", "RRUM", "DINA")
        fit = em_fit(data, q, families, EmConfig(max_iters=300, restarts=2, seed=1))
        assert [type(pp).__name__ for pp in fit.item_params_hat] == [
            "DinaParams", "DinoParams", "GdinaParams", "LlmParams",
            "RrumParams", "DinaParams"]
        assert (np.diff(fit.loglik_trace) >= -1e-8).all()

    def test_recovers_dina_parameters(self):
        q, params, theta, p = _dina_setup()
        data = simulate(theta, p, 20_000, seed=6)
        fit = em_fit(data, q, ["DINA"] * 6, EmConfig(restarts=4, seed=2))
        s_err = max(abs(pp.s - 0.2) for pp in fit.item_params_hat)
        g_err = max(abs(pp.g - 0.1) for pp in fit.item_params_hat)
        assert s_err <= 0.05 and g_err <= 0.05
        assert np.abs(fit.p_hat.probs - p.probs).max() <= 0.05

    def test_explicit_initialization_used(self):
        q, params, theta, p = _dina_setup()
        data = simulate(theta, p, 2000, seed=13)
        cfg = EmConfig(max_iters=0, restarts=1, seed=0,
                       init_params=tuple(params), init_p=p)
        fit = em_fit(data, q, ["DINA"] * 6, cfg)
        assert fit.loglik_trace[0] == pytest.approx(loglik(data, theta, p))
        assert np.abs(fit.theta_hat.values - theta.values).max() < 1e-9

    def test_init_p_alone_is_used(self):
        q, _, theta, p = _dina_setup()
        data = simulate(theta, p, 1000, seed=2)
        fit = em_fit(data, q, ["DINA"] * 6,
                     EmConfig(max_iters=0, restarts=1, seed=0, init_p=p))
        assert np.abs(fit.p_hat.probs - p.probs).max() <= 1e-15

    def test_failed_restart_not_counted_and_written_as_null(self, monkeypatch, tmp_path):
        from rlcm import fileio, inference
        real_run_em = inference._run_em
        calls = []

        def second_restart_fails(*args, **kwargs):
            calls.append(None)
            if len(calls) == 2:
                raise EmError("injected failure")
            return real_run_em(*args, **kwargs)

        monkeypatch.setattr(inference, "_run_em", second_restart_fails)
        q, _, theta, p = _dina_setup()
        data = simulate(theta, p, 500, seed=3)
        fit = em_fit(data, q, ["DINA"] * 6, EmConfig(max_iters=20, restarts=3, seed=0))
        assert fit.restarts_used == 2
        assert math.isnan(fit.restart_logliks[1])
        path = tmp_path / "fit.json"
        fileio.write_fit_json(path, fit, q.n_attributes)

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        doc = json.loads(path.read_text(), parse_constant=reject)
        assert doc["restarts_used"] == 2
        assert doc["restart_logliks"][1] is None

    def test_rrum_penalty_driven_to_zero_still_gives_parameters(self):
        # sparse data clamp some groups' rates, so Newton drives log-penalties
        # far enough below that exp underflows; the fit clamps them into (0, 1)
        fit = em_fit(RRUM_SPARSE_DATA, RRUM_SPARSE_Q, ["RRUM"] * 6, EmConfig())
        for item in fit.item_params_hat:
            assert 0.0 < item.pi <= 1.0
            assert all(0.0 < r < 1.0 for r in item.r)
        assert fit.theta_hat.is_probability

    def test_p_hat_floor_keeps_classes_alive(self):
        # all-positive responses push some class masses toward zero
        q = stacked_identity(2, 2)
        data = ResponseData.from_matrix(np.ones((50, 4), dtype=int))
        fit = em_fit(data, q, ["DINA"] * 4, EmConfig(max_iters=50, restarts=1, seed=0))
        assert (fit.p_hat.probs > 0).all()
        assert fit.p_hat.probs.sum() == pytest.approx(1.0)

    def test_rejects_unknown_family(self):
        q, _, theta, p = _dina_setup()
        data = simulate(theta, p, 100, seed=0)
        with pytest.raises(ValueError, match="family"):
            em_fit(data, q, ["DINA"] * 5 + ["NOPE"])

    def test_equal_loglik_at_both_members_of_counterexample(self):
        from rlcm import c1_only_counterexample, c1_only_design
        pair = c1_only_counterexample(
            2, [[1]], [DinaParams(0.2, 0.1)] * 5, 1.0, (0.2, 0.2))
        q = c1_only_design(2, [[1]])
        theta_a, p_a = pair.first
        theta_b, p_b = pair.second
        data = simulate(theta_a, p_a, 30_000, seed=14)
        fits = []
        for member_theta, member_p in (pair.first, pair.second):
            cfg = EmConfig(restarts=1, seed=1,
                           init_params=tuple(dina_params_from_theta(q, member_theta)),
                           init_p=member_p)
            fits.append(em_fit(data, q, ["DINA"] * 5, cfg))
        ll_a, ll_b = (fit.loglik_trace[-1] for fit in fits)
        # both members are optima of the same limiting likelihood
        assert abs(ll_a - ll_b) / abs(ll_a) < 1e-4
        theta_hat_a = fits[0].theta_hat.values
        theta_hat_b = fits[1].theta_hat.values
        assert np.abs(theta_hat_a - theta_hat_b).max() > 0.05


_NOT_INTEGERS = st.one_of(st.booleans(), st.floats(), st.text(), st.none(),
                          st.lists(st.integers(), max_size=2))
# for every field, values of the wrong type and values out of range
WRONG_KNOBS = {
    "max_iters": st.one_of(_NOT_INTEGERS, st.integers(max_value=-1)),
    "restarts": st.one_of(_NOT_INTEGERS, st.integers(max_value=0)),
    "seed": st.one_of(_NOT_INTEGERS, st.integers(max_value=-1)),
    "tol": st.one_of(st.booleans(), st.text(), st.lists(st.floats(), max_size=2),
                     st.floats(max_value=0.0), st.just(float("nan"))),
    "init_params": st.one_of(st.integers(), st.text(), st.floats(),
                             st.lists(st.one_of(st.floats(), st.none()), min_size=1),
                             st.just((DinaParams(0.2, 0.1), "DINA"))),
    "init_p": st.one_of(st.integers(), st.text(), st.lists(st.floats(0.0, 1.0), min_size=1),
                        st.just(np.full(4, 0.25)), st.just(DinaParams(0.2, 0.1))),
}


class TestEmConfig:
    @pytest.mark.parametrize("field, value, error", [
        ("max_iters", -1, ValueError),
        ("restarts", 0, ValueError),
        ("tol", float("nan"), ValueError),
        ("seed", -1, ValueError),
        ("max_iters", 2.5, TypeError),
        ("restarts", 2.0, TypeError),
        ("seed", 1.5, TypeError),
        ("max_iters", True, TypeError),
        ("restarts", True, TypeError),
        ("init_p", [0.25] * 4, TypeError),
        ("init_params", 3, TypeError),
    ])
    def test_rejects_at_construction(self, field, value, error):
        with pytest.raises(error, match=field):
            EmConfig(**{field: value})

    @given(st.sampled_from(sorted(WRONG_KNOBS)).flatmap(
        lambda field: st.tuples(st.just(field), WRONG_KNOBS[field])))
    def test_contract_every_wrong_knob_raises_at_construction(self, case):
        field, value = case
        with pytest.raises((TypeError, ValueError), match=field):
            EmConfig(**{field: value})

    def test_init_p_of_another_size_is_named(self):
        q, _, theta, p = _dina_setup()
        with pytest.raises(DimensionError, match="attribute counts disagree: Q has K=2, init_p has K=3"):
            em_fit(simulate(theta, p, 50, 0), q, ["DINA"] * 6,
                   EmConfig(init_p=ProportionVector(np.full(8, 0.125))))

    def test_accepts_numpy_integers(self):
        config = EmConfig(max_iters=np.int64(3), restarts=np.int32(1), seed=np.uint8(2))
        q, params, theta, p = _dina_setup(copies=1)
        assert em_fit(simulate(theta, p, 50, 0), q, ["DINA"] * 2, config).restarts_used == 1


class TestConsistencyExperiment:
    def test_smoke_single_replication(self):
        q, params, theta, p = _dina_setup()
        table = consistency_experiment(
            q, ["DINA"] * 6, params, p, n_grid=[200], replications=1, seed=5,
            em_config=EmConfig(max_iters=200, restarts=2, seed=0))
        assert len(table.records) == 1
        assert table.records[0].n_subjects == 200
        assert set(table.medians()) == {200}

    def test_warns_on_uncovered_design(self):
        q = QMatrix([[1, 1], [0, 1]])
        params = [DinaParams(0.2, 0.1), DinaParams(0.1, 0.2)]
        p = ProportionVector([0.25] * 4)
        with pytest.warns(UserWarning, match="verdict"):
            consistency_experiment(
                q, ["DINA"] * 2, params, p, n_grid=[100], replications=1,
                seed=3, em_config=EmConfig(max_iters=50, restarts=1, seed=0))

    def test_rejects_zero_replications(self):
        q, params, theta, p = _dina_setup()
        with pytest.raises(ValueError, match="at least one replication"):
            consistency_experiment(q, ["DINA"] * 6, params, p, n_grid=[200],
                                   replications=0, seed=5)

    def test_to_dict_shape(self):
        q, params, theta, p = _dina_setup()
        table = consistency_experiment(
            q, ["DINA"] * 6, params, p, n_grid=[200, 400], replications=2,
            seed=6, em_config=EmConfig(max_iters=100, restarts=1, seed=0))
        doc = table.to_dict()
        assert len(doc["rows"]) == 4
        assert set(doc["median_overall_error"]) == {"200", "400"}


class TestRestartSeeds:
    def test_restarts_draw_the_children_of_one_spawn(self, monkeypatch):
        q, _, theta, p = _dina_setup()
        data = simulate(theta, p, 500, seed=3)
        config = EmConfig(max_iters=20, restarts=5, seed=7)
        lazy = em_fit(data, q, ["DINA"] * 6, config)
        children = iter(np.random.SeedSequence(7).spawn(5))

        class SpawnedUpFront:
            def __init__(self, seed):
                assert seed == 7

            def spawn(self, n):
                return [next(children) for _ in range(n)]

        monkeypatch.setattr(np.random, "SeedSequence", SpawnedUpFront)
        eager = em_fit(data, q, ["DINA"] * 6, config)
        assert eager.restart_logliks == lazy.restart_logliks
        assert len(set(lazy.restart_logliks)) == 5

    def test_restart_seeds_are_not_spawned_before_the_first_fit(self, monkeypatch):
        class FirstFit(Exception):
            pass

        def first_fit(*args):
            raise FirstFit

        monkeypatch.setattr(inference, "_run_em", first_fit)
        q, _, theta, p = _dina_setup()
        data = simulate(theta, p, 100, seed=3)
        tracemalloc.start()
        try:
            with pytest.raises(FirstFit):
                em_fit(data, q, ["DINA"] * 6, EmConfig(restarts=200_000))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
