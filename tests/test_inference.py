import json
import math
import subprocess
import sys
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
    SizeLimitError,
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
from rlcm.models import FAMILIES, FamilyStack, ItemDesign, ItemLayout

from helpers import (
    child_env,
    draw_monotone_params,
    population_patterns,
    random_proportions,
    random_theta,
    reference_group_sums,
    reference_simulate,
    stacked_identity,
)


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

    # blocks of 5 rows of 7 items, 8 bytes each: the matrix's 23 rows end in a
    # block of 3
    @pytest.mark.parametrize("dtype", [np.int8, bool, np.float64])
    def test_packs_across_blocks(self, monkeypatch, dtype):
        monkeypatch.setattr(inference, "CHUNK_BYTES", 5 * 8 * 7)
        matrix = np.random.default_rng(3).integers(0, 2, size=(23, 7)).astype(dtype)
        weights = (1 << np.arange(7)).astype(np.int64)
        assert np.array_equal(ResponseData.from_matrix(matrix).codes,
                              matrix.astype(np.int64) @ weights)
        if dtype is not bool:
            matrix[-1, -1] = 2
            with pytest.raises(ValueError, match="responses must be 0 or 1"):
                ResponseData.from_matrix(matrix)

    def test_pattern_stats_are_formed_once_and_read_only(self, monkeypatch):
        _, _, theta, p = _dina_setup()
        data = simulate(theta, p, 500, seed=3)
        calls = []
        stats = ResponseData._patterns.func
        monkeypatch.setattr(ResponseData._patterns, "func",
                            lambda data: calls.append(data) or stats(data))
        first = loglik(data, theta, p)
        assert loglik(data, theta, p) == first
        em_fit(data, stacked_identity(2, 3), ["DINA"] * 6, EmConfig(max_iters=2, restarts=1))
        assert calls == [data]
        counts, bits_one = data._patterns
        assert not counts.flags.writeable and not bits_one.flags.writeable

    @pytest.mark.parametrize("n_items", [21, 70, 200])
    def test_too_many_items_rejected_without_a_cast_warning(self, n_items):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SizeLimitError, match=f"item count {n_items} outside"):
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

    # N around one block of rows and past three, at the module's own block
    # rule and with blocks of a few rows
    @pytest.mark.parametrize("patched", [None, 5, 64])
    @pytest.mark.parametrize("n_items", [1, 13, 16, 20])
    def test_blocks_draw_the_one_shot_codes(self, monkeypatch, n_items, patched):
        if patched:
            monkeypatch.setattr(inference, "CHUNK_BYTES", patched * 8 * n_items)
        rows = inference.CHUNK_BYTES // (8 * n_items)
        assert inference._blocks(3 * rows + 5, 8 * n_items) == [
            slice(0, rows), slice(rows, 2 * rows), slice(2 * rows, 3 * rows),
            slice(3 * rows, 3 * rows + 5)]
        for n_attributes in (1, 3, 6):
            rng = np.random.default_rng(10 * n_items + n_attributes)
            theta = random_theta(rng, n_items, n_attributes)
            p = random_proportions(rng, n_attributes)
            for seed, n in enumerate([1, rows - 1, rows, rows + 1, 3 * rows + 5]):
                data = simulate(theta, p, n, seed)
                assert np.array_equal(data.codes, reference_simulate(theta, p, n, seed))

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


    def test_simulation_and_its_csv_hold_one_block(self, tmp_path):
        # one BLAS thread, since each thread's buffers count in the peak
        env = dict(child_env(), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        done = subprocess.run([sys.executable, "-c", _HOP, sys.executable, "-c",
                               _SIMULATE_WORKER, str(tmp_path / "data.csv")],
                              capture_output=True, text=True, timeout=120, env=env)
        assert done.returncode == 0, done.stderr
        # ru_maxrss is in KiB on Linux.  The codes and classes are 16 MB;
        # the N x J uniforms and thresholds alone would be 320 MB
        assert int(done.stdout) <= 120 * 1024


# The worker simulates N = 10**6 subjects of J = 20 items, writes them to
# the CSV file named by its argument and prints its peak RSS.  It is started
# through an intermediate interpreter because Linux carries a parent's peak
# RSS into ru_maxrss across fork and exec (see tests/test_tmatrix.py).
_SIMULATE_WORKER = """
import resource, sys
import numpy as np
from rlcm import DinaParams, ProportionVector, QMatrix, fileio, simulate, theta_from_params
q = QMatrix(np.eye(4, dtype=int)[np.arange(20) % 4])
theta = theta_from_params(q, [DinaParams(0.2, 0.1)] * 20)
data = simulate(theta, ProportionVector(np.full(16, 1 / 16)), 10**6, 1)
fileio.write_response_csv(sys.argv[1], data)
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""
_HOP = "import subprocess, sys; sys.exit(subprocess.call(sys.argv[1:]))"


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


def _dina_update(q_row, pos, tot, current):
    """One DINA item's M-step from its per-class expected counts."""
    design = ItemDesign(q_row)
    gpos, gtot = reference_group_sums(design, pos, tot)
    stack = FamilyStack([design], [DinaParams])
    return DinaParams.update(stack, np.array([[current]]), gpos[None], gtot[None])[0, 0]


class TestTwoRateUpdate:
    def test_hard_posterior_counting(self):
        # with 0/1 posteriors the update is plain counting per group; the
        # item requires attribute 0, so profiles 1 and 3 are capable
        pos = np.array([3.0, 10.0, 2.0, 40.0])
        tot = np.array([30.0, 20.0, 10.0, 50.0])
        high, low = _dina_update([1, 0], pos, tot, (0.7, 0.2))
        assert high == pytest.approx(50.0 / 70.0)
        assert low == pytest.approx(5.0 / 40.0)

    def test_boundary_pooling(self):
        pos = np.array([8.0, 2.0])
        tot = np.array([10.0, 10.0])
        high, low = _dina_update([1], pos, tot, (0.7, 0.2))
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

    def test_truth_is_a_fixed_point_of_population_em(self):
        # with every pattern seen N times its probability, the E-step's counts
        # are the truth's own, so every M-step returns the truth
        rng = np.random.default_rng(31)
        n_subjects = 5000.0
        for draw in range(200):
            n_items, n_attributes = int(rng.integers(5, 11)), int(rng.integers(1, 4))
            q = rng.integers(0, 2, size=(n_items, n_attributes))
            q[q.sum(axis=1) == 0, rng.integers(0, n_attributes)] = 1
            q = QMatrix(q)
            families = [*rng.permutation(FAMILIES), *rng.choice(FAMILIES, n_items - 5)]
            params = [draw_monotone_params(rng, fam, row) for fam, row in zip(families, q.entries)]
            theta, p = theta_from_params(q, params), random_proportions(rng, n_attributes)
            designs = [ItemDesign(row) for row in q.entries]
            truth = [par.coef(design, j) for j, (par, design) in enumerate(zip(params, designs))]
            [(_, _, coefs, p_hat)] = inference._run_em(
                *population_patterns(theta, p, n_subjects), ItemLayout(designs, families),
                [(truth, p.probs)], n_subjects, max_iters=1, tol=1e-300)
            moved = max(np.abs(c - t).max() for c, t in zip(coefs, truth))
            assert moved <= 1e-12 and np.abs(p_hat - p.probs).max() <= 1e-12, (draw, moved)

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

        def second_restart_fails(*args, **kwargs):
            outcomes = real_run_em(*args, **kwargs)
            outcomes[1] = EmError("injected failure")
            return outcomes

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


def test_em_fit_holds_one_likelihood_matrix():
    rows = np.eye(12, dtype=int)[np.arange(20) % 12]
    rows[12:, 0] = 1
    q = QMatrix(rows)
    theta = theta_from_params(q, [DinaParams(0.2, 0.1)] * q.n_items)
    data = simulate(theta, random_proportions(np.random.default_rng(1), 12), 2000, seed=2)
    like_bytes = np.unique(data.codes).size * 8 << q.n_attributes
    tracemalloc.start()
    try:
        em_fit(data, q, ["DINA"] * q.n_items, EmConfig(max_iters=2, restarts=2, seed=0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one restart's patterns x 2**12 matrix must die before the next one's is formed
    assert peak <= 1.5 * like_bytes


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

    # N = 0 built the table and warned of the verdict before simulate rejected it
    @pytest.mark.parametrize("n_grid, i, n", [([0], 0, 0), ([200, -3], 1, -3)])
    def test_rejects_sample_sizes_below_one_before_any_table(self, monkeypatch,
                                                              n_grid, i, n):
        q = QMatrix([[1, 0], [0, 1], [1, 0], [0, 1], [1, 1]])     # not covered
        params = [DinaParams(0.2, 0.1)] * 5
        monkeypatch.setattr(inference, "theta_from_params", None)   # no table is built
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=rf"^n_grid\[{i}\] must be at least 1, "
                                                 rf"got {n}$"):
                consistency_experiment(q, ["DINA"] * 5, params, ProportionVector([0.25] * 4),
                                       n_grid=n_grid, replications=1, seed=5)

    # a float or bool count was cast, so [100.7] fitted N = 100 and [True] N = 1
    @pytest.mark.parametrize("n_grid, replications, name", [
        ([100.7], 1, r"n_grid\[0\]"), ([200, True], 1, r"n_grid\[1\]"),
        ([200], 1.5, "replications"), ([200], True, "replications")],
        ids=["float-n", "bool-n", "float-replications", "bool-replications"])
    def test_rejects_counts_that_are_not_integers(self, monkeypatch, n_grid,
                                                   replications, name):
        q, params, theta, p = _dina_setup()
        monkeypatch.setattr(inference, "simulate", None)      # nothing is drawn
        with pytest.raises(TypeError, match=f"^{name} must be an integer, got "):
            consistency_experiment(q, ["DINA"] * 6, params, p, n_grid=n_grid,
                                   replications=replications, seed=5)

    # True ran as seed 1, None drew fresh OS entropy, 1.5 reached numpy
    @pytest.mark.parametrize("seed, error, message", [
        (True, TypeError, "^seed must be an integer, got True$"),
        (None, TypeError, "^seed must be an integer, got None$"),
        (1.5, TypeError, "^seed must be an integer, got 1.5$"),
        (-1, ValueError, "^seed must be at least 0, got -1$")],
        ids=["bool", "none", "float", "negative"])
    def test_rejects_the_seeds_simulate_rejects(self, monkeypatch, seed, error, message):
        q, params, theta, p = _dina_setup()
        monkeypatch.setattr(inference, "simulate", None)      # nothing is drawn
        with pytest.raises(error, match=message):
            consistency_experiment(q, ["DINA"] * 6, params, p, n_grid=[200],
                                   replications=1, seed=seed)

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
