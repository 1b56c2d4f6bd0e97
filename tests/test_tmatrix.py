import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rlcm import (
    DinaParams,
    ProportionVector,
    QMatrix,
    SizeLimitError,
    ThetaMatrix,
    apply_shift,
    build_tmatrix,
    build_transform,
    distributions_equal,
    marginal_vector,
    mobius_from_marginals,
    response_distribution,
    superset_sums,
    theta_from_params,
)

from helpers import (
    brute_dominance_table,
    brute_distribution,
    joint_prob,
    random_proportions,
    random_theta,
    reference_build_tmatrix,
    reference_response_distribution,
)


class TestJointProb:
    def test_single_item(self):
        assert joint_prob([0.3], 1) == pytest.approx(0.3)
        assert joint_prob([0.3], 0) == pytest.approx(0.7)

    def test_two_items(self):
        assert joint_prob([0.3, 0.6], (1, 0)) == pytest.approx(0.12)

    @given(st.integers(0, 10_000), st.integers(1, 6))
    def test_normalizes(self, seed, n_items):
        probs = np.random.default_rng(seed).uniform(size=n_items)
        total = sum(joint_prob(probs, r) for r in range(1 << n_items))
        assert total == pytest.approx(1.0, abs=1e-12)


class TestBuildTmatrix:
    def test_single_item(self):
        t = build_tmatrix(ThetaMatrix([[0.1, 0.8]]))
        assert t.values.tolist() == [[1.0, 1.0], [0.1, 0.8]]

    def test_two_items_product_row(self):
        t = build_tmatrix(ThetaMatrix([[0.1, 0.8], [0.2, 0.9]]))
        assert np.allclose(t.values[3], [0.02, 0.72])

    def test_unit_row_and_theta_rows(self):
        theta = random_theta(np.random.default_rng(5), 4, 2)
        t = build_tmatrix(theta)
        assert np.array_equal(t.values[0], np.ones(4))
        for j in range(4):
            assert np.array_equal(t.values[1 << j], theta.values[j])

    @pytest.mark.parametrize("seed", range(8))
    def test_dominance_sum_identity(self, seed):
        # oracle: entry (r, alpha) must equal the sum of joint probabilities
        # over all patterns dominating r, computed by explicit loops
        rng = np.random.default_rng(seed)
        theta = random_theta(rng, int(rng.integers(1, 6)), int(rng.integers(1, 4)))
        t = build_tmatrix(theta)
        assert np.abs(t.values - brute_dominance_table(theta.values)).max() <= 1e-12

    def test_size_cap(self):
        theta = ThetaMatrix(np.full((15, 1 << 14), 0.5))
        with pytest.raises(SizeLimitError):
            build_tmatrix(theta)


class TestMarginalVector:
    def test_single_item_formula(self):
        g, s = 0.15, 0.25
        t = build_tmatrix(ThetaMatrix([[g, 1 - s]]))
        p = ProportionVector([0.4, 0.6])
        expected = g * 0.4 + (1 - s) * 0.6
        assert marginal_vector(t, p)[1] == pytest.approx(expected, abs=1e-15)

    def test_fair_coins(self):
        t = build_tmatrix(ThetaMatrix(np.full((2, 4), 0.5)))
        p = ProportionVector([0.25] * 4)
        assert np.allclose(marginal_vector(t, p), [1.0, 0.5, 0.5, 0.25])

    def test_zero_pattern_entry_is_one(self):
        rng = np.random.default_rng(11)
        theta = random_theta(rng, 3, 2)
        p = random_proportions(rng, 2)
        assert marginal_vector(build_tmatrix(theta), p)[0] == pytest.approx(1.0, abs=1e-14)


class TestResponseDistribution:
    def test_two_bernoullis(self):
        dist = response_distribution(ThetaMatrix([[0.1, 0.8]]), ProportionVector([0.5, 0.5]))
        assert np.allclose(dist, [0.55, 0.45])

    def test_degenerate_mixture(self):
        theta = ThetaMatrix([[0.1, 0.8], [0.2, 0.9]])
        p = ProportionVector([1e-9, 1 - 1e-9])
        dist = response_distribution(theta, p)
        product = [0.2 * 0.1, 0.8 * 0.1, 0.2 * 0.9, 0.8 * 0.9]
        assert np.abs(dist - product).max() < 1e-8

    def test_rejects_non_probability(self):
        theta = ThetaMatrix([[-0.5, 0.2]], is_probability=False)
        with pytest.raises(ValueError):
            response_distribution(theta, ProportionVector([0.5, 0.5]))

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_mobius_inversion(self, seed):
        rng = np.random.default_rng(seed)
        theta = random_theta(rng, int(rng.integers(1, 7)), int(rng.integers(1, 4)))
        p = random_proportions(rng, theta.n_attributes)
        dist = response_distribution(theta, p)
        marginals = marginal_vector(build_tmatrix(theta), p)
        assert np.abs(dist - mobius_from_marginals(marginals)).max() <= 1e-12
        assert dist.sum() == pytest.approx(1.0, abs=1e-12)
        assert (dist >= 0).all()

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed + 100)
        theta = random_theta(rng, int(rng.integers(1, 6)), int(rng.integers(1, 4)))
        p = random_proportions(rng, theta.n_attributes)
        dist = response_distribution(theta, p)
        assert np.abs(dist - brute_distribution(theta.values, p.probs)).max() <= 1e-13

    def test_dominance_sums_match_marginals(self):
        rng = np.random.default_rng(42)
        theta = random_theta(rng, 5, 2)
        p = random_proportions(rng, 2)
        dist = response_distribution(theta, p)
        marginals = marginal_vector(build_tmatrix(theta), p)
        assert np.abs(superset_sums(dist) - marginals).max() <= 1e-12


class TestMobius:
    @given(st.integers(0, 10_000), st.integers(1, 6))
    @settings(max_examples=40)
    def test_inverts_superset_sums(self, seed, n_bits):
        values = np.random.default_rng(seed).normal(size=1 << n_bits)
        assert np.allclose(mobius_from_marginals(superset_sums(values)), values,
                           atol=1e-12)


class TestApplyShift:
    def test_example(self):
        shifted = apply_shift(ThetaMatrix([[0.1, 0.8]]), [0.8])
        assert np.allclose(shifted.values, [[-0.7, 0.0]])
        assert not shifted.is_probability

    def test_zero_shift(self):
        theta = ThetaMatrix([[0.1, 0.8], [0.3, 0.4]])
        assert np.array_equal(apply_shift(theta, [0.0, 0.0]).values, theta.values)

    def test_row_max_shift_zeroes_argmax(self):
        theta = ThetaMatrix([[0.1, 0.8], [0.3, 0.4]])
        shifted = apply_shift(theta, theta.values.max(axis=1))
        assert shifted.values[0, 1] == 0.0 and shifted.values[1, 1] == 0.0


class TestBuildTransform:
    def test_single_item(self):
        d = build_transform([0.4])
        assert np.allclose(d.values, [[1.0, 0.0], [-0.4, 1.0]])

    def test_zero_shift_is_identity(self):
        assert np.array_equal(build_transform([0.0, 0.0, 0.0]).values, np.eye(8))

    def test_two_item_full_row(self):
        a, b = 0.3, 0.7
        d = build_transform([a, b])
        assert np.allclose(d.values[3], [a * b, -b, -a, 1.0])

    def test_closed_form_entries(self):
        # entry (r, r'): 0 unless r' <= r; unit diagonal; otherwise the
        # signed product of shifts over the items where they differ
        rng = np.random.default_rng(3)
        shift = rng.uniform(-1, 1, size=4)
        d = build_transform(shift)
        for r in range(16):
            for rp in range(16):
                if rp & r != rp:
                    expected = 0.0
                elif rp == r:
                    expected = 1.0
                else:
                    diff = r ^ rp
                    expected = 1.0
                    for j in range(4):
                        if diff >> j & 1:
                            expected *= -shift[j]
                assert d.values[r, rp] == pytest.approx(expected, abs=1e-15)

    def test_lower_triangular_unit_diagonal(self):
        d = build_transform(np.random.default_rng(0).uniform(-1, 1, 5))
        assert np.allclose(np.diag(d.values), 1.0)
        assert np.allclose(np.triu(d.values, 1), 0.0)

    def test_dense_cap(self):
        with pytest.raises(SizeLimitError):
            build_transform(np.zeros(13))


class TestShiftIdentity:
    @pytest.mark.parametrize("seed", range(20))
    def test_transform_identity(self, seed):
        rng = np.random.default_rng(seed)
        n_items = int(rng.integers(1, 9))
        n_attributes = int(rng.integers(1, 4))
        theta = random_theta(rng, n_items, n_attributes)
        shift = rng.uniform(-1.0, 1.0, size=n_items)
        lhs = build_transform(shift).values @ build_tmatrix(theta).values
        rhs = build_tmatrix(apply_shift(theta, shift)).values
        assert np.abs(lhs - rhs).max() <= 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_group_property(self, seed):
        rng = np.random.default_rng(seed)
        n_items = int(rng.integers(1, 7))
        a = rng.uniform(-1, 1, n_items)
        b = rng.uniform(-1, 1, n_items)
        dab = build_transform(a + b).values
        da, db = build_transform(a).values, build_transform(b).values
        assert np.abs(dab - da @ db).max() <= 1e-12
        assert np.abs(da @ db - db @ da).max() <= 1e-12

    def test_zero_row_annihilation(self):
        # shifting each item by its capable-class value empties the
        # single-item rows on all capable columns
        q = QMatrix([[1, 0], [0, 1], [1, 1]])
        theta = theta_from_params(q, [DinaParams(0.2, 0.1)] * 3)
        shift = np.array([0.8, 0.8, 0.8])
        shifted_t = build_tmatrix(apply_shift(theta, shift))
        profiles = np.arange(4)
        for j, code in enumerate(q.row_codes):
            capable = (profiles & code) == code
            assert np.allclose(shifted_t.values[1 << j][capable], 0.0)
            assert not np.allclose(shifted_t.values[1 << j][~capable], 0.0)


def _table_with_extremes(seed, n_items, n_attributes, zeros, ones, low=0.0, high=1.0):
    """Uniform table with a share of its entries pinned at exactly 0 and 1."""
    rng = np.random.default_rng(seed)
    shape = (n_items, 1 << n_attributes)
    values = rng.uniform(low, high, shape)
    pick = rng.uniform(size=shape)
    values[pick < zeros] = 0.0
    values[pick > 1.0 - ones] = 1.0
    return values, rng


TABLE_DRAWS = (
    st.integers(0, 2**32 - 1),
    st.integers(1, 12),
    st.integers(1, 4),
    st.sampled_from([0.0, 0.1, 0.4]),
    st.sampled_from([0.0, 0.1, 0.4]),
)


class TestFastPathsMatchReference:
    """Row doubling and the split-half GEMM against the loops they replaced."""

    @settings(max_examples=150, deadline=None)
    @given(*TABLE_DRAWS, st.booleans())
    @example(0, 1, 1, 0.0, 0.0, True)
    @example(1, 1, 4, 0.4, 0.4, False)
    @example(2, 12, 4, 0.1, 0.1, False)
    def test_build_tmatrix(self, seed, n_items, n_attributes, zeros, ones, probability):
        bounds = (0.0, 1.0) if probability else (-2.0, 2.0)
        values, _ = _table_with_extremes(seed, n_items, n_attributes, zeros, ones, *bounds)
        theta = ThetaMatrix(values, is_probability=probability)
        fast = build_tmatrix(theta).values
        np.testing.assert_allclose(fast, reference_build_tmatrix(theta).values, rtol=1e-12, atol=0)

    @settings(max_examples=150, deadline=None)
    @given(*TABLE_DRAWS)
    @example(0, 1, 1, 0.0, 0.0)
    @example(1, 1, 3, 0.4, 0.4)
    @example(2, 11, 4, 0.1, 0.1)
    @example(3, 12, 4, 0.0, 0.0)
    def test_response_distribution(self, seed, n_items, n_attributes, zeros, ones):
        values, rng = _table_with_extremes(seed, n_items, n_attributes, zeros, ones)
        theta = ThetaMatrix(values)
        p = random_proportions(rng, n_attributes)
        fast = response_distribution(theta, p)
        assert fast.shape == (1 << n_items,)
        np.testing.assert_allclose(
            fast, reference_response_distribution(theta, p), rtol=1e-12, atol=0
        )


# The worker runs one call at the table cap and prints its own peak RSS.
# It is started through an intermediate interpreter because Linux carries a
# parent's peak RSS into ru_maxrss across fork and exec: a worker started
# straight from the test process would report the test process's peak.
_CAP_WORKER = """
import resource
import numpy as np
from rlcm import ProportionVector, ThetaMatrix, distributions_equal
rng = np.random.default_rng(0)
theta = ThetaMatrix(rng.uniform(0.05, 0.95, (20, 256)))
p = ProportionVector(np.full(256, 1 / 256))
gap = distributions_equal((theta, p), (ThetaMatrix(theta.values[::-1].copy()), p))
assert 0.0 < gap < 1.0
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""
_HOP = "import subprocess, sys; sys.exit(subprocess.call(sys.argv[1:]))"


class TestOracleMemory:
    def test_traced_peak_below_table(self):
        rng = np.random.default_rng(3)
        a = (random_theta(rng, 16, 6), random_proportions(rng, 6))
        b = (random_theta(rng, 16, 6), random_proportions(rng, 6))
        tracemalloc.start()
        try:
            distributions_equal(a, b)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the 2**16 x 2**6 table alone would be 32 MiB
        assert peak <= 8 * 2**20

    def test_build_tmatrix_peak_is_the_table(self):
        theta = random_theta(np.random.default_rng(4), 16, 6)
        tracemalloc.start()
        try:
            t = build_tmatrix(theta)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the 2**16 x 2**6 table is 32 MiB; copying it on the way in doubles it
        assert peak <= 1.25 * t.values.nbytes
        assert not t.values.flags.writeable

    def test_process_peak_at_table_cap(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        done = subprocess.run(
            [sys.executable, "-c", _HOP, sys.executable, "-c", _CAP_WORKER],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert done.returncode == 0, done.stderr
        # ru_maxrss is in KiB on Linux; the 2**20 x 2**8 table alone is 2 GiB
        assert int(done.stdout) <= 256 * 1024
