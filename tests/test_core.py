import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rlcm import (
    DimensionError,
    ProportionVector,
    QMatrix,
    ResponseData,
    SizeLimitError,
    ThetaMatrix,
    bit_matrix,
    build_tmatrix,
    build_transform,
    dominates,
    enumerate_profiles,
    weight_graded_order,
)

from helpers import bits_to_int, int_to_bits, profile_geq


class TestEncodings:
    def test_roundtrip_examples(self):
        assert bits_to_int([0, 1, 1]) == 6
        assert int_to_bits(6, 3).tolist() == [0, 1, 1]
        assert bits_to_int([1, 0]) == 1  # bit 0 is coordinate 1

    @given(st.integers(0, 2**12 - 1))
    def test_roundtrip(self, code):
        assert bits_to_int(int_to_bits(code, 12).tolist()) == code

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            bits_to_int([0, 2])

    def test_bit_matrix(self):
        mat = bit_matrix([0, 1, 2, 3], 2)
        assert mat.tolist() == [[0, 0], [1, 0], [0, 1], [1, 1]]


class TestDominance:
    def test_examples(self):
        assert profile_geq((1, 1), (1, 0))
        assert not profile_geq((0, 1), (1, 0))

    def test_zero_is_bottom(self):
        for a in range(8):
            assert dominates(a, 0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            profile_geq((1, 1), (1, 0, 0))

    @given(st.integers(1, 8), st.data())
    def test_matches_bitwise_and(self, k, data):
        a = data.draw(st.integers(0, 2**k - 1))
        b = data.draw(st.integers(0, 2**k - 1))
        bitwise = (a & b) == b
        assert profile_geq(int_to_bits(a, k), int_to_bits(b, k)) == bitwise
        assert dominates(a, b) == bitwise


class TestEnumerateProfiles:
    def test_small(self):
        assert enumerate_profiles(1).tolist() == [0, 1]
        codes = enumerate_profiles(2)
        assert [int_to_bits(c, 2).tolist() for c in codes] == [
            [0, 0], [1, 0], [0, 1], [1, 1]]

    def test_large(self):
        assert enumerate_profiles(20).size == 1 << 20

    @pytest.mark.parametrize("k", [0, 21])
    def test_out_of_range(self, k):
        with pytest.raises(SizeLimitError):
            enumerate_profiles(k)

    @given(st.integers(1, 10))
    def test_no_duplicates(self, k):
        codes = enumerate_profiles(k)
        assert codes.size == 1 << k
        assert np.unique(codes).size == codes.size

    def test_order_respects_dominance(self):
        # dominated profiles never come later than their dominator
        for a in enumerate_profiles(4):
            for b in enumerate_profiles(4):
                if dominates(a, b):
                    assert b <= a


class TestWeightGradedOrder:
    def test_three_bits(self):
        assert weight_graded_order(3).tolist() == [0, 1, 2, 4, 3, 5, 6, 7]

    @given(st.integers(1, 8))
    def test_is_permutation(self, n):
        order = weight_graded_order(n)
        assert sorted(order.tolist()) == list(range(1 << n))


class TestQMatrix:
    def test_valid(self):
        q = QMatrix([[1, 0], [0, 1], [1, 1]])
        assert q.n_items == 3 and q.n_attributes == 2
        assert q.row_codes.tolist() == [1, 2, 3]

    def test_rejects_zero_row(self):
        with pytest.raises(ValueError, match="all zero"):
            QMatrix([[1, 0], [0, 0]])

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            QMatrix([[1, 2]])

    def test_rejects_oversize(self):
        with pytest.raises(SizeLimitError):
            QMatrix(np.ones((21, 2), dtype=int))

    def test_immutable(self):
        q = QMatrix([[1, 0], [0, 1]])
        with pytest.raises(ValueError):
            q.entries[0, 0] = 0


@pytest.mark.parametrize("make, a, b", [
    (QMatrix, [[1, 0], [0, 1]], [[0, 1], [1, 0]]),
    (ProportionVector, [0.5, 0.5], [0.25, 0.75]),
    (ThetaMatrix, [[0.1, 0.8]], [[0.1, 0.9]]),
    pytest.param(lambda probability: ThetaMatrix([[0.1, 0.8]], bool(probability)),
                 True, False, id="ThetaMatrix-is_probability"),
    pytest.param(lambda v: build_tmatrix(ThetaMatrix(v)), [[0.1, 0.8]], [[0.1, 0.9]],
                 id="TMatrix"),
    pytest.param(build_transform, [0.1, 0.2], [0.1, 0.3], id="TransformMatrix"),
    pytest.param(lambda codes: ResponseData(np.asarray(codes), 2), [0, 1, 2], [0, 1],
                 id="ResponseData-lengths"),
    pytest.param(lambda codes: ResponseData(np.asarray(codes), 2), [0, 1, 2], [0, 1, 3],
                 id="ResponseData-codes"),
])
def test_equality_compares_the_stored_values(make, a, b):
    assert make(a) == make(np.array(a))
    assert make(a) != make(b)
    assert make(a) != a


@pytest.mark.parametrize("record", [
    QMatrix([[1]]), ThetaMatrix([[0.1, 0.8]]), ProportionVector([0.5, 0.5]),
    build_tmatrix(ThetaMatrix([[0.1, 0.8]])), build_transform([0.1]),
    ResponseData(np.array([0, 1]), 1),
], ids=lambda record: type(record).__name__)
def test_records_are_unhashable(record):
    with pytest.raises(TypeError, match="unhashable"):
        hash(record)


class TestThetaMatrix:
    def test_probability_range_enforced(self):
        with pytest.raises(ValueError):
            ThetaMatrix([[0.5, 1.2]])

    def test_non_probability_allows_reals(self):
        theta = ThetaMatrix([[-0.7, 0.0]], is_probability=False)
        assert theta.n_items == 1 and theta.n_attributes == 1

    def test_rejects_bad_width(self):
        with pytest.raises(DimensionError):
            ThetaMatrix([[0.1, 0.2, 0.3]])

    def test_copies_unless_given_a_frozen_array_it_may_keep(self):
        mine = np.array([[0.1, 0.2]])
        theta = ThetaMatrix(mine)
        assert mine.flags.writeable and not np.shares_memory(theta.values, mine)
        frozen = np.array([[0.1, 0.2]])
        frozen.flags.writeable = False
        assert ThetaMatrix(frozen).values is frozen
        # a read-only view does not own its data, so it is copied
        view = frozen[:, :]
        assert not np.shares_memory(ThetaMatrix(view).values, frozen)


class TestProportionVector:
    def test_rejects_boundary_entries(self):
        with pytest.raises(ValueError):
            ProportionVector([0.0, 0.5, 0.25, 0.25])
        with pytest.raises(ValueError):
            ProportionVector([-0.1, 0.6, 0.25, 0.25])

    def test_rejects_large_sum_error(self):
        with pytest.raises(ValueError, match="sum"):
            ProportionVector([0.3, 0.3, 0.3, 0.2])

    def test_renormalizes_small_deviation(self):
        probs = np.array([0.25, 0.25, 0.25, 0.25]) * (1 + 4e-10)
        p = ProportionVector(probs)
        assert abs(p.probs.sum() - 1.0) < 1e-15

    def test_immutable(self):
        p = ProportionVector([0.5, 0.5])
        with pytest.raises(ValueError):
            p.probs[0] = 0.1
