import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rlcm import (
    DinaParams,
    DinoParams,
    EmConfig,
    GdinaParams,
    InvalidParameterError,
    ItemParams,
    LlmParams,
    QMatrix,
    RrumParams,
    ThetaMatrix,
    bit_matrix,
    check_monotonicity,
    dina_params_from_theta,
    enumerate_profiles,
    theta_from_params,
)
from rlcm.models import FAMILY, FamilyStack, ItemDesign

from helpers import (
    draw_monotone_item_params,
    draw_monotone_params,
    ideal_response_dina,
    ideal_response_dino,
    reference_theta_row,
    stacked_identity,
)


class TestIdealResponses:
    def test_dina(self):
        assert ideal_response_dina((1, 0), (1, 1)) == 1
        assert ideal_response_dina((1, 1), (1, 0)) == 0
        assert ideal_response_dina((1, 0), (0, 0)) == 0

    def test_dino(self):
        assert ideal_response_dino((1, 1), (1, 0)) == 1
        assert ideal_response_dino((1, 1), (0, 0)) == 0
        assert ideal_response_dino((0, 1), (0, 1)) == 1

    def test_dimension_mismatch(self):
        with pytest.raises(Exception):
            ideal_response_dina((1, 0, 0), (1, 1))


class TestParamValidation:
    def test_slip_guess_constraint(self):
        with pytest.raises(InvalidParameterError):
            DinaParams(s=0.5, g=0.6)
        with pytest.raises(InvalidParameterError):
            DinoParams(s=0.5, g=0.5)

    def test_gdina_needs_baseline(self):
        with pytest.raises(InvalidParameterError):
            GdinaParams({frozenset({0}): 0.5})

    def test_gdina_partial_sum_bound(self):
        with pytest.raises(InvalidParameterError):
            GdinaParams({frozenset(): 0.5, frozenset({0}): 0.7})

    def test_gdina_sum_beyond_float_range_is_rejected_without_a_warning(self):
        # the error::RuntimeWarning filter makes an overflow warning fail the test
        with pytest.raises(InvalidParameterError,
                           match=r"^GDINA: partial sum 1e\+308 outside \[0, 1\]$"):
            GdinaParams({frozenset(): 1e308, frozenset({0}): 1e308})

    def test_rrum_ranges(self):
        with pytest.raises(InvalidParameterError):
            RrumParams(pi=0.9, r=(1.0,))
        with pytest.raises(InvalidParameterError):
            RrumParams(pi=0.0, r=(0.5,))


class TestThetaFromParams:
    def test_dina_identity_design(self):
        q = QMatrix(np.eye(2, dtype=int))
        theta = theta_from_params(q, [DinaParams(0.2, 0.1), DinaParams(0.2, 0.1)])
        assert theta.values[0].tolist() == [0.1, 0.8, 0.1, 0.8]

    def test_rrum_values(self):
        q = QMatrix([[1, 1]])
        theta = theta_from_params(q, [RrumParams(pi=0.9, r=(0.5, 0.4))])
        # columns: (0,0), (1,0), (0,1), (1,1)
        assert np.allclose(theta.values[0], [0.18, 0.36, 0.45, 0.9])

    def test_llm_values(self):
        q = QMatrix([[1, 0]])
        theta = theta_from_params(q, [LlmParams(beta0=0.0, beta=(math.log(3), 0.0))])
        assert np.allclose(theta.values[0], [0.5, 0.75, 0.5, 0.75])

    def test_dina_equals_dino_on_singleton_rows(self):
        q = QMatrix([[1, 0], [0, 1]])
        a = theta_from_params(q, [DinaParams(0.2, 0.1), DinaParams(0.3, 0.2)])
        b = theta_from_params(q, [DinoParams(0.2, 0.1), DinoParams(0.3, 0.2)])
        assert np.array_equal(a.values, b.values)

    def test_gdina_reproduces_dina(self):
        q = QMatrix([[1, 1], [1, 0]])
        s, g = 0.2, 0.1
        dina = theta_from_params(q, [DinaParams(s, g)] * 2)
        gdina = theta_from_params(q, [
            GdinaParams({frozenset(): g, frozenset({0, 1}): 1 - s - g}),
            GdinaParams({frozenset(): g, frozenset({0}): 1 - s - g}),
        ])
        assert np.abs(dina.values - gdina.values).max() <= 1e-15

    def test_llm_sums_beyond_float_range_are_rejected_without_a_warning(self):
        # the error::RuntimeWarning filter makes an overflow warning fail the test
        q = QMatrix([[1, 0, 0], [1, 1, 0]])
        fine = LlmParams(0.0, (1.0, 1e308, 1e308))   # its huge slopes are not required
        with pytest.raises(InvalidParameterError,
                           match="^LLM: item 1 coefficients sum beyond float range$"):
            theta_from_params(q, [fine, LlmParams(1e308, (1e308, 1e308, 0.0))])
        assert theta_from_params(QMatrix([[1, 0, 0]]), [fine]).values.shape == (1, 8)

    def test_gdina_rejects_foreign_attribute(self):
        q = QMatrix([[1, 0]])
        with pytest.raises(InvalidParameterError, match="item 0"):
            theta_from_params(q, [GdinaParams({frozenset(): 0.1, frozenset({1}): 0.5})])

    def test_deterministic(self):
        q = QMatrix([[1, 1], [0, 1]])
        params = [RrumParams(0.9, (0.3, 0.7)), LlmParams(-0.5, (0.0, 1.5))]
        assert np.array_equal(theta_from_params(q, params).values,
                              theta_from_params(q, params).values)

    def test_length_mismatch(self):
        q = QMatrix([[1, 0]])
        with pytest.raises(Exception):
            theta_from_params(q, [DinaParams(0.2, 0.1)] * 2)

    def test_rejects_an_object_that_is_no_family(self):
        with pytest.raises(TypeError, match="unknown item parameter type object"):
            theta_from_params(QMatrix([[1, 0]]), [object()])

    def test_family_registry_is_the_parameter_classes(self):
        assert list(FAMILY.items()) == [("DINA", DinaParams), ("DINO", DinoParams),
                                        ("GDINA", GdinaParams), ("LLM", LlmParams),
                                        ("RRUM", RrumParams)]

    def test_the_public_item_type_is_the_base_of_every_family(self):
        # EmConfig and theta_from_params accept exactly the ItemParams instances
        design, rng = ItemDesign([1]), np.random.default_rng(0)
        for cls in FAMILY.values():
            assert isinstance(cls.from_coef(design, cls.init(design, rng)), ItemParams)
        with pytest.raises(TypeError):
            EmConfig(init_params=(object(),))


class TestThetaMemory:
    ITEMS = {"DINA": lambda row: DinaParams(0.1, 0.2),
             "GDINA": lambda row: GdinaParams({frozenset(): 0.2,
                                               frozenset({int(np.argmax(row))}): 0.6}),
             "LLM": lambda row: LlmParams(-1.0, tuple(0.1 * row))}

    @pytest.mark.parametrize("family", ["DINA", "GDINA", "LLM"])
    def test_traced_peak_is_a_few_tables(self, family):
        # item 0 requires all 14 attributes, so its family stacks 2**14 groups
        rows = np.eye(14, dtype=int)[np.arange(20) % 14]
        rows[0] = 1
        q = QMatrix(rows)
        params = [self.ITEMS[family](row) for row in q.entries]
        tracemalloc.start()
        try:
            theta = theta_from_params(q, params)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the 20 x 2**14 table is 2.5 MiB; with the one int32 profile-to-group
        # map the peak is about 1.7 tables for DINA and 1.8 for G-DINA and LLM
        assert peak <= 2.0 * theta.values.nbytes
        assert not theta.values.flags.writeable


class TestFamilyStack:
    def test_items_must_run_widest_first(self):
        designs = [ItemDesign([1, 0, 0]), ItemDesign([0, 1, 1])]
        with pytest.raises(ValueError, match="widest first"):
            FamilyStack(designs, [LlmParams, LlmParams])
        assert FamilyStack(designs[::-1], [LlmParams, LlmParams]).ends == [6, 4]

    def test_a_stack_without_a_link_family_builds_no_link_arrays(self):
        stack = FamilyStack([ItemDesign([1, 1]), ItemDesign([1, 0])], [DinaParams, DinaParams])
        assert stack.capable.tolist() == [False, False, False, True, False, True]
        for name in ("log", "read", "ends", "grad_index", "hess_index", "bound"):
            assert not hasattr(stack, name), name


class TestReferenceRows:
    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("family", ["DINA", "DINO", "GDINA", "LLM", "RRUM"])
    def test_registry_matches_per_type_reference(self, family, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 6))
        q_row = rng.integers(0, 2, size=k)
        if not q_row.any():
            q_row[rng.integers(k)] = 1
        q = QMatrix([q_row])
        params = draw_monotone_params(rng, family, q.entries[0])
        profiles = enumerate_profiles(k)
        alpha_bits = bit_matrix(profiles, k).astype(np.float64)
        expected = reference_theta_row(int(q.row_codes[0]), q.entries[0], params, 0,
                                       profiles, alpha_bits)
        got = theta_from_params(q, [params]).values[0]
        if family in ("LLM", "RRUM"):
            # the registry sums the link argument per group, the reference per profile
            assert np.abs(got - expected).max() <= 1e-15
        else:
            assert np.array_equal(got, expected)


class TestMonotonicity:
    def test_dina_passes(self):
        q = stacked_identity(2, 2)
        theta = theta_from_params(q, [DinaParams(0.2, 0.1)] * 4)
        assert check_monotonicity(q, theta).ok

    def test_flat_row_flags_strict_gap(self):
        # a constant row mimics slip/guess with 1 - s = g
        q = QMatrix(np.eye(2, dtype=int))
        theta = ThetaMatrix(np.full((2, 4), 0.4))
        report = check_monotonicity(q, theta)
        assert "singleton-gap-not-strict" in report.kinds()

    def test_baseline_violation_flagged(self):
        q = QMatrix([[1, 0]])
        theta = ThetaMatrix([[0.5, 0.9, 0.2, 0.9]])
        report = check_monotonicity(q, theta)
        assert "baseline-not-minimal" in report.kinds()

    def test_capable_spread_flagged(self):
        q = QMatrix([[1, 0]])
        theta = ThetaMatrix([[0.1, 0.8, 0.1, 0.7]])
        report = check_monotonicity(q, theta)
        assert "capable-not-constant" in report.kinds()

    def test_capable_not_maximal_flagged(self):
        q = QMatrix([[1, 0]])
        theta = ThetaMatrix([[0.1, 0.6, 0.7, 0.6]])
        report = check_monotonicity(q, theta)
        assert "capable-not-maximal" in report.kinds()

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from(["DINA", "DINO", "GDINA", "LLM", "RRUM"]),
           st.integers(0, 10_000))
    def test_every_family_draw_is_monotone(self, family, seed):
        rng = np.random.default_rng(seed)
        q = QMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0], [1, 1, 1]])
        params = draw_monotone_item_params(rng, family, q)
        theta = theta_from_params(q, params)
        report = check_monotonicity(q, theta)
        assert report.ok, report.violations


class TestDinaFromTheta:
    def test_roundtrip(self):
        q = QMatrix([[1, 0], [0, 1], [1, 1]])
        params = [DinaParams(0.2, 0.1), DinaParams(0.3, 0.25), DinaParams(0.15, 0.05)]
        theta = theta_from_params(q, params)
        recovered = dina_params_from_theta(q, theta)
        assert all(np.isclose(a.s, b.s) and np.isclose(a.g, b.g)
                   for a, b in zip(params, recovered))

    def test_rejects_non_dina_table(self):
        q = QMatrix([[1, 1]])
        theta = ThetaMatrix([[0.1, 0.3, 0.5, 0.9]])
        with pytest.raises(ValueError):
            dina_params_from_theta(q, theta)
