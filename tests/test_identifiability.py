import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rlcm import (
    ConstructionInfeasibleError,
    DimensionError,
    DinaParams,
    InternalConsistencyError,
    LlmParams,
    NonIdentifiablePair,
    NotApplicableError,
    ProportionVector,
    QMatrix,
    RrumParams,
    SizeLimitError,
    ThetaMatrix,
    Verdict,
    c1_only_counterexample,
    c1_only_design,
    check_c1,
    check_c2,
    distributions_equal,
    dominates,
    enumerate_profiles,
    incomplete_counterexample,
    is_complete,
    parameter_distance,
    theta_from_params,
    verdict,
)
from rlcm import identifiability
from rlcm.identifiability import _identical_columns

from helpers import (
    brute_c2_any_designation,
    brute_gap,
    draw_monotone_params,
    random_theta,
    reference_c1_only_counterexample,
    reference_identical_columns,
    stacked_identity,
)

EXAMPLE_Q = QMatrix([[1, 0], [0, 1], [1, 1]])
INCOMPLETE_Q = QMatrix([[1, 1], [0, 1]])


class TestCompleteness:
    def test_example_design(self):
        result = is_complete(EXAMPLE_Q)
        assert result.complete
        assert result.witnesses == {0: 0, 1: 1}

    def test_incomplete(self):
        result = is_complete(INCOMPLETE_Q)
        assert not result.complete
        assert result.missing == (0,)

    def test_identity(self):
        for k in (1, 2, 3, 4):
            assert is_complete(QMatrix(np.eye(k, dtype=int))).complete

    def test_smallest_witness(self):
        q = QMatrix([[1, 1], [1, 0], [1, 0], [0, 1]])
        assert is_complete(q).witnesses == {0: 1, 1: 3}


class TestC1:
    def test_two_blocks_plus_extra(self):
        q = QMatrix(np.vstack([np.eye(2, dtype=int)] * 2 + [[[1, 1]]]))
        result = check_c1(q)
        assert result.holds
        assert result.blocks == ((0, 2), (1, 3))

    def test_single_block_fails(self):
        q = QMatrix(np.vstack([np.eye(2, dtype=int), [[1, 1]]]))
        assert not check_c1(q).holds

    def test_three_identities(self):
        assert check_c1(stacked_identity(3, 3)).holds

    def test_c1_implies_complete(self):
        for rows in ([[1, 0], [1, 0], [0, 1], [0, 1]],
                     [[1, 0], [0, 1], [1, 1], [1, 0], [0, 1]]):
            q = QMatrix(rows)
            if check_c1(q).holds:
                assert is_complete(q).complete


class TestC2:
    def test_three_identity_dina(self):
        q = stacked_identity(2, 3)
        theta = theta_from_params(q, [DinaParams(0.2, 0.1)] * 6)
        result = check_c2(q, theta, check_c1(q).blocks)
        assert result.holds
        assert result.witnesses == {0: 4, 1: 5}

    def test_isolated_attribute_fails_under_dina(self):
        q = c1_only_design(2, [[1]])
        theta = theta_from_params(q, [DinaParams(0.2, 0.1)] * 5)
        result = check_c2(q, theta, check_c1(q).blocks)
        assert not result.holds
        assert result.witnesses[0] is None
        assert result.witnesses[1] is not None

    def test_rrum_separates_when_required(self):
        # an extra row requiring attribute k gives the single-attribute
        # class a strictly higher probability than the zero class
        q = QMatrix(np.vstack([np.eye(2, dtype=int)] * 2 + [[[1, 1]]]))
        params = [RrumParams(0.9, (0.3, 0.4))] * 5
        theta = theta_from_params(q, params)
        expected_e1 = 0.9 * 0.4   # only the attribute-2 penalty remains
        expected_zero = 0.9 * 0.3 * 0.4
        assert theta.values[4, 1] == pytest.approx(expected_e1)
        assert theta.values[4, 0] == pytest.approx(expected_zero)
        result = check_c2(q, theta, check_c1(q).blocks)
        assert result.holds and result.witnesses == {0: 4, 1: 4}

    def test_rejects_bad_blocks(self):
        q = stacked_identity(2, 3)
        theta = theta_from_params(q, [DinaParams(0.2, 0.1)] * 6)
        with pytest.raises(ValueError, match="disjoint"):
            check_c2(q, theta, ((0, 0), (1, 3)))
        with pytest.raises(ValueError, match="single-attribute"):
            check_c2(q, theta, ((0, 1), (3, 5)))


class TestVerdict:
    def test_three_identities_without_theta(self):
        report = verdict(stacked_identity(2, 3))
        assert report.verdict is Verdict.IDENTIFIABLE
        assert report.three_identity_sufficient
        assert report.c2_holds is None

    def test_incomplete(self):
        report = verdict(INCOMPLETE_Q)
        assert report.verdict is Verdict.INCOMPLETE

    def test_example_q_not_covered(self):
        report = verdict(EXAMPLE_Q)
        assert report.complete and not report.c1_holds
        assert report.verdict is Verdict.NOT_COVERED

    def test_c1_with_dina_extra_double_row(self):
        q = QMatrix(np.vstack([np.eye(2, dtype=int)] * 2 + [[[1, 1]]]))
        theta = theta_from_params(q, [DinaParams(0.2, 0.1)] * 5)
        report = verdict(q, theta)
        assert report.c1_holds and report.c2_holds is False
        assert report.verdict is Verdict.NOT_COVERED

    def test_exhaustive_designation_search(self):
        # item 3 (an attribute-2 singleton row) is made the only one that
        # separates class e1 from class 0; only another designation of the
        # blocks would free it, but such a table is not Q-restricted, so no
        # designation is searched and the table is not judged
        q = QMatrix([[1, 0], [1, 0], [0, 1], [0, 1], [0, 1]])
        theta_values = theta_from_params(
            q, [DinaParams(0.2, 0.1)] * 5).values.copy()
        theta_values[3, 1] = 0.35
        theta = ThetaMatrix(theta_values)
        report = verdict(q, theta)
        assert report.verdict is Verdict.NOT_COVERED
        assert report.c2_holds is None
        assert "not-q-restricted:item=3" in report.table_violations

    def test_identifiable_with_theta(self):
        q = stacked_identity(2, 3)
        theta = theta_from_params(q, [DinaParams(0.2, 0.1)] * 6)
        report = verdict(q, theta)
        assert report.verdict is Verdict.IDENTIFIABLE
        assert report.table_violations == ()

    def test_a_table_is_judged_within_one_more_table(self):
        # J = 20, K = 16: the Q-restriction is checked one row at a time, so
        # beside the 10 MiB table verdict holds a few rows, not J x 2**K arrays
        q = QMatrix(np.vstack([np.eye(16, dtype=int), np.eye(16, dtype=int)[:3],
                               np.ones((1, 16), dtype=int)]))
        theta = theta_from_params(q, [DinaParams(0.2, 0.1)] * 20)
        tracemalloc.start()
        try:
            report = verdict(q, theta)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.table_violations == () and report.verdict is Verdict.NOT_COVERED
        assert peak <= theta.values.nbytes


class TestHypothesisGate:
    def test_unrestricted_table_is_not_judged(self):
        # a uniform-random table ignores Q and breaks monotonicity
        theta = random_theta(np.random.default_rng(3), 6, 2)
        report = verdict(stacked_identity(2, 3), theta)
        assert report.verdict is Verdict.NOT_COVERED
        assert report.c2_holds is None and report.c2_witnesses is None
        assert "not-q-restricted:item=0" in report.table_violations
        kinds = {v.split(":")[0] for v in report.table_violations}
        assert kinds <= {"not-q-restricted", "capable-not-constant", "capable-not-maximal",
                         "baseline-not-minimal", "singleton-gap-not-strict"}

    def test_non_monotone_restricted_table(self):
        q = stacked_identity(2, 3)
        theta = theta_from_params(q, [DinaParams(0.2, 0.1)] * 6).values.copy()
        theta[4] = theta[4, ::-1]  # singleton row of attribute 1, order flipped
        report = verdict(q, ThetaMatrix(theta))
        assert report.verdict is Verdict.NOT_COVERED
        assert "singleton-gap-not-strict:item=4" in report.table_violations
        assert not any(v.startswith("not-q-restricted") for v in report.table_violations)

    def test_report_keys(self):
        q = stacked_identity(2, 3)
        doc = verdict(q, theta_from_params(q, [DinaParams(0.2, 0.1)] * 6)).to_dict()
        assert doc["table_violations"] == []
        assert "c2_search" not in doc and "c2_blocks_used" not in doc
        assert verdict(q).to_dict()["table_violations"] == []

    @staticmethod
    def _random_table(rng, family):
        """C1 design over 2-3 attributes with 2-3 singleton rows each and 1-4
        multi-attribute rows, a monotone table of the family, and some
        multi-attribute rows flattened to a constant so that they separate
        no class."""
        k = int(rng.integers(2, 4))
        rows = [np.eye(k, dtype=int)[a] for a in range(k)
                for _ in range(int(rng.choice([2, 3], p=[0.6, 0.4])))]
        for _ in range(int(rng.integers(1, 5))):
            code = 0
            while bin(code).count("1") < 2:
                code = int(rng.integers(1, 1 << k))
            rows.append((code >> np.arange(k)) & 1)
        rows = np.array(rows)[rng.permutation(len(rows))]
        q = QMatrix(rows)
        values = theta_from_params(
            q, [draw_monotone_params(rng, family, r) for r in rows]).values.copy()
        for j in np.flatnonzero(rows.sum(axis=1) >= 2):
            if rng.random() < 0.35:
                values[j] = values[j, 0]
        return q, ThetaMatrix(values)

    def test_default_designation_matches_every_designation(self):
        rng = np.random.default_rng(20261018)
        families = ("DINA", "DINO", "GDINA", "LLM", "RRUM")
        n_tables, failed = 2000, 0
        for i in range(n_tables):
            q, theta = self._random_table(rng, families[i % len(families)])
            report = verdict(q, theta)
            assert report.table_violations == ()
            assert report.c2_holds == brute_c2_any_designation(q, theta)
            failed += not report.c2_holds
        assert 0.2 * n_tables <= failed <= 0.5 * n_tables


class TestDistributionsEqual:
    def test_identical(self):
        theta = theta_from_params(EXAMPLE_Q, [DinaParams(0.2, 0.1)] * 3)
        p = ProportionVector([0.25] * 4)
        assert distributions_equal((theta, p), (theta, p)) == 0.0

    def test_distinct_dina_generically_separated(self):
        q = stacked_identity(2, 3)
        a = theta_from_params(q, [DinaParams(0.2, 0.1)] * 6)
        b = theta_from_params(q, [DinaParams(0.25, 0.12)] * 6)
        p = ProportionVector([0.3, 0.2, 0.3, 0.2])
        assert distributions_equal((a, p), (b, p)) > 1e-6


class TestNonIdentifiablePair:
    def test_rejects_degenerate(self):
        theta = theta_from_params(EXAMPLE_Q, [DinaParams(0.2, 0.1)] * 3)
        p = ProportionVector([0.25] * 4)
        with pytest.raises(ConstructionInfeasibleError, match="degenerate"):
            NonIdentifiablePair.build((theta, p), (theta, p))

    def test_rejects_unequal_distributions(self):
        q = stacked_identity(2, 3)
        a = theta_from_params(q, [DinaParams(0.2, 0.1)] * 6)
        b = theta_from_params(q, [DinaParams(0.3, 0.15)] * 6)
        p = ProportionVector([0.25] * 4)
        with pytest.raises(InternalConsistencyError):
            NonIdentifiablePair.build((a, p), (b, p))


class TestIncompleteCounterexample:
    def test_paper_style_instance(self):
        theta = theta_from_params(
            INCOMPLETE_Q, [DinaParams(0.2, 0.1), DinaParams(0.1, 0.2)])
        p = ProportionVector([0.25] * 4)
        pair = incomplete_counterexample(INCOMPLETE_Q, theta, p)
        assert pair.max_distribution_gap <= 1e-12
        assert pair.parameter_distance > 1e-6
        # profiles (0,0) and (1,0) are interchangeable
        assert np.array_equal(theta.values[:, 0], theta.values[:, 1])
        assert brute_gap(pair.first, pair.second) <= 1e-12

    def test_gap_within_gap_tol_fails_the_mass_shift_recheck(self, monkeypatch):
        # build() accepts a gap up to GAP_TOL = 1e-10; a mass shift must reach 1e-12
        monkeypatch.setattr(identifiability, "distributions_equal", lambda a, b: 5e-11)
        theta = theta_from_params(
            INCOMPLETE_Q, [DinaParams(0.2, 0.1), DinaParams(0.1, 0.2)])
        with pytest.raises(InternalConsistencyError, match="exceeds 1e-12") as raised:
            incomplete_counterexample(INCOMPLETE_Q, theta, ProportionVector([0.25] * 4))
        assert raised.value.gap == 5e-11

    def test_complete_design_not_applicable(self):
        theta = theta_from_params(EXAMPLE_Q, [DinaParams(0.2, 0.1)] * 3)
        with pytest.raises(NotApplicableError):
            incomplete_counterexample(EXAMPLE_Q, theta, ProportionVector([0.25] * 4))

    def test_no_identical_columns_not_applicable(self):
        theta = ThetaMatrix([[0.1, 0.2, 0.3, 0.4], [0.2, 0.3, 0.4, 0.5]])
        with pytest.raises(NotApplicableError, match="identical"):
            incomplete_counterexample(INCOMPLETE_Q, theta, ProportionVector([0.25] * 4))

    def test_all_distinct_columns_at_twelve_attributes(self):
        # one LLM item on all 12 attributes, slopes 2**k apart: every profile
        # has its own logit, so no two of the 4096 columns agree
        q = QMatrix([[1] * 12])
        theta = theta_from_params(q, [LlmParams(-2.0, tuple(2.0 ** np.arange(12) / 1024))])
        p = ProportionVector(np.full(4096, 1 / 4096))
        with pytest.raises(NotApplicableError, match="identical"):
            incomplete_counterexample(q, theta, p)

    # few distinct entries, -0.0 among them, so that columns often coincide
    @settings(max_examples=300, deadline=None)
    @given(arrays(np.float64, st.tuples(st.integers(1, 3), st.sampled_from([2, 4, 8, 16])),
                  elements=st.sampled_from([0.0, -0.0, 0.5, 1.0])))
    def test_search_matches_pairwise_scan(self, values):
        assert _identical_columns(values) == reference_identical_columns(values)


class TestC1OnlyCounterexample:
    PARAMS = [DinaParams(0.2, 0.1)] * 5

    def test_design_shape(self):
        q = c1_only_design(2, [[1]])
        assert q.entries.tolist() == [[1, 0], [1, 0], [0, 1], [0, 1], [0, 1]]
        assert check_c1(q).holds

    def test_feasible_instance(self):
        pair = c1_only_counterexample(2, [[1]], self.PARAMS, 1.0, (0.12, 0.08))
        assert pair.parameter_distance > 1e-6
        assert pair.max_distribution_gap <= 1e-10
        # independent re-verification by explicit enumeration
        assert brute_gap(pair.first, pair.second) <= 1e-10

    def test_three_attribute_instance(self):
        params = [DinaParams(0.2, 0.1)] * 8
        pair = c1_only_counterexample(3, [[1, 0], [0, 1]], params, 0.7, (0.15, 0.12))
        assert pair.max_distribution_gap <= 1e-10
        assert brute_gap(pair.first, pair.second) <= 1e-10

    def test_second_member_keeps_other_items(self):
        pair = c1_only_counterexample(2, [[1]], self.PARAMS, 1.0, (0.12, 0.08))
        theta_a, _ = pair.first
        theta_b, _ = pair.second
        assert np.array_equal(theta_a.values[2:], theta_b.values[2:])
        assert not np.allclose(theta_a.values[:2], theta_b.values[:2])

    def test_mass_ratio_respected(self):
        pair = c1_only_counterexample(2, [[1]], self.PARAMS, 0.5, (0.12, 0.08))
        _, p_a = pair.first
        profiles = enumerate_profiles(2)
        for alpha in profiles[(profiles & 1) == 0]:
            assert p_a.probs[alpha] / p_a.probs[alpha | 1] == pytest.approx(0.5)

    def test_anchor_at_guess_is_degenerate(self):
        with pytest.raises(ConstructionInfeasibleError, match="degenerate"):
            c1_only_counterexample(2, [[1]], self.PARAMS, 1.0, (0.1, 0.1))

    def test_vanishing_denominator(self):
        # anchor2 = (high2 + rho*low2) / (1 + rho) makes the item-1
        # denominator vanish
        with pytest.raises(ConstructionInfeasibleError, match="denominator"):
            c1_only_counterexample(2, [[1]], self.PARAMS, 1.0, (0.12, 0.45))

    def test_requires_dina(self):
        params = [RrumParams(0.9, (0.3, 0.4))] * 5
        with pytest.raises(NotApplicableError):
            c1_only_counterexample(2, [[1]], params, 1.0, (0.12, 0.08))

    def test_requires_two_attributes(self):
        with pytest.raises(NotApplicableError):
            c1_only_design(1, np.zeros((1, 0)))

    # K = 2000 built a 4000 x 2000 design (a 92.6 MiB peak) before QMatrix
    # rejected it
    @pytest.mark.parametrize("n_attributes, n_extra, size", [
        (2000, 0, "4000x2000"), (10, 1, "21x10"), (21, 0, "42x21")])
    def test_caps_are_checked_before_the_rows_are_built(self, n_attributes, n_extra, size):
        extra = np.zeros((n_extra, n_attributes - 1))
        tracemalloc.start()
        try:
            with pytest.raises(SizeLimitError,
                               match=f"^Q-matrix {size} exceeds caps J<=20, K<=20$"):
                c1_only_design(n_attributes, extra)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_wrong_param_count(self):
        with pytest.raises(Exception):
            c1_only_counterexample(2, [[1]], self.PARAMS[:4], 1.0, (0.12, 0.08))

    @pytest.mark.parametrize("anchors, message", [
        ((1.2, 0.08), r"anchor for item 1 = 1.2 lies outside \(0, 1\)"),
        ((0.12, 0.0), r"anchor for item 2 = 0.0 lies outside \(0, 1\)"),
        # (high1 + rho * low1) / (1 + rho) = 0.45 zeroes the item-2 denominator
        ((0.45, 0.08), "denominator for the item-2 capable value vanishes"),
        # 0.75 * (0.8 - a2) + 0.05 * (0.1 - a2) = 0 at a2 = 0.75625
        ((0.05, 0.75625), "denominator for the shifted proportions vanishes"),
    ], ids=["anchor-1", "anchor-2", "item-2-denominator", "proportion-denominator"])
    def test_infeasible_anchors_are_named(self, anchors, message):
        with pytest.raises(ConstructionInfeasibleError, match=message):
            c1_only_counterexample(2, [[1]], self.PARAMS, 1.0, anchors)

    @pytest.mark.parametrize("rho", [0.0, -1.0, float("nan")])
    def test_rho_must_be_positive(self, rho):
        with pytest.raises(ValueError, match="rho must be positive"):
            c1_only_counterexample(2, [[1]], self.PARAMS, rho, (0.12, 0.08))

    def test_extra_rows_of_another_width(self):
        with pytest.raises(DimensionError, match="extra rows must have 1 columns"):
            c1_only_counterexample(2, [[1, 0]], self.PARAMS, 1.0, (0.12, 0.08))

    def test_items_beyond_their_range_are_named(self):
        # a2 = 0.5 puts item 1's constructed capable value above 1 (s < 0);
        # swapping the anchors does the same to item 2
        with pytest.raises(ConstructionInfeasibleError, match="constructed item 1: DINA"):
            c1_only_counterexample(2, [[1]], self.PARAMS, 1.0, (0.12, 0.5))
        with pytest.raises(ConstructionInfeasibleError, match="constructed item 2: DINA"):
            c1_only_counterexample(2, [[1]], self.PARAMS, 1.0, (0.5, 0.12))

    def test_matches_the_hand_written_second_member(self):
        # K, extra rows, rates, rho and anchors drawn; about a third of the
        # draws are accepted, the rest rejected on an anchor or an item
        rng = np.random.default_rng(14)
        accepted = 0
        for _ in range(1000):
            k = int(rng.integers(2, 4))
            extra = rng.integers(0, 2, size=(int(rng.integers(0, 3)), k - 1))
            extra[extra.sum(axis=1) == 0, 0] = 1
            rates = rng.uniform(0.01, 0.45, size=(2 * k + len(extra), 2))
            params = [DinaParams(float(s), float(g)) for s, g in rates]
            anchors = rng.uniform(-0.05, 0.6, size=2)
            anchors[rng.random(2) < 0.03] += 1.0
            args = (k, extra, params, float(np.exp(rng.uniform(-2, 2))), tuple(anchors))
            outcomes = []
            for build in (c1_only_counterexample, reference_c1_only_counterexample):
                try:
                    outcomes.append(build(*args))
                except ConstructionInfeasibleError as exc:
                    # the constructed proportions cannot break their rules
                    assert build is reference_c1_only_counterexample or re.match(
                        "anchor for item [12] |denominator for |constructed item [12]: ",
                        str(exc)), (args, exc)
                    outcomes.append(None)
            pair, reference = outcomes
            assert (pair is None) == (reference is None), args
            if pair is not None:
                accepted += 1
                assert pair.first == reference.first
                assert np.array_equal(pair.second[1].probs, reference.second[1].probs)
                assert np.abs(pair.second[0].values - reference.second[0].values).max() \
                    <= 2.3e-16
        assert 200 < accepted < 800


class TestIdealResponseInjectivity:
    @staticmethod
    def _xi_vectors(q: QMatrix):
        profiles = enumerate_profiles(q.n_attributes)
        return [
            tuple(int(dominates(int(a), int(code))) for code in q.row_codes)
            for a in profiles
        ]

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_complete_design_injective(self, k):
        rng = np.random.default_rng(k)
        extra = rng.integers(0, 2, size=(3, k))
        extra = extra[extra.sum(axis=1) > 0]
        rows = np.vstack([np.eye(k, dtype=int)] + ([extra] if extra.size else []))
        xi = self._xi_vectors(QMatrix(rows))
        assert len(set(xi)) == len(xi)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_incomplete_design_not_injective(self, k):
        # drop the attribute-1 singleton: class e_1 collides with class 0
        rows = np.vstack([np.eye(k, dtype=int)[1:], np.ones((1, k), dtype=int)])
        xi = self._xi_vectors(QMatrix(rows))
        assert len(set(xi)) < len(xi)
        assert xi[0] == xi[1]
