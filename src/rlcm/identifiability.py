"""Design-matrix conditions for identifiability and explicit counterexamples.

Completeness (every attribute measured by some single-attribute item) is
necessary for the class proportions to be identifiable.  The sufficient
conditions checked here are C1, the design contains two disjoint
single-attribute blocks that each cover every attribute, and C2, every
single-attribute class is separated from the zero class by some item
outside those blocks.  A design with three full identity blocks
satisfies both for any monotone parameterization, which gives a verdict
from the design matrix alone.  A table is only judged when it meets the
theorem's hypotheses: Q-restricted and monotone.

The counterexample generators return pairs of genuinely distinct
parameter sets with identical response distributions, re-verified by
exhaustive enumeration rather than trusted from their construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Optional, Sequence, Tuple

import numpy as np
from numpy.typing import NDArray

from .core import (
    DimensionError,
    ProportionVector,
    QMatrix,
    ThetaMatrix,
    _check_agreement,
    _check_caps,
    enumerate_profiles,
)
from .models import (EQ_TOL, DinaParams, InvalidParameterError, check_monotonicity,
                     theta_from_params)
from .tmatrix import response_distribution


class NotApplicableError(ValueError):
    """The requested construction does not apply to the given inputs."""


class ConstructionInfeasibleError(ValueError):
    """Constructed quantities leave their feasible region."""


class InternalConsistencyError(RuntimeError):
    """A constructed pair failed its independent re-verification."""

    def __init__(self, message: str, gap: float):
        super().__init__(message)
        self.gap = gap


class Verdict(str, Enum):
    """Outcome of the sufficient-condition check."""

    IDENTIFIABLE = "identifiable-by-sufficient-conditions"
    NOT_COVERED = "not-covered-by-sufficient-conditions"
    INCOMPLETE = "non-identifiable-incomplete"


@dataclass(frozen=True)
class CompletenessResult:
    complete: bool
    witnesses: Mapping[int, int]  # attribute -> smallest row equal to e_k
    missing: Tuple[int, ...]      # attributes with no single-attribute row


@dataclass(frozen=True)
class C1Result:
    holds: bool
    # per attribute, the first two rows equal to e_k; None when C1 fails
    blocks: Optional[Tuple[Tuple[int, int], ...]]


@dataclass(frozen=True)
class C2Result:
    holds: bool
    witnesses: Mapping[int, Optional[int]]  # attribute -> separating item
    blocks: Tuple[Tuple[int, int], ...]


@dataclass(frozen=True)
class IdentifiabilityReport:
    """Everything the condition checks produced, plus the verdict."""

    complete: bool
    completeness_witnesses: Mapping[int, int]
    missing_singletons: Tuple[int, ...]
    c1_holds: bool
    c1_blocks: Optional[Tuple[Tuple[int, int], ...]]
    three_identity_sufficient: bool
    verdict: Verdict
    c2_holds: Optional[bool] = None
    c2_witnesses: Optional[Mapping[int, Optional[int]]] = None
    # "<kind>:item=<j>" for each hypothesis the table breaks
    table_violations: Tuple[str, ...] = ()

    def to_dict(self) -> dict:
        """JSON-ready dictionary; all indices are 0-based."""
        return {
            "complete": self.complete,
            "completeness_witnesses": {str(k): v for k, v in self.completeness_witnesses.items()},
            "missing_singletons": list(self.missing_singletons),
            "c1_holds": self.c1_holds,
            "c1_blocks": [list(b) for b in self.c1_blocks] if self.c1_blocks else None,
            "c2_holds": self.c2_holds,
            "c2_witnesses": (
                {str(k): v for k, v in self.c2_witnesses.items()}
                if self.c2_witnesses is not None else None
            ),
            "table_violations": list(self.table_violations),
            "three_identity_sufficient": self.three_identity_sufficient,
            "verdict": self.verdict.value,
        }


def _singleton_rows(q: QMatrix) -> Tuple[Tuple[int, ...], ...]:
    codes = q.row_codes
    return tuple(
        tuple(int(j) for j in np.flatnonzero(codes == (1 << k)))
        for k in range(q.n_attributes)
    )


def is_complete(q: QMatrix) -> CompletenessResult:
    """Does every attribute have an item requiring it and nothing else?"""
    rows = _singleton_rows(q)
    witnesses = {k: rows[k][0] for k in range(q.n_attributes) if rows[k]}
    missing = tuple(k for k in range(q.n_attributes) if not rows[k])
    return CompletenessResult(not missing, witnesses, missing)


def check_c1(q: QMatrix) -> C1Result:
    """Does every single-attribute row occur at least twice?

    When it does, the first two occurrences per attribute are designated
    as the two identity blocks.
    """
    rows = _singleton_rows(q)
    if all(len(r) >= 2 for r in rows):
        return C1Result(True, tuple((r[0], r[1]) for r in rows))
    return C1Result(False, None)


def check_c2(q: QMatrix, theta: ThetaMatrix,
             blocks: Sequence[Tuple[int, int]]) -> C2Result:
    """Is each single-attribute class separated from the zero class?

    For every attribute k some item outside the designated blocks must
    assign the single-attribute class e_k a response probability that
    differs from the zero class by more than the equality tolerance.
    """
    _check_agreement(theta=theta, Q=q)
    blocks = tuple((int(a), int(b)) for a, b in blocks)
    if len(blocks) != q.n_attributes:
        raise ValueError(
            f"expected {q.n_attributes} designated row pairs, got {len(blocks)}"
        )
    codes = q.row_codes
    flat = [j for pair in blocks for j in pair]
    if len(set(flat)) != len(flat):
        raise ValueError("designated identity-block rows are not disjoint")
    for k, (a, b) in enumerate(blocks):
        for j in (a, b):
            if not 0 <= j < q.n_items or codes[j] != (1 << k):
                raise ValueError(
                    f"designated row {j} is not a single-attribute row for "
                    f"attribute {k}"
                )
    excluded = set(flat)
    remaining = [j for j in range(q.n_items) if j not in excluded]
    witnesses = {}
    for k in range(q.n_attributes):
        found = None
        for j in remaining:
            if abs(theta.values[j, 1 << k] - theta.values[j, 0]) > EQ_TOL:
                found = j
                break
        witnesses[k] = found
    return C2Result(all(v is not None for v in witnesses.values()), witnesses, blocks)


def _not_q_restricted(q: QMatrix, theta: ThetaMatrix) -> NDArray[np.int64]:
    """Items j with theta[j, a] != theta[j, a & q_j] beyond EQ_TOL for some a."""
    profiles = enumerate_profiles(q.n_attributes)
    return np.flatnonzero([np.abs(row - row[profiles & code]).max() > EQ_TOL
                           for row, code in zip(theta.values, q.row_codes)])


def verdict(q: QMatrix, theta: Optional[ThetaMatrix] = None) -> IdentifiabilityReport:
    """Run every condition check and render the overall verdict.

    Without a parameter table the verdict can still be positive when the
    design contains three identity blocks, which forces the separation
    condition for every monotone parameterization.

    A table is judged only when it meets the theorem's hypotheses: it is
    Q-restricted (``theta[j, a] == theta[j, a & q_j]`` within EQ_TOL) and
    monotone (``check_monotonicity``).  Otherwise the verdict is not
    covered and ``table_violations`` names each broken hypothesis.

    On such a table C2 does not depend on which singleton rows form the
    blocks, so it is evaluated once, on ``check_c1(q).blocks``: a singleton
    row of k' != k gives e_k the zero class's value (e_k & q_j = 0); a
    spare singleton row of k separates e_k, whose value is the row's
    full-profile value, strictly above theta[j, 0] by monotonicity
    (``singleton-gap-not-strict``); and rows with two or more attributes
    are never in a block.  This is exact for exactly Q-restricted tables,
    as every family's is; within EQ_TOL a spare row may lose its witness,
    which makes the verdict conservative, never wrong.
    """
    comp = is_complete(q)
    c1 = check_c1(q)
    three = all(len(rows) >= 3 for rows in _singleton_rows(q))

    violations: Tuple[str, ...] = ()
    c2 = None
    if theta is not None:
        monotone = check_monotonicity(q, theta)
        violations = tuple(
            [f"not-q-restricted:item={j}" for j in _not_q_restricted(q, theta)]
            + [f"{v.kind}:item={v.item}" for v in monotone.violations]
        )
        if c1.holds and not violations:
            c2 = check_c2(q, theta, c1.blocks)

    if violations:
        outcome = Verdict.NOT_COVERED
    elif not comp.complete:
        outcome = Verdict.INCOMPLETE
    elif theta is not None:
        outcome = Verdict.IDENTIFIABLE if (c2 is not None and c2.holds) else Verdict.NOT_COVERED
    else:
        outcome = Verdict.IDENTIFIABLE if (c1.holds and three) else Verdict.NOT_COVERED

    return IdentifiabilityReport(
        complete=comp.complete,
        completeness_witnesses=comp.witnesses,
        missing_singletons=comp.missing,
        c1_holds=c1.holds,
        c1_blocks=c1.blocks,
        three_identity_sufficient=three,
        verdict=outcome,
        c2_holds=c2.holds if c2 is not None else None,
        c2_witnesses=c2.witnesses if c2 is not None else None,
        table_violations=violations,
    )


ParameterSet = tuple   # (ThetaMatrix, ProportionVector); typing caches a subscription

GAP_TOL = 1e-10
MIN_PARAMETER_DISTANCE = 1e-6


def distributions_equal(a: ParameterSet, b: ParameterSet) -> float:
    """Largest absolute gap between the two full response distributions.

    Enumerates every response pattern for both parameter sets; this is
    the ground-truth equality oracle the generators are checked against.
    """
    theta_a, p_a = a
    theta_b, p_b = b
    if theta_a.n_items != theta_b.n_items:
        raise DimensionError(
            f"parameter sets answer {theta_a.n_items} vs {theta_b.n_items} items"
        )
    dist_a = response_distribution(theta_a, p_a)
    dist_b = response_distribution(theta_b, p_b)
    return float(np.abs(dist_a - dist_b).max())


def parameter_distance(a: ParameterSet, b: ParameterSet) -> float:
    """Max of the max-abs table difference and max-abs proportion difference."""
    theta_a, p_a = a
    theta_b, p_b = b
    _check_agreement(theta_a=theta_a, p_a=p_a, theta_b=theta_b, p_b=p_b)
    return max(
        float(np.abs(theta_a.values - theta_b.values).max()),
        float(np.abs(p_a.probs - p_b.probs).max()),
    )


@dataclass(frozen=True)
class NonIdentifiablePair:
    """Two distinct parameter sets with the same response distribution.

    Instances are created through :meth:`build`, which recomputes the
    distribution gap by exhaustive enumeration and enforces both
    invariants: gap at most 1e-10 and parameter distance above 1e-6.
    """

    first: ParameterSet
    second: ParameterSet
    max_distribution_gap: float
    parameter_distance: float

    @classmethod
    def build(cls, first: ParameterSet, second: ParameterSet) -> "NonIdentifiablePair":
        gap = distributions_equal(first, second)
        dist = parameter_distance(first, second)
        if dist <= MIN_PARAMETER_DISTANCE:
            raise ConstructionInfeasibleError(
                f"parameter distance {dist:.3g} does not exceed "
                f"{MIN_PARAMETER_DISTANCE}; the pair is degenerate"
            )
        if gap > GAP_TOL:
            raise InternalConsistencyError(
                f"distribution gap {gap:.3g} exceeds {GAP_TOL}; "
                f"the construction is wrong, aborting", gap
            )
        return cls(first, second, gap, dist)


def _identical_columns(values):
    """(a, b): a the first column equal to a later one, b the first such later
    column; None when all columns differ.  One sort of the columns."""
    _, group, count = np.unique(values.T, axis=0, return_inverse=True, return_counts=True)
    group = group.reshape(-1)   # numpy 2.0.0 returns it 2-d
    shared = np.flatnonzero(count[group] > 1)
    if not shared.size:
        return None
    a, b = np.flatnonzero(group == group[shared[0]])[:2]
    return int(a), int(b)


def incomplete_counterexample(q: QMatrix, theta: ThetaMatrix,
                              p: ProportionVector) -> NonIdentifiablePair:
    """Mass-shift counterexample for an incomplete design.

    Two profiles whose table columns coincide are interchangeable, so
    moving half of the smaller mass between them changes nothing about
    the response distribution.  Requires an incomplete design and a pair
    of identical columns (always present under DINA when the design is
    incomplete).
    """
    comp = is_complete(q)
    if comp.complete:
        raise NotApplicableError(
            "design is complete; every profile has a distinct column under "
            "the conjunctive ideal response, so this construction does not apply"
        )
    _check_agreement(theta=theta, p=p, Q=q)
    found = _identical_columns(theta.values)
    if found is None:
        raise NotApplicableError(
            "no two profiles share an identical table column; the mass-shift "
            "construction requires one"
        )
    a, b = found
    eps = min(p.probs[a], p.probs[b]) / 2.0
    shifted = p.probs.copy()
    shifted[a] -= eps
    shifted[b] += eps
    pair = NonIdentifiablePair.build((theta, p), (theta, ProportionVector(shifted)))
    if pair.max_distribution_gap > 1e-12:
        raise InternalConsistencyError(
            f"mass-shift gap {pair.max_distribution_gap:.3g} exceeds 1e-12",
            pair.max_distribution_gap,
        )
    return pair


def c1_only_design(n_attributes: int, extra_rows) -> QMatrix:
    """Design with two identity blocks whose first attribute is isolated.

    Items 1 and 2 require attribute 1 alone; two stacked blocks cover the
    remaining attributes; every extra row leaves attribute 1 untouched.
    Under a conjunctive model no item outside the blocks separates the
    first single-attribute class from the zero class, so the design
    satisfies C1 but not C2.
    """
    if n_attributes < 2:
        raise NotApplicableError(
            "the construction needs at least two attributes; with one, every "
            "extra row would have to be all zero"
        )
    extra = np.asarray(extra_rows, dtype=np.int64)
    if extra.ndim != 2 or extra.shape[1] != n_attributes - 1:
        raise DimensionError(
            f"extra rows must have {n_attributes - 1} columns (attribute 1 is "
            f"fixed to zero there)"
        )
    # the caps first: the rows of a design beyond them grow as K**2
    _check_caps(2 * n_attributes + len(extra), n_attributes)
    k = n_attributes
    rows = [np.eye(1, k, 0, dtype=np.int64)[0]] * 2
    tail_block = [np.eye(1, k, c, dtype=np.int64)[0] for c in range(1, k)]
    rows += tail_block + tail_block
    for r in extra:
        rows.append(np.concatenate(([0], r)))
    return QMatrix(np.vstack(rows))


def c1_only_counterexample(n_attributes: int, extra_rows,
                           dina_params: Sequence[DinaParams], rho: float,
                           anchor_guess: Tuple[float, float]) -> NonIdentifiablePair:
    """Non-identifiable pair on a C1-but-not-C2 conjunctive design.

    The first parameter set uses the given slip/guess values and a
    proportion vector in which each profile without attribute 1 carries
    rho times the mass of its attribute-1 partner.  The second set keeps
    items 3 onward, replaces the zero-class response probabilities of
    items 1 and 2 by the two anchors, and solves the resulting four-case
    system for the capable-class probabilities and the shifted
    proportions.  Items 1 and 2 of the second set are ``DinaParams`` and
    its proportions a ``ProportionVector``, so they obey those rules; when
    the chosen anchors break one, the error names item 1 or item 2.  The
    returned pair is re-verified by exhaustive enumeration.
    """
    q = c1_only_design(n_attributes, extra_rows)
    if not all(isinstance(pp, DinaParams) for pp in dina_params):
        raise NotApplicableError("the construction is stated for conjunctive items only")
    rho = float(rho)
    if not rho > 0:
        raise ValueError(f"rho must be positive, got {rho}")

    theta = theta_from_params(q, list(dina_params))
    k = n_attributes
    probs = np.empty(1 << k)
    pair_mass = 1.0 / (1 << (k - 1))
    profiles = enumerate_profiles(k)
    base = profiles[(profiles & 1) == 0]
    probs[base] = pair_mass * rho / (1.0 + rho)
    probs[base | 1] = pair_mass / (1.0 + rho)
    p = ProportionVector(probs)

    high1, low1 = 1.0 - dina_params[0].s, dina_params[0].g
    high2, low2 = 1.0 - dina_params[1].s, dina_params[1].g
    anchor1, anchor2 = (float(a) for a in anchor_guess)
    for name, value in (("anchor for item 1", anchor1), ("anchor for item 2", anchor2)):
        if not 0.0 < value < 1.0:
            raise ConstructionInfeasibleError(f"{name} = {value} lies outside (0, 1)")

    d1_high, d1_low = high1 - anchor1, low1 - anchor1
    d2_high, d2_low = high2 - anchor2, low2 - anchor2
    u = d1_high + rho * d1_low
    v = d2_high + rho * d2_low
    cross = d1_high * d2_high + rho * d1_low * d2_low
    for value, subject, formula in (
            (v, "the item-1 capable value", "(high2 - anchor2) + rho * (low2 - anchor2)"),
            (u, "the item-2 capable value", "(high1 - anchor1) + rho * (low1 - anchor1)"),
            (cross, "the shifted proportions",
             "(high1 - anchor1)(high2 - anchor2) + rho (low1 - anchor1)(low2 - anchor2)")):
        if abs(value) < 1e-12:
            raise ConstructionInfeasibleError(f"denominator for {subject} vanishes: {formula} = 0")
    alt_items = []
    for item, anchor, d in ((1, anchor1, v), (2, anchor2, u)):
        try:
            alt_items.append(DinaParams(s=1.0 - (anchor + cross / d), g=anchor))
        except InvalidParameterError as exc:
            raise ConstructionInfeasibleError(f"constructed item {item}: {exc}") from None
    alt_theta = theta_from_params(q, alt_items + list(dina_params[2:]))

    alt_probs = probs.copy()
    alt_probs[base | 1] *= u * v / cross
    alt_probs[base] = probs[base] + probs[base | 1] - alt_probs[base | 1]
    # with both items valid, u, v and cross share a sign, and (1 + rho) cross
    # - u v = rho (high1 - low1)(high2 - low2) > 0 keeps u v / cross in
    # (0, 1 + rho): every shifted proportion stays inside its pair's mass
    return NonIdentifiablePair.build((theta, p), (alt_theta, ProportionVector(alt_probs)))
