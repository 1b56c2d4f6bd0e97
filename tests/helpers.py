"""Shared test utilities: brute-force oracles, monotone parameter draws,
and the bit-vector helpers only tests use.

The oracles recompute probabilities from first principles (explicit
loops over patterns and profiles) so that library outputs are checked
against an independent path, not against themselves.
"""

from __future__ import annotations

import itertools
import os
from pathlib import Path

import numpy as np

import rlcm

from rlcm import (
    ConstructionInfeasibleError,
    DimensionError,
    DinaParams,
    DinoParams,
    GdinaParams,
    InvalidParameterError,
    LlmParams,
    NonIdentifiablePair,
    ProportionVector,
    QMatrix,
    RrumParams,
    ThetaMatrix,
    c1_only_design,
    dominates,
    theta_from_params,
)
from rlcm.core import check_table_size
from rlcm.fileio import CANONICAL_ORDER
from rlcm.models import THETA_CLAMP
from rlcm.tmatrix import TMatrix


def bits_to_int(bits) -> int:
    """Encode a 0/1 vector as an integer, bit k = coordinate k."""
    code = 0
    for k, b in enumerate(bits):
        if b not in (0, 1):
            raise ValueError(f"bit vector entries must be 0 or 1, got {b!r}")
        code |= int(b) << k
    return code


def int_to_bits(code: int, length: int) -> np.ndarray:
    """Decode an integer into a 0/1 vector of the given length."""
    if not 0 <= code < (1 << length):
        raise ValueError(f"encoding {code} out of range for length {length}")
    return ((code >> np.arange(length)) & 1).astype(np.int8)


def reference_bit_matrix(codes, length: int) -> np.ndarray:
    """``core.bit_matrix`` by integer shifts: bit k of each code in column k,
    a negative code read in two's complement."""
    codes = np.asarray(codes, dtype=np.int64)
    return ((codes[:, None] >> np.arange(length)) & 1).astype(np.int8)


def profile_geq(a, b) -> bool:
    """Coordinatewise dominance for explicit bit vectors of equal length."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise DimensionError(f"length mismatch: {a.shape} vs {b.shape}")
    return dominates(bits_to_int(a.tolist()), bits_to_int(b.tolist()))


def ideal_response_dina(q_row, alpha) -> int:
    """1 iff the profile possesses every attribute the item requires."""
    return int(profile_geq(alpha, q_row))


def ideal_response_dino(q_row, alpha) -> int:
    """1 iff the profile possesses at least one required attribute."""
    q_row = np.asarray(q_row)
    alpha = np.asarray(alpha)
    if q_row.shape != alpha.shape:
        raise DimensionError(f"length mismatch: {q_row.shape} vs {alpha.shape}")
    return int((bits_to_int(alpha.tolist()) & bits_to_int(q_row.tolist())) != 0)


def joint_prob(item_probs, pattern) -> float:
    """Probability of one full response pattern given per-item success probs.

    ``item_probs`` holds each item's positive-response probability for a
    single latent class; ``pattern`` is an integer encoding or a 0/1
    sequence.
    """
    probs = np.asarray(item_probs, dtype=np.float64)
    if probs.ndim != 1:
        raise DimensionError("item probabilities must be one-dimensional")
    if not isinstance(pattern, (int, np.integer)):
        pattern = bits_to_int(np.asarray(pattern).tolist())
    if not 0 <= pattern < (1 << probs.size):
        raise DimensionError(
            f"pattern {pattern} out of range for {probs.size} items"
        )
    bits = (int(pattern) >> np.arange(probs.size)) & 1
    return float(np.prod(np.where(bits == 1, probs, 1.0 - probs)))


def brute_c2_any_designation(q: QMatrix, theta: ThetaMatrix) -> bool:
    """Does C2 hold for at least one choice of two singleton rows per attribute?

    Tries every designation: for each attribute some item outside all the
    designated rows must move class e_k away from class 0 by more than 1e-10.
    """
    codes = [bits_to_int(row.tolist()) for row in q.entries]
    n_attributes = q.n_attributes
    pools = [
        list(itertools.combinations([j for j, c in enumerate(codes) if c == 1 << k], 2))
        for k in range(n_attributes)
    ]
    for designation in itertools.product(*pools):
        used = {j for pair in designation for j in pair}
        if all(
            any(abs(theta.values[j, 1 << k] - theta.values[j, 0]) > 1e-10
                for j in range(len(codes)) if j not in used)
            for k in range(n_attributes)
        ):
            return True
    return False


def brute_joint(theta_values: np.ndarray, alpha: int, pattern: int) -> float:
    """P(R = pattern | alpha) as an explicit product over items."""
    prob = 1.0
    for j in range(theta_values.shape[0]):
        th = theta_values[j, alpha]
        prob *= th if (pattern >> j) & 1 else (1.0 - th)
    return prob


def brute_joint_table(theta_values: np.ndarray) -> np.ndarray:
    """All joint probabilities, shape (2**J, 2**K)."""
    n_patterns = 1 << theta_values.shape[0]
    n_cols = theta_values.shape[1]
    table = np.empty((n_patterns, n_cols))
    for r in range(n_patterns):
        for a in range(n_cols):
            table[r, a] = brute_joint(theta_values, a, r)
    return table


def brute_dominance_table(theta_values: np.ndarray) -> np.ndarray:
    """Entry (r, alpha) = sum of joint probabilities over patterns >= r."""
    joint = brute_joint_table(theta_values)
    n_patterns = joint.shape[0]
    out = np.zeros_like(joint)
    for r in range(n_patterns):
        for rp in range(n_patterns):
            if rp & r == r:
                out[r] += joint[rp]
    return out


def brute_distribution(theta_values: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """P(R = r) for every pattern, mixing the joint table over profiles."""
    return brute_joint_table(theta_values) @ probs


def brute_gap(first, second) -> float:
    """Max-abs distribution gap between two (theta, p) parameter sets."""
    theta_a, p_a = first
    theta_b, p_b = second
    da = brute_distribution(theta_a.values, p_a.probs)
    db = brute_distribution(theta_b.values, p_b.probs)
    return float(np.abs(da - db).max())


def reference_likelihood(bits: np.ndarray, theta_values: np.ndarray) -> np.ndarray:
    """P(pattern | class) as a product over items, one item at a time: the
    E-step likelihood before it became one GEMM, kept as its oracle."""
    clamped = np.clip(theta_values, THETA_CLAMP, 1.0 - THETA_CLAMP)
    like = np.ones((bits.shape[0], clamped.shape[1]))
    for j in range(clamped.shape[0]):
        b = bits[:, j : j + 1]
        like *= b * clamped[j][None, :] + (1.0 - b) * (1.0 - clamped[j][None, :])
    return like


def _sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def reference_theta_row(q_code: int, q_bits, params, item: int, profiles, alpha_bits):
    """One theta row per parameter type, written out family by family.

    The library derives every row from a family's coefficients on the
    item's attribute groups; this closed form per type is its oracle.
    """
    if isinstance(params, DinaParams):
        capable = (profiles & q_code) == q_code
        return np.where(capable, 1.0 - params.s, params.g)
    if isinstance(params, DinoParams):
        touched = (profiles & q_code) != 0
        return np.where(touched, 1.0 - params.s, params.g)
    if isinstance(params, GdinaParams):
        required = [int(k) for k in np.flatnonzero(q_bits)]
        if not params.attributes <= set(required):
            extra = sorted(params.attributes - set(required))
            raise InvalidParameterError(
                f"GDINA: item {item} beta references attributes {extra} "
                f"not required by its Q-matrix row"
            )
        pos = {a: i for i, a in enumerate(sorted(params.attributes))}
        compact = np.zeros(profiles.size, dtype=np.int64)
        for a, i in pos.items():
            compact |= ((profiles >> a) & 1) << i
        row = params.partial_sums()[compact]
        bad = np.flatnonzero((row < -1e-12) | (row > 1 + 1e-12))
        if bad.size:
            raise InvalidParameterError(
                f"GDINA: item {item} probability {row[bad[0]]:.6g} outside "
                f"[0, 1] at profile {bad[0]}"
            )
        return np.clip(row, 0.0, 1.0)
    if isinstance(params, LlmParams):
        if len(params.beta) != q_bits.size:
            raise DimensionError(
                f"LLM: item {item} has {len(params.beta)} slopes for "
                f"{q_bits.size} attributes"
            )
        slope = np.asarray(params.beta) * q_bits
        return _sigmoid(params.beta0 + alpha_bits @ slope)
    if isinstance(params, RrumParams):
        if len(params.r) != q_bits.size:
            raise DimensionError(
                f"RRUM: item {item} has {len(params.r)} penalties for "
                f"{q_bits.size} attributes"
            )
        log_pen = np.log(np.asarray(params.r)) * q_bits
        return params.pi * np.exp((1 - alpha_bits) @ log_pen)
    raise TypeError(f"unknown item parameter type {type(params).__name__}")


def random_proportions(rng: np.random.Generator, n_attributes: int) -> ProportionVector:
    raw = rng.uniform(0.2, 1.0, size=1 << n_attributes)
    return ProportionVector(raw / raw.sum())


def random_theta(rng: np.random.Generator, n_items: int, n_attributes: int) -> ThetaMatrix:
    return ThetaMatrix(rng.uniform(0.02, 0.98, size=(n_items, 1 << n_attributes)))


def gdina_from_group_means(required: list, means: dict) -> GdinaParams:
    """Coefficients reproducing the given subset-group means.

    ``means`` maps frozensets (subsets of ``required``) to target
    response probabilities.  Inclusion-exclusion here is written
    independently of the library's transform code.
    """
    beta = {}
    for subset in map(frozenset, _powerset(required)):
        total = 0.0
        for inner in map(frozenset, _powerset(sorted(subset))):
            sign = (-1) ** (len(subset) - len(inner))
            total += sign * means[inner]
        beta[subset] = total
    return GdinaParams(beta)


def _powerset(items):
    items = list(items)
    return itertools.chain.from_iterable(
        itertools.combinations(items, n) for n in range(len(items) + 1)
    )


def draw_monotone_params(rng: np.random.Generator, family: str, q_row: np.ndarray):
    """One random parameter set of the given family that satisfies the
    monotonicity assumptions for an item with requirement row ``q_row``."""
    n_attributes = q_row.size
    required = [int(k) for k in np.flatnonzero(q_row)]
    if family == "DINA":
        return DinaParams(s=rng.uniform(0.05, 0.45), g=rng.uniform(0.05, 0.5))
    if family == "DINO":
        return DinoParams(s=rng.uniform(0.05, 0.45), g=rng.uniform(0.05, 0.5))
    if family == "LLM":
        beta = np.zeros(n_attributes)
        beta[required] = rng.uniform(0.5, 2.5, size=len(required))
        return LlmParams(beta0=rng.uniform(-2.0, 1.0), beta=tuple(beta))
    if family == "RRUM":
        penalties = np.full(n_attributes, 0.5)
        penalties[required] = rng.uniform(0.1, 0.8, size=len(required))
        return RrumParams(pi=rng.uniform(0.6, 0.95), r=tuple(penalties))
    if family == "GDINA":
        low = rng.uniform(0.05, 0.3)
        high = rng.uniform(0.7, 0.95)
        means = {frozenset(): low}
        for subset in map(frozenset, _powerset(required)):
            if not subset:
                continue
            if len(subset) == len(required):
                means[subset] = high
            else:
                means[subset] = rng.uniform(low + 0.02, high - 0.02)
        return gdina_from_group_means(required, means)
    raise ValueError(family)


def draw_monotone_item_params(rng: np.random.Generator, family: str, q: QMatrix):
    return [draw_monotone_params(rng, family, q.entries[j]) for j in range(q.n_items)]


def stacked_identity(n_attributes: int, copies: int) -> QMatrix:
    return QMatrix(np.vstack([np.eye(n_attributes, dtype=int)] * copies))


def reference_damped_newton(value, grad_neghess, coef, project=None, max_steps=50):
    """Newton ascent trying one halving at a time, each candidate its own
    ``value`` call: the M-step loop before each step's halvings became one
    array, kept as its oracle.  ``value`` maps one coefficient vector to a
    float."""
    current = value(coef)
    used = 0
    while used < max_steps:
        grad, neghess = grad_neghess(coef)
        try:
            step = np.linalg.solve(neghess + 1e-10 * np.eye(coef.size), grad)
        except np.linalg.LinAlgError:
            break
        scale = 1.0
        accepted = False
        while used < max_steps:
            used += 1
            candidate = coef + scale * step
            if project is not None:
                candidate = project(candidate)
            val = value(candidate)
            if np.isfinite(val) and val > current + 1e-12:
                coef, current = candidate, val
                accepted = True
                break
            scale *= 0.5
            if scale < 1e-8:
                break
        if not accepted:
            break
    return coef


def relative_margin_damped_newton(value, grad_neghess, coef, project=None, max_steps=50):
    """``reference_damped_newton`` with the M-step's acceptance margin
    relative to the objective: a candidate is taken when it gains more than
    max(1e-12, 1e-15 * |objective|).  Every scale down to 2**-26 is tried,
    without the M-step's two stops."""
    current = value(coef)
    used = 0
    while used < max_steps:
        grad, neghess = grad_neghess(coef)
        try:
            step = np.linalg.solve(neghess + 1e-10 * np.eye(coef.size), grad)
        except np.linalg.LinAlgError:
            break
        margin = max(1e-12, 1e-15 * abs(current))
        for scale in 0.5 ** np.arange(27):
            if used == max_steps:
                return coef
            used += 1
            candidate = coef + scale * step
            if project is not None:
                candidate = project(candidate)
            val = value(candidate)
            if np.isfinite(val) and val > current + margin:
                coef, current = candidate, val
                break
        else:
            break
    return coef


def reference_expected_counts(bits, counts, like, mixture, p):
    """Expected positives per (class, item) and class sizes through the
    N x 2**K posterior weights: the E-step counts before they became one
    GEMM, kept as their oracle."""
    weights = (counts / mixture)[:, None] * (like * p[None, :])
    return weights.T @ bits, weights.sum(axis=0)


def reference_build_tmatrix(theta: ThetaMatrix) -> TMatrix:
    """The marginal table filled one row at a time, each row reusing the row
    with its lowest set bit cleared: ``build_tmatrix`` before row doubling,
    kept as its oracle."""
    n_items = theta.n_items
    check_table_size(n_items, theta.n_attributes)
    values = theta.values
    out = np.empty((1 << n_items, values.shape[1]), dtype=np.float64)
    out[0] = 1.0
    for r in range(1, 1 << n_items):
        low = r & -r
        out[r] = out[r ^ low] * values[low.bit_length() - 1]
    return TMatrix(out)


def reference_response_distribution(theta: ThetaMatrix, p: ProportionVector) -> np.ndarray:
    """The 2**J x 2**K per-class table grown one item at a time, then mixed
    over profiles: ``response_distribution`` before the split-half GEMM,
    kept as its oracle."""
    if not theta.is_probability:
        raise ValueError("response distribution requires a probability table")
    if theta.values.shape[1] != p.probs.size:
        raise DimensionError(
            f"theta has {theta.values.shape[1]} columns, proportions have "
            f"{p.probs.size} entries"
        )
    check_table_size(theta.n_items, theta.n_attributes)
    per_class = np.ones((1, theta.values.shape[1]), dtype=np.float64)
    for j in range(theta.n_items):
        row = theta.values[j]
        per_class = np.concatenate([per_class * (1.0 - row), per_class * row], axis=0)
    return per_class @ p.probs


def reference_identical_columns(values):
    """(a, b) from a scan of every column pair: the first column a equal to a
    later one and the first such b, or None; ``incomplete_counterexample``'s
    search before it sorted the columns, kept as its oracle."""
    n_cols = values.shape[1]
    for a in range(n_cols):
        for b in range(a + 1, n_cols):
            if np.array_equal(values[:, a], values[:, b]):
                return a, b
    return None


def reference_c1_only_counterexample(n_attributes, extra_rows, dina_params, rho,
                                     anchor_guess) -> NonIdentifiablePair:
    """The c1-only pair with its second member written out by hand: capable
    values and proportions range-checked one by one, items 1 and 2 filled
    with ``np.where``.  ``c1_only_counterexample`` before it built that
    member through ``DinaParams``, ``theta_from_params`` and
    ``ProportionVector``, kept as its oracle."""
    q = c1_only_design(n_attributes, extra_rows)
    if len(dina_params) != q.n_items:
        raise DimensionError(
            f"expected {q.n_items} slip/guess pairs for this design, got {len(dina_params)}")
    rho = float(rho)
    if not rho > 0:
        raise ValueError(f"rho must be positive, got {rho}")
    theta = theta_from_params(q, list(dina_params))
    profiles = np.arange(1 << n_attributes)
    has_attr1 = (profiles & 1) == 1
    base = profiles[~has_attr1]
    pair_mass = 1.0 / (1 << (n_attributes - 1))
    probs = np.empty(1 << n_attributes)
    probs[base] = pair_mass * rho / (1.0 + rho)
    probs[base | 1] = pair_mass / (1.0 + rho)

    high1, low1 = 1.0 - dina_params[0].s, dina_params[0].g
    high2, low2 = 1.0 - dina_params[1].s, dina_params[1].g
    anchor1, anchor2 = (float(a) for a in anchor_guess)
    for value in (anchor1, anchor2):
        if not 0.0 < value < 1.0:
            raise ConstructionInfeasibleError(f"anchor {value} lies outside (0, 1)")
    u = (high1 - anchor1) + rho * (low1 - anchor1)
    v = (high2 - anchor2) + rho * (low2 - anchor2)
    cross = (high1 - anchor1) * (high2 - anchor2) + rho * (low1 - anchor1) * (low2 - anchor2)
    if min(abs(u), abs(v), abs(cross)) < 1e-12:
        raise ConstructionInfeasibleError("a denominator vanishes")
    alt_high1 = anchor1 + cross / v
    alt_high2 = anchor2 + cross / u
    for value, anchor in ((alt_high1, anchor1), (alt_high2, anchor2)):
        if not 0.0 < value < 1.0 or value <= anchor + 1e-12:
            raise ConstructionInfeasibleError(f"capable value {value} is infeasible")

    alt_probs = probs.copy()
    alt_probs[base | 1] = (u * v / cross) * probs[base | 1]
    alt_probs[base] = probs[base] + probs[base | 1] - alt_probs[base | 1]
    if (alt_probs <= 0).any() or (alt_probs >= 1).any():
        raise ConstructionInfeasibleError("a proportion lies outside (0, 1)")
    alt_values = theta.values.copy()
    alt_values[0] = np.where(has_attr1, alt_high1, anchor1)
    alt_values[1] = np.where(has_attr1, alt_high2, anchor2)
    return NonIdentifiablePair.build((theta, ProportionVector(probs)),
                                     (ThetaMatrix(alt_values), ProportionVector(alt_probs)))


def child_env() -> dict:
    """The environment for a child interpreter, with ``PYTHONPATH`` leading
    with the source tree this process imported ``rlcm`` from."""
    src = str(Path(rlcm.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def reference_simulate(theta: ThetaMatrix, p: ProportionVector, n_subjects: int,
                       seed: int) -> np.ndarray:
    """The codes ``simulate`` draws, packed as it packed them before the row
    gather and the float64 GEMM: an int64 matmul on theta's class columns,
    kept as their oracle."""
    rng = np.random.default_rng(seed)
    classes = rng.choice(p.probs.size, size=n_subjects, p=p.probs)
    uniforms = rng.random((n_subjects, theta.n_items))
    bits = uniforms < theta.values[:, classes].T
    weights = (1 << np.arange(theta.n_items)).astype(np.int64)
    return bits.astype(np.int64) @ weights


# The M-step one restart and one item at a time, and the EM loop one start at
# a time: the library's path before each family's M-step stacked every
# (restart, item) row, kept as its oracles.  An item is a family name and its
# ``models.ItemDesign``.


def reference_group_sums(design, pos, tot):
    """Expected positives and totals of each of one item's groups."""
    gpos = np.bincount(design.group_ids, weights=pos, minlength=design.n_groups)
    gtot = np.bincount(design.group_ids, weights=tot, minlength=design.n_groups)
    return gpos, gtot


def reference_two_rate_update(pos, tot, mask, current):
    """Weighted rates for the two capability groups, high kept above low;
    if the unconstrained rates invert, both collapse to the pooled rate."""
    high, low = current
    pos1, tot1 = float(pos[mask].sum()), float(tot[mask].sum())
    pos0, tot0 = float(pos[~mask].sum()), float(tot[~mask].sum())
    if tot1 > 0:
        high = pos1 / tot1
    if tot0 > 0:
        low = pos0 / tot0
    if high <= low:
        high = low = (pos1 + pos0) / (tot1 + tot0)
    return high, low


def one_vector_damped_newton(value, grad_neghess, coef, project=None, max_steps=None):
    """The Newton ascent of one coefficient vector, with the library's margin,
    stops and budget (``models.MAX_STEPS`` unless ``max_steps`` is given);
    ``value`` maps one vector to a float."""
    max_steps = rlcm.models.MAX_STEPS if max_steps is None else max_steps
    current = value(coef)
    used = 0
    while used < max_steps:
        grad, neghess = grad_neghess(coef)
        try:
            step = np.linalg.solve(neghess + 1e-10 * np.eye(coef.size), grad)
        except np.linalg.LinAlgError:
            break
        gain = grad @ step
        margin = max(1e-12, 1e-15 * abs(current))
        for scale in 0.5 ** np.arange(min(27, max_steps - used)):
            candidate = coef + scale * step
            if project is not None:
                candidate = project(candidate)
            if scale * gain <= 2 * margin or np.array_equal(candidate, coef):
                return coef
            used += 1
            val = value(candidate)
            if np.isfinite(val) and val > current + margin:
                coef, current = candidate, val
                break
        else:
            break
    return coef


def one_newton_step(value, grad_neghess, coef, project=None, max_steps=None):
    """One step of ``one_vector_damped_newton``: its ladder of halvings run
    once from ``coef``, with the same margin, stops and cap; the result is
    the first improving candidate, else ``coef``."""
    max_steps = rlcm.models.MAX_STEPS if max_steps is None else max_steps
    current = value(coef)
    grad, neghess = grad_neghess(coef)
    try:
        step = np.linalg.solve(neghess + 1e-10 * np.eye(coef.size), grad)
    except np.linalg.LinAlgError:
        return coef
    gain = grad @ step
    margin = max(1e-12, 1e-15 * abs(current))
    for scale in 0.5 ** np.arange(min(27, max_steps)):
        candidate = coef + scale * step
        if project is not None:
            candidate = project(candidate)
        if scale * gain <= 2 * margin or np.array_equal(candidate, coef):
            break
        val = value(candidate)
        if np.isfinite(val) and val > current + margin:
            return candidate
    return coef


def _item_designs(design):
    """One item's logit and log-link design rows, one per group."""
    gbits = rlcm.core.bit_matrix(np.arange(design.n_groups), len(design.required)).astype(np.float64)
    ones = np.ones((design.n_groups, 1))
    return np.hstack([ones, gbits]), np.hstack([ones, 1.0 - gbits])


def reference_newton_problem(family, design, coef, pos, tot):
    """The objective, derivatives, start and projection of one LLM or RRUM
    item's M-step, for ``one_vector_damped_newton``."""
    gpos, gtot = reference_group_sums(design, pos, tot)
    logit, loglink = _item_designs(design)
    x, link = (logit, rlcm.models._sigmoid) if family == "LLM" else (loglink, np.exp)

    def value(c):
        mu = np.clip(link(x @ c), THETA_CLAMP, 1.0 - THETA_CLAMP)
        return (np.log(mu) * gpos).sum() + (np.log1p(-mu) * (gtot - gpos)).sum()

    if family == "LLM":
        def grad_neghess(c):
            mu = rlcm.models._sigmoid(x @ c)
            grad = x.T @ (gpos - gtot * mu)
            weight = gtot * mu * (1.0 - mu)
            return grad, (x.T * weight) @ x

        return value, grad_neghess, coef, None

    bound = np.r_[0.0, np.full(coef.size - 1, -1e-9)]

    def project(c):
        return np.minimum(c, bound)

    def grad_neghess(c):
        mu = np.clip(np.exp(x @ c), THETA_CLAMP, 1.0 - THETA_CLAMP)
        ratio = mu / (1.0 - mu)
        grad = x.T @ (gpos - (gtot - gpos) * ratio)
        weight = (gtot - gpos) * ratio / (1.0 - mu)
        return grad, (x.T * weight) @ x

    return value, grad_neghess, project(coef), project


def reference_item_row(family, design, coef):
    """One item's theta row from its coefficients."""
    logit, loglink = _item_designs(design)
    if family in ("DINA", "DINO"):
        mask = design.group_ids == design.n_groups - 1 if family == "DINA" \
            else design.group_ids != 0
        return np.where(mask, coef[0], coef[1])
    if family == "GDINA":
        return coef[design.group_ids]
    if family == "LLM":
        return rlcm.models._sigmoid(logit @ coef)[design.group_ids]
    return np.exp(loglink @ coef)[design.group_ids]


def reference_item_update(family, design, coef, pos, tot):
    """One item's M-step from the per-class expected counts ``pos`` and
    ``tot``."""
    if family in ("DINA", "DINO"):
        mask = design.group_ids == design.n_groups - 1 if family == "DINA" \
            else design.group_ids != 0
        return np.array(reference_two_rate_update(pos, tot, mask, coef))
    if family == "GDINA":
        gpos, gtot = reference_group_sums(design, pos, tot)
        return np.divide(gpos, gtot, out=coef.copy(), where=gtot > 0)
    value, grad_neghess, start, project = reference_newton_problem(family, design, coef, pos, tot)
    return one_vector_damped_newton(value, grad_neghess, start, project)


def reference_run_em(counts, bits_one, items, coefs, p, n_subjects, max_iters, tol):
    """EM from one start, one item at a time; ``items`` pairs each item's
    family name with its design.  Returns (trace, converged, coefs, p) and
    raises ``EmError`` at a non-finite log-likelihood."""
    inference = rlcm.inference
    trace = []
    converged = False
    for iteration in range(max_iters + 1):
        theta_vals = np.vstack([reference_item_row(fam, d, c) for (fam, d), c in zip(items, coefs)])
        ll, pos, tot = inference._e_step(counts, bits_one, theta_vals, p, True)
        if not np.isfinite(ll):
            raise inference.EmError(f"non-finite log-likelihood at iteration {iteration}")
        trace.append(ll)
        if len(trace) > 1 and trace[-1] - trace[-2] < tol:
            converged = True
            break
        if iteration == max_iters:
            break
        p = np.maximum(tot / n_subjects, inference.P_FLOOR)
        p = p / p.sum()
        coefs = [reference_item_update(fam, design, c, pos[:, j], tot)
                 for j, ((fam, design), c) in enumerate(zip(items, coefs))]
    return trace, converged, coefs, p


def one_start_at_a_time(counts, bits_one, layout, starts, n_subjects, max_iters, tol):
    """``inference._run_em``'s block interface over ``reference_run_em``:
    each start runs alone, and a failed one gives its ``EmError``."""
    items = list(zip(layout.names, layout.designs))
    outcomes = []
    for coefs, p in starts:
        try:
            outcomes.append(reference_run_em(counts, bits_one, items, coefs, p, n_subjects,
                                             max_iters, tol))
        except rlcm.inference.EmError as exc:
            outcomes.append(exc)
    return outcomes


def reference_link_row(stack, coef):
    """``models._Binomial.row`` as each group's 0/1 design row times its
    item's coefficients: 1, then the bits of group ``read[g]``, zero-padded
    to the widest item.  The products are column-major, so numpy sums each
    row term by term in coefficient order."""
    design = np.c_[np.ones(stack.item.size),
                   rlcm.core.bit_matrix(stack.group[stack.read], stack.widths.max())]
    eta = np.multiply(coef[:, stack.item], design, order="F").sum(axis=-1)
    return np.exp(eta, out=rlcm.models._sigmoid(eta), where=stack.log)


def reference_e_step(counts, bits_one, theta_values, p, want_counts=False):
    """``inference._e_step`` by brute force: the per-item product
    likelihood of every pattern at once and the counts through the
    posterior weights."""
    bits = bits_one[:, :-1]
    like = reference_likelihood(bits, theta_values)
    mixture = like @ p
    ll = float(counts @ np.log(mixture))
    if not want_counts:
        return ll, None, None
    return (ll, *reference_expected_counts(bits, counts, like, mixture, p))


def reference_tmatrix_text(theta: ThetaMatrix, p, display_order: str) -> str:
    """``rlcm tmatrix``'s output (the marginal table and, when ``p`` is given,
    the response distribution and dominance vectors) formed as one string:
    every line of the dump at once, then joined.  The dump before it was
    written one block of rows at a time, kept as its oracle."""
    def order(n_bits):
        return (rlcm.weight_graded_order(n_bits) if display_order == "weight"
                else np.arange(1 << n_bits))

    t = rlcm.build_tmatrix(theta)
    row_perm, col_perm = order(theta.n_items), order(theta.n_attributes)
    lines = [
        "# marginal table; rows = response patterns, columns = attribute profiles",
        f"# encoding: {CANONICAL_ORDER}; display order: {display_order}",
        "# columns: " + ",".join(str(int(c)) for c in col_perm),
    ]
    rows = row_perm.tolist()
    for r, values in zip(rows, t.values[np.ix_(row_perm, col_perm)].tolist()):
        lines.append(f"{r}," + ",".join(map(repr, values)))
    if p is not None:
        dist = rlcm.response_distribution(theta, p)[row_perm].tolist()
        dominance = rlcm.marginal_vector(t, p)[row_perm].tolist()
        lines.append("# pattern,probability,dominance_probability")
        lines.extend(f"{r},{d!r},{m!r}" for r, d, m in zip(rows, dist, dominance))
    return "\n".join(lines) + "\n"


def population_patterns(theta: ThetaMatrix, p, n_subjects: float):
    """Population data of a model with J <= 10 items: every one of the 2**J
    patterns, ``n_subjects`` times its probability ``response_distribution``,
    and its ``[bits | 1]`` row, as ``inference._run_em`` takes them."""
    assert theta.n_items <= 10
    counts = n_subjects * rlcm.response_distribution(theta, p)
    bits = rlcm.core.bit_matrix(np.arange(counts.size), theta.n_items)
    return counts, np.hstack([bits, np.ones((counts.size, 1))])
