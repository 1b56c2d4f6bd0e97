"""Item parameterizations for the five standard cognitive-diagnosis families.

Each item carries one of DINA, DINO, G-DINA, LLM (logit link) or reduced
RUM (log link) parameters; families may be mixed within a test.  The only
structure the downstream theory needs from a parameterization is the
monotonicity of the resulting response-probability table, which
``check_monotonicity`` verifies numerically.

Under the Q-restriction an item's response probability depends on a
profile only through its sub-pattern on the required attributes
(``ItemDesign``), so the families differ only in how a coefficient vector
maps onto those groups.  Each family is one frozen parameter dataclass in
``FAMILY``: its fields and their checks, params <-> coefficients, theta
row, EM M-step and random start, and the JSON fields from which its item
schema, ``to_dict`` and ``from_dict`` follow.  A new family is one such
dataclass and one entry.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple, Sequence, Tuple, Union

import numpy as np
from numpy.typing import NDArray

from .core import (
    DimensionError,
    QMatrix,
    ThetaMatrix,
    bit_matrix,
    enumerate_profiles,
    zeta_transform,
)

EQ_TOL = 1e-10  # equality within this, strictness means margin beyond it
THETA_CLAMP = 1e-12   # keeps logs finite during fitting
MAX_STEPS = 50        # Newton candidates per M-step


class InvalidParameterError(ValueError):
    """Item parameters produce an out-of-range response probability."""


def _sigmoid(x: NDArray[np.float64]) -> NDArray[np.float64]:
    return np.exp(-np.logaddexp(0.0, -x))


def _subset_sums(beta: Mapping[frozenset, float], attrs) -> NDArray[np.float64]:
    """Entry m: sum of beta over stored subsets inside the subset that bit
    mask m encodes, bit i standing for ``attrs[i]``."""
    pos = {a: i for i, a in enumerate(attrs)}
    sums = np.zeros(1 << len(attrs))
    for key, value in beta.items():
        sums[sum(1 << pos[a] for a in key)] += value
    return zeta_transform(sums)


class ItemDesign:
    """The 2**K profiles of one item in 2**|q_j| groups: profile a is in group
    m when the item's required attributes, in increasing order, read as bit
    mask m in a.  Built from the item's Q-matrix row alone."""

    def __init__(self, q_row):
        q_row = np.asarray(q_row)
        self.n_attributes = q_row.size
        self.required = [int(k) for k in np.flatnonzero(q_row)]
        m = len(self.required)
        self.n_groups = 1 << m
        profiles = enumerate_profiles(self.n_attributes)
        group_ids = np.zeros(profiles.size, dtype=np.int64)
        for i, attr in enumerate(self.required):
            group_ids |= ((profiles >> attr) & 1) << i
        self.group_ids = group_ids
        self.capable = group_ids == self.n_groups - 1
        self.touched = group_ids != 0
        gbits = bit_matrix(np.arange(self.n_groups), m).astype(np.float64)
        self.logit_design = np.hstack([np.ones((self.n_groups, 1)), gbits])
        self.loglink_design = np.hstack([np.ones((self.n_groups, 1)), 1.0 - gbits])

    def group_sums(self, pos: NDArray, tot: NDArray):
        gpos = np.bincount(self.group_ids, weights=pos, minlength=self.n_groups)
        gtot = np.bincount(self.group_ids, weights=tot, minlength=self.n_groups)
        return gpos, gtot


def _two_rate_update(pos: NDArray, tot: NDArray, mask: NDArray,
                     current: Tuple[float, float]) -> Tuple[float, float]:
    """Weighted rates for the two capability groups, high kept above low.

    With the masks fixed this is plain counting; if the unconstrained
    rates invert, both groups collapse to the pooled rate, the boundary
    of the constrained region.
    """
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


def _damped_newton(value, grad_neghess, coef, project=None):
    """Maximize by Newton steps, halving until the objective improves.

    A step tries scales 1, 1/2, ..., 2**-26 (the last above 1e-8), one
    ``value`` call each, and takes the first candidate that gains more than
    the margin max(1e-12, 1e-15 * |objective|); ``MAX_STEPS`` bounds the
    candidates.  The ascent ends, without evaluating, at a scale whose
    predicted gain ``scale * grad @ step`` is at most twice that margin, or
    at a candidate that is the current point (as when ``project`` maps the
    step back onto it): every smaller scale would give that point too.
    """
    current = value(coef)
    used = 0
    while used < MAX_STEPS:
        grad, neghess = grad_neghess(coef)
        try:
            step = np.linalg.solve(neghess + 1e-10 * np.eye(coef.size), grad)
        except np.linalg.LinAlgError:
            break
        gain = grad @ step
        margin = max(1e-12, 1e-15 * abs(current))
        for scale in 0.5 ** np.arange(min(27, MAX_STEPS - used)):
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


def _binomial_objective(link, x, gpos, gtot):
    """Group log-likelihood of coefficients c, mu = link(x @ c) clipped."""
    def value(c):
        mu = np.clip(link(x @ c), THETA_CLAMP, 1.0 - THETA_CLAMP)
        return (np.log(mu) * gpos).sum() + (np.log1p(-mu) * (gtot - gpos)).sum()

    return value


class JsonField(NamedTuple):
    """One field of an item's JSON document, named as the parameter attribute."""

    schema: dict
    encode: Callable    # attribute value -> JSON value
    decode: Callable    # JSON value that passed ``schema`` -> constructor argument


_NUMBER = JsonField({"type": "number"}, float, float)
# the constructors cast each entry to float
_NUMBERS = JsonField({"type": "array", "items": {"type": "number"}}, list, tuple)
_SUBSET_KEY = re.compile(r"([0-9]+(,[0-9]+)*)?")


def _decode_subsets(beta: dict) -> dict:
    """G-DINA ``beta`` keyed by subsets; a key that is not comma-separated
    attribute indices, or a second key naming the same subset, is rejected."""
    subsets, keys = {}, {}
    for key, value in beta.items():
        if not _SUBSET_KEY.fullmatch(key):
            raise InvalidParameterError(
                f"beta: key {key!r} is not comma-separated 0-based attribute indices")
        subset = frozenset(int(a) for a in key.split(",") if a != "")
        if subset in keys:
            raise InvalidParameterError(
                f"beta: keys {keys[subset]!r} and {key!r} name the same subset")
        subsets[subset], keys[subset] = float(value), key
    return subsets


_SUBSETS = JsonField(
    {"type": "object", "additionalProperties": {"type": "number"},
     "description": "keys are comma-separated 0-based attribute indices; '' is the empty set"},
    lambda beta: {",".join(str(a) for a in sorted(key)): value for key, value in beta.items()},
    _decode_subsets,
)


class _Item:
    """What every family shares: its JSON form, derived from the class's
    ``family`` name and its declared ``fields``."""

    family: str
    fields: Mapping[str, JsonField]

    @classmethod
    def schema(cls) -> dict:
        """JSON schema of one item of this family."""
        return {"type": "object", "required": ["family", *cls.fields],
                "properties": {"family": {"const": cls.family},
                               **{key: f.schema for key, f in cls.fields.items()}}}

    def to_dict(self) -> dict:
        return {"family": self.family,
                **{key: f.encode(getattr(self, key)) for key, f in self.fields.items()}}

    @classmethod
    def from_dict(cls, doc: dict):
        """Parameters from an item document that has passed ``schema``."""
        return cls(**{key: f.decode(doc[key]) for key, f in cls.fields.items()})


@dataclass(frozen=True)
class _TwoRate(_Item):
    """DINA and DINO: slip s and guess g with 1 - s > g; rate 1 - s on the
    profiles that ``mask`` names, g off them.  Coefficients: (1 - s, g)."""

    s: float
    g: float

    fields = {"s": _NUMBER, "g": _NUMBER}

    def __post_init__(self):
        s, g = self.s, self.g
        if not (0.0 < s < 1.0 and 0.0 < g < 1.0):
            raise InvalidParameterError(
                f"{self.family}: s and g must lie in (0, 1), got s={s}, g={g}")
        if not 1.0 - s > g:
            raise InvalidParameterError(f"{self.family}: requires 1 - s > g, got s={s}, g={g}")

    def coef(self, design: ItemDesign, item: int) -> NDArray[np.float64]:
        return np.array([1.0 - self.s, self.g])

    @classmethod
    def row(cls, design: ItemDesign, coef) -> NDArray[np.float64]:
        return np.where(getattr(design, cls.mask), coef[0], coef[1])

    @classmethod
    def update(cls, design: ItemDesign, coef, pos, tot) -> NDArray[np.float64]:
        return np.array(_two_rate_update(pos, tot, getattr(design, cls.mask), coef))

    @staticmethod
    def init(design: ItemDesign, rng) -> NDArray[np.float64]:
        s, g = rng.uniform(0.05, 0.3, size=2)
        return np.array([1.0 - s, g])

    @classmethod
    def from_coef(cls, design: ItemDesign, coef):
        high, low = (float(c) for c in coef)
        if high - low < 1e-9:
            mid = (high + low) / 2.0
            high, low = mid + 5e-10, mid - 5e-10
        high = min(max(high, 2e-12), 1.0 - 1e-12)
        low = min(max(low, 1e-12), high - 1e-12)
        return cls(s=1.0 - high, g=low)


@dataclass(frozen=True)
class DinaParams(_TwoRate):
    """Conjunctive item: rate 1 - s with every required attribute, g without."""

    family = "DINA"
    mask = "capable"


@dataclass(frozen=True)
class DinoParams(_TwoRate):
    """Disjunctive item: rate 1 - s with any required attribute, g without."""

    family = "DINO"
    mask = "touched"


@dataclass(frozen=True)
class GdinaParams(_Item):
    """Additive-effects item: coefficients keyed by attribute subsets.

    ``beta`` maps frozensets of 0-based attribute indices to real
    coefficients; the empty set holds the baseline.  Subsets absent from
    the map contribute nothing.  The response probability for profile
    ``alpha`` is the sum of coefficients over stored subsets contained in
    ``alpha``, so every such partial sum must lie in [0, 1].  Coefficients:
    one free response probability per group.
    """

    beta: Mapping[frozenset, float]

    family = "GDINA"
    fields = {"beta": _SUBSETS}

    def __post_init__(self):
        canon = {frozenset(int(a) for a in key): float(v) for key, v in self.beta.items()}
        if len(canon) != len(self.beta):
            raise InvalidParameterError("GDINA: duplicate attribute subsets in beta")
        if frozenset() not in canon:
            raise InvalidParameterError("GDINA: beta must include the empty-set baseline")
        if any(a < 0 for key in canon for a in key):
            raise InvalidParameterError("GDINA: attribute indices must be non-negative")
        object.__setattr__(self, "beta", MappingProxyType(canon))
        sums = self.partial_sums()
        bad = (sums < -1e-12) | (sums > 1 + 1e-12)
        if bad.any():
            raise InvalidParameterError(
                f"GDINA: partial sum {sums[bad][0]:.6g} outside [0, 1]"
            )

    @property
    def attributes(self) -> frozenset:
        """Union of all attribute indices referenced by beta."""
        return frozenset().union(*self.beta.keys())

    def partial_sums(self) -> NDArray[np.float64]:
        """Coefficient sums for every subset of the referenced attributes.

        Entry m of the result is the sum of beta over stored subsets
        contained in the subset encoded by bit mask m (bits follow the
        sorted order of ``self.attributes``).
        """
        return _subset_sums(self.beta, sorted(self.attributes))

    def coef(self, design: ItemDesign, item: int) -> NDArray[np.float64]:
        if not self.attributes <= set(design.required):
            extra = sorted(self.attributes - set(design.required))
            raise InvalidParameterError(
                f"GDINA: item {item} beta references attributes {extra} "
                f"not required by its Q-matrix row"
            )
        # every partial sum is already checked against [0, 1] +- 1e-12
        return np.clip(_subset_sums(self.beta, design.required), 0.0, 1.0)

    @staticmethod
    def row(design: ItemDesign, coef) -> NDArray[np.float64]:
        return coef[design.group_ids]

    @staticmethod
    def update(design: ItemDesign, coef, pos, tot) -> NDArray[np.float64]:
        gpos, gtot = design.group_sums(pos, tot)
        return np.divide(gpos, gtot, out=coef.copy(), where=gtot > 0)

    @staticmethod
    def init(design: ItemDesign, rng) -> NDArray[np.float64]:
        lo, hi = rng.uniform(0.05, 0.3), rng.uniform(0.7, 0.95)
        size = np.array([bin(m).count("1") for m in range(design.n_groups)])
        frac = size / max(len(design.required), 1)
        means = lo + (hi - lo) * frac + rng.uniform(-0.02, 0.02, design.n_groups)
        return np.clip(means, 0.01, 0.99)

    @classmethod
    def from_coef(cls, design: ItemDesign, coef):
        beta = zeta_transform(np.clip(coef, 0.0, 1.0), inverse=True)
        return cls({
            frozenset(a for i, a in enumerate(design.required) if mask >> i & 1): float(b)
            for mask, b in enumerate(beta)
        })


@dataclass(frozen=True)
class LlmParams(_Item):
    """Logit-link item: intercept and one slope per attribute.

    Slopes are consulted only where the item's Q-matrix row is 1; the
    rest are conventionally zero.  Coefficients: intercept, then the
    required slopes.
    """

    beta0: float
    beta: tuple = ()

    family = "LLM"
    fields = {"beta0": _NUMBER, "beta": _NUMBERS}

    def __post_init__(self):
        beta = tuple(float(b) for b in self.beta)
        object.__setattr__(self, "beta", beta)
        if not np.isfinite([self.beta0, *beta]).all():
            raise InvalidParameterError("LLM: coefficients must be finite")

    def coef(self, design: ItemDesign, item: int) -> NDArray[np.float64]:
        if len(self.beta) != design.n_attributes:
            raise DimensionError(
                f"LLM: item {item} has {len(self.beta)} slopes for "
                f"{design.n_attributes} attributes"
            )
        return np.concatenate([[self.beta0], np.asarray(self.beta)[design.required]])

    @staticmethod
    def row(design: ItemDesign, coef) -> NDArray[np.float64]:
        return _sigmoid(design.logit_design @ coef)[design.group_ids]

    @staticmethod
    def update(design: ItemDesign, coef, pos, tot) -> NDArray[np.float64]:
        gpos, gtot = design.group_sums(pos, tot)
        x = design.logit_design
        value = _binomial_objective(_sigmoid, x, gpos, gtot)

        def grad_neghess(c):
            mu = _sigmoid(x @ c)
            grad = x.T @ (gpos - gtot * mu)
            weight = gtot * mu * (1.0 - mu)
            return grad, (x.T * weight) @ x

        return _damped_newton(value, grad_neghess, coef)

    @staticmethod
    def init(design: ItemDesign, rng) -> NDArray[np.float64]:
        return np.concatenate([
            rng.uniform(-0.35, 0.35, 1),
            rng.uniform(0.05, 0.5, len(design.required)),
        ])

    @classmethod
    def from_coef(cls, design: ItemDesign, coef):
        slopes = np.zeros(design.n_attributes)
        slopes[design.required] = coef[1:]
        return cls(beta0=float(coef[0]), beta=tuple(slopes))


@dataclass(frozen=True)
class RrumParams(_Item):
    """Log-link item: baseline probability and one penalty per attribute.

    ``pi`` is the positive-response probability of fully capable
    profiles; each missing required attribute multiplies it by the
    corresponding penalty in (0, 1).  Penalties are consulted only where
    the Q-matrix row is 1.  Coefficients: log pi, then the logs of the
    required penalties.
    """

    pi: float
    r: tuple = ()

    family = "RRUM"
    fields = {"pi": _NUMBER, "r": _NUMBERS}

    def __post_init__(self):
        r = tuple(float(v) for v in self.r)
        object.__setattr__(self, "r", r)
        if not 0.0 < self.pi <= 1.0:
            raise InvalidParameterError(f"RRUM: pi must lie in (0, 1], got {self.pi}")
        if any(not 0.0 < v < 1.0 for v in r):
            raise InvalidParameterError("RRUM: every penalty must lie strictly in (0, 1)")

    def coef(self, design: ItemDesign, item: int) -> NDArray[np.float64]:
        if len(self.r) != design.n_attributes:
            raise DimensionError(
                f"RRUM: item {item} has {len(self.r)} penalties for "
                f"{design.n_attributes} attributes"
            )
        return np.concatenate([[np.log(self.pi)],
                               np.log(np.asarray(self.r)[design.required])])

    @staticmethod
    def row(design: ItemDesign, coef) -> NDArray[np.float64]:
        return np.exp(design.loglink_design @ coef)[design.group_ids]

    @staticmethod
    def update(design: ItemDesign, coef, pos, tot) -> NDArray[np.float64]:
        # coef holds logs: intercept = log(baseline prob), slopes = log(penalties)
        gpos, gtot = design.group_sums(pos, tot)
        x = design.loglink_design
        bound = np.r_[0.0, np.full(coef.size - 1, -1e-9)]
        value = _binomial_objective(np.exp, x, gpos, gtot)

        def project(c):
            return np.minimum(c, bound)

        def grad_neghess(c):
            mu = np.clip(np.exp(x @ c), THETA_CLAMP, 1.0 - THETA_CLAMP)
            ratio = mu / (1.0 - mu)
            grad = x.T @ (gpos - (gtot - gpos) * ratio)
            weight = (gtot - gpos) * ratio / (1.0 - mu)
            return grad, (x.T * weight) @ x

        return _damped_newton(value, grad_neghess, project(coef), project=project)

    @staticmethod
    def init(design: ItemDesign, rng) -> NDArray[np.float64]:
        return np.concatenate([
            np.log(rng.uniform(0.75, 0.95, 1)),
            np.log(rng.uniform(0.55, 0.9, len(design.required))),
        ])

    @classmethod
    def from_coef(cls, design: ItemDesign, coef):
        # sparse data can drive a log-penalty so far below 0 that exp gives 0
        tiny = np.finfo(float).smallest_subnormal
        penalties = np.full(design.n_attributes, 0.5)
        penalties[design.required] = np.clip(np.exp(coef[1:]), tiny, np.nextafter(1.0, 0.0))
        return cls(pi=float(np.clip(np.exp(coef[0]), tiny, 1.0)), r=tuple(penalties))


ItemParams = Union[DinaParams, DinoParams, GdinaParams, LlmParams, RrumParams]

FAMILY = {cls.family: cls for cls in (DinaParams, DinoParams, GdinaParams, LlmParams, RrumParams)}

FAMILIES = tuple(FAMILY)


def theta_from_params(q: QMatrix, params: Sequence[ItemParams]) -> ThetaMatrix:
    """Build the J x 2**K response-probability table for the given items.

    Parameters
    ----------
    q : QMatrix
        Design matrix; row j restricts which attributes may affect item j.
    params : sequence of ItemParams
        One parameter object per item; families may be mixed.

    Returns
    -------
    ThetaMatrix
        Probability table with columns in binary-counter profile order.

    Raises
    ------
    InvalidParameterError
        If any coefficient combination puts a probability outside [0, 1]
        or references attributes the item does not require.
    """
    if len(params) != q.n_items:
        raise DimensionError(
            f"expected {q.n_items} item parameter sets, got {len(params)}"
        )
    rows = []
    for j, item in enumerate(params):
        if not isinstance(item, _Item):
            raise TypeError(f"unknown item parameter type {type(item).__name__}")
        design = ItemDesign(q.entries[j])
        rows.append(item.row(design, item.coef(design, j)))
    return ThetaMatrix(np.vstack(rows))


@dataclass(frozen=True)
class MonotonicityViolation:
    item: int
    kind: str
    detail: str


@dataclass(frozen=True)
class MonotonicityReport:
    """Outcome of the monotonicity check; empty violations means pass."""

    violations: tuple = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def kinds(self) -> set:
        return {v.kind for v in self.violations}


def check_monotonicity(q: QMatrix, theta: ThetaMatrix) -> MonotonicityReport:
    """Check the two ordering assumptions the theory places on a table.

    For every item the capable profiles (those dominating the item's
    requirement row) must share a single value, that value must be the
    row maximum, and the zero profile must be the row minimum.  For every
    single-attribute item the fully capable profile must strictly exceed
    every profile missing that attribute.

    Violations are reported as data, one record per failed clause:
    ``capable-not-constant``, ``capable-not-maximal``,
    ``baseline-not-minimal`` and ``singleton-gap-not-strict``.
    """
    if not theta.is_probability:
        raise ValueError("monotonicity check expects a probability table")
    if theta.n_items != q.n_items or theta.n_attributes != q.n_attributes:
        raise DimensionError(
            f"theta shape {theta.values.shape} does not match Q "
            f"{q.n_items}x{q.n_attributes}"
        )
    profiles = enumerate_profiles(q.n_attributes)
    codes = q.row_codes
    violations = []
    for j in range(q.n_items):
        row = theta.values[j]
        capable = (profiles & codes[j]) == codes[j]
        cap = row[capable]
        if cap.max() - cap.min() > EQ_TOL:
            violations.append(MonotonicityViolation(
                j, "capable-not-constant",
                f"capable values spread over [{cap.min():.6g}, {cap.max():.6g}]"))
        if row.max() > cap.max() + EQ_TOL:
            violations.append(MonotonicityViolation(
                j, "capable-not-maximal",
                f"profile {int(row.argmax())} has {row.max():.6g} above "
                f"capable value {cap.max():.6g}"))
        if row.min() < row[0] - EQ_TOL:
            violations.append(MonotonicityViolation(
                j, "baseline-not-minimal",
                f"profile {int(row.argmin())} has {row.min():.6g} below "
                f"zero-profile value {row[0]:.6g}"))
    for k in range(q.n_attributes):
        singleton = 1 << k
        for j in np.flatnonzero(codes == singleton):
            row = theta.values[j]
            missing = (profiles & singleton) == 0
            gap = row[-1] - row[missing].max()
            if gap <= EQ_TOL:
                violations.append(MonotonicityViolation(
                    int(j), "singleton-gap-not-strict",
                    f"full profile at {row[-1]:.6g} does not strictly exceed "
                    f"max {row[missing].max():.6g} over profiles lacking "
                    f"attribute {k}"))
    return MonotonicityReport(tuple(violations))


def dina_params_from_theta(q: QMatrix, theta: ThetaMatrix) -> list:
    """Recover per-item slip/guess pairs from a DINA-structured table.

    Requires every row to be two-valued by capability group; used to seed
    estimation at an explicitly constructed parameter point.
    """
    if theta.n_items != q.n_items or theta.n_attributes != q.n_attributes:
        raise DimensionError("theta does not match Q")
    out = []
    for j in range(q.n_items):
        row = theta.values[j]
        capable = ItemDesign(q.entries[j]).capable
        cap, non = row[capable], row[~capable]
        if cap.max() - cap.min() > 1e-9 or (non.size and non.max() - non.min() > 1e-9):
            raise ValueError(f"item {j} table row is not DINA-structured")
        out.append(DinaParams(s=1.0 - float(cap[0]), g=float(non[0])))
    return out
