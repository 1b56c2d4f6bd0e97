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
``FAMILY`` that derives from ``ItemParams``, the public item type: its
fields and their checks, params <-> coefficients, random start, and the
JSON fields from which its item schema, ``to_dict`` and ``from_dict``
follow.  A new family is one such dataclass and one entry.  A closed-form
family also holds its theta row and EM M-step; a link family (LLM, RRUM)
declares its link and coefficient caps, and ``_Binomial`` forms the theta
rows and runs the M-step of every link item of a test at once.  Theta rows
and M-steps work on a ``FamilyStack``, every (restart, item) row at once;
the parameters, their coefficients and the random start are per item.
"""

from __future__ import annotations

import contextlib
import numbers
import re
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np
from numpy.typing import NDArray

from .core import (
    DimensionError,
    QMatrix,
    ThetaMatrix,
    _check_agreement,
    _number,
    _zeta_pass,
    enumerate_profiles,
    zeta_transform,
)

EQ_TOL = 1e-10  # equality within this, strictness means margin beyond it
THETA_CLAMP = 1e-12   # keeps logs finite during fitting
MAX_STEPS = 50        # caps a Newton step's candidates; binds only below its 27 scales


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
    with np.errstate(over="ignore"):   # a sum beyond float range is inf, outside [0, 1]
        return zeta_transform(sums)


class ItemDesign:
    """The 2**K profiles of one item in 2**|q_j| groups: profile a is in group
    m when the item's required attributes, in increasing order, read as bit
    mask m in a.  Built from the item's Q-matrix row alone."""

    def __init__(self, q_row):
        q_row = np.asarray(q_row)
        self.n_attributes = q_row.size
        self.required = [int(k) for k in np.flatnonzero(q_row)]
        self.n_groups = 1 << len(self.required)

    @property
    def group_ids(self) -> NDArray[np.int64]:
        """Each profile's group, 2**K entries formed on each call."""
        profiles = enumerate_profiles(self.n_attributes)
        group_ids = np.zeros(profiles.size, dtype=np.int64)
        for i, attr in enumerate(self.required):
            group_ids |= ((profiles >> attr) & 1) << i
        return group_ids


class FamilyStack:
    """Items, widest first, their groups concatenated item after item.

    Group g is group ``group[g]`` of item ``item[g]``, and item i's groups
    begin at ``starts[i]``, a multiple of their count as widths never rise:
    ``np.add.reduceat(a, starts, axis=-1)`` sums an array over groups item
    by item, so groups are never padded.  ``capable`` and ``touched`` mark
    the groups with every and with any required attribute, all that a stack
    without a link family holds; ``log`` marks those of a log-link item
    (each item's family, one of ``families``, names its ``link``).

    A link item's coefficients are its intercept, then one per required
    attribute, zero-padded to the widest item (``widths`` holds each item's
    count).  ``grad_index`` names each coefficient's group: the intercept's
    is the item's empty group, attribute a's its group of bit a - 1, and a
    padded one's the spare slot past the last group, which no pass and no
    ``read`` touches.  Scattered there, the sums over each group's subsets
    are the linear predictors, and group g reads its own at group
    ``read[g]``: g on a logit item, g's complement (the group with the other
    required attributes) on a log-link item, whose coefficient counts an
    attribute's absence.  The derivatives sum over the supersets of the
    group of one or two bits, named by ``grad_index`` and ``hess_index``,
    so a padded coefficient has zero gradient and never moves.
    ``core._zeta_pass`` forms both kinds of sum, its pass for bit k over the
    ``ends[k]`` groups of the items wider than k.  ``bound`` caps each
    item's coefficients at its family's ``caps``, a padded one at inf.
    """

    def __init__(self, designs: Sequence[ItemDesign], families: Sequence[type]):
        sizes = np.array([d.n_groups for d in designs])
        self.widths = np.array([len(d.required) for d in designs])
        if (np.diff(self.widths) > 0).any():
            raise ValueError(f"stacked items must run widest first, got widths {self.widths}")
        self.starts = np.cumsum(sizes) - sizes
        self.item = np.repeat(np.arange(len(designs)), sizes)
        self.group = np.arange(sizes.sum()) - self.starts[self.item]
        self.capable = self.group == sizes[self.item] - 1
        self.touched = self.group != 0
        if not any(fam.link for fam in families):
            return
        self.log = np.repeat([fam.link == "log" for fam in families], sizes)
        complement = self.starts[self.item] + ((sizes[self.item] - 1) ^ self.group)
        self.read = np.where(self.log, complement, np.arange(self.item.size))
        width = self.widths.max()
        self.ends = [sizes[self.widths > k].sum() for k in range(width)]
        # coefficient 0 is the empty group, coefficient a the group of bit a - 1
        mask = np.r_[0, 1 << np.arange(width)]
        used = np.arange(width + 1) <= self.widths[:, None]
        self.grad_index = np.where(used, self.starts[:, None] + mask, self.item.size)
        self.hess_index = np.where(used[:, :, None] & used[:, None, :],
                                   self.starts[:, None, None] + (mask[:, None] | mask),
                                   self.item.size)
        caps = np.array([fam.caps for fam in families])
        self.bound = np.where(used, np.where(mask > 0, caps[:, 1:], caps[:, :1]), np.inf)


class ItemLayout:
    """A test's items stacked by M-step: each closed-form family alone, and
    every link item (``_Binomial``) together, widest first, else in item order.

    ``steps`` holds, per M-step in order of first use, its owner (the family
    class or ``_Binomial``), its ``FamilyStack``, its items and its slice of
    the concatenated groups of all stacks.  ``index[j, a]`` is the position
    there of item j's group of profile a, the layout's one profile-to-group
    map, int32 since every position is below J * 2**K <= 20 * 2**20:
    ``values[index]`` is the J x 2**K table of group values, and
    ``group_counts`` sums over it.  Coefficients are held per M-step as a
    (restarts, items, width) array, zero-padded to its widest item.
    """

    def __init__(self, designs: Sequence[ItemDesign], names: Sequence[str]):
        self.designs, self.names = designs, names
        self.steps = []
        self.index = np.empty((len(designs), 1 << designs[0].n_attributes), dtype=np.int32)
        owners = {}
        for j, name in enumerate(names):
            owners.setdefault(_Binomial if FAMILY[name].link else FAMILY[name], []).append(j)
        offset = 0
        for owner, items in owners.items():
            items.sort(key=lambda j: -len(designs[j].required))   # stable: widest first
            stack = FamilyStack([designs[j] for j in items], [FAMILY[names[j]] for j in items])
            for j, start in zip(items, stack.starts):
                self.index[j] = designs[j].group_ids + (offset + start)
            part = slice(offset, offset + stack.item.size)
            self.steps.append((owner, stack, items, part))
            offset = part.stop
        self.n_groups = offset

    def pack(self, coefs: Sequence[Sequence[NDArray]]) -> list:
        """Per M-step, the stack of each restart's coefficient list."""
        out = []
        for _, _, items, _ in self.steps:
            stacked = np.zeros((len(coefs), len(items), max(coefs[0][j].size for j in items)))
            for r, restart in enumerate(coefs):
                for i, j in enumerate(items):
                    stacked[r, i, :restart[j].size] = restart[j]
            out.append(stacked)
        return out

    def unpack(self, stacked: Sequence[NDArray], row: int, sizes: Sequence[int]) -> list:
        """Row ``row``'s coefficient list, item j's first ``sizes[j]`` entries."""
        coefs = [None] * len(self.designs)
        for (_, _, items, _), step in zip(self.steps, stacked):
            for i, j in enumerate(items):
                coefs[j] = step[row, i, :sizes[j]].copy()
        return coefs

    def values(self, stacked: Sequence[NDArray]) -> NDArray[np.float64]:
        """Each row's response probability in every group, (rows, groups)."""
        out = np.empty((len(stacked[0]), self.n_groups))
        for (owner, stack, _, part), coef in zip(self.steps, stacked):
            out[:, part] = owner.row(stack, coef)
        return out

    def group_counts(self, pos: NDArray, tot: NDArray) -> NDArray[np.float64]:
        """Expected positives and totals of every group, a (2, groups) array,
        from the per-class positives (classes x items) and class sizes."""
        index = self.index.ravel().astype(np.intp)   # cast once, not by each bincount
        return np.stack([np.bincount(index, pos.T.ravel(), self.n_groups),
                         np.bincount(index, np.tile(tot, len(self.index)), self.n_groups)])


def _damped_newton(value, grad_neghess, coef, project):
    """One damped Newton step for each row of ``coef``, halving until its
    objective improves: the M-step of a generalized EM, which needs only a
    gain in each row's objective for the log-likelihood trace never to
    decrease.

    ``value`` maps a (rows, d) stack of coefficients to each row's
    objective, ``grad_neghess`` to each row's gradient and negative Hessian,
    and ``project`` each candidate onto the coefficients' bounds.
    The step tries scales 1, 1/2, ..., 2**-26 (the last above 1e-8), at most
    ``MAX_STEPS`` of them, and takes the first candidate that gains more
    than the margin max(1e-12, 1e-15 * |objective|); a row with none keeps
    its point.  A row stops, without evaluating, at a scale whose predicted
    gain ``scale * grad @ step`` is not above twice that margin (a singular
    system's zero step predicts none), or at a candidate that is the
    current point (as when ``project`` maps the step back onto it): every
    smaller scale would give that point too.  One ``value`` call evaluates
    the next scale of every row still trying one; every other row carries
    its current coefficients.
    """
    coef = coef.copy()
    current = value(coef)
    grad, neghess = grad_neghess(coef)
    step = _newton_steps(neghess + 1e-10 * np.eye(coef.shape[1]), grad)
    gain, margin = (grad * step).sum(axis=1), np.maximum(1e-12, 1e-15 * np.abs(current))
    trying = np.ones(len(coef), dtype=bool)
    for scale in 0.5 ** np.arange(min(27, MAX_STEPS)):
        trying &= scale * gain > 2 * margin
        candidate = project(np.where(trying[:, None], coef + scale * step, coef))
        trying &= (candidate != coef).any(axis=1)
        if not trying.any():
            break
        val = value(candidate)
        better = trying & np.isfinite(val) & (val > current + margin)
        coef[better] = candidate[better]
        trying &= ~better
    return coef


def _newton_steps(system, grad):
    """Each row's Newton step, zero where its system is singular."""
    try:
        return np.linalg.solve(system, grad[..., None])[..., 0]
    except np.linalg.LinAlgError:  # one singular system fails the batch
        step = np.zeros_like(grad)
    for i in range(len(grad)):
        with contextlib.suppress(np.linalg.LinAlgError):
            step[i] = np.linalg.solve(system[i], grad[i])
    return step


class _Binomial:
    """The M-step of every link item of a stack at once: each (restart, item)
    row maximizes its group log-likelihood of mu = link(eta) from a (restarts,
    items, width) start, its coefficients capped at ``stack.bound``.  eta is a
    group's linear predictor (``FamilyStack``), the link the logistic on logit
    groups and exp on ``stack.log`` groups, evaluated only there."""

    def __init__(self, stack, coef, gpos, gtot):
        self.stack, self.shape = stack, coef.shape
        self.gpos, self.gtot, self.gneg = gpos, gtot, gtot - gpos
        # the last point ``value`` saw, a copy, and its unclipped row there
        self.point = self.mu = None

    @staticmethod
    def row(stack: FamilyStack, coef) -> NDArray[np.float64]:
        """``link(eta)`` for every group, for each restart of ``coef``.  The
        subset sums add a group's coefficients in coefficient order, with
        exact zeros between them: a row's value is the same in any stack."""
        eta = np.zeros((len(coef), stack.item.size + 1))
        eta[:, stack.grad_index] = coef
        _zeta_pass(eta, stack.ends)
        eta = eta[:, stack.read]
        return np.exp(eta, out=_sigmoid(eta), where=stack.log)

    def project(self, c):
        return np.minimum(c.reshape(self.shape), self.stack.bound).reshape(c.shape)

    def value(self, c):
        # a copy: the Newton step moves its point in place
        self.point, self.mu = c.copy(), self.row(self.stack, c.reshape(self.shape))
        mu = np.clip(self.mu, THETA_CLAMP, 1.0 - THETA_CLAMP)
        starts = self.stack.starts
        return (np.add.reduceat(np.log(mu) * self.gpos, starts, axis=1)
                + np.add.reduceat(np.log1p(-mu) * self.gneg, starts, axis=1)).ravel()

    def grad_neghess(self, c):
        """Per row, the gradient and negative Hessian of its group
        log-likelihood (see ``FamilyStack``), with the logit link's residual
        and weight from the unclipped mu and the log link's from the clipped.
        At the last point ``value`` saw, its row is reused."""
        stack, width = self.stack, self.shape[-1]
        same = self.point is not None and np.array_equal(self.point, c)
        mu = self.mu if same else self.row(stack, c.reshape(self.shape))
        clipped = np.clip(mu, THETA_CLAMP, 1.0 - THETA_CLAMP)
        ratio = clipped / (1.0 - clipped)
        sums = np.zeros((2, len(mu), stack.item.size + 1))
        sums[0, :, :-1] = np.where(stack.log, self.gpos - self.gneg * ratio,
                                   self.gpos - self.gtot * mu)[:, stack.read]
        sums[1, :, :-1] = np.where(stack.log, self.gneg * ratio / (1.0 - clipped),
                                   self.gtot * mu * (1.0 - mu))[:, stack.read]
        _zeta_pass(sums, stack.ends, superset=True)
        grad, neghess = sums[0][:, stack.grad_index], sums[1][:, stack.hess_index]
        return grad.reshape(-1, width), neghess.reshape(-1, width, width)

    @classmethod
    def update(cls, stack: FamilyStack, coef, gpos, gtot) -> NDArray[np.float64]:
        fit = cls(stack, coef, gpos, gtot)
        rows = fit.project(coef.reshape(-1, coef.shape[-1]))
        return _damped_newton(fit.value, fit.grad_neghess, rows, fit.project).reshape(coef.shape)


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


class ItemParams:
    """The public item type, base of every family: its JSON form, derived
    from the class's ``family`` name and its declared ``fields``."""

    family: str
    fields: Mapping[str, JsonField]
    # a link family, fitted by ``_Binomial``, names its link ("logit" or
    # "log") and the caps of its intercept and of its slopes
    link = None
    caps = (np.inf, np.inf)

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
class _TwoRate(ItemParams):
    """DINA and DINO: slip s and guess g with 1 - s > g; rate 1 - s on the
    profiles that ``mask`` names, g off them.  Coefficients: (1 - s, g)."""

    s: float
    g: float

    fields = {"s": _NUMBER, "g": _NUMBER}

    def __post_init__(self):
        s, g = (_number(f"{self.family}: {name}", getattr(self, name)) for name in "sg")
        if not (0.0 < s < 1.0 and 0.0 < g < 1.0):
            raise InvalidParameterError(
                f"{self.family}: s and g must lie in (0, 1), got s={s}, g={g}")
        if not 1.0 - s > g:
            raise InvalidParameterError(f"{self.family}: requires 1 - s > g, got s={s}, g={g}")

    def coef(self, design: ItemDesign, item: int) -> NDArray[np.float64]:
        return np.array([1.0 - self.s, self.g])

    @classmethod
    def row(cls, stack: FamilyStack, coef) -> NDArray[np.float64]:
        return np.where(getattr(stack, cls.mask), coef[:, stack.item, 0], coef[:, stack.item, 1])

    @classmethod
    def update(cls, stack: FamilyStack, coef, gpos, gtot) -> NDArray[np.float64]:
        """Weighted rates of each item's two capability groups, high kept above
        low: if the rates invert, both take the pooled rate, the boundary of
        the constrained region."""
        mask = getattr(stack, cls.mask)
        sides = np.stack([gpos, gtot])[..., None] * np.stack([mask, ~mask], axis=-1)
        pos, tot = np.add.reduceat(sides, stack.starts, axis=2)
        rates = np.divide(pos, tot, out=coef.copy(), where=tot > 0)
        pooled = rates[..., 0] <= rates[..., 1]
        rates[pooled] = (pos[pooled].sum(axis=-1) / tot[pooled].sum(axis=-1))[:, None]
        return rates

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
class GdinaParams(ItemParams):
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
        if not isinstance(self.beta, Mapping):
            raise TypeError(f"GDINA: beta must map attribute subsets to reals, got {self.beta!r}")
        canon = {frozenset(int(_number("GDINA: attribute", a, numbers.Integral)) for a in key):
                 float(_number("GDINA: beta value", v)) for key, v in self.beta.items()}
        if len(canon) != len(self.beta):
            raise InvalidParameterError("GDINA: duplicate attribute subsets in beta")
        if frozenset() not in canon:
            raise InvalidParameterError("GDINA: beta must include the empty-set baseline")
        if any(a < 0 for key in canon for a in key):
            raise InvalidParameterError("GDINA: attribute indices must be non-negative")
        object.__setattr__(self, "beta", MappingProxyType(canon))
        sums = self.partial_sums()
        bad = ~((sums >= -1e-12) & (sums <= 1 + 1e-12))   # NaN too
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
    def row(stack: FamilyStack, coef) -> NDArray[np.float64]:
        return coef[:, stack.item, stack.group]

    @staticmethod
    def update(stack: FamilyStack, coef, gpos, gtot) -> NDArray[np.float64]:
        out = coef.copy()
        out[:, stack.item, stack.group] = np.divide(
            gpos, gtot, out=coef[:, stack.item, stack.group], where=gtot > 0)
        return out

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


def _required(params, what: str, values: tuple, design: ItemDesign, item: int) -> NDArray:
    """A link item's per-attribute ``values`` at its required attributes."""
    if len(values) != design.n_attributes:
        raise DimensionError(f"{params.family}: item {item} has {len(values)} {what} for "
                             f"{design.n_attributes} attributes")
    return np.asarray(values)[design.required]


@dataclass(frozen=True)
class LlmParams(ItemParams):
    """Logit-link item: intercept and one slope per attribute.

    Slopes are consulted only where the item's Q-matrix row is 1; the
    rest are conventionally zero.  Coefficients: intercept, then the
    required slopes.
    """

    beta0: float
    beta: tuple = ()

    family = "LLM"
    fields = {"beta0": _NUMBER, "beta": _NUMBERS}
    link = "logit"

    def __post_init__(self):
        beta = tuple(float(_number("LLM: slope", b)) for b in self.beta)
        object.__setattr__(self, "beta", beta)
        if not np.isfinite([_number("LLM: beta0", self.beta0), *beta]).all():
            raise InvalidParameterError("LLM: coefficients must be finite")

    def coef(self, design: ItemDesign, item: int) -> NDArray[np.float64]:
        coef = np.concatenate([[self.beta0], _required(self, "slopes", self.beta, design, item)])
        # theta_from_params sums them over every subset of the slopes
        if not np.isfinite(sum(map(abs, coef.tolist()))):
            raise InvalidParameterError(f"LLM: item {item} coefficients sum beyond float range")
        return coef

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
class RrumParams(ItemParams):
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
    link = "log"
    caps = (0.0, -1e-9)   # log pi <= 0, and each log penalty below 0

    def __post_init__(self):
        r = tuple(float(_number("RRUM: penalty", v)) for v in self.r)
        object.__setattr__(self, "r", r)
        if not 0.0 < _number("RRUM: pi", self.pi) <= 1.0:
            raise InvalidParameterError(f"RRUM: pi must lie in (0, 1], got {self.pi}")
        if any(not 0.0 < v < 1.0 for v in r):
            raise InvalidParameterError("RRUM: every penalty must lie strictly in (0, 1)")

    def coef(self, design: ItemDesign, item: int) -> NDArray[np.float64]:
        return np.concatenate([[np.log(self.pi)],
                               np.log(_required(self, "penalties", self.r, design, item))])

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
    designs = [ItemDesign(row) for row in q.entries]
    coefs = []
    for j, item in enumerate(params):
        if not isinstance(item, ItemParams):
            raise TypeError(f"unknown item parameter type {type(item).__name__}")
        coefs.append(item.coef(designs[j], j))
    layout = ItemLayout(designs, [item.family for item in params])
    table = layout.values(layout.pack([coefs]))[0][layout.index]
    table.flags.writeable = False   # so that ThetaMatrix keeps it without a copy
    return ThetaMatrix(table)


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
    _check_agreement(theta=theta, Q=q)
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
    _check_agreement(theta=theta, Q=q)
    out = []
    for j in range(q.n_items):
        row = theta.values[j]
        design = ItemDesign(q.entries[j])
        capable = design.group_ids == design.n_groups - 1
        cap, non = row[capable], row[~capable]
        if cap.max() - cap.min() > 1e-9 or (non.size and non.max() - non.min() > 1e-9):
            raise ValueError(f"item {j} table row is not DINA-structured")
        out.append(DinaParams(s=1.0 - float(cap[0]), g=float(non[0])))
    return out
