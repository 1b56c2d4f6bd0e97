"""Response simulation, empirical dominance frequencies, and EM fitting.

Fitting maximizes the observed-data likelihood of the Q-restricted
mixture by expectation-maximization over distinct response patterns.
M-steps are exact for the conjunctive, disjunctive and additive
families and one damped Newton step for the logit- and log-link families:
a generalized EM, each M-step raising the expected complete-data
log-likelihood or keeping its point, so the log-likelihood trace never
decreases.  Everything is
deterministic for a fixed seed.
"""

from __future__ import annotations

import numbers
import warnings
from dataclasses import asdict, dataclass, replace
from functools import cached_property
from typing import Optional, Sequence, Tuple

import numpy as np
from numpy.typing import NDArray

from .core import (
    MAX_ITEMS,
    MAX_TABLE_BYTES,
    DimensionError,
    ProportionVector,
    QMatrix,
    ThetaMatrix,
    bit_matrix,
    _check_agreement,
    _check_item_count,
    _freeze,
    _number,
    _Record,
)
from .identifiability import Verdict, verdict
from .models import (
    FAMILIES,
    FAMILY,
    THETA_CLAMP,
    ItemDesign,
    ItemLayout,
    ItemParams,
    theta_from_params,
)
from .tmatrix import superset_sums

P_FLOOR = 1e-10       # keeps every latent class alive
TRACE_TOL = 1e-8      # trace may decrease by at most this per step
LOCKSTEP_ROWS = 16    # restarts that run EM together
CHUNK_BYTES = 256 << 10           # most a block of rows holds: it stays in cache over its passes
CHUNK_PATTERNS = MAX_ITEMS + 1    # the E-step's floor alone: a chunk is at least J + 1 rows


class EmError(RuntimeError):
    """Fitting failed; the message carries the diagnostic."""


@dataclass(frozen=True, eq=False)
class ResponseData(_Record):
    """N observed response patterns, stored as integer encodings."""

    codes: NDArray[np.int64]
    n_items: int

    def __post_init__(self):
        codes = np.asarray(self.codes)
        if codes.ndim != 1 or codes.size < 1:
            raise DimensionError("response data needs at least one subject")
        if codes.dtype.kind not in "iu":
            raise TypeError(f"response codes must be integers, got dtype {codes.dtype}")
        _number("n_items", self.n_items, numbers.Integral)
        _check_item_count(self.n_items)
        if (codes < 0).any() or (codes >= (1 << self.n_items)).any():
            raise ValueError("response encoding out of range for item count")
        object.__setattr__(self, "codes", _freeze(codes.astype(np.int64, copy=False)))

    @classmethod
    def from_matrix(cls, matrix) -> "ResponseData":
        matrix = np.asarray(matrix)
        if matrix.ndim != 2:
            raise DimensionError("response matrix must be two-dimensional")
        _check_item_count(matrix.shape[1])
        return cls._packed(*matrix.shape, lambda rows: matrix[rows])

    @classmethod
    def _packed(cls, n_subjects: int, n_items: int, block) -> "ResponseData":
        """The record of ``n_subjects`` 0/1 rows, ``block(rows)`` those of the
        slice ``rows``: each block is checked and packed in turn."""
        codes = np.empty(n_subjects, dtype=np.int64)
        # a BLAS product, exact: a code is below 2**MAX_ITEMS, and float32
        # holds every integer below 2**24
        weights = np.exp2(np.arange(n_items, dtype=np.float32))
        for rows in _blocks(n_subjects, 8 * n_items):
            bits = block(rows)
            if bits.dtype != bool and not ((bits == 0) | (bits == 1)).all():
                raise ValueError("responses must be 0 or 1")
            codes[rows] = bits.astype(np.float32) @ weights
        codes.flags.writeable = False     # kept without a copy
        return cls(codes, n_items)

    def to_matrix(self) -> NDArray[np.int8]:
        return bit_matrix(self.codes, self.n_items)

    @property
    def n_subjects(self) -> int:
        return self.codes.size

    @cached_property
    def _patterns(self):
        """Each distinct pattern's count and ``[bits | 1]`` row, read-only, formed once."""
        codes, counts = np.unique(self.codes, return_counts=True)
        bits_one = np.ones((len(codes), self.n_items + 1))
        bits_one[:, :-1] = bit_matrix(codes, self.n_items)
        counts = counts.astype(np.float64)
        counts.flags.writeable = bits_one.flags.writeable = False
        return counts, bits_one


def _blocks(n: int, row_bytes: int, least: int = 1) -> list:
    """The slices that walk ``n`` rows of ``row_bytes`` bytes in blocks that
    stay in cache (CHUNK_BYTES), but never of fewer than ``least`` rows."""
    rows = max(least, CHUNK_BYTES // row_bytes)
    return [slice(start, min(start + rows, n)) for start in range(0, n, rows)]


def simulate(theta: ThetaMatrix, p: ProportionVector, n_subjects: int,
             seed: int) -> ResponseData:
    """Draw subjects: a class from p, then one Bernoulli response per item,
    in blocks of subjects that draw one ``(n_subjects, J)`` array's uniforms."""
    if not theta.is_probability:
        raise ValueError("simulation requires a probability table")
    _check_agreement(theta=theta, p=p)
    if _number("n_subjects", n_subjects, numbers.Integral) < 1:
        raise ValueError(f"need at least one subject, got {n_subjects}")
    if _number("seed", seed, numbers.Integral) < 0:
        raise ValueError(f"seed must be at least 0, got {seed}")
    rng = np.random.default_rng(seed)
    classes = rng.choice(p.probs.size, size=n_subjects, p=p.probs)
    # a class's thresholds are one row; "clip" skips the bounds check, for
    # which np.take buffers a copy when given out=
    table = np.ascontiguousarray(theta.values.T)
    uniforms = np.empty((_blocks(n_subjects, 8 * theta.n_items)[0].stop, theta.n_items))
    thresholds = np.empty_like(uniforms)

    def block(rows):
        drawn = classes[rows]
        return (rng.random(out=uniforms[:len(drawn)])
                < np.take(table, drawn, axis=0, out=thresholds[:len(drawn)], mode="clip"))

    return ResponseData._packed(n_subjects, theta.n_items, block)


def empirical_gamma(data: ResponseData) -> NDArray[np.float64]:
    """Fraction of subjects dominating each response pattern.

    Entry r is the share of subjects whose pattern has a 1 wherever r
    does; entry 0 is exactly 1.  Converges to the model's dominance
    probabilities as the sample grows.
    """
    counts = np.bincount(data.codes, minlength=1 << data.n_items).astype(np.float64)
    return superset_sums(counts) / data.n_subjects


def _log_weights(theta_values: NDArray) -> NDArray:
    """``[log c - log(1 - c); sum_j log(1 - c_j)]``, c = theta clipped to
    [THETA_CLAMP, 1 - THETA_CLAMP]: ``[bits | 1]`` times it is log P(bits | class)."""
    weights = np.empty((len(theta_values) + 1, theta_values.shape[1]))
    clamped = np.clip(theta_values, THETA_CLAMP, 1.0 - THETA_CLAMP, out=weights[:-1])
    log_off = np.log1p(np.negative(clamped))
    np.subtract(np.log(clamped, out=clamped), log_off, out=clamped)
    log_off.sum(axis=0, out=weights[-1])
    return weights


def _e_step(counts, bits_one, theta_values, p, want_counts=False):
    """The log-likelihood of patterns ``bits_one`` = ``[bits | 1]``, seen
    ``counts`` times, at one parameter point, and with ``want_counts`` the
    expected positives (classes x items) and class sizes, else None.

    Each chunk of patterns (CHUNK_BYTES) is one GEMM in the log domain, whose
    exp needs no shift: an entry is at least THETA_CLAMP**J >= 1e-240.  It
    sums ``(like * counts / mixture).T @ bits_one``, (classes, J + 1), over the
    chunks, scaled by p at the end.  A chunk's likelihood is sized to stay in
    cache over the GEMM, exp, mixture, scaling and counts GEMM; from K = 11
    the CHUNK_PATTERNS floor sets its size instead.
    """
    weights = _log_weights(theta_values)
    ll = fused = 0.0
    for rows in _blocks(len(counts), 8 * p.size, CHUNK_PATTERNS):
        chunk, seen = bits_one[rows], counts[rows]
        like = chunk @ weights
        mixture = np.exp(like, out=like) @ p
        ll += float(seen @ np.log(mixture))
        if want_counts:
            like *= (seen / mixture)[:, None]
            # into this chunk's product: a sum made before the loop would raise the peak
            fused = np.add(part := like.T @ chunk, fused, out=part)
    if not want_counts:
        return ll, None, None
    fused *= p[:, None]
    return ll, fused[:, :-1], fused[:, -1]


def loglik(data: ResponseData, theta: ThetaMatrix, p: ProportionVector) -> float:
    """Observed-data log-likelihood, aggregated over distinct patterns."""
    if not theta.is_probability:
        raise ValueError("log-likelihood requires a probability table")
    _check_agreement(data=data, theta=theta, p=p)
    return _e_step(*data._patterns, theta.values, p.probs)[0]


@dataclass(frozen=True)
class EmConfig:
    """Knobs for one fitting run.

    ``init_params`` and ``init_p`` each replace the first restart's random
    item parameters or class proportions when given, which is how a fit
    is deliberately seeded at a known parameter point.
    """

    max_iters: int = 2000
    tol: float = 1e-7
    restarts: int = 10
    seed: int = 0
    init_params: Optional[Tuple[ItemParams, ...]] = None
    init_p: Optional[ProportionVector] = None

    def __post_init__(self):
        for name, least in (("max_iters", 0), ("restarts", 1), ("seed", 0)):
            if _number(name, getattr(self, name), numbers.Integral) < least:
                raise ValueError(f"{name} must be at least {least}, got {getattr(self, name)}")
        if not _number("tol", self.tol) > 0:
            raise ValueError("tol must be positive")
        if self.init_params is not None and not (
                isinstance(self.init_params, (tuple, list))
                and all(isinstance(item, ItemParams) for item in self.init_params)):
            raise TypeError("init_params must be a tuple of item parameter objects, "
                            f"got {self.init_params!r}")
        if self.init_p is not None and not isinstance(self.init_p, ProportionVector):
            raise TypeError(f"init_p must be a ProportionVector, got {self.init_p!r}")


@dataclass(frozen=True)
class FitResult:
    """Best restart of a fit; ``restarts_used`` counts the restarts that
    finished, and a failed one is NaN in ``restart_logliks``."""

    theta_hat: ThetaMatrix
    p_hat: ProportionVector
    item_params_hat: Tuple[ItemParams, ...]
    loglik_trace: Tuple[float, ...]
    converged: bool
    restarts_used: int
    restart_logliks: Tuple[float, ...]

    def __post_init__(self):
        trace = np.asarray(self.loglik_trace)
        if trace.size and (np.diff(trace) < -TRACE_TOL).any():
            worst = float(np.diff(trace).min())
            raise EmError(f"log-likelihood trace decreased by {-worst:.3g}")


def _run_em(counts, bits_one, layout, starts, n_subjects, max_iters, tol):
    """EM from a block of starts in lockstep; each start pairs a coefficient
    list with class proportions.

    Each restart keeps its own E-step; each M-step of the layout (one per
    closed-form family, one damped Newton step for all link items) updates
    the rows of every live restart at once, raising each row's expected
    complete-data log-likelihood or keeping its point, so each trace never
    decreases.  A restart leaves the block when it
    meets ``tol``, reaches ``max_iters`` or its log-likelihood turns
    non-finite.  Returns per start its (trace, converged, coefficients,
    proportions), or the EmError that ended it.
    """
    sizes = [c.size for c in starts[0][0]]
    coefs = layout.pack([c for c, _ in starts])
    p = np.array([p0 for _, p0 in starts])
    live = list(range(len(starts)))
    traces = [[] for _ in starts]
    outcomes = [None] * len(starts)
    for iteration in range(max_iters + 1):
        values = layout.values(coefs)
        counted = np.empty((len(live), 2, layout.n_groups))
        keep = np.zeros(len(live), dtype=bool)
        for row, start in enumerate(live):
            ll, pos, tot = _e_step(counts, bits_one, values[row][layout.index], p[row],
                                   iteration < max_iters)
            if not np.isfinite(ll):
                outcomes[start] = EmError(f"non-finite log-likelihood at iteration {iteration}")
                continue
            trace = traces[start]
            trace.append(ll)
            converged = len(trace) > 1 and trace[-1] - trace[-2] < tol
            if converged or iteration == max_iters:
                outcomes[start] = (trace, converged, layout.unpack(coefs, row, sizes), p[row])
                continue
            fresh = np.maximum(tot / n_subjects, P_FLOOR)
            p[row] = fresh / fresh.sum()
            counted[row] = layout.group_counts(pos, tot)
            keep[row] = True
        if not keep.any():
            return outcomes
        live = [start for start, kept in zip(live, keep) if kept]
        p, counted = p[keep], counted[keep]
        coefs = [owner.update(stack, coef[keep], counted[:, 0, part], counted[:, 1, part])
                 for (owner, stack, _, part), coef in zip(layout.steps, coefs)]


def em_fit(data: ResponseData, q: QMatrix, families: Sequence[str],
           config: Optional[EmConfig] = None) -> FitResult:
    """Fit item parameters and class proportions by restricted EM.

    Parameters
    ----------
    data : ResponseData
        Observed patterns; aggregated to distinct patterns internally.
    q : QMatrix
        Design matrix restricting each item's parameters.
    families : sequence of str
        One family name per item (mixing allowed).
    config : EmConfig, optional
        Iteration caps, tolerance, restarts, seed, optional explicit
        initialization for the first restart.

    Returns
    -------
    FitResult
        Best restart by final log-likelihood.  The trace is
        non-decreasing; ``converged`` reports whether the gain fell
        below tolerance before the iteration cap.
    """
    config = config or EmConfig()
    _check_agreement(data=data, Q=q, init_p=config.init_p)
    families = tuple(families)
    if len(families) != q.n_items:
        raise DimensionError(f"expected {q.n_items} family names, got {len(families)}")
    for fam in families:
        if fam not in FAMILIES:
            raise ValueError(f"unknown family {fam!r}; expected one of {FAMILIES}")
    if config.init_params is not None:
        if len(config.init_params) != q.n_items:
            raise DimensionError("explicit initialization has the wrong item count")
        for j, (params, fam) in enumerate(zip(config.init_params, families)):
            if params.family != fam:
                raise ValueError(f"item {j} initialization is not a {fam} parameter set")

    counts, bits_one = data._patterns
    designs = [ItemDesign(row) for row in q.entries]
    layout = ItemLayout(designs, families)
    # a block's stacked state per restart: proportions, group values and
    # counts, and the Newton arrays of groups x (items + coefficients)
    n_classes = 1 << q.n_attributes
    state = 8 * (n_classes + layout.n_groups * (q.n_items + q.n_attributes + 4))
    block = max(1, min(LOCKSTEP_ROWS, MAX_TABLE_BYTES // state))
    best = None
    failures = []
    restart_logliks = []
    root = np.random.SeedSequence(config.seed)
    for first in range(0, config.restarts, block):
        starts = []
        # child i of the root is restart i's, spawned with its block
        for index, child in enumerate(root.spawn(min(block, config.restarts - first)), first):
            rng = np.random.default_rng(child)
            if index == 0 and config.init_p is not None:
                p0 = config.init_p.probs.copy()
            else:
                p0 = rng.dirichlet(np.full(n_classes, 10.0))
                p0 = np.maximum(p0, P_FLOOR)
                p0 = p0 / p0.sum()
            if index == 0 and config.init_params is not None:
                coefs = [params.coef(design, j) for j, (design, params)
                         in enumerate(zip(designs, config.init_params))]
            else:
                coefs = [FAMILY[fam].init(design, rng) for fam, design in zip(families, designs)]
            starts.append((coefs, p0))
        outcomes = _run_em(counts, bits_one, layout, starts, data.n_subjects,
                           config.max_iters, config.tol)
        for index, outcome in enumerate(outcomes, first):
            if isinstance(outcome, EmError):
                failures.append(f"restart {index}: {outcome}")
                restart_logliks.append(float("nan"))
                continue
            restart_logliks.append(outcome[0][-1])
            if best is None or outcome[0][-1] > best[0][-1]:
                best = outcome
    if best is None:
        raise EmError("all restarts failed: " + "; ".join(failures))

    trace, converged, coefs, p_fit = best
    params = tuple(FAMILY[fam].from_coef(design, c)
                   for fam, design, c in zip(families, designs, coefs))
    return FitResult(
        theta_hat=theta_from_params(q, list(params)),
        p_hat=ProportionVector(p_fit),
        item_params_hat=params,
        loglik_trace=tuple(trace),
        converged=converged,
        restarts_used=config.restarts - len(failures),
        restart_logliks=tuple(restart_logliks),
    )


@dataclass(frozen=True)
class ReplicationRecord:
    n_subjects: int
    replication: int
    overall_error: float
    p_error: float
    item_errors: Tuple[float, ...]
    loglik: float
    converged: bool


@dataclass(frozen=True)
class ExperimentTable:
    """Per-replication recovery errors across a grid of sample sizes."""

    records: Tuple[ReplicationRecord, ...]

    def medians(self, error=lambda rec: rec.overall_error) -> dict:
        """Per sample size, the median over replications of ``error(record)``."""
        byn = {}
        for rec in self.records:
            byn.setdefault(rec.n_subjects, []).append(error(rec))
        return {n: float(np.median(v)) for n, v in sorted(byn.items())}

    def median_item_errors(self, items: Sequence[int]) -> dict:
        """Median over replications of the worst error among given items."""
        return self.medians(lambda rec: max(rec.item_errors[j] for j in items))

    def to_dict(self) -> dict:
        # each record's fields in their order, n_subjects under the name n
        rows = [{"n": row.pop("n_subjects"), **row} for row in map(asdict, self.records)]
        return {"rows": rows,
                "median_overall_error": {str(n): e for n, e in self.medians().items()}}


def consistency_experiment(q: QMatrix, families: Sequence[str],
                           true_params: Sequence[ItemParams],
                           true_p: ProportionVector,
                           n_grid: Sequence[int], replications: int,
                           seed: int,
                           em_config: Optional[EmConfig] = None) -> ExperimentTable:
    """Recovery error across sample sizes, replicated with derived seeds.

    Warns (but still runs) when the design plus true table are not
    covered by the sufficient identifiability conditions; in that case
    errors need not shrink with the sample size.  ``em_config`` sets every
    fit except its ``seed``, which each fit draws from the experiment's ``seed``.
    """
    for i, n in enumerate(n_grid):
        if _number(f"n_grid[{i}]", n, numbers.Integral) < 1:
            raise ValueError(f"n_grid[{i}] must be at least 1, got {n}")
    if _number("replications", replications, numbers.Integral) < 1:
        raise ValueError("need at least one replication")
    if _number("seed", seed, numbers.Integral) < 0:
        raise ValueError(f"seed must be at least 0, got {seed}")
    theta_true = theta_from_params(q, list(true_params))
    report = verdict(q, theta_true)
    if report.verdict is not Verdict.IDENTIFIABLE:
        warnings.warn(
            f"design verdict is {report.verdict.value}; recovery errors may "
            f"not converge", stacklevel=2)
    master = np.random.default_rng(seed)
    draw = master.integers(0, 2**62, size=(len(n_grid), replications, 2))
    records = []
    for i, n in enumerate(n_grid):
        for r in range(replications):
            data = simulate(theta_true, true_p, n, int(draw[i, r, 0]))
            config = replace(em_config or EmConfig(), seed=int(draw[i, r, 1]))
            fit = em_fit(data, q, families, config)
            item_errors = np.abs(fit.theta_hat.values - theta_true.values).max(axis=1)
            p_error = float(np.abs(fit.p_hat.probs - true_p.probs).max())
            records.append(ReplicationRecord(
                n_subjects=int(n),
                replication=r,
                overall_error=float(max(item_errors.max(), p_error)),
                p_error=p_error,
                item_errors=tuple(float(e) for e in item_errors),
                loglik=fit.loglik_trace[-1],
                converged=fit.converged,
            ))
    return ExperimentTable(tuple(records))
