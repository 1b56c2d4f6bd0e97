"""Response simulation, empirical dominance frequencies, and EM fitting.

Fitting maximizes the observed-data likelihood of the Q-restricted
mixture by expectation-maximization over distinct response patterns.
M-steps are exact for the conjunctive, disjunctive and additive
families and damped-Newton ascent for the logit- and log-link families,
so the log-likelihood trace never decreases.  Everything is
deterministic for a fixed seed.
"""

from __future__ import annotations

import numbers
import warnings
from dataclasses import dataclass, replace
from typing import Optional, Sequence, Tuple

import numpy as np
from numpy.typing import NDArray

from .core import (
    MAX_ITEMS,
    DimensionError,
    ProportionVector,
    QMatrix,
    ThetaMatrix,
    bit_matrix,
    _check_agreement,
    _freeze,
    _number,
    _Record,
)
from .identifiability import Verdict, verdict
from .models import FAMILIES, FAMILY, THETA_CLAMP, ItemDesign, ItemParams, theta_from_params
from .tmatrix import superset_sums

P_FLOOR = 1e-10       # keeps every latent class alive
TRACE_TOL = 1e-8      # trace may decrease by at most this per step


class EmError(RuntimeError):
    """Fitting failed; the message carries the diagnostic."""


def _check_item_count(n_items: int) -> None:
    if not 1 <= n_items <= MAX_ITEMS:
        raise DimensionError(f"item count {n_items} outside [1, {MAX_ITEMS}]")


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
        if not ((matrix == 0) | (matrix == 1)).all():
            raise ValueError("responses must be 0 or 1")
        _check_item_count(matrix.shape[1])
        # a BLAS product, exact: a code is below 2**MAX_ITEMS, and float32
        # holds every integer below 2**24
        weights = np.exp2(np.arange(matrix.shape[1], dtype=np.float32))
        return cls((matrix.astype(np.float32) @ weights).astype(np.int64), matrix.shape[1])

    def to_matrix(self) -> NDArray[np.int8]:
        return bit_matrix(self.codes, self.n_items)

    @property
    def n_subjects(self) -> int:
        return self.codes.size


def simulate(theta: ThetaMatrix, p: ProportionVector, n_subjects: int,
             seed: int) -> ResponseData:
    """Draw subjects: a class from p, then one Bernoulli response per item."""
    if not theta.is_probability:
        raise ValueError("simulation requires a probability table")
    _check_agreement(theta=theta, p=p)
    if n_subjects < 1:
        raise ValueError(f"need at least one subject, got {n_subjects}")
    rng = np.random.default_rng(seed)
    classes = rng.choice(p.probs.size, size=n_subjects, p=p.probs)
    uniforms = rng.random((n_subjects, theta.n_items))
    return ResponseData.from_matrix(uniforms < theta.values.T[classes])


def empirical_gamma(data: ResponseData) -> NDArray[np.float64]:
    """Fraction of subjects dominating each response pattern.

    Entry r is the share of subjects whose pattern has a 1 wherever r
    does; entry 0 is exactly 1.  Converges to the model's dominance
    probabilities as the sample grows.
    """
    counts = np.bincount(data.codes, minlength=1 << data.n_items).astype(np.float64)
    return superset_sums(counts) / data.n_subjects


def _pattern_stats(data: ResponseData):
    """Each distinct pattern's count and its row of ``[bits | 1]``."""
    codes, counts = np.unique(data.codes, return_counts=True)
    bits_one = np.ones((len(codes), data.n_items + 1))
    bits_one[:, :-1] = bit_matrix(codes, data.n_items)
    return counts.astype(np.float64), bits_one


def _likelihood_matrix(bits_one: NDArray, theta_values: NDArray) -> NDArray:
    """P(pattern | class) for each row of ``bits_one`` = ``[bits | 1]`` and
    each column of theta, as one GEMM in the log domain.

    With c = theta clipped to [THETA_CLAMP, 1 - THETA_CLAMP], log P is
    ``bits @ (log c - log(1 - c)) + sum_j log(1 - c_j)``, the constant term
    carried by the ones column.  The direct exp needs no log-sum-exp shift:
    every factor is at least THETA_CLAMP, so an entry is at least
    THETA_CLAMP**J >= 1e-240 for J <= MAX_ITEMS = 20, far above the double
    underflow at about 1e-308.
    """
    clamped = np.clip(theta_values, THETA_CLAMP, 1.0 - THETA_CLAMP)
    log_off = np.log1p(-clamped)
    log_like = bits_one @ np.vstack([np.log(clamped) - log_off, log_off.sum(axis=0)])
    return np.exp(log_like, out=log_like)


def loglik(data: ResponseData, theta: ThetaMatrix, p: ProportionVector) -> float:
    """Observed-data log-likelihood, aggregated over distinct patterns."""
    if not theta.is_probability:
        raise ValueError("log-likelihood requires a probability table")
    _check_agreement(data=data, theta=theta, p=p)
    counts, bits_one = _pattern_stats(data)
    like = _likelihood_matrix(bits_one, theta.values)
    return float(counts @ np.log(like @ p.probs))


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


def _expected_counts(bits_one, counts, like, mixture, p):
    """Expected positives per (class, item) and class sizes from one GEMM,
    ``(like * r).T @ bits_one`` with r = counts / mixture and ``bits_one``
    = ``[bits | 1]``, scaled by p.  ``like`` is scaled in place."""
    like *= (counts / mixture)[:, None]
    fused = like.T @ bits_one
    return p[:, None] * fused[:, :-1], p * fused[:, -1]


def _run_em(counts, bits_one, items, coefs, p, n_subjects, max_iters, tol):
    """EM from one start; ``items`` pairs each item's family with its design."""
    trace = []
    converged = False
    for iteration in range(max_iters + 1):
        theta_vals = np.vstack([fam.row(d, c) for (fam, d), c in zip(items, coefs)])
        like = _likelihood_matrix(bits_one, theta_vals)
        mixture = like @ p
        ll = float(counts @ np.log(mixture))
        if not np.isfinite(ll):
            raise EmError(f"non-finite log-likelihood at iteration {iteration}")
        trace.append(ll)
        if len(trace) > 1 and trace[-1] - trace[-2] < tol:
            converged = True
            break
        if iteration == max_iters:
            break
        pos, tot = _expected_counts(bits_one, counts, like, mixture, p)
        p = np.maximum(tot / n_subjects, P_FLOOR)
        p = p / p.sum()
        coefs = [fam.update(design, c, pos[:, j], tot)
                 for j, ((fam, design), c) in enumerate(zip(items, coefs))]
    return trace, converged, coefs, p


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

    counts, bits_one = _pattern_stats(data)
    items = [(FAMILY[fam], ItemDesign(q.entries[j])) for j, fam in enumerate(families)]
    best = None
    failures = []
    restart_logliks = []
    root = np.random.SeedSequence(config.seed)
    for index in range(config.restarts):
        rng = np.random.default_rng(root.spawn(1)[0])  # = spawn(restarts)[index]
        if index == 0 and config.init_p is not None:
            p0 = config.init_p.probs.copy()
        else:
            p0 = rng.dirichlet(np.full(1 << q.n_attributes, 10.0))
            p0 = np.maximum(p0, P_FLOOR)
            p0 = p0 / p0.sum()
        if index == 0 and config.init_params is not None:
            coefs = [params.coef(design, j) for j, ((_, design), params)
                     in enumerate(zip(items, config.init_params))]
        else:
            coefs = [fam.init(design, rng) for fam, design in items]
        try:
            trace, converged, coefs, p_fit = _run_em(
                counts, bits_one, items, coefs, p0, data.n_subjects,
                config.max_iters, config.tol)
        except EmError as exc:
            failures.append(f"restart {index}: {exc}")
            restart_logliks.append(float("nan"))
            continue
        restart_logliks.append(trace[-1])
        if best is None or trace[-1] > best[0][-1]:
            best = (trace, converged, coefs, p_fit)
    if best is None:
        raise EmError("all restarts failed: " + "; ".join(failures))

    trace, converged, coefs, p_fit = best
    params = tuple(fam.from_coef(design, c) for (fam, design), c in zip(items, coefs))
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

    def medians(self) -> dict:
        byn = {}
        for rec in self.records:
            byn.setdefault(rec.n_subjects, []).append(rec.overall_error)
        return {n: float(np.median(v)) for n, v in sorted(byn.items())}

    def median_item_errors(self, items: Sequence[int]) -> dict:
        """Median over replications of the worst error among given items."""
        byn = {}
        for rec in self.records:
            worst = max(rec.item_errors[j] for j in items)
            byn.setdefault(rec.n_subjects, []).append(worst)
        return {n: float(np.median(v)) for n, v in sorted(byn.items())}

    def to_dict(self) -> dict:
        return {
            "rows": [
                {
                    "n": rec.n_subjects,
                    "replication": rec.replication,
                    "overall_error": rec.overall_error,
                    "p_error": rec.p_error,
                    "item_errors": list(rec.item_errors),
                    "loglik": rec.loglik,
                    "converged": rec.converged,
                }
                for rec in self.records
            ],
            "median_overall_error": {str(n): e for n, e in self.medians().items()},
        }


def consistency_experiment(q: QMatrix, families: Sequence[str],
                           true_params: Sequence[ItemParams],
                           true_p: ProportionVector,
                           n_grid: Sequence[int], replications: int,
                           seed: int,
                           em_config: Optional[EmConfig] = None) -> ExperimentTable:
    """Recovery error across sample sizes, replicated with derived seeds.

    Warns (but still runs) when the design plus true table are not
    covered by the sufficient identifiability conditions; in that case
    errors need not shrink with the sample size.
    """
    theta_true = theta_from_params(q, list(true_params))
    report = verdict(q, theta_true)
    if report.verdict is not Verdict.IDENTIFIABLE:
        warnings.warn(
            f"design verdict is {report.verdict.value}; recovery errors may "
            f"not converge", stacklevel=2)
    if replications < 1:
        raise ValueError("need at least one replication")
    master = np.random.default_rng(seed)
    draw = master.integers(0, 2**62, size=(len(n_grid), replications, 2))
    records = []
    for i, n in enumerate(n_grid):
        for r in range(replications):
            data = simulate(theta_true, true_p, int(n), int(draw[i, r, 0]))
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
