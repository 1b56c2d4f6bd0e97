"""Joint and marginal probability algebra over binary response patterns.

The central object is the marginal table whose (r, alpha) entry is the
probability that a subject in class alpha answers every item named by
pattern r positively.  Because each row is an elementwise product of
single-item rows, the table extends verbatim to non-probability inputs,
and a row shift of the generating table acts on it as multiplication by
a lower-triangular, unit-diagonal matrix that this module builds in
closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np
from numpy.typing import NDArray

from .core import (
    DimensionError,
    ProportionVector,
    SizeLimitError,
    ThetaMatrix,
    check_table_size,
    _check_agreement,
    _freeze,
    _numeric_array,
    _Record,
    zeta_transform,
)

MAX_DENSE_TRANSFORM_ITEMS = 12


@dataclass(frozen=True, eq=False)
class _Table(_Record):
    """A two-dimensional float table ``values``, named in errors by ``what``."""

    values: NDArray[np.float64]

    def __post_init__(self):
        values = _numeric_array(self.values, f"{self.what} entries", np.float64)
        if values.ndim != 2:
            raise DimensionError(f"{self.what} must be two-dimensional")
        object.__setattr__(self, "values", _freeze(values))


@dataclass(frozen=True, eq=False)
class TMatrix(_Table):
    """2**J x 2**K marginal table, rows by pattern, columns by profile."""

    what = "marginal table"


@dataclass(frozen=True, eq=False)
class TransformMatrix(_Table):
    """Lower-triangular 2**J x 2**J shift action with unit diagonal.

    Entry (r, r') is zero unless r' is dominated by r, one on the
    diagonal, and otherwise the product of -shift_j over the items where
    r and r' differ.
    """

    what = "shift transform"


def _product_table(off, on) -> NDArray[np.float64]:
    """Rows by pattern: row r multiplies ``on[j]`` over the items j set in
    r and ``off[j]`` (1 if None) over the others, filled in place by row
    doubling, item j extending the first 2**j rows to 2**(j+1)."""
    n_items, n_cols = on.shape
    rows = np.empty((1 << n_items, n_cols), dtype=np.float64)
    rows[0] = 1.0
    for j in range(n_items):
        h = 1 << j
        np.multiply(rows[:h], on[j], out=rows[h : 2 * h])
        if off is not None:
            rows[:h] *= off[j]
    return rows


def build_tmatrix(theta: ThetaMatrix) -> TMatrix:
    """Assemble the full marginal table from a per-item table.

    Row r is the elementwise product over set bits of the corresponding
    single-item rows; row 0 is all ones.  Works for arbitrary real
    tables, not only probability ones.
    """
    check_table_size(theta.n_items, theta.n_attributes)
    table = _product_table(None, theta.values)
    table.flags.writeable = False   # so that TMatrix keeps it without a copy
    return TMatrix(table)


def marginal_vector(t: TMatrix, p: ProportionVector) -> NDArray[np.float64]:
    """Dominance probabilities P(R >= r) for every pattern r."""
    if t.values.shape[1] != p.probs.size:
        raise DimensionError(
            f"table has {t.values.shape[1]} columns, proportions have "
            f"{p.probs.size} entries"
        )
    return t.values @ p.probs


def response_distribution(theta: ThetaMatrix, p: ProportionVector) -> NDArray[np.float64]:
    """Exact distribution over all 2**J response patterns.

    With the items split at lo = J // 2, A the low items' product table
    scaled by p and B the high items', entry (h, l) of the one GEMM
    B @ A.T is pattern h * 2**lo + l.  Memory is O(2**J + 2**ceil(J/2)
    * 2**K): the 2**J x 2**K table is never formed, though its size cap
    still applies.  Non-negative; sums to one up to rounding.
    """
    if not theta.is_probability:
        raise ValueError("response distribution requires a probability table")
    _check_agreement(theta=theta, p=p)
    check_table_size(theta.n_items, theta.n_attributes)
    lo = theta.n_items // 2
    low, high = theta.values[:lo], theta.values[lo:]
    a = _product_table(1.0 - low, low) * p.probs
    return (_product_table(1.0 - high, high) @ a.T).ravel()


def mobius_from_marginals(marginals: NDArray[np.float64]) -> NDArray[np.float64]:
    """Recover pointwise probabilities from dominance probabilities.

    Inverts m(r) = sum over r' >= r of f(r') by inclusion-exclusion:
    f(r) = sum over r' >= r of (-1)**popcount(r' - r) m(r').
    """
    return zeta_transform(marginals, superset=True, inverse=True)


def superset_sums(values: NDArray[np.float64]) -> NDArray[np.float64]:
    """Sum over dominating patterns: out[r] = sum over r' >= r of values[r']."""
    return zeta_transform(values, superset=True)


def apply_shift(theta: ThetaMatrix, theta_star) -> ThetaMatrix:
    """Subtract a per-item constant from every entry of its row.

    The output is flagged non-probability regardless of its range.
    """
    shift = np.asarray(theta_star, dtype=np.float64)
    if shift.shape != (theta.n_items,):
        raise DimensionError(
            f"shift length {shift.shape} does not match {theta.n_items} items"
        )
    return ThetaMatrix(theta.values - shift[:, None], is_probability=False)


def build_transform(theta_star) -> TransformMatrix:
    """Closed-form matrix mapping a table's marginals to its shifted ones.

    For shift vector c, multiplying the marginal table of any per-item
    table on the left by this matrix equals the marginal table of the
    row-shifted input.  Entries: zero when r' is not dominated by r, one
    on the diagonal, else the product of -c_j over items j set in r but
    not r'.  Built densely (Kronecker product of 2x2 factors), so capped
    at 12 items; beyond that, shift the table first and rebuild its
    marginals, which is mathematically identical.
    """
    shift = np.asarray(theta_star, dtype=np.float64)
    if shift.ndim != 1 or shift.size < 1:
        raise DimensionError("shift vector must be one-dimensional and non-empty")
    if shift.size > MAX_DENSE_TRANSFORM_ITEMS:
        raise SizeLimitError(
            f"dense transform capped at {MAX_DENSE_TRANSFORM_ITEMS} items; "
            f"use apply_shift + build_tmatrix instead"
        )
    factors = [np.array([[1.0, 0.0], [-c, 1.0]]) for c in shift]
    dense = reduce(np.kron, factors[::-1])
    return TransformMatrix(dense)
