"""Bit encodings and validated containers for Q-restricted latent class models.

Attribute profiles (length K) and response patterns (length J) are encoded
as non-negative integers with bit k of the integer holding coordinate k,
so bit 0 is attribute 1 / item 1.  The canonical in-memory order of
profiles and patterns is increasing integer encoding (binary-counter
order), which respects the coordinatewise partial order.  The paper-style
weight-graded order is available as a display permutation only.
"""

from __future__ import annotations

import itertools
import numbers
from dataclasses import dataclass, fields

import numpy as np
from numpy.typing import NDArray

MAX_ATTRIBUTES = 20
MAX_ITEMS = 20
MAX_TABLE_BYTES = 2**31


class SizeLimitError(ValueError):
    """Requested operation exceeds the exhaustive-enumeration size caps."""


class DimensionError(ValueError):
    """Inputs have incompatible shapes or lengths."""


def dominates(a: int, b: int) -> bool:
    """Coordinatewise a >= b for integer-encoded profiles/patterns."""
    return (a & b) == b


def enumerate_profiles(n_attributes: int) -> NDArray[np.int64]:
    """All 2**K profile encodings in increasing (binary-counter) order."""
    if not 1 <= n_attributes <= MAX_ATTRIBUTES:
        raise SizeLimitError(
            f"attribute count must be in [1, {MAX_ATTRIBUTES}], got {n_attributes}"
        )
    return np.arange(1 << n_attributes, dtype=np.int64)


def bit_matrix(codes, length: int) -> NDArray[np.int8]:
    """0/1 rows of the encodings, bit k in column k; shape (len(codes), length)."""
    codes = np.asarray(codes, dtype=np.int64)
    return ((codes[:, None] >> np.arange(length)) & 1).astype(np.int8)


def zeta_transform(values, superset: bool = False,
                   inverse: bool = False) -> NDArray[np.float64]:
    """Entry m: sum of ``values`` over the masks inside m (containing m when
    ``superset`` is set), or with ``inverse`` the Moebius inversion of that.

    One in-place butterfly pass per bit on a copy of the input.
    """
    out = np.array(values, dtype=np.float64)
    n_bits = int(out.size).bit_length() - 1
    if out.size != 1 << n_bits:
        raise DimensionError(f"length {out.size} is not a power of two")
    src, dst = (1, 0) if superset else (0, 1)
    combine = np.subtract if inverse else np.add
    for i in range(n_bits):
        grid = out.reshape(-1, 2, 1 << i)
        combine(grid[:, dst, :], grid[:, src, :], out=grid[:, dst, :])
    return out


def weight_graded_order(length: int) -> NDArray[np.int64]:
    """Display permutation: encodings ordered by popcount, then by index set.

    Yields 0, e_1, ..., e_n, e_1+e_2, e_1+e_3, ..., 1 as in hand-written
    marginal tables.  Used for printing only; storage stays binary-counter.
    """
    order = [
        sum(1 << i for i in combo)
        for w in range(length + 1)
        for combo in itertools.combinations(range(length), w)
    ]
    return np.array(order, dtype=np.int64)


def check_table_size(log2_rows: int, log2_cols: int) -> None:
    """Enforce the dense-table byte cap for exhaustive operations."""
    if 8 * (1 << (log2_rows + log2_cols)) > MAX_TABLE_BYTES:
        raise SizeLimitError(
            f"dense table 2^{log2_rows} x 2^{log2_cols} exceeds "
            f"{MAX_TABLE_BYTES} bytes"
        )


def _freeze(arr: np.ndarray) -> np.ndarray:
    # an array already read-only, C-contiguous and owning its data is kept;
    # any other is copied, so that freezing never flips a caller's flags
    flags = arr.flags
    if flags.writeable or not (flags.c_contiguous and flags.owndata):
        arr = np.array(arr, order="C", copy=True)
        arr.flags.writeable = False
    return arr


def _numeric_array(values, what: str, dtype=None) -> np.ndarray:
    """``values`` as an array of ``dtype``; text, bytes and bools are a TypeError."""
    arr = np.asarray(values)
    if arr.dtype.kind in "USb":
        raise TypeError(f"{what} must be numbers, got dtype {arr.dtype}")
    return np.asarray(arr, dtype=dtype)


def _number(name: str, value, kind=numbers.Real):
    """``value`` if it is a ``kind``, else a TypeError naming ``name``: a
    bool too, since no field checked here is a flag."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, kind):
        noun = "an integer" if kind is numbers.Integral else "a real number"
        raise TypeError(f"{name} must be {noun}, got {value!r}")
    return value


def _check_profile_count(size: int, what: str) -> None:
    """``size`` must be 2**K with 1 <= K <= MAX_ATTRIBUTES; ``what`` names it."""
    k = int(size).bit_length() - 1
    if k < 1 or size != 1 << k:
        raise DimensionError(f"{what} {size} is not 2**K for K >= 1")
    if k > MAX_ATTRIBUTES:
        raise SizeLimitError(f"attribute count {k} exceeds {MAX_ATTRIBUTES}")


def _check_agreement(**records) -> None:
    """DimensionError naming each record's size unless the records agree on J and on K."""
    for size, what, letter in (("n_items", "item", "J"), ("n_attributes", "attribute", "K")):
        sizes = {name: getattr(r, size) for name, r in records.items() if hasattr(r, size)}
        if len(set(sizes.values())) > 1:
            raise DimensionError(f"{what} counts disagree: " + ", ".join(
                f"{name} has {letter}={n}" for name, n in sizes.items()))


class _Record:
    """Frozen arrays, equal to a record of the same type by ``np.array_equal``; unhashable."""

    __hash__ = None

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self))


@dataclass(frozen=True, eq=False)
class QMatrix(_Record):
    """J x K binary design matrix linking items to attributes.

    Row j gives the attribute requirements of item j.  Every entry is 0/1
    and no row may be all zero (an item must require at least one
    attribute).
    """

    entries: NDArray[np.int8]

    def __post_init__(self):
        entries = _numeric_array(self.entries, "Q-matrix entries")
        if entries.ndim != 2:
            raise DimensionError("Q-matrix must be two-dimensional")
        n_items, n_attributes = entries.shape
        if n_items < 1 or n_attributes < 1:
            raise DimensionError("Q-matrix needs at least one item and one attribute")
        if n_items > MAX_ITEMS or n_attributes > MAX_ATTRIBUTES:
            raise SizeLimitError(
                f"Q-matrix {n_items}x{n_attributes} exceeds caps "
                f"J<={MAX_ITEMS}, K<={MAX_ATTRIBUTES}"
            )
        if not np.isin(entries, (0, 1)).all():
            raise ValueError("Q-matrix entries must be 0 or 1")
        if (entries.sum(axis=1) == 0).any():
            bad = int(np.flatnonzero(entries.sum(axis=1) == 0)[0])
            raise ValueError(f"Q-matrix row {bad} is all zero")
        object.__setattr__(self, "entries", _freeze(entries.astype(np.int8)))

    @property
    def n_items(self) -> int:
        return self.entries.shape[0]

    @property
    def n_attributes(self) -> int:
        return self.entries.shape[1]

    @property
    def row_codes(self) -> NDArray[np.int64]:
        """Integer encoding of each row's requirement vector."""
        weights = (1 << np.arange(self.n_attributes)).astype(np.int64)
        return self.entries.astype(np.int64) @ weights


@dataclass(frozen=True, eq=False)
class ThetaMatrix(_Record):
    """J x 2**K table of per-item positive-response values by profile column.

    Columns are indexed by the integer profile encoding.  A probability
    table has all entries in [0, 1]; tables produced by row shifts are
    flagged non-probability and may hold arbitrary reals.
    """

    values: NDArray[np.float64]
    is_probability: bool = True

    def __post_init__(self):
        values = _numeric_array(self.values, "theta entries", np.float64)
        if not isinstance(self.is_probability, (bool, np.bool_)):
            raise TypeError(f"is_probability must be a bool, got {self.is_probability!r}")
        if values.ndim != 2:
            raise DimensionError("theta table must be two-dimensional")
        n_items, n_cols = values.shape
        if n_items < 1 or n_items > MAX_ITEMS:
            raise SizeLimitError(f"item count {n_items} outside [1, {MAX_ITEMS}]")
        _check_profile_count(n_cols, "theta column count")
        if not np.isfinite(values).all():
            raise ValueError("theta table contains non-finite entries")
        if self.is_probability and ((values < 0).any() or (values > 1).any()):
            raise ValueError("probability theta table has entries outside [0, 1]")
        object.__setattr__(self, "values", _freeze(values))

    @property
    def n_items(self) -> int:
        return self.values.shape[0]

    @property
    def n_attributes(self) -> int:
        return int(self.values.shape[1]).bit_length() - 1


@dataclass(frozen=True, eq=False)
class ProportionVector(_Record):
    """Distribution over the 2**K attribute profiles, all entries in (0, 1).

    Inputs whose sum deviates from 1 by at most 1e-9 are renormalized so
    that round-tripped files stay valid; larger deviations are rejected.
    """

    probs: NDArray[np.float64]

    SUM_TOLERANCE = 1e-9

    def __post_init__(self):
        probs = _numeric_array(self.probs, "proportions", np.float64)
        if probs.ndim != 1:
            raise DimensionError("proportion vector must be one-dimensional")
        _check_profile_count(probs.size, "length")
        if not np.isfinite(probs).all():
            raise ValueError("proportions contain non-finite entries")
        if (probs <= 0).any() or (probs >= 1).any():
            raise ValueError("every proportion must lie strictly in (0, 1)")
        total = float(probs.sum())
        if abs(total - 1.0) > self.SUM_TOLERANCE:
            raise ValueError(f"proportions sum to {total}, beyond tolerance "
                             f"{self.SUM_TOLERANCE} of 1")
        object.__setattr__(self, "probs", _freeze(probs / total))

    @property
    def n_attributes(self) -> int:
        return int(self.probs.size).bit_length() - 1
