"""Every public record rejects, at construction, what it cannot honour.

For each field of ``QMatrix``, ``ThetaMatrix``, ``ProportionVector``,
``ResponseData``, ``TMatrix``, ``TransformMatrix`` and the five item
parameter classes, Hypothesis draws
values of the wrong type and values out of range.  Each must raise
``ValueError`` (``DimensionError`` is one) or ``TypeError`` when the record
is built, never later and never silently: text is not parsed and a bool is
not read as 0 or 1, also as an element of an ``object`` array.  ``EmConfig`` has the same contract in
``tests/test_inference.py``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rlcm import (
    DimensionError,
    DinaParams,
    DinoParams,
    GdinaParams,
    LlmParams,
    ProportionVector,
    QMatrix,
    ResponseData,
    RrumParams,
    ThetaMatrix,
    TMatrix,
    TransformMatrix,
)

# one valid value for every field; a case replaces one of them
VALID = {
    QMatrix: {"entries": [[1, 0], [0, 1]]},
    ThetaMatrix: {"values": [[0.1, 0.8]], "is_probability": True},
    ProportionVector: {"probs": [0.5, 0.5]},
    ResponseData: {"codes": np.array([0, 1, 3]), "n_items": 2},
    DinaParams: {"s": 0.2, "g": 0.1},
    DinoParams: {"s": 0.2, "g": 0.1},
    GdinaParams: {"beta": {frozenset(): 0.1, frozenset({0}): 0.5}},
    LlmParams: {"beta0": -0.5, "beta": (1.0, 0.0)},
    RrumParams: {"pi": 0.9, "r": (0.5, 0.3)},
    TMatrix: {"values": [[1.0, 1.0], [0.1, 0.8]]},
    TransformMatrix: {"values": [[1.0, 0.0], [-0.1, 1.0]]},
}

_NUMERIC_TEXT = st.one_of(st.floats(0.01, 0.99).map(str), st.sampled_from(["0", "1"]))
# one entry kind per grid (a mixed list would be cast to its common dtype); a cast
# would read the bools and the numeric text as numbers
_WRONG_ENTRY = st.sampled_from([
    st.booleans(), _NUMERIC_TEXT, _NUMERIC_TEXT.map(str.encode), st.text(min_size=1)])
_NOT_REAL = st.one_of(st.booleans(), _NUMERIC_TEXT, st.text(), st.none(),
                      st.lists(st.floats(0.1, 0.9), max_size=2))
_NOT_INTEGER = st.one_of(_NOT_REAL, st.floats(), st.just(np.bool_(True)))
_NOT_POWER_OF_TWO = st.sampled_from([1, 3, 5, 6, 7, 12])   # 1 = 2**0: K must be >= 1
_BAD_FLOAT = st.one_of(st.sampled_from([float("nan"), float("inf"), -float("inf")]),
                       st.floats(min_value=-1e6, max_value=-1e-9),
                       st.floats(min_value=1 + 1e-9, max_value=1e6))


def _grid(elements, rows=st.integers(1, 3), cols=st.integers(1, 4)):
    """A rectangular list of lists of ``elements``."""
    return st.tuples(rows, cols).flatmap(lambda shape: st.lists(
        st.lists(elements, min_size=shape[1], max_size=shape[1]),
        min_size=shape[0], max_size=shape[0]))


def _one_entry_replaced(valid, bad):
    """``valid`` (a 1- or 2-d list) with one drawn entry set to a ``bad`` value."""
    def replace(case):
        index, value = case
        out = np.array(valid, dtype=object)
        out.flat[index] = value
        return out.tolist()

    return st.tuples(st.integers(0, np.size(valid) - 1), bad).map(replace)


def _wrong_typed_grid(rows=st.integers(1, 3), cols=st.integers(1, 4)):
    """A grid of bools, text or bytes."""
    return _WRONG_ENTRY.flatmap(lambda entry: _grid(entry, rows, cols))


def _object_array_with_a_wrong_entry(valid):
    """``valid`` as an ``object`` array with one entry a bool, text or bytes: no
    common dtype then tells the entries apart."""
    return _one_entry_replaced(valid, _WRONG_ENTRY.flatmap(lambda entry: entry)).map(
        lambda out: np.array(out, dtype=object))


WRONG = {
    (QMatrix, "entries"): st.one_of(
        _wrong_typed_grid(),
        _grid(st.one_of(st.integers(2, 9), st.integers(-9, -1), st.floats(0.1, 0.9))),
        _grid(st.just(0)),                                   # an item requiring nothing
        st.lists(st.sampled_from([0, 1]), max_size=4),        # one-dimensional
        st.just(np.ones((21, 2), dtype=int)), st.just(np.ones((2, 21), dtype=int)),
        st.just(np.ones((1, 2, 2), dtype=int)), st.just([[]]), st.none()),
    (ThetaMatrix, "values"): st.one_of(
        _wrong_typed_grid(cols=st.sampled_from([2, 4])),
        _object_array_with_a_wrong_entry([[0.1, 0.8], [0.2, 0.9]]),
        _one_entry_replaced([[0.1, 0.8], [0.2, 0.9]], _BAD_FLOAT),
        _NOT_POWER_OF_TWO.flatmap(lambda c: _grid(st.floats(0, 1), cols=st.just(c))),
        st.lists(st.floats(0, 1), max_size=4),
        st.just(np.full((21, 2), 0.5)), st.just(np.full((1, 2, 2), 0.5)), st.none()),
    (ThetaMatrix, "is_probability"): st.one_of(
        st.integers(), st.floats(), st.text(), st.none(), st.lists(st.booleans())),
    (ProportionVector, "probs"): st.one_of(
        _wrong_typed_grid(rows=st.just(1), cols=st.sampled_from([2, 4])).map(lambda g: g[0]),
        _one_entry_replaced([0.25] * 4, st.one_of(_BAD_FLOAT, st.just(0.0))),
        _object_array_with_a_wrong_entry([0.25] * 4),
        _NOT_POWER_OF_TWO.map(lambda n: [1.0 / n] * n),
        st.lists(st.floats(0.01, 0.2), min_size=4, max_size=4),   # sums far below 1
        st.just([[0.5, 0.5]]), st.just([]), st.none()),
    (ResponseData, "codes"): st.one_of(
        st.lists(st.floats(0, 3), min_size=1).map(np.array),
        st.lists(st.booleans(), min_size=1).map(np.array),
        st.lists(_NUMERIC_TEXT, min_size=1).map(np.array),
        st.lists(st.integers(0, 3), min_size=1).map(
            lambda codes: np.array(codes + [4])),                 # beyond 2**n_items
        st.lists(st.integers(max_value=-1), min_size=1, max_size=3).map(np.array),
        st.just(np.zeros((2, 2), dtype=int)), st.just(np.array([], dtype=int))),
    (ResponseData, "n_items"): st.one_of(
        _NOT_INTEGER, st.integers(max_value=0), st.integers(21, 10**6)),
    (DinaParams, "s"): st.one_of(_NOT_REAL, _BAD_FLOAT, st.floats(0.9, 0.999)),
    (DinaParams, "g"): st.one_of(_NOT_REAL, _BAD_FLOAT, st.floats(0.8, 0.999)),
    (DinoParams, "s"): st.one_of(_NOT_REAL, _BAD_FLOAT, st.floats(0.9, 0.999)),
    (DinoParams, "g"): st.one_of(_NOT_REAL, _BAD_FLOAT, st.floats(0.8, 0.999)),
    (GdinaParams, "beta"): st.one_of(
        st.integers(), st.text(), st.none(),
        st.lists(st.tuples(st.just(frozenset()), st.floats(0, 1)), min_size=1),
        _NOT_REAL.map(lambda v: {frozenset(): v}),
        _NOT_INTEGER.filter(lambda v: not isinstance(v, list)).map(
            lambda a: {frozenset(): 0.1, frozenset({a}): 0.2}),
        st.integers(max_value=-1).map(lambda a: {frozenset(): 0.1, frozenset({a}): 0.2}),
        st.floats(0, 1).map(lambda v: {frozenset({0}): v}),       # no baseline
        _BAD_FLOAT.map(lambda v: {frozenset(): v})),
    (LlmParams, "beta0"): st.one_of(
        _NOT_REAL, st.sampled_from([float("nan"), float("inf"), -float("inf")])),
    (LlmParams, "beta"): st.one_of(
        _NUMERIC_TEXT.filter(lambda text: len(text) > 1), st.integers(), st.none(),
        st.lists(st.sampled_from([True, "0.5", b"1", None]), min_size=1).map(tuple),
        st.sampled_from([float("nan"), float("inf")]).map(lambda v: (1.0, v))),
    (RrumParams, "pi"): st.one_of(
        _NOT_REAL, _BAD_FLOAT, st.just(0.0)),
    (RrumParams, "r"): st.one_of(
        _NUMERIC_TEXT.filter(lambda text: len(text) > 1), st.integers(), st.none(),
        st.lists(st.sampled_from([True, "0.5", b"1", None]), min_size=1).map(tuple),
        st.lists(st.one_of(_BAD_FLOAT, st.sampled_from([0.0, 1.0])), min_size=1).map(tuple)),
    **{(cls, "values"): st.one_of(
        _wrong_typed_grid(), _object_array_with_a_wrong_entry(VALID[cls]["values"]),
        st.lists(st.floats(-1, 1), max_size=4),                  # one-dimensional
        st.just(np.ones((2, 2, 2))), st.just(0.5), st.none())
       for cls in (TMatrix, TransformMatrix)},
}


@pytest.mark.parametrize("cls", sorted(VALID, key=lambda cls: cls.__name__),
                         ids=lambda cls: cls.__name__)
def test_the_valid_fields_construct(cls):
    cls(**VALID[cls])


@pytest.mark.parametrize("cls, field", sorted(WRONG, key=lambda key: (key[0].__name__, key[1])),
                         ids=lambda value: getattr(value, "__name__", value))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_contract_every_wrong_field_raises_at_construction(cls, field, data):
    value = data.draw(WRONG[cls, field], label=field)
    with pytest.raises((TypeError, ValueError)):
        cls(**{**VALID[cls], field: value})


@pytest.mark.parametrize("make", [
    lambda: ThetaMatrix([["0.5", "0.25"]]),
    lambda: ProportionVector(["0.5", "0.5"]),
    lambda: ThetaMatrix([[True, False]]),
    lambda: QMatrix([[True, False], [False, True]]),
    lambda: LlmParams(beta0=True),
    lambda: LlmParams(0.5, "12"),
    lambda: RrumParams(pi=True, r=(0.5,)),
    lambda: GdinaParams({frozenset(): True}),
    lambda: GdinaParams({frozenset(): 0.1, frozenset({1.5}): 0.2}),
    lambda: ResponseData(np.array([0, 1]), n_items=True),
    lambda: ThetaMatrix([[0.1, 0.8]], is_probability="false"),
    lambda: ThetaMatrix(np.array([["0.5", "0.25"]], dtype=object)),
    lambda: ProportionVector(np.array(["0.5", "0.5"], dtype=object)),
    lambda: ThetaMatrix(np.array([[True, 0.5]], dtype=object)),
    lambda: TMatrix([["0.5"]]),
    lambda: ThetaMatrix([[True, 0.5]]),
    lambda: QMatrix([[True, 0], [0, 1]]),
    lambda: ProportionVector((0.5, np.bool_(False))),
], ids=["theta-text", "proportions-text", "theta-bool", "q-bool", "llm-beta0-bool",
        "llm-beta-text", "rrum-pi-bool", "gdina-value-bool", "gdina-fractional-attribute",
        "response-n_items-bool", "theta-is_probability-text", "theta-object-text",
        "proportions-object-text", "theta-object-bool", "tmatrix-text",
        "theta-list-bool-among-numbers", "q-list-bool-among-numbers",
        "proportions-tuple-numpy-bool-among-numbers"])
def test_text_and_bools_are_a_type_error(make):
    with pytest.raises(TypeError):
        make()


@pytest.mark.parametrize("make", [lambda: TransformMatrix([1.0, 2.0]),
                                  lambda: TMatrix([0.5, 0.25])],
                         ids=["transform", "tmatrix"])
def test_one_dimensional_tables_are_a_dimension_error(make):
    with pytest.raises(DimensionError, match="must be two-dimensional"):
        make()


def test_numbers_of_every_numeric_type_still_construct():
    assert ThetaMatrix(np.array([[0, 1]], dtype=object)).values.tolist() == [[0.0, 1.0]]
    assert ThetaMatrix([[0.1, 0.8]], np.bool_(False)).is_probability == np.bool_(False)
    assert ProportionVector(np.array([0.5, 0.5], dtype=np.float32)).n_attributes == 1
    assert QMatrix(np.array([[1.0, 0.0]])).entries.tolist() == [[1, 0]]
    assert ResponseData(np.array([0, 3], dtype=np.uint8), np.int64(2)).n_subjects == 2
    assert DinaParams(np.float32(0.2), np.float64(0.1)).g == 0.1
    assert LlmParams(np.int64(-1), (np.float64(1.0), 0)).beta == (1.0, 0.0)
    assert RrumParams(1, (np.float32(0.5),)).r == (0.5,)
    assert GdinaParams({frozenset(): np.float64(0.1), frozenset({np.int64(0)}): 0.5}).attributes \
        == frozenset({0})


@pytest.mark.parametrize("beta", [{frozenset(): float("nan")},
                                  {frozenset(): 0.1, frozenset({0}): float("nan")}],
                         ids=["baseline", "main-effect"])
def test_a_nan_gdina_coefficient_is_rejected(beta):
    with pytest.raises(ValueError, match="partial sum nan"):
        GdinaParams(beta)
