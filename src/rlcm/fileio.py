"""Readers and writers for the on-disk formats.

All matrices and vectors are stored in binary-counter order with bit 0
holding attribute 1 / item 1, and every JSON document declares that
convention so foreign files are rejected loudly.  Attribute and item
indices appearing in JSON are 0-based.
"""

from __future__ import annotations

import json
import math
from functools import partial
from pathlib import Path
from typing import List, Sequence, Tuple

import numpy as np

from .core import ProportionVector, QMatrix, ThetaMatrix
from .identifiability import InternalConsistencyError, NonIdentifiablePair
from .inference import ExperimentTable, FitResult, ResponseData
from .models import FAMILY, ItemParams

CANONICAL_ORDER = "binary-counter, bit0=attr1"


class FileFormatError(ValueError):
    """A file failed to parse; the message carries location diagnostics."""


def _load_json(path) -> dict:
    text = Path(path).read_text()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FileFormatError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(doc, dict):
        raise FileFormatError(f"{path}: expected a JSON object at top level")
    return doc


def _expect(doc: dict, path, key: str, expected: str) -> None:
    if doc.get(key) != expected:
        raise FileFormatError(f"{path}: expected {key} {expected!r}, found {doc.get(key)!r}")


def _has_bool(value) -> bool:
    """JSON true/false anywhere in a value; Python would read them as 1 and 0."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return any(_has_bool(v) for v in value)
    return isinstance(value, bool)


def _field(doc, key: str, convert, where):
    """``convert(doc[key])``; a missing or ill-typed field is a FileFormatError.

    No field read here holds booleans, so one anywhere inside it is ill-typed.
    """
    if not isinstance(doc, dict) or key not in doc:
        raise FileFormatError(f"{where}: missing field {key!r}")
    if _has_bool(doc[key]):
        raise FileFormatError(f"{where}: field {key!r}: found a JSON boolean")
    try:
        return convert(doc[key])
    except (TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise FileFormatError(f"{where}: field {key!r}: {exc}") from exc


def _build(where, make, *args, **kwargs):
    """``make(*args, **kwargs)``; a model's ValueError gains the location prefix."""
    try:
        return make(*args, **kwargs)
    except FileFormatError:
        raise
    except ValueError as exc:
        raise FileFormatError(f"{where}: {exc}") from exc


def _integer(value) -> int:
    if not isinstance(value, int):
        raise TypeError(f"expected an integer, found {value!r}")
    return value


_floats = partial(np.asarray, dtype=np.float64)


def _read_bits_csv(path, what: str) -> np.ndarray:
    """Comma-separated 0/1 rows, one per line; '#' lines are comments."""
    rows: List[List[int]] = []
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        cells = [c.strip() for c in line.split(",")]
        row = []
        for col, cell in enumerate(cells, start=1):
            if cell not in ("0", "1"):
                raise FileFormatError(
                    f"{path}: line {lineno}, column {col}: expected 0 or 1, "
                    f"got {cell!r}"
                )
            row.append(int(cell))
        if rows and len(row) != len(rows[0]):
            raise FileFormatError(
                f"{path}: line {lineno}: expected {len(rows[0])} columns, "
                f"got {len(row)}"
            )
        rows.append(row)
    if not rows:
        raise FileFormatError(f"{path}: no {what} rows found")
    return np.array(rows, dtype=np.int8)


def _write_bits_csv(path, header: str, matrix) -> None:
    lines = ["# " + header] + [",".join(map(str, row)) for row in matrix.tolist()]
    Path(path).write_text("\n".join(lines) + "\n")


def read_qmatrix_csv(path) -> QMatrix:
    """Parse a Q-matrix: one line per item, comma-separated 0/1 entries.

    Lines starting with '#' are comments.
    """
    return QMatrix(_read_bits_csv(path, "Q-matrix"))


def write_qmatrix_csv(path, q: QMatrix) -> None:
    _write_bits_csv(path, "Q-matrix: one line per item, columns are attributes 1..K",
                    q.entries)


def read_theta_json(path) -> ThetaMatrix:
    doc = _load_json(path)
    _expect(doc, path, "format", "theta-matrix")
    _expect(doc, path, "column_order", CANONICAL_ORDER)
    values = _field(doc, "values", _floats, path)
    theta = _build(path, ThetaMatrix, values,
                   is_probability=bool(doc.get("is_probability", True)))
    n_items, n_attributes = _field(doc, "J", _integer, path), _field(doc, "K", _integer, path)
    if theta.n_items != n_items or theta.n_attributes != n_attributes:
        raise FileFormatError(
            f"{path}: declared J={n_items}, K={n_attributes} do not match "
            f"values of shape {values.shape}"
        )
    return theta


def write_theta_json(path, theta: ThetaMatrix) -> None:
    doc = {
        "format": "theta-matrix",
        "J": theta.n_items,
        "K": theta.n_attributes,
        "column_order": CANONICAL_ORDER,
        "is_probability": theta.is_probability,
        "values": theta.values.tolist(),
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def read_proportion_json(path) -> ProportionVector:
    doc = _load_json(path)
    _expect(doc, path, "format", "proportion-vector")
    _expect(doc, path, "order", CANONICAL_ORDER)
    probs = _field(doc, "probs", _floats, path)
    p = _build(path, ProportionVector, probs)
    n_attributes = _field(doc, "K", _integer, path)
    if p.n_attributes != n_attributes:
        raise FileFormatError(
            f"{path}: declared K={n_attributes} does not match {probs.size} entries"
        )
    return p


def write_proportion_json(path, p: ProportionVector) -> None:
    doc = {
        "format": "proportion-vector",
        "K": p.n_attributes,
        "order": CANONICAL_ORDER,
        "probs": p.probs.tolist(),
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def _params_to_dict(params: ItemParams) -> dict:
    return FAMILY[params.family].to_dict(params)


def _params_from_dict(item, index: int, path) -> ItemParams:
    where = f"{path}: item {index}"
    family = _field(item, "family", str, where)
    if family not in FAMILY:
        raise FileFormatError(f"{where}: unknown family {family!r}")
    return _build(where, FAMILY[family].from_dict,
                  lambda key, convert: _field(item, key, convert, where))


def read_item_params_json(path) -> Tuple[List[ItemParams], int]:
    """Read per-item parameters; returns (params, K)."""
    doc = _load_json(path)
    _expect(doc, path, "format", "item-params")
    n_attributes = _field(doc, "K", _integer, path)
    items = doc.get("items")
    if not isinstance(items, list) or not items:
        raise FileFormatError(f"{path}: 'items' must be a non-empty list")
    return [_params_from_dict(item, i, path) for i, item in enumerate(items)], n_attributes


def write_item_params_json(path, params: Sequence[ItemParams], n_attributes: int) -> None:
    doc = {
        "format": "item-params",
        "K": n_attributes,
        "items": [_params_to_dict(p) for p in params],
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def read_response_csv(path) -> ResponseData:
    """Parse response data: one line per subject, comma-separated 0/1."""
    return ResponseData.from_matrix(_read_bits_csv(path, "response"))


def write_response_csv(path, data: ResponseData) -> None:
    _write_bits_csv(path, "responses: one line per subject, columns are items 1..J",
                    data.to_matrix())


def pair_to_dict(pair: NonIdentifiablePair) -> dict:
    theta_a, p_a = pair.first
    theta_b, p_b = pair.second
    return {
        "format": "nonidentifiable-pair",
        "J": theta_a.n_items,
        "K": theta_a.n_attributes,
        "order": CANONICAL_ORDER,
        "first": {"theta": theta_a.values.tolist(), "p": p_a.probs.tolist()},
        "second": {"theta": theta_b.values.tolist(), "p": p_b.probs.tolist()},
        "max_distribution_gap": pair.max_distribution_gap,
        "parameter_distance": pair.parameter_distance,
    }


def write_pair_json(path, pair: NonIdentifiablePair) -> None:
    Path(path).write_text(json.dumps(pair_to_dict(pair), indent=2) + "\n")


def read_pair_json(path) -> NonIdentifiablePair:
    doc = _load_json(path)
    _expect(doc, path, "format", "nonidentifiable-pair")
    _expect(doc, path, "order", CANONICAL_ORDER)

    def member(key: str):
        part, where = doc.get(key), f"{path}: {key}"
        return (_build(where, ThetaMatrix, _field(part, "theta", _floats, where)),
                _build(where, ProportionVector, _field(part, "p", _floats, where)))

    # build() re-verifies the invariants instead of trusting stored numbers
    try:
        return _build(path, NonIdentifiablePair.build, member("first"), member("second"))
    except InternalConsistencyError as exc:
        raise FileFormatError(
            f"{path}: stored members differ in distribution (gap {exc.gap:.3g})"
        ) from exc


def write_fit_json(path, fit: FitResult, n_attributes: int) -> None:
    doc = {
        "format": "fit-result",
        "K": n_attributes,
        "item_params": [_params_to_dict(p) for p in fit.item_params_hat],
        "p": fit.p_hat.probs.tolist(),
        "loglik": fit.loglik_trace[-1],
        "loglik_trace": list(fit.loglik_trace),
        "converged": fit.converged,
        "restarts_used": fit.restarts_used,
        # a failed restart is NaN, which strict JSON cannot hold
        "restart_logliks": [None if math.isnan(v) else v for v in fit.restart_logliks],
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def write_experiment_json(path, table: ExperimentTable) -> None:
    doc = {"format": "consistency-table", **table.to_dict()}
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


SCHEMAS = {
    "q-matrix-csv": {
        "description": "One line per item; K comma-separated 0/1 entries; "
                       "'#' lines are comments. No all-zero rows.",
    },
    "response-csv": {
        "description": "One line per subject; J comma-separated 0/1 entries; "
                       "'#' lines are comments.",
    },
    "theta-matrix": {
        "type": "object",
        "required": ["format", "J", "K", "column_order", "values"],
        "properties": {
            "format": {"const": "theta-matrix"},
            "J": {"type": "integer", "minimum": 1, "maximum": 20},
            "K": {"type": "integer", "minimum": 1, "maximum": 20},
            "column_order": {"const": CANONICAL_ORDER},
            "is_probability": {"type": "boolean", "default": True},
            "values": {"type": "array", "items": {"type": "array",
                                                  "items": {"type": "number"}}},
        },
    },
    "proportion-vector": {
        "type": "object",
        "required": ["format", "K", "order", "probs"],
        "properties": {
            "format": {"const": "proportion-vector"},
            "K": {"type": "integer", "minimum": 1, "maximum": 20},
            "order": {"const": CANONICAL_ORDER},
            "probs": {"type": "array", "items": {"type": "number",
                                                 "exclusiveMinimum": 0,
                                                 "exclusiveMaximum": 1}},
        },
    },
    "item-params": {
        "type": "object",
        "required": ["format", "K", "items"],
        "properties": {
            "format": {"const": "item-params"},
            "K": {"type": "integer", "minimum": 1, "maximum": 20},
            "items": {"type": "array", "items": {"oneOf": [
                {"properties": {"family": {"enum": ["DINA", "DINO"]},
                                "s": {"type": "number"},
                                "g": {"type": "number"}},
                 "required": ["family", "s", "g"]},
                {"properties": {"family": {"const": "GDINA"},
                                "beta": {"type": "object",
                                         "description": "keys are comma-separated "
                                                        "0-based attribute indices; "
                                                        "'' is the empty set"}},
                 "required": ["family", "beta"]},
                {"properties": {"family": {"const": "LLM"},
                                "beta0": {"type": "number"},
                                "beta": {"type": "array", "items": {"type": "number"}}},
                 "required": ["family", "beta0", "beta"]},
                {"properties": {"family": {"const": "RRUM"},
                                "pi": {"type": "number"},
                                "r": {"type": "array", "items": {"type": "number"}}},
                 "required": ["family", "pi", "r"]},
            ]}},
        },
    },
    "nonidentifiable-pair": {
        "type": "object",
        "required": ["format", "J", "K", "order", "first", "second",
                     "max_distribution_gap", "parameter_distance"],
        "properties": {
            "format": {"const": "nonidentifiable-pair"},
            "order": {"const": CANONICAL_ORDER},
            "first": {"type": "object", "required": ["theta", "p"]},
            "second": {"type": "object", "required": ["theta", "p"]},
        },
    },
    "fit-result": {
        "type": "object",
        "required": ["format", "K", "item_params", "p", "loglik", "loglik_trace",
                     "converged", "restarts_used"],
        "properties": {"format": {"const": "fit-result"}},
    },
    "consistency-table": {
        "type": "object",
        "required": ["format", "rows", "median_overall_error"],
        "properties": {"format": {"const": "consistency-table"}},
    },
}
