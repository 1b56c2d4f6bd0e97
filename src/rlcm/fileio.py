"""Readers and writers for the on-disk formats.

All matrices and vectors are stored in binary-counter order with bit 0
holding attribute 1 / item 1, and every JSON document declares that
convention so foreign files are rejected loudly.  Attribute and item
indices appearing in JSON are 0-based.
"""

from __future__ import annotations

import codecs
import io
import json
import math
import operator
import sys
from pathlib import Path
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from .core import MAX_ATTRIBUTES, MAX_ITEMS, ProportionVector, QMatrix, ThetaMatrix, bit_matrix
from .identifiability import InternalConsistencyError, NonIdentifiablePair
from .inference import ExperimentTable, FitResult, ResponseData, _blocks
from .models import FAMILY, ItemParams

CANONICAL_ORDER = "binary-counter, bit0=attr1"


class FileFormatError(ValueError):
    """A file failed to parse; the message carries location diagnostics."""


# exact types: Python's bool is an int, JSON's boolean is not a number
_JSON_TYPES = {"object": (dict,), "array": (list,), "string": (str,), "boolean": (bool,),
               "null": (type(None),), "integer": (int,), "number": (int, float)}
_BOUNDS = {"minimum": operator.ge, "maximum": operator.le,
           "exclusiveMinimum": operator.gt, "exclusiveMaximum": operator.lt}


def _broken_bound(value, schema: dict):
    """The first bound of ``schema`` that the number ``value`` breaks, or None."""
    return next((f"{value!r} breaks {key} {schema[key]}" for key, holds in _BOUNDS.items()
                 if key in schema and not holds(value, schema[key])), None)


def _plain_numbers(values: list, schema: dict) -> bool:
    """One pass: every entry is a number within the bounds of ``schema``."""
    return (schema.get("type") == "number" and bool(values)
            and all(type(v) is float or type(v) is int for v in values)
            and not (_BOUNDS.keys() & schema.keys()
                     and (_broken_bound(min(values), schema)
                          or _broken_bound(max(values), schema))))


def _consts(schema: dict) -> dict:
    return {key: p["const"] for key, p in schema["properties"].items() if "const" in p}


def _check(value, schema: dict, where, at: str = "") -> None:
    """Enforce the JSON-Schema subset ``SCHEMAS`` uses on ``value``; the first
    violation is a FileFormatError naming ``where`` (the file) and the field.

    ``oneOf`` alternatives are told apart by their ``const`` properties, as
    item documents are by ``family``.  An array of plain numbers takes one
    pass (``_plain_numbers``), so large tables read fast; any other array is
    checked entry by entry, which also locates a bad entry.
    """
    def fail(problem):
        raise FileFormatError(f"{where}: {at}: {problem}" if at else f"{where}: {problem}")

    for key in schema.get("required", ()):
        if not isinstance(value, dict) or key not in value:
            fail(f"missing field {key!r}")
    kinds = schema.get("type", ())
    kinds = [kinds] if isinstance(kinds, str) else kinds
    if kinds and not any(type(value) in _JSON_TYPES[kind] for kind in kinds):
        found = {dict: "an object", list: "an array"}.get(type(value)) or json.dumps(value)
        fail(f"expected {' or '.join(kinds)}, found {found}")
    if "const" in schema and value != schema["const"]:
        fail(f"expected {schema['const']!r}, found {value!r}")
    if type(value) in (int, float) and (broken := _broken_bound(value, schema)):
        fail(broken)
    if isinstance(value, list):
        if len(value) < schema.get("minItems", 0):
            fail(f"expected at least {schema['minItems']} entries, found {len(value)}")
        items = schema.get("items")
        if items is not None and not _plain_numbers(value, items):
            for i, v in enumerate(value):
                _check(v, items, where, f"{at}[{i}]")
    if isinstance(value, dict):
        props, rest = schema.get("properties", {}), schema.get("additionalProperties")
        for key, v in value.items():
            if key in props or rest is not None:
                _check(v, props.get(key, rest), where, f"{at}[{key!r}]")
        if "oneOf" in schema:
            alt = next((alt for alt in schema["oneOf"] if all(
                value.get(key) == c for key, c in _consts(alt).items())), None)
            if alt is None:
                fail("matches none of " + ", ".join(
                    json.dumps(_consts(alt)) for alt in schema["oneOf"]))
            _check(value, alt, where, at)


def _read_text(path, data: bytes) -> str:
    """``data``, the bytes of the file ``path``, decoded as ``Path.read_text``
    decodes them, newlines too; bytes that do not decode are a FileFormatError."""
    try:
        # utf-8-sig drops the byte-order mark that spreadsheet exports prepend
        return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig").read()
    except UnicodeDecodeError as exc:
        raise FileFormatError(f"{path}: not a text file: {exc}") from exc


def _read(path, fmt: str) -> dict:
    """The JSON document at ``path``, validated against ``SCHEMAS[fmt]``."""
    text = _read_text(path, Path(path).read_bytes())
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FileFormatError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError as exc:
        raise FileFormatError(f"{path}: invalid JSON: nested too deeply") from exc
    _check(doc, SCHEMAS[fmt], path)
    return doc


def _build(where, make, *args, **kwargs):
    """``make(*args, **kwargs)``; a model's ValueError gains the location prefix."""
    try:
        return make(*args, **kwargs)
    except (ValueError, OverflowError) as exc:
        raise FileFormatError(f"{where}: {exc}") from exc


def _check_sizes(path, doc: dict, **stored) -> None:
    """The sizes ``doc`` declares must be those of the values it stores."""
    if any(doc[key] != size for key, size in stored.items()):
        declared = ", ".join(f"{key}={doc[key]}" for key in stored)
        actual = ", ".join(f"{key}={size}" for key, size in stored.items())
        raise FileFormatError(f"{path}: declared {declared} do not match the stored "
                              f"values ({actual})")


def write_text(path, parts: Iterable[str]) -> None:
    """Each string of ``parts`` in turn into the file ``path``, or onto stdout
    when ``path`` is None."""
    if path is None:
        sys.stdout.writelines(parts)
    else:
        with open(path, "w", encoding="utf-8") as out:
            out.writelines(parts)


def write_json(path, doc: dict) -> None:
    write_text(path, (json.dumps(doc, indent=2), "\n"))


def _document_of(fmt: str, **fields) -> dict:
    """The ``fmt`` document holding ``fields`` and the constants of its
    schema (``format`` and the order tags), in the schema's field order."""
    doc = {**_consts(SCHEMAS[fmt]), **fields}
    return {key: doc[key] for key in SCHEMAS[fmt]["properties"]}


def _read_bits_csv(path, what: str) -> np.ndarray:
    """Comma-separated 0/1 rows, one per line; '#' lines are comments.

    A file in the layout ``_write_bits_csv`` writes is checked as one array
    of its bytes without splitting it into lines; any other canonical file,
    every data line exactly ``[01](,[01])*`` of one width, is checked the
    same way once it is decoded and its data lines are rejoined in that
    layout; the rest goes to ``_parse_bits_lines``, the one definition of the
    grammar and its diagnostics.
    """
    data = Path(path).read_bytes()
    bits = _writer_layout_bits(data)
    if bits is None and b"\r" in data:
        # the line endings as universal newlines read them: "\r\n" and "\r" end a line
        bits = _writer_layout_bits(data.replace(b"\r\n", b"\n").replace(b"\r", b"\n"))
    if bits is None:
        text = _read_text(path, data)
        rows = "\n".join(line for line in map(str.strip, text.splitlines())
                         if line and not line.startswith("#")) + "\n"
        # not a row: any non-ASCII text, such as a second byte-order mark,
        # which would encode to the mark the check skips
        bits = _writer_layout_bits(rows.encode("ascii")) if rows.isascii() else None
    return bits if bits is not None else _parse_bits_lines(path, text, what)


def _writer_layout_bits(data: bytes):
    """The 0/1 matrix of ``data`` when it is, after any byte-order mark, '#'
    lines, then rows that are each exactly ``[01](,[01])*\\n`` at the first
    row's width, else None."""
    start = len(codecs.BOM_UTF8) if data.startswith(codecs.BOM_UTF8) else 0
    while data.startswith(b"#", start):
        end = data.find(b"\n", start) + 1
        # a comment ends where str.splitlines ends it (also at \x0b, \x0c and
        # \x1c-\x1e, which bytes.splitlines passes over), or what follows is a row
        comment = data[start:end]
        if not end or not comment.isascii() or len(comment.decode("ascii").splitlines()) != 1:
            return None
        start = end
    width = data.find(b"\n", start) + 1 - start
    if width < 2 or width % 2 or (len(data) - start) % width:
        return None
    # each cell with the byte after it as one 16-bit word: "0," - "0," or
    # "1," - "0," is 0 or 1, "0\n" ends the row, and any other pair, any
    # byte outside ASCII among them, is more
    words = np.frombuffer(data, "<u2", offset=start).reshape(-1, width // 2)
    zeros = np.frombuffer(b"0," * (width // 2 - 1) + b"0\n", "<u2")
    bits = np.empty(words.shape, dtype=np.int8)
    for rows in _blocks(len(words), width):
        cells = words[rows] - zeros
        if cells.max() > 1:
            return None
        bits[rows] = cells
    return bits


def _parse_bits_lines(path, text: str, what: str) -> np.ndarray:
    """The line-by-line reader: any accepted spelling, and for a bad file the
    ``line N, column M`` diagnostic."""
    rows: List[List[int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
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


def _write_bits_csv(path, header: str, blocks) -> None:
    """``# header``, then each row of the 0/1 matrices ``blocks`` as ``0,1,...``:
    each cell and the separator after it are one little-endian 16-bit word,
    written to the file one block at a time."""
    with open(path, "wb") as out:
        out.write(f"# {header}\n".encode())
        for matrix in blocks:
            words = np.add(matrix, ord("0") | ord(",") << 8, dtype="<u2", casting="unsafe")
            words[:, -1] ^= (ord(",") ^ ord("\n")) << 8
            out.write(words)


def read_qmatrix_csv(path) -> QMatrix:
    """Parse a Q-matrix: one line per item, comma-separated 0/1 entries.

    Lines starting with '#' are comments.
    """
    return _build(path, QMatrix, _read_bits_csv(path, "Q-matrix"))


def write_qmatrix_csv(path, q: QMatrix) -> None:
    _write_bits_csv(path, "Q-matrix: one line per item, columns are attributes 1..K",
                    [q.entries])


def read_theta_json(path) -> ThetaMatrix:
    doc = _read(path, "theta-matrix")
    theta = _build(path, ThetaMatrix, doc["values"],
                   is_probability=doc.get("is_probability", True))
    _check_sizes(path, doc, J=theta.n_items, K=theta.n_attributes)
    return theta


def write_theta_json(path, theta: ThetaMatrix) -> None:
    write_json(path, _document_of("theta-matrix", J=theta.n_items, K=theta.n_attributes,
                                  is_probability=theta.is_probability,
                                  values=theta.values.tolist()))


def read_proportion_json(path) -> ProportionVector:
    doc = _read(path, "proportion-vector")
    p = _build(path, ProportionVector, doc["probs"])
    _check_sizes(path, doc, K=p.n_attributes)
    return p


def write_proportion_json(path, p: ProportionVector) -> None:
    write_json(path, _document_of("proportion-vector", K=p.n_attributes,
                                  probs=p.probs.tolist()))


def read_item_params_json(path) -> Tuple[List[ItemParams], int]:
    """Read per-item parameters; returns (params, K)."""
    doc = _read(path, "item-params")
    return [_build(f"{path}: item {i}", FAMILY[item["family"]].from_dict, item)
            for i, item in enumerate(doc["items"])], doc["K"]


def write_item_params_json(path, params: Sequence[ItemParams], n_attributes: int) -> None:
    write_json(path, _document_of("item-params", K=n_attributes,
                                  items=[p.to_dict() for p in params]))


def read_response_csv(path) -> ResponseData:
    """Parse response data: one line per subject, comma-separated 0/1."""
    return _build(path, ResponseData.from_matrix, _read_bits_csv(path, "response"))


def write_response_csv(path, data: ResponseData) -> None:
    _write_bits_csv(path, "responses: one line per subject, columns are items 1..J",
                    (bit_matrix(data.codes[rows], data.n_items)
                     for rows in _blocks(data.n_subjects, 2 * data.n_items)))


def pair_to_dict(pair: NonIdentifiablePair) -> dict:
    theta_a, p_a = pair.first
    theta_b, p_b = pair.second
    return _document_of(
        "nonidentifiable-pair", J=theta_a.n_items, K=theta_a.n_attributes,
        first={"theta": theta_a.values.tolist(), "p": p_a.probs.tolist()},
        second={"theta": theta_b.values.tolist(), "p": p_b.probs.tolist()},
        max_distribution_gap=pair.max_distribution_gap,
        parameter_distance=pair.parameter_distance)


def write_pair_json(path, pair: NonIdentifiablePair) -> None:
    write_json(path, pair_to_dict(pair))


def read_pair_json(path) -> NonIdentifiablePair:
    doc = _read(path, "nonidentifiable-pair")

    def member(key: str):
        where = f"{path}: {key}"
        return (_build(where, ThetaMatrix, doc[key]["theta"]),
                _build(where, ProportionVector, doc[key]["p"]))

    first, second = member("first"), member("second")
    _check_sizes(path, doc, J=first[0].n_items, K=first[0].n_attributes)
    # build() re-verifies the invariants instead of trusting stored numbers
    try:
        return _build(path, NonIdentifiablePair.build, first, second)
    except InternalConsistencyError as exc:
        raise FileFormatError(
            f"{path}: stored members differ in distribution (gap {exc.gap:.3g})"
        ) from exc


def write_fit_json(path, fit: FitResult, n_attributes: int) -> None:
    write_json(path, _document_of(
        "fit-result", K=n_attributes, item_params=[p.to_dict() for p in fit.item_params_hat],
        p=fit.p_hat.probs.tolist(), loglik=fit.loglik_trace[-1],
        loglik_trace=list(fit.loglik_trace), converged=fit.converged,
        restarts_used=fit.restarts_used,
        # a failed restart is NaN, which strict JSON cannot hold
        restart_logliks=[None if math.isnan(v) else v for v in fit.restart_logliks]))


def write_experiment_json(path, table: ExperimentTable) -> None:
    write_json(path, _document_of("consistency-table", **table.to_dict()))


def _object(optional=(), **properties) -> dict:
    """Schema of a JSON object; the fields not named ``optional`` are required."""
    return {"type": "object",
            "required": [key for key in properties if key not in optional],
            "properties": properties}


def _document(fmt: str, optional=(), **properties) -> dict:
    """Schema of a JSON document tagged ``"format": fmt``."""
    return _object(optional, format={"const": fmt}, **properties)


_J, _K = ({"type": "integer", "minimum": 1, "maximum": cap} for cap in (MAX_ITEMS, MAX_ATTRIBUTES))
_NUMBER = {"type": "number"}
_NUMBERS = {"type": "array", "items": _NUMBER}
_TABLE = {"type": "array", "minItems": 1, "items": _NUMBERS}
_PROPORTIONS = {"type": "array", "items": {"type": "number", "exclusiveMinimum": 0,
                                           "exclusiveMaximum": 1}}
_ITEMS = {"type": "array", "minItems": 1, "items": {
    "type": "object", "required": ["family"],
    "oneOf": [family.schema() for family in FAMILY.values()]}}
_MEMBER = _object(theta=_TABLE, p=_PROPORTIONS)
_GAP = {"type": "number", "minimum": 0}
_ROW = _object(n={"type": "integer", "minimum": 1}, replication={"type": "integer"},
               overall_error=_NUMBER, p_error=_NUMBER, item_errors=_NUMBERS,
               loglik=_NUMBER, converged={"type": "boolean"})

SCHEMAS = {
    "q-matrix-csv": {
        "description": "One line per item; K comma-separated 0/1 entries; "
                       "'#' lines are comments. No all-zero rows.",
    },
    "response-csv": {
        "description": "One line per subject; J comma-separated 0/1 entries; "
                       "'#' lines are comments.",
    },
    "theta-matrix": _document(
        "theta-matrix", optional=("is_probability",), J=_J, K=_K,
        column_order={"const": CANONICAL_ORDER},
        is_probability={"type": "boolean", "default": True}, values=_TABLE),
    "proportion-vector": _document(
        "proportion-vector", K=_K, order={"const": CANONICAL_ORDER},
        probs=_PROPORTIONS),
    "item-params": _document("item-params", K=_K, items=_ITEMS),
    "nonidentifiable-pair": _document(
        "nonidentifiable-pair", J=_J, K=_K, order={"const": CANONICAL_ORDER},
        first=_MEMBER, second=_MEMBER, max_distribution_gap=_GAP,
        parameter_distance=_GAP),
    "fit-result": _document(
        "fit-result", K=_K, item_params=_ITEMS, p=_PROPORTIONS,
        loglik=_NUMBER, loglik_trace=_NUMBERS,
        converged={"type": "boolean"}, restarts_used={"type": "integer", "minimum": 0},
        restart_logliks={"type": "array", "items": {"type": ["number", "null"]}}),
    "consistency-table": _document(
        "consistency-table", rows={"type": "array", "items": _ROW},
        median_overall_error={"type": "object", "additionalProperties": _NUMBER}),
}
