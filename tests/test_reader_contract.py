"""Every reader, given any bytes, returns or raises FileFormatError / ValueError.

A file that is no text, JSON nested past the parser's depth, a G-DINA
``beta`` key that names no subset or names one twice, and a ``--params``
file that does not fit the Q-matrix of ``rlcm experiment`` all give one
line naming the file.
"""

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from rlcm import (
    DinaParams,
    DinoParams,
    GdinaParams,
    LlmParams,
    ProportionVector,
    QMatrix,
    RrumParams,
    ThetaMatrix,
    c1_only_counterexample,
    fileio,
)
from rlcm.cli import main
from rlcm.fileio import FileFormatError

PARAMS = [
    DinaParams(0.2, 0.1),
    DinoParams(0.25, 0.15),
    GdinaParams({frozenset(): 0.1, frozenset({0}): 0.2, frozenset({0, 1}): 0.5}),
    LlmParams(-0.5, (1.0, 0.0)),
    RrumParams(0.9, (0.5, 0.3)),
]
READERS = [fileio.read_qmatrix_csv, fileio.read_response_csv, fileio.read_theta_json,
           fileio.read_proportion_json, fileio.read_item_params_json,
           fileio.read_pair_json]


def _valid_files() -> list:
    """The bytes of one valid file of every format, as the writers write them."""
    pair = c1_only_counterexample(2, [[1]], [DinaParams(0.2, 0.1)] * 5, 1.0, (0.12, 0.08))
    writes = [
        (fileio.write_qmatrix_csv, QMatrix([[1, 0], [0, 1], [1, 1]])),
        (fileio.write_theta_json, ThetaMatrix([[0.1, 0.8], [0.2, 0.9]])),
        (fileio.write_proportion_json, ProportionVector([0.4, 0.6])),
        (lambda path, params: fileio.write_item_params_json(path, params, 2), PARAMS),
        (fileio.write_pair_json, pair),
    ]
    files = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "file"
        for write, value in writes:
            write(path, value)
            files.append(path.read_bytes())
    return files


VALID = _valid_files()


@st.composite
def _damaged(draw):
    """A valid file with one stretch of it replaced by arbitrary text."""
    data = draw(st.sampled_from(VALID))
    start = draw(st.integers(0, len(data)))
    stop = draw(st.integers(start, min(len(data), start + 12)))
    patch = draw(st.one_of(st.text(max_size=8).map(str.encode), st.binary(max_size=4)))
    return data[:start] + patch + data[stop:]


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(st.binary(max_size=200), _damaged(), st.sampled_from(VALID)))
@example(b"[" * 100000 + b"]" * 100000)
@example(b'{"format": "theta-matrix", "values": ' + b"[" * 50000 + b"]" * 50000 + b"}")
@example(b"0,1\n\xff,1\n")
@example(b'{"format": "proportion-vector", "K": 1, "order": "x", "probs": [NaN, 0.5]}')
def test_every_reader_returns_or_raises_value_error(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input"
        path.write_bytes(data)
        for reader in READERS:
            try:
                reader(path)
            except ValueError:
                pass


def _one_line_error_naming(path, call):
    with pytest.raises(FileFormatError) as caught:
        call(path)
    message = str(caught.value)
    assert message.startswith(f"{path}: ") and "\n" not in message
    return message


def test_deeply_nested_json_is_a_format_error(tmp_path):
    path = tmp_path / "theta.json"
    path.write_text("[" * 100000 + "]" * 100000)
    for reader in READERS[2:]:
        _one_line_error_naming(path, reader)


@pytest.mark.parametrize("reader", READERS)
def test_undecodable_bytes_are_a_format_error(tmp_path, reader):
    path = tmp_path / "input"
    path.write_bytes(b"0,1\n\xff,1\n")
    _one_line_error_naming(path, reader)


@pytest.mark.parametrize("ending", [b"\n", b"\r\n", b"\r"], ids=["LF", "CRLF", "CR"])
@pytest.mark.parametrize("lines, reader, problem", [
    ([b"{", b'  "format": "proportion-vector",', b'  "K": 1, "probs": [x]', b"}"],
     fileio.read_proportion_json, "invalid JSON at line 3, column 21: Expecting value"),
    ([b"# Q", b"1,0", b"0,1", b"1,x"],
     fileio.read_qmatrix_csv, "line 4, column 2: expected 0 or 1, got 'x'"),
], ids=["json", "csv"])
def test_error_is_located_alike_under_any_line_ending(tmp_path, ending, lines, reader,
                                                       problem):
    path = tmp_path / "input"
    path.write_bytes(ending.join(lines) + ending)
    assert _one_line_error_naming(path, reader) == f"{path}: {problem}"


def _outcome(reader, path) -> str:
    """What ``reader`` makes of ``path``, with the path itself left out."""
    try:
        got = repr(reader(path))
    except ValueError as exc:
        got = f"{type(exc).__name__}: {exc}"
    return got.replace(str(path), "FILE")


@pytest.mark.parametrize("data", VALID, ids=["q-matrix", "theta", "proportions",
                                           "item-params", "pair"])
def test_byte_order_mark_reads_as_without_it(tmp_path, data):
    plain, marked = tmp_path / "plain", tmp_path / "marked"
    plain.write_bytes(data)
    marked.write_bytes("\ufeff".encode() + data)
    for reader in READERS:
        assert _outcome(reader, marked) == _outcome(reader, plain)


@pytest.mark.parametrize("mark", [b"", "\ufeff".encode()], ids=["plain", "marked"])
@pytest.mark.parametrize("reader", READERS)
def test_undecodable_bytes_are_not_a_text_file(tmp_path, reader, mark):
    path = tmp_path / "input"
    path.write_bytes(mark + b"0,1\n\xff,1\n")
    assert ": not a text file: " in _one_line_error_naming(path, reader)

def _gdina_file(tmp_path, beta) -> Path:
    path = tmp_path / "params.json"
    path.write_text(json.dumps({"format": "item-params", "K": 2, "items": [
        {"family": "DINA", "s": 0.2, "g": 0.1}, {"family": "GDINA", "beta": beta}]}))
    return path


@pytest.mark.parametrize("beta, keys", [
    ({"": 0.1, "0,1": 0.5, "1,0": 0.2}, ["'0,1'", "'1,0'"]),
    ({"": 0.1, "1": 0.3, "01": 0.2}, ["'1'", "'01'"]),
    ({"": 0.1, ",": 0.3}, ["','"]),
    ({"": 0.1, "x": 0.3}, ["'x'"]),
    ({"": 0.1, "0, 1": 0.3}, ["'0, 1'"]),
    ({"": 0.1, "0,": 0.3}, ["'0,'"]),
    ({"": 0.1, "-1": 0.3}, ["'-1'"]),
    ({"": 0.1, "１": 0.3}, ["'１'"]),
], ids=["two-spellings", "leading-zero", "comma", "letter", "space", "trailing-comma",
        "negative", "fullwidth-digit"])
def test_gdina_beta_keys_name_one_subset_each(tmp_path, beta, keys):
    path = _gdina_file(tmp_path, beta)
    message = _one_line_error_naming(path, fileio.read_item_params_json)
    assert message.startswith(f"{path}: item 1: beta: ")
    assert all(key in message for key in keys)


def test_gdina_beta_keys_read_in_any_order(tmp_path):
    path = _gdina_file(tmp_path, {"1,0": 0.3, "": 0.1, "0": 0.2})
    params, _ = fileio.read_item_params_json(path)
    assert dict(params[1].beta) == {frozenset(): 0.1, frozenset({0}): 0.2,
                                    frozenset({0, 1}): 0.3}


def test_experiment_params_that_do_not_fit_the_q_matrix_name_the_file(tmp_path, capsys):
    q, params, p = tmp_path / "q.csv", tmp_path / "params.json", tmp_path / "p.json"
    fileio.write_qmatrix_csv(q, QMatrix([[1, 0], [0, 1], [1, 1]]))
    params.write_text(json.dumps({"format": "item-params", "K": 2, "items": [
        {"family": "DINA", "s": 0.2, "g": 0.1},
        {"family": "LLM", "beta0": -0.5, "beta": [1.0]},
        {"family": "DINA", "s": 0.2, "g": 0.1}]}))
    fileio.write_proportion_json(p, ProportionVector([0.25] * 4))
    code = main(["experiment", "--q", str(q), "--params", str(params), "--p", str(p),
                 "--families", "DINA,LLM,DINA", "--n-grid", "100",
                 "--replications", "1", "--restarts", "1", "--max-iters", "2"])
    assert code == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert lines == [f"error: {params}: LLM: item 1 has 1 slopes for 2 attributes"]
