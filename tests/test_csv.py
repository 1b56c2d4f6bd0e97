"""The 0/1 CSV reader's one-pass paths and the array writer.

``fileio._parse_bits_lines`` is the one definition of the CSV grammar and
of its ``line N, column M`` diagnostics.  The one-pass paths, the writer's
layout read as one array and the line-list check, may only return what
that pass returns; every other file goes to it.  The writers must write
the bytes of the row-by-row join they replaced.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rlcm import QMatrix, ResponseData, fileio, inference

READERS = {
    "response": (fileio.read_response_csv, lambda got: (got.n_items, got.codes.tolist())),
    "q-matrix": (fileio.read_qmatrix_csv, lambda got: got.entries.tolist()),
}


def _outcome(reader, path, summary):
    try:
        return "ok", summary(reader(path))
    except ValueError as exc:
        return type(exc).__name__, str(exc)


def _both_ways(data: bytes):
    """For each reader, (outcome as read, outcome of the per-line pass alone),
    and the raw array each way (None where that way raised)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "bits.csv"
        path.write_bytes(data)
        read = {name: _outcome(reader, path, summary)
                for name, (reader, summary) in READERS.items()}
        arrays = [_array(path)]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(fileio, "_writer_layout_bits", lambda text: None)
            per_line = {name: _outcome(reader, path, summary)
                        for name, (reader, summary) in READERS.items()}
            arrays.append(_array(path))
    return read, per_line, arrays


def _array(path):
    try:
        return fileio._read_bits_csv(path, "response")
    except ValueError:
        return None


def _assert_same_as_per_line_pass(data: bytes) -> None:
    read, per_line, (fast, slow) = _both_ways(data)
    assert read == per_line
    if slow is None:
        assert fast is None
    else:
        assert fast.dtype == slow.dtype == np.int8
        assert fast.shape == slow.shape and np.array_equal(fast, slow)


def _layout(rows, endings, comments):
    """A file of 0/1 ``rows`` with the given line endings and, before each
    row, maybe a comment or a blank line."""
    out = []
    for i, row in enumerate(rows):
        if comments[i % len(comments)]:
            out.append(comments[i % len(comments)])
        out.append(",".join(map(str, row)))
    return "".join(line + endings[i % len(endings)] for i, line in enumerate(out))


CANONICAL = st.integers(1, 6).flatmap(lambda width: st.tuples(
    st.lists(st.lists(st.integers(0, 1), min_size=width, max_size=width),
             min_size=1, max_size=12),
    st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=1, max_size=3),
    st.lists(st.sampled_from(["", "# comment", "  #x,1", "   ", "\t"]),
             min_size=1, max_size=3),
))

# characters that build near-canonical files: cells, separators, spaces,
# comments, line breaks, a stray letter and non-ASCII
NEAR = st.text(alphabet="01,,,\n\n\r #\t\x0bx2é٠ ", max_size=60)


@settings(max_examples=150, deadline=None)
@given(CANONICAL)
def test_canonical_files_read_as_the_per_line_pass_reads_them(case):
    _assert_same_as_per_line_pass(_layout(*case).encode())


@settings(max_examples=300, deadline=None)
@given(st.one_of(NEAR.map(str.encode), st.binary(max_size=80)))
@example(b"0,1\n0,1,\n")          # trailing comma: even width
@example(b"0,1,\n0,1,\n")
@example(b"0,1\n0,1 \n1, 0\n")    # spaces inside a cell
@example(b"0,1\n0,1,1\n")         # ragged rows
@example(b"0,1\n0;1\n")
@example(b"0,1\n\xc3\xa9,1\n")    # non-ASCII
@example(b"0,1\n\xff,1\n")        # not UTF-8
@example(b"# only a comment\n\n")
@example(b"")
@example(b"0\n1\n")
@example(b"0,1\n1,1\x1c0,1\n")    # an ASCII line separator splits lines
@example(b"# a\x1c0,1\n1,1\n")    # ... a comment too, so its tail is a row
@example(b"# h\x0c\n0,1\n")        # a form feed ends the comment early
@example(b"# h\n0,1\n1,1")         # no final newline
@example(b"# h\n0,1\n\n1,1\n")     # a blank line between rows
@example(b"\n0,1\n")               # a blank line before the rows
def test_any_bytes_read_as_the_per_line_pass_reads_them(data):
    _assert_same_as_per_line_pass(data)


def test_canonical_file_never_reaches_the_per_line_pass(tmp_path, monkeypatch):
    path = tmp_path / "data.csv"
    path.write_bytes(b"# responses\r\n0,1,1\r\n\r\n# more\r\n1,0,1\r\n  1,1,1  \r\n")

    def per_line_pass(*args):
        raise AssertionError("a canonical file reached the per-line pass")

    monkeypatch.setattr(fileio, "_parse_bits_lines", per_line_pass)
    data = fileio.read_response_csv(path)
    assert data.to_matrix().tolist() == [[0, 1, 1], [1, 0, 1], [1, 1, 1]]
    assert fileio.read_qmatrix_csv(path).entries.tolist() == [[0, 1, 1], [1, 0, 1], [1, 1, 1]]


def _refuse(*args):
    raise AssertionError("a file in the writer's layout was split into lines")


BOM = "\ufeff".encode()


@pytest.mark.parametrize("mark", [b"", BOM], ids=["plain", "marked"])
@pytest.mark.parametrize("n_items", [1, 20])
def test_writer_layout_never_reaches_the_line_list(tmp_path, monkeypatch, n_items, mark):
    rng = np.random.default_rng(n_items)
    data = ResponseData.from_matrix(rng.integers(0, 2, size=(1000, n_items)))
    entries = rng.integers(0, 2, size=(20, 8))
    entries[entries.sum(axis=1) == 0, 0] = 1
    q = QMatrix(entries)
    response_path, q_path = tmp_path / "data.csv", tmp_path / "q.csv"
    fileio.write_response_csv(response_path, data)
    fileio.write_qmatrix_csv(q_path, q)
    for path in (response_path, q_path):
        path.write_bytes(mark + path.read_bytes())
    checks = []
    array_check = fileio._writer_layout_bits
    monkeypatch.setattr(fileio, "_writer_layout_bits",
                        lambda text: checks.append(text) or array_check(text))
    monkeypatch.setattr(fileio, "_parse_bits_lines", _refuse)
    assert np.array_equal(fileio.read_response_csv(response_path).codes, data.codes)
    assert np.array_equal(fileio.read_qmatrix_csv(q_path).entries, q.entries)
    # the line list is checked by a second call on its rejoined lines
    assert len(checks) == 2, "a file in the writer's layout was split into lines"


@pytest.mark.parametrize("data", [
    b"# responses\n0,1,1\n1,0,1\n",        # the writer's layout
    b"0,1,1\r\n  1,0,1\n",                 # a canonical line list
    b"0, 1,1\n1,0,1\n",                     # the per-line pass
    b"0,1,1\n1,0\n",                        # a diagnostic
])
def test_byte_order_mark_reads_as_without_it(tmp_path, data):
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_bytes(data)
    marked.write_bytes(BOM + data)
    for reader, summary in READERS.values():
        assert (repr(_outcome(reader, plain, summary)).replace(str(plain), "FILE")
                == repr(_outcome(reader, marked, summary)).replace(str(marked), "FILE"))


def _joined(header: str, matrix) -> bytes:
    """The row-by-row join the array writer replaced."""
    lines = ["# " + header] + [",".join(map(str, r)) for r in matrix.tolist()]
    return ("\n".join(lines) + "\n").encode()


# the last two cross the writer's blocks: 8,192 rows of 16 items, 6,553 of 20
@pytest.mark.parametrize("shape", [(1, 1), (1, 5), (7, 1), (200, 16), (50, 20),
                                   (20_000, 16), (9_001, 20)])
def test_writers_write_the_joined_bytes(tmp_path, shape):
    rng = np.random.default_rng(shape[0] * 31 + shape[1])
    matrix = rng.integers(0, 2, size=shape)
    data = ResponseData.from_matrix(matrix)
    path = tmp_path / "responses.csv"
    fileio.write_response_csv(path, data)
    assert path.read_bytes() == _joined(
        "responses: one line per subject, columns are items 1..J", data.to_matrix())
    entries = matrix[:20, :8].copy()
    entries[entries.sum(axis=1) == 0, 0] = 1
    q = QMatrix(entries)
    fileio.write_qmatrix_csv(path, q)
    assert path.read_bytes() == _joined(
        "Q-matrix: one line per item, columns are attributes 1..K", q.entries)
    assert np.array_equal(fileio.read_qmatrix_csv(path).entries, q.entries)


def _small_blocks(monkeypatch, n_items):
    """Blocks of 5 rows of ``n_items`` cells in the writer and the reader, and
    so of one row in the packer, whose rows are 8 bytes a cell."""
    monkeypatch.setattr(inference, "CHUNK_BYTES", 5 * 2 * n_items)


@pytest.mark.parametrize("n_subjects", [1, 4, 5, 6, 20, 23])
@pytest.mark.parametrize("n_items", [1, 3, 20])
def test_responses_read_back_across_blocks(tmp_path, monkeypatch, n_subjects, n_items):
    _small_blocks(monkeypatch, n_items)
    rng = np.random.default_rng(n_subjects * 31 + n_items)
    data = ResponseData(rng.integers(0, 1 << n_items, n_subjects), n_items)
    path = tmp_path / "data.csv"
    fileio.write_response_csv(path, data)
    assert path.read_bytes() == _joined(
        "responses: one line per subject, columns are items 1..J", data.to_matrix())
    monkeypatch.setattr(fileio, "_parse_bits_lines", _refuse)
    assert fileio.read_response_csv(path) == data


@pytest.mark.parametrize("cell", [b"2", b" ", b"x"])
def test_a_bad_cell_in_the_last_block_reaches_the_per_line_pass(tmp_path, monkeypatch, cell):
    _small_blocks(monkeypatch, 3)
    data = ResponseData(np.arange(23) % 8, 3)
    path = tmp_path / "data.csv"
    fileio.write_response_csv(path, data)
    text = bytearray(path.read_bytes())
    text[-2:-1] = cell                  # row 23's last cell, in a block of 3 rows
    path.write_bytes(bytes(text))
    parsed = []
    per_line = fileio._parse_bits_lines
    monkeypatch.setattr(fileio, "_parse_bits_lines",
                        lambda *args: parsed.append(args) or per_line(*args))
    with pytest.raises(fileio.FileFormatError,
                       match=f"line 24, column 3: expected 0 or 1, got {cell.decode().strip()!r}"):
        fileio.read_response_csv(path)
    assert len(parsed) == 1
