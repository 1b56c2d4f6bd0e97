"""The 0/1 CSV reader works on the file's bytes: a file in the writer's
layout, with any line endings and a byte-order mark, is read without
decoding it to text, and the bytes are held once."""

import tracemalloc

import numpy as np
import pytest

from rlcm import ResponseData, fileio


def _refuse(*args, **kwargs):
    raise AssertionError("a file in the writer's layout was decoded to text")


@pytest.mark.parametrize("mark", [b"", b"\xef\xbb\xbf"])
@pytest.mark.parametrize("ending", [b"\n", b"\r\n", b"\r"])
def test_writer_layout_is_read_without_decoding(tmp_path, monkeypatch, mark, ending):
    rng = np.random.default_rng(len(ending))
    data = ResponseData.from_matrix(rng.integers(0, 2, size=(3000, 7)))
    path = tmp_path / "data.csv"
    fileio.write_response_csv(path, data)
    path.write_bytes(mark + path.read_bytes().replace(b"\n", ending))
    monkeypatch.setattr(fileio, "_read_text", _refuse)
    assert np.array_equal(fileio.read_response_csv(path).codes, data.codes)


def test_reading_holds_the_file_once(tmp_path):
    rng = np.random.default_rng(0)
    data = ResponseData.from_matrix(rng.integers(0, 2, size=(100_000, 20)))
    path = tmp_path / "data.csv"
    fileio.write_response_csv(path, data)
    size = path.stat().st_size
    tracemalloc.start()
    try:
        read = fileio.read_response_csv(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(read.codes, data.codes)
    # the 3.8 MiB file, its 1.9 MiB of int8 bits and the codes; holding the
    # file as text and as bytes peaked at 2.6 times the file
    assert peak <= 1.75 * size
