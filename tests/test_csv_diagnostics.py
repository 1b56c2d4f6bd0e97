"""A CSV whose 0/1 cells parse but whose model is invalid is reported with
the file name, like every other reader's diagnostic."""

import pytest

from rlcm.cli import main


def _write(path, rows):
    path.write_text("".join(",".join(map(str, row)) + "\n" for row in rows))
    return str(path)


@pytest.mark.parametrize("rows, message", [
    ([[1, 0]] * 21, "Q-matrix 21x2 exceeds caps J<=20, K<=20"),
    ([[1, 0], [0, 0]], "Q-matrix row 1 is all zero"),
])
def test_check_names_the_qmatrix_file(tmp_path, capsys, rows, message):
    q = _write(tmp_path / "q.csv", rows)
    assert main(["check", "--q", q]) == 1
    assert capsys.readouterr().err.strip() == f"error: {q}: {message}"


def test_fit_names_the_response_file(tmp_path, capsys):
    q = _write(tmp_path / "q.csv", [[1, 0], [0, 1]])
    data = _write(tmp_path / "data.csv", [[1] * 21])
    assert main(["fit", "--q", q, "--data", data, "--families", "DINA"]) == 1
    assert capsys.readouterr().err.strip() == f"error: {data}: item count 21 outside [1, 20]"
