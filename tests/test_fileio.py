"""Readers given damaged JSON documents: a one-line diagnostic, never a crash.

Every reader either returns or raises ``ValueError``; a missing or
ill-typed field is a ``FileFormatError`` naming the file and the field,
and the CLI turns it into one ``error:`` line with exit code 1.
"""

import copy
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
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

from helpers import child_env

Q_ROWS = [[1, 0], [0, 1], [1, 1], [1, 0], [0, 1]]
PARAMS = [
    DinaParams(0.2, 0.1),
    DinoParams(0.25, 0.15),
    GdinaParams({frozenset(): 0.1, frozenset({0}): 0.2, frozenset({0, 1}): 0.5}),
    LlmParams(-0.5, (1.0, 0.0)),
    RrumParams(0.9, (0.5, 0.3)),
]


def _valid_documents() -> dict:
    """reader name -> (reader, document written by the matching writer)."""
    pair = c1_only_counterexample(2, [[1]], [DinaParams(0.2, 0.1)] * 5, 1.0, (0.12, 0.08))
    writers = {
        "theta": (fileio.read_theta_json, fileio.write_theta_json,
                  ThetaMatrix([[0.1, 0.8], [0.2, 0.9]])),
        "proportion": (fileio.read_proportion_json, fileio.write_proportion_json,
                       ProportionVector([0.4, 0.6])),
        "item-params": (fileio.read_item_params_json,
                        lambda path, params: fileio.write_item_params_json(path, params, 2),
                        PARAMS),
        "pair": (fileio.read_pair_json, fileio.write_pair_json, pair),
    }
    docs = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, (reader, writer, value) in writers.items():
            path = Path(tmp) / f"{name}.json"
            writer(path, value)
            docs[name] = (reader, json.loads(path.read_text()))
    return docs


DOCS = _valid_documents()


def _locations(node, prefix=()):
    """Every (container path, key) inside a JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield prefix, key
        if isinstance(child, (dict, list)):
            yield from _locations(child, prefix + (key,))


def _json_kind(value) -> str:
    if isinstance(value, bool) or value is None:
        return repr(value)
    if isinstance(value, (int, float)):
        return "number"
    return type(value).__name__


# booleans stay out: Python reads them as the numbers 0 and 1
REPLACEMENTS = [None, "x", 7, [], ["x"], {}, {"x": 7}]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_dropped_or_retyped_field_is_a_value_error(data):
    name = data.draw(st.sampled_from(sorted(DOCS)))
    reader, valid = DOCS[name]
    doc = copy.deepcopy(valid)
    prefix, key = data.draw(st.sampled_from(list(_locations(doc))))
    parent = doc
    for step in prefix:
        parent = parent[step]
    if isinstance(parent, dict) and data.draw(st.booleans()):
        del parent[key]
    else:
        choices = [r for r in REPLACEMENTS if _json_kind(r) != _json_kind(parent[key])]
        parent[key] = copy.deepcopy(data.draw(st.sampled_from(choices)))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_text(json.dumps(doc))
        try:
            reader(path)
        except ValueError:
            pass  # FileFormatError, or a value out of range for the model


def _gdina_item(doc):
    return next(item for item in doc["items"] if item["family"] == "GDINA")


DAMAGES = {
    "theta-without-values": ("theta", lambda d: d.pop("values"), "'values'"),
    "params-without-K": ("item-params", lambda d: d.pop("K"), "'K'"),
    "item-not-an-object": ("item-params", lambda d: d.update(items=[5]), "'family'"),
    "gdina-beta-a-list": ("item-params", lambda d: _gdina_item(d).update(beta=[1]), "'beta'"),
}


def _damaged(tmp_path, case):
    name, damage, field = DAMAGES[case]
    reader, valid = DOCS[name]
    doc = copy.deepcopy(valid)
    damage(doc)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    return name, reader, path, field


@pytest.mark.parametrize("case", sorted(DAMAGES))
def test_reader_names_file_and_field(tmp_path, case):
    _, reader, path, field = _damaged(tmp_path, case)
    with pytest.raises(fileio.FileFormatError, match=field) as info:
        reader(path)
    assert str(path) in str(info.value)


@pytest.mark.parametrize("case", sorted(DAMAGES))
def test_cli_prints_one_line_without_traceback(tmp_path, case):
    name, _, path, field = _damaged(tmp_path, case)
    q_path = tmp_path / "q.csv"
    fileio.write_qmatrix_csv(q_path, QMatrix([[1], [1]] if name == "theta" else Q_ROWS))
    flag = "--theta" if name == "theta" else "--params"
    result = subprocess.run(
        [sys.executable, "-m", "rlcm.cli", "check", "--q", str(q_path), flag, str(path)],
        capture_output=True, text=True, env=child_env())
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    lines = result.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and field in lines[0]


def _item(family):
    return lambda d: next(item for item in d["items"] if item["family"] == family)


# (reader, where the boolean goes, field named in the diagnostic)
BOOLEANS = {
    "theta-values": ("theta", lambda d: d["values"][0], 0, "'values'"),
    "theta-J": ("theta", lambda d: d, "J", "'J'"),
    "theta-K": ("theta", lambda d: d, "K", "'K'"),
    "proportion-probs": ("proportion", lambda d: d["probs"], 1, "'probs'"),
    "proportion-K": ("proportion", lambda d: d, "K", "'K'"),
    "params-K": ("item-params", lambda d: d, "K", "'K'"),
    "dina-s": ("item-params", _item("DINA"), "s", "'s'"),
    "dino-g": ("item-params", _item("DINO"), "g", "'g'"),
    "gdina-beta-value": ("item-params", lambda d: _gdina_item(d)["beta"], "", "'beta'"),
    "llm-beta0": ("item-params", _item("LLM"), "beta0", "'beta0'"),
    "llm-beta": ("item-params", lambda d: _item("LLM")(d)["beta"], 0, "'beta'"),
    "rrum-pi": ("item-params", _item("RRUM"), "pi", "'pi'"),
    "rrum-r": ("item-params", lambda d: _item("RRUM")(d)["r"], 1, "'r'"),
    "pair-theta": ("pair", lambda d: d["first"]["theta"][0], 0, "'theta'"),
    "pair-p": ("pair", lambda d: d["second"]["p"], 0, "'p'"),
}


@pytest.mark.parametrize("value", [False, True])
@pytest.mark.parametrize("case", sorted(BOOLEANS))
def test_boolean_is_not_a_number(tmp_path, case, value):
    name, container, key, field = BOOLEANS[case]
    reader, valid = DOCS[name]
    doc = copy.deepcopy(valid)
    container(doc)[key] = value
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(fileio.FileFormatError, match=field) as info:
        reader(path)
    assert str(path) in str(info.value)


def test_out_of_range_value_names_file_and_item(tmp_path):
    reader, valid = DOCS["item-params"]
    doc = copy.deepcopy(valid)
    del _gdina_item(doc)["beta"][""]
    path = tmp_path / "params.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(fileio.FileFormatError) as info:
        reader(path)
    assert str(info.value) == (
        f"{path}: item 2: GDINA: beta must include the empty-set baseline")


def test_proportions_off_the_simplex_name_file(tmp_path):
    reader, valid = DOCS["proportion"]
    doc = copy.deepcopy(valid)
    doc["probs"] = [0.5, 0.6]
    path = tmp_path / "p.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(fileio.FileFormatError, match=str(path)):
        reader(path)


def test_cli_out_of_range_value_is_one_line_with_path(tmp_path, capsys):
    from rlcm.cli import main
    _, valid = DOCS["item-params"]
    doc = copy.deepcopy(valid)
    del _gdina_item(doc)["beta"][""]
    params, q_path = tmp_path / "params.json", tmp_path / "q.csv"
    params.write_text(json.dumps(doc))
    fileio.write_qmatrix_csv(q_path, QMatrix(Q_ROWS))
    assert main(["check", "--q", str(q_path), "--params", str(params)]) == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and str(params) in lines[0]


def test_tampered_pair_is_a_file_format_error(tmp_path):
    reader, valid = DOCS["pair"]
    doc = copy.deepcopy(valid)
    doc["second"]["theta"][0][0] += 0.2
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(fileio.FileFormatError, match="differ in distribution") as info:
        reader(path)
    assert str(info.value).startswith(f"{path}: ")
