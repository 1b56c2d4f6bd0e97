"""``fileio.SCHEMAS`` is the one definition of every JSON format.

The readers enforce it, every writer's document and every JSON result the
CLI prints satisfy it, and the item schemas follow from ``models.FAMILY``.
"""

import json
import math

import pytest

from rlcm import (
    DinaParams,
    DinoParams,
    ExperimentTable,
    FitResult,
    GdinaParams,
    LlmParams,
    ProportionVector,
    QMatrix,
    ReplicationRecord,
    RrumParams,
    ThetaMatrix,
    c1_only_counterexample,
    fileio,
    theta_from_params,
)
from rlcm.cli import main
from rlcm.core import MAX_ATTRIBUTES, MAX_ITEMS
from rlcm.models import FAMILY

from helpers import stacked_identity

PARAMS = [
    DinaParams(0.2, 0.1),
    DinoParams(0.25, 0.15),
    GdinaParams({frozenset(): 0.1, frozenset({0}): 0.2, frozenset({0, 1}): 0.5}),
    LlmParams(-0.5, (1.0, 0.0)),
    RrumParams(0.9, (0.5, 0.3)),
]
Q_ROWS = [[1, 0], [0, 1], [1, 1], [1, 0], [0, 1]]


def _pair():
    return c1_only_counterexample(2, [[1]], [DinaParams(0.2, 0.1)] * 5, 1.0, (0.12, 0.08))


def _fit():
    q = QMatrix(Q_ROWS)
    return FitResult(theta_hat=theta_from_params(q, PARAMS),
                     p_hat=ProportionVector([0.1, 0.2, 0.3, 0.4]),
                     item_params_hat=tuple(PARAMS), loglik_trace=(-12.0, -11.5),
                     converged=False, restarts_used=1,
                     restart_logliks=(-11.5, math.nan))


def _table():
    rows = [ReplicationRecord(n, 0, 0.1, 0.05, (0.1, 0.02), -40.0, True)
            for n in (300, 600)]
    return ExperimentTable(tuple(rows))


WRITERS = {
    "theta-matrix": lambda path: fileio.write_theta_json(
        path, ThetaMatrix([[0.1, 0.8], [0.2, 0.9]])),
    "theta-matrix-shifted": lambda path: fileio.write_theta_json(
        path, ThetaMatrix([[-0.5, 1.8], [0.2, 0.9]], is_probability=False)),
    "proportion-vector": lambda path: fileio.write_proportion_json(
        path, ProportionVector([0.4, 0.6])),
    "item-params": lambda path: fileio.write_item_params_json(path, PARAMS, 2),
    "nonidentifiable-pair": lambda path: fileio.write_pair_json(path, _pair()),
    "fit-result": lambda path: fileio.write_fit_json(path, _fit(), 2),
    "consistency-table": lambda path: fileio.write_experiment_json(path, _table()),
}


def _properties(schema):
    """Every ``properties`` mapping in ``schema``, nested ones included."""
    if isinstance(schema, dict):
        if "properties" in schema:
            yield schema["properties"]
        for value in schema.values():
            yield from _properties(value)
    elif isinstance(schema, list):
        for value in schema:
            yield from _properties(value)


def test_size_bounds_are_the_caps_of_core():
    sizes = [(letter, props[letter]) for props in _properties(fileio.SCHEMAS)
             for letter in ("J", "K") if letter in props]
    assert {letter for letter, _ in sizes} == {"J", "K"}
    for letter, prop in sizes:
        assert prop["maximum"] == {"J": MAX_ITEMS, "K": MAX_ATTRIBUTES}[letter]


def _validate(doc, where="doc"):
    fileio._check(doc, fileio.SCHEMAS[doc["format"]], where)


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_written_document_satisfies_its_schema(tmp_path, name):
    path = tmp_path / "doc.json"
    WRITERS[name](path)
    _validate(json.loads(path.read_text()), path)


def _written(tmp_path, name) -> dict:
    path = tmp_path / f"{name}.json"
    WRITERS[name](path)
    return json.loads(path.read_text())


def _read_damaged(tmp_path, name, damage):
    doc = _written(tmp_path, name)
    damage(doc)
    path = tmp_path / "damaged.json"
    path.write_text(json.dumps(doc))
    reader = {"theta-matrix": fileio.read_theta_json,
              "proportion-vector": fileio.read_proportion_json,
              "item-params": fileio.read_item_params_json,
              "nonidentifiable-pair": fileio.read_pair_json}[name]
    with pytest.raises(fileio.FileFormatError) as info:
        reader(path)
    message = str(info.value)
    assert message.startswith(f"{path}: ") and "\n" not in message
    return message


def _drop(key):
    return lambda doc: doc.pop(key)


def _set(**fields):
    return lambda doc: doc.update(fields)


# (document, damage, field the diagnostic names); each reader accepted these
# documents while the schema printed by ``rlcm --schema`` forbade them
DRIFT = {
    "pair-J-out-of-range-K-a-string": ("nonidentifiable-pair", _set(J=999, K="x"), "'J'"),
    "pair-K-a-string": ("nonidentifiable-pair", _set(K="x"), "'K'"),
    "pair-without-J": ("nonidentifiable-pair", _drop("J"), "'J'"),
    "pair-without-K": ("nonidentifiable-pair", _drop("K"), "'K'"),
    "pair-without-gap": ("nonidentifiable-pair", _drop("max_distribution_gap"),
                         "'max_distribution_gap'"),
    "pair-without-distance": ("nonidentifiable-pair", _drop("parameter_distance"),
                              "'parameter_distance'"),
    "params-K-zero": ("item-params", _set(K=0), "'K'"),
    "params-K-above-cap": ("item-params", _set(K=99), "'K'"),
    "theta-is-probability-a-string": ("theta-matrix", _set(is_probability="false"),
                                      "'is_probability'"),
    "theta-is-probability-zero": ("theta-matrix", _set(is_probability=0),
                                  "'is_probability'"),
}


@pytest.mark.parametrize("case", sorted(DRIFT))
def test_reader_enforces_the_schema(tmp_path, case):
    name, damage, field = DRIFT[case]
    assert field in _read_damaged(tmp_path, name, damage)


def _first_item(doc):
    return doc["items"][0]


# the other keywords of the checked subset, each through a reader
KEYWORDS = {
    "const": ("proportion-vector", _set(format="theta-matrix"), "'format'"),
    "minItems": ("item-params", _set(items=[]), "'items'"),
    "exclusiveMinimum": ("proportion-vector", _set(probs=[0.0, 1.0]), "'probs'"),
    "oneOf": ("item-params", lambda d: _first_item(d).update(family="NIDA"), "DINA"),
    "oneOf-member": ("item-params", lambda d: _first_item(d).update(s="0.2"), "'s'"),
    "additionalProperties": ("item-params",
                             lambda d: d["items"][2]["beta"].update({"0": "x"}), "'beta'"),
    "nested-object": ("nonidentifiable-pair", lambda d: d["first"].pop("p"), "'p'"),
}


@pytest.mark.parametrize("case", sorted(KEYWORDS))
def test_checker_keyword(tmp_path, case):
    name, damage, field = KEYWORDS[case]
    assert field in _read_damaged(tmp_path, name, damage)


@pytest.mark.parametrize("key, value", [("J", 4), ("K", 3)])
def test_pair_sizes_must_match_members(tmp_path, key, value):
    message = _read_damaged(tmp_path, "nonidentifiable-pair", _set(**{key: value}))
    assert "declared J=" in message and "J=5, K=2" in message


def test_theta_is_probability_may_be_omitted(tmp_path):
    doc = _written(tmp_path, "theta-matrix")
    del doc["is_probability"]
    path = tmp_path / "theta.json"
    path.write_text(json.dumps(doc))
    assert fileio.read_theta_json(path).is_probability is True


def test_schema_flag_lists_one_item_schema_per_family(capsys):
    assert main(["--schema"]) == 0
    schemas = json.loads(capsys.readouterr().out)
    for fmt, field in (("item-params", "items"), ("fit-result", "item_params")):
        alternatives = schemas[fmt]["properties"][field]["items"]["oneOf"]
        names = [alt["properties"]["family"]["const"] for alt in alternatives]
        assert names == list(FAMILY)
    pair = schemas["nonidentifiable-pair"]["properties"]
    assert pair["J"]["type"] == pair["K"]["type"] == "integer"
    assert pair["first"]["properties"]["theta"]["items"]["items"]["type"] == "number"


@pytest.fixture
def design(tmp_path):
    q, params, p = tmp_path / "q.csv", tmp_path / "params.json", tmp_path / "p.json"
    fileio.write_qmatrix_csv(q, stacked_identity(2, 3))
    fileio.write_item_params_json(params, [DinaParams(0.2, 0.1)] * 6, 2)
    fileio.write_proportion_json(p, ProportionVector([0.25] * 4))
    return str(q), str(params), str(p)


def _stdout_and_out(tmp_path, capsys, argv):
    """The JSON document a command prints, and the one it writes to --out."""
    assert main(argv) == 0
    printed = json.loads(capsys.readouterr().out)
    out = tmp_path / "out.json"
    assert main(argv + ["--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    return printed, json.loads(out.read_text())


def test_fit_prints_the_document_it_writes(tmp_path, capsys, design):
    q, params, p = design
    data = tmp_path / "data.csv"
    assert main(["simulate", "--q", q, "--params", params, "--p", p, "--n", "500",
                 "--seed", "3", "--out", str(data)]) == 0
    printed, written = _stdout_and_out(tmp_path, capsys, [
        "fit", "--q", q, "--data", str(data), "--families", "DINA",
        "--restarts", "2", "--max-iters", "50", "--seed", "1"])
    assert printed == written
    _validate(printed)
    assert printed["format"] == "fit-result" and len(printed["restart_logliks"]) == 2


def test_experiment_prints_the_document_it_writes(tmp_path, capsys, design):
    q, params, p = design
    printed, written = _stdout_and_out(tmp_path, capsys, [
        "experiment", "--q", q, "--params", params, "--p", p, "--families", "DINA",
        "--n-grid", "300", "--replications", "1", "--restarts", "1",
        "--max-iters", "50", "--seed", "2"])
    assert printed == written
    _validate(printed)
    assert printed["format"] == "consistency-table"


@pytest.mark.parametrize("item", [
    {"family": "LLM", "beta0": -0.5, "beta": [1.0]},
    {"family": "GDINA", "beta": {"": 0.1, "1": 0.5}},
], ids=["llm-slope-count", "gdina-attribute-outside-q-row"])
def test_params_that_do_not_fit_the_q_matrix_name_the_file(tmp_path, capsys, item):
    q, params = tmp_path / "q.csv", tmp_path / "params.json"
    fileio.write_qmatrix_csv(q, QMatrix([[1, 0], [0, 1]]))
    params.write_text(json.dumps({"format": "item-params", "K": 2, "items": [
        item, {"family": "DINA", "s": 0.2, "g": 0.1}]}))
    assert main(["check", "--q", str(q), "--params", str(params)]) == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {params}: ")
    assert "item 0" in lines[0]

