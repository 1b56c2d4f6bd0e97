"""The benchmark's tracer wraps library functions by module-global name.

Every ``<module>.<function>.self_s`` metric in ``BENCHMARK.json`` outside the
``cli.`` spans must name a callable of ``rlcm.<module>``; a renamed or
deleted function would leave its metric silently empty.
"""

import importlib
import json
from pathlib import Path

import pytest

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def _wrapped_names():
    metrics = json.loads(BENCHMARK.read_text(encoding="utf-8"))["per_layer"]
    return [m["name"].removesuffix(".self_s") for m in metrics
            if m["name"].endswith(".self_s") and not m["name"].startswith("cli.")]


def test_benchmark_wraps_library_functions():
    # an empty list would leave the check below with nothing to check
    assert _wrapped_names()


@pytest.mark.parametrize("name", _wrapped_names())
def test_wrapped_name_is_a_function_of_its_module(name):
    module, function = name.split(".")
    assert callable(getattr(importlib.import_module(f"rlcm.{module}"), function, None))
