"""A re-import of ``rlcm`` leaves none of an earlier import's classes alive,
as ``perfbench/run.py`` re-imports it for every set-up.  It runs in a child
interpreter: a re-import here would break the other tests' ``isinstance``
checks."""

import subprocess
import sys

from helpers import child_env

CHILD = """
import gc, importlib, sys

def load():
    for name in [m for m in sys.modules if m == "rlcm" or m.startswith("rlcm.")]:
        del sys.modules[name]
    importlib.import_module("rlcm")
    importlib.import_module("rlcm.cli")

def live_classes():
    gc.collect()
    return sum(isinstance(o, type) and str(getattr(o, "__module__", "")).startswith("rlcm")
               for o in gc.get_objects())

load()
once = live_classes()
for _ in range(4):
    load()
print(once, live_classes())
"""


def test_five_imports_leave_the_classes_of_one():
    result = subprocess.run([sys.executable, "-c", CHILD], capture_output=True, text=True,
                            env=child_env(), check=True)
    once, after_five = map(int, result.stdout.split())
    assert once > 0
    assert after_five == once
