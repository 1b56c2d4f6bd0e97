"""Every private module-level definition in ``src/rlcm`` is used by ``src/``.

A ``_``-prefixed function or class that only the tests call is code the
program never runs, or a second copy of code it does run: its place is
``tests/`` or nowhere.  A name counts as used when it appears as a whole
word in a ``src/`` file outside the lines of its own definition (its
decorators included).  Dunder names are hooks Python itself calls.
"""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "rlcm"


def _unused_private_definitions():
    sources = {path: path.read_text().splitlines() for path in sorted(SRC.glob("*.py"))}
    for path, lines in sources.items():
        for node in ast.parse("\n".join(lines)).body:
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or not node.name.startswith("_") or node.name.endswith("__")):
                continue
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            rest = [text for other, text in sources.items() if other != path]
            rest.append(lines[:first - 1] + lines[node.end_lineno:])
            word = re.compile(rf"\b{re.escape(node.name)}\b")
            if not any(word.search(line) for text in rest for line in text):
                yield f"{path.stem}.{node.name}"


def test_every_private_definition_is_used_in_src():
    assert list(_unused_private_definitions()) == []
