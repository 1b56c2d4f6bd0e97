"""Every private module-level definition in ``src/rlcm`` is used by ``src/``,
and every name a module imports is used in that module.

A ``_``-prefixed function or class that only the tests call is code the
program never runs, or a second copy of code it does run: its place is
``tests/`` or nowhere.  A name counts as used when it appears as a whole
word in a ``src/`` file outside the lines of its own definition (its
decorators included).  Dunder names are hooks Python itself calls.

An imported name counts as used when the module's syntax tree reads it.
``__init__.py`` is exempt: it imports only to re-export.
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


def _unused_imports():
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {(alias.asname or alias.name).split(".")[0]
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names}
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        yield from (f"{path.stem}: {name}" for name in sorted(imported - read))


def test_every_import_is_used_in_its_module():
    assert list(_unused_imports()) == []
