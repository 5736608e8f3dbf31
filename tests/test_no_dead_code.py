"""Every function, class and method in ``src/avmoe`` is named somewhere in the program.

The program is ``src/avmoe`` and the benchmark in ``bench/``. A definition that
only tests name belongs in the tests (``tests/helpers.py``), and one that
nothing names is deleted. A use is an ``ast.Name``, an ``ast.Attribute`` or a
string constant, because ``bench/spans.py`` wraps functions by their names.
Dunder names are called by Python itself and are not checked. This reads
bench/ and changes nothing in it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "avmoe").glob("*.py"))
PROGRAM = SOURCES + sorted((ROOT / "bench").glob("*.py"))


def definitions(tree: ast.Module) -> list[tuple[str, str]]:
    """(qualified name, name) of the module-level functions and classes and of
    the methods of those classes, dunders left out."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    found = []
    for node in tree.body:
        if isinstance(node, kinds):
            found.append((node.name, node.name))
        if isinstance(node, ast.ClassDef):
            found += [(f"{node.name}.{item.name}", item.name)
                      for item in node.body if isinstance(item, kinds)]
    return [(qualname, name) for qualname, name in found
            if not (name.startswith("__") and name.endswith("__"))]


def uses(tree: ast.Module) -> set[str]:
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
    return found


def test_every_definition_in_src_is_named_by_the_program():
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in PROGRAM}
    named = set().union(*map(uses, trees.values()))
    unused = [f"{path.name}:{qualname}" for path in SOURCES
              for qualname, name in definitions(trees[path]) if name not in named]
    assert not unused
