"""Every function, class, method, module-level constant and ``ClassVar`` in
``src/avmoe`` is named somewhere in the program.

The program is ``src/avmoe`` and the benchmark in ``bench/``. A definition that
only tests name belongs in the tests (``tests/helpers.py``), and one that
nothing names is deleted. A use is an ``ast.Name`` or an ``ast.Attribute``
that is read, not assigned; in ``src/avmoe`` and ``bench/spans.py``, which
wraps functions by their names, a string constant is one too. Other bench
strings, such as the op names that ``bench/run.py`` counts nodes under, are
labels and name nothing. Dunder names are called by Python itself and are not
checked. This reads bench/ and changes nothing in it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "avmoe").glob("*.py"))
PROGRAM = SOURCES + sorted((ROOT / "bench").glob("*.py"))
NAMES_IN_STRINGS = set(SOURCES) | {ROOT / "bench" / "spans.py"}


def assigned_names(node: ast.stmt) -> list[str]:
    """The names that a module-level assignment binds."""
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def is_class_var(node: ast.stmt) -> bool:
    return (isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
            and ast.unparse(node.annotation).startswith("ClassVar["))


def definitions(tree: ast.Module) -> list[tuple[str, str]]:
    """(qualified name, name) of the module-level functions, classes and
    assigned names, and of the methods and ``ClassVar``s of those classes,
    dunders left out."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    found = []
    for node in tree.body:
        if isinstance(node, kinds):
            found.append((node.name, node.name))
        found += [(name, name) for name in assigned_names(node)]
        if isinstance(node, ast.ClassDef):
            found += [(f"{node.name}.{item.name}", item.name)
                      for item in node.body if isinstance(item, kinds)]
            found += [(f"{node.name}.{item.target.id}", item.target.id)
                      for item in node.body if is_class_var(item)]
    return [(qualname, name) for qualname, name in found
            if not (name.startswith("__") and name.endswith("__"))]


def uses(tree: ast.Module, strings: bool) -> set[str]:
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
    return found


def test_every_definition_in_src_is_named_by_the_program():
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in PROGRAM}
    named = set().union(*(uses(tree, path in NAMES_IN_STRINGS) for path, tree in trees.items()))
    unused = [f"{path.name}:{qualname}" for path in SOURCES
              for qualname, name in definitions(trees[path]) if name not in named]
    assert not unused
