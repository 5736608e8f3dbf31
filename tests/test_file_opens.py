"""Every input file is opened by ``errors.open_input``, so a missing or unreadable
file is refused in one of its two forms and exits 3."""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "avmoe").glob("*.py"))
OPENERS = {"open", "read_bytes", "read_text"}


def functions_that_open(tree: ast.Module, module: str) -> set[str]:
    """Qualified names of the functions whose own body calls ``open``, ``x.open``,
    ``x.read_bytes`` or ``x.read_text``."""
    found = set()

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}")
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in OPENERS:
                    found.add(scope)
            visit(child, scope)

    visit(tree, module)
    return found


def test_only_open_input_opens_a_file_to_read_it():
    # A new reader goes through errors.open_input; a new writer updates this set.
    opened = set()
    for path in SOURCES:
        opened |= functions_that_open(ast.parse(path.read_text()), path.stem)
    assert opened == {
        "errors.open_input",
        "frontend.read_wav",  # wave.open of the file that open_input opened
        "checkpoint.save_checkpoint",  # writers
        "train.train",
    }
