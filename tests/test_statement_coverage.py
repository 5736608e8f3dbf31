"""``tools/statement_coverage.py`` counts statements and finds the ones that never ran.

The census itself is a tool to read, not a gate: this runs its counting on a
small module only.
"""

import importlib.util
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"

MODULE = '''"""A module docstring runs at import."""


def sign(x):
    """A function docstring compiles to nothing."""
    if x < 0:
        return -1
    total = (
        x
        + 1
    )
    return total


def unused():
    global COUNT
    COUNT = 1
'''


def load(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_census_counts_statements_and_lists_those_never_run(tmp_path):
    coverage = load(TOOLS / "statement_coverage.py", "statement_coverage")
    path = tmp_path / "small.py"
    path.write_text(MODULE)
    # The docstring, two defs, the if, both returns, the three-line assignment
    # and COUNT's; the function docstring and the global declaration hold no bytecode.
    assert sorted(coverage.statements(path)) == [1, 4, 6, 7, 8, 12, 15, 17]
    report = coverage.census([path], lambda: load(path, "small").sign(2))
    assert report == {path: (8, [7, 17])}
