"""Statement census of ``src/avmoe`` under tier-1, with no coverage package.

Run from the repository root:

    PYTHONPATH=src python tools/statement_coverage.py [pytest arguments]

It runs pytest in this process under ``sys.settrace`` and prints, per module,
the statements that ran out of the statements there are, then the first line
of every statement that never ran. Extra arguments go to pytest in place of
the tier-1 ones (``-q --continue-on-collection-errors``).

A statement is an ``ast.stmt``. Its own lines are its span, or for a compound
statement the lines before its first child statement. It counts when one of
its own lines holds bytecode, so a function's docstring and a ``global``
declaration, which compile to nothing, are not statements here. It ran when
the tracer saw a line event on one of its own lines. A module's top level runs
at import, so the census sees it only for modules first imported under the
tracer: start it before anything imports ``avmoe``.

The tracer slows tier-1 about twice and allocates as it records, so this is a
tool to read, not a gate.
"""

from __future__ import annotations

import ast
import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIER1 = ["-q", "--continue-on-collection-errors"]


def _code_lines(code: types.CodeType) -> set[int]:
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= _code_lines(const)
    return lines


def statements(path: Path) -> dict[int, set[int]]:
    """First line of each statement of the file at ``path`` -> its own lines
    that hold bytecode."""
    source = path.read_text()
    executable = _code_lines(compile(source, str(path), "exec"))
    found = {}
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt):
            continue
        children = [child.lineno for child in ast.iter_child_nodes(node)
                    if isinstance(child, ast.stmt)]
        end = min(children) if children else node.end_lineno + 1
        own = executable.intersection(range(node.lineno, end))
        if own:
            found[node.lineno] = own
    return found


def census(paths: list[Path], run) -> dict[Path, tuple[int, list[int]]]:
    """Call ``run()`` under a line tracer of the files at ``paths`` and return,
    for each, its statement count and the first lines of the statements that
    never ran."""
    wanted = {str(path.resolve()) for path in paths}
    seen: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            seen.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename in wanted else None

    outer = sys.gettrace(), threading.gettrace()  # a census may run inside another
    sys.settrace(tracer)
    threading.settrace(tracer)
    try:
        run()
    finally:
        sys.settrace(outer[0])
        threading.settrace(outer[1])
    report = {}
    for path in paths:
        name = str(path.resolve())
        table = statements(path)
        missed = [first for first, own in sorted(table.items())
                  if not any((name, line) in seen for line in own)]
        report[path] = (len(table), missed)
    return report


def main(argv: list[str]) -> int:
    import pytest

    paths = sorted((ROOT / "src" / "avmoe").glob("*.py"))
    status = []
    report = census(paths, lambda: status.append(pytest.main(argv or TIER1)))
    total = sum(count for count, _ in report.values())
    missed = sum(len(lines) for _, lines in report.values())
    print(f"\nstatements run: {total - missed} / {total}")
    for path, (count, lines) in report.items():
        listed = ", ".join(map(str, lines))
        print(f"{path.name}: {count - len(lines)} / {count}" + (f"; never run: {listed}" if lines else ""))
    return int(status[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
