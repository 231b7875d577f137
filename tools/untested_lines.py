"""Print the statements of ``src/pimin`` that the test suite never runs.

``coverage`` is not a dependency, so this runs pytest in this process under a
``sys.settrace`` line tracer. The statements come from ``ast``: each statement
inside a function counts as run when any line of it (of its header, for a
compound one) raises a line event in the main thread. Module-level statements
run at import, before tracing starts, and are left out; so are docstrings,
which compile to no code. Lines that run only in a sweep's worker processes
are not seen.

Usage, from the repository root::

    python tools/untested_lines.py [pytest arguments]

The pytest arguments default to the tier-1 run's. Tracing slows every test,
so a wall-clock assertion may fail; the report is printed either way. The
exit status is 1 when any statement never ran, else 0.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "pimin"


def _own_lines(stmt: ast.stmt) -> range:
    """The lines of ``stmt`` that belong to no statement nested in it."""
    start = min([stmt.lineno] + [d.lineno for d in getattr(stmt, "decorator_list", [])])
    body = getattr(stmt, "body", None)
    if isinstance(body, list) and body:
        return range(start, body[0].lineno)
    return range(start, stmt.end_lineno + 1)


def statements(path: Path) -> dict[int, range]:
    """Every statement inside a function of ``path``: first line -> own lines."""
    found = {}
    for func in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(func):
            if node is func or not isinstance(node, ast.stmt):
                continue
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                continue
            if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
                continue    # a docstring, or a constant that compiles away
            found[node.lineno] = _own_lines(node)
    return found


def main(argv: list[str]) -> int:
    hits: set[tuple[str, int]] = set()
    prefix = str(PACKAGE)

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    sys.path.insert(0, str(ROOT / "src"))
    import pytest

    sys.settrace(tracer)
    try:
        status = pytest.main(argv or ["-q", "--continue-on-collection-errors"])
    finally:
        sys.settrace(None)

    missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text().splitlines()
        for first, lines in sorted(statements(path).items()):
            if not any((str(path), line) in hits for line in lines):
                missed += 1
                print(f"{path.relative_to(ROOT)}:{first}: {source[first - 1].strip()}")
    print(f"{missed} statements inside functions never ran (pytest exit status {int(status)})")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
