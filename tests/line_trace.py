"""Run tier-1 under a line trace of the package, and fail on any function statement that never ran.

    PYTHONPATH=src python tests/line_trace.py

Every statement in the body of a function or method of src/tds_qaoa must
run in the test process. Two bodies are exempt: __main__.py and cli.main,
which run only as console entry points, in child processes. The tracer is
set with sys.settrace and threading.settrace, and follows only frames whose
code lies in the package, so the suite takes about twice its plain time.
The exit status is pytest's if a test fails, else 1 if a statement never ran.
It uses only the standard library and pytest (no file name pytest collects).
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "tds_qaoa"
EXEMPT_FILES = {"__main__.py"}
EXEMPT_FUNCTIONS = {("cli.py", "main")}


def executable_lines(code) -> set[int]:
    """Lines that hold bytecode in code and the code objects nested in it (a docstring holds none)."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, type(code)):
            lines |= executable_lines(const)
    return lines


def child_statements(stmt: ast.stmt) -> list[ast.stmt]:
    """The statements directly inside stmt: its bodies, and those of its except and case clauses."""
    children = []
    for field in ("body", "orelse", "finalbody"):
        children += getattr(stmt, field, [])
    for clause in getattr(stmt, "handlers", []) + getattr(stmt, "cases", []):
        children += clause.body
    return children


def span(stmt: ast.stmt) -> set[int]:
    """stmt's lines, decorators included."""
    first = min([stmt.lineno] + [d.lineno for d in getattr(stmt, "decorator_list", [])])
    return set(range(first, stmt.end_lineno + 1))


def own_lines(stmt: ast.stmt) -> set[int]:
    """stmt's lines less those of the statements inside it."""
    return span(stmt).difference(*map(span, child_statements(stmt)))


def function_statements(tree: ast.Module, exempt: set[str]):
    """(qualified function name, statement) for every statement in a function body, nested ones included."""

    def visit(stmts, scope, inside):
        for stmt in stmts:
            if inside:
                yield scope, stmt
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield from visit(child_statements(stmt), scope, inside)
                continue
            name = f"{scope}.{stmt.name}" if scope else stmt.name
            if isinstance(stmt, ast.ClassDef):
                yield from visit(stmt.body, name, inside)
            elif name not in exempt:
                yield from visit(stmt.body, name, True)

    yield from visit(tree.body, "", False)


def missed_statements(modules, marks) -> list[str]:
    """path:line: function: source, for each executable function statement whose lines never ran."""
    missed = []
    for path in sorted(modules):
        if path.name in EXEMPT_FILES:
            continue
        source = path.read_text()
        executable = executable_lines(compile(source, str(path), "exec"))
        ran = {line for line, hit in enumerate(marks[modules[path]]) if hit}
        exempt = {name for file, name in EXEMPT_FUNCTIONS if file == path.name}
        lines = source.splitlines()
        for function, stmt in function_statements(ast.parse(source), exempt):
            own = own_lines(stmt) & executable
            if own and not own & ran:
                relative = path.relative_to(ROOT)
                missed.append(f"{relative}:{stmt.lineno}: {function}: {lines[stmt.lineno - 1].strip()}")
    return missed


def main() -> int:
    import pytest

    sys.path.insert(0, str(PACKAGE.parent))
    import tds_qaoa

    if Path(tds_qaoa.__file__).resolve().parent != PACKAGE:
        print(f"tds_qaoa imports from {tds_qaoa.__file__}, not {PACKAGE}", file=sys.stderr)
        return 2
    # Keyed by each module file's name as its code objects carry it. The marks are
    # bytearrays, one byte a line, so recording a line allocates nothing that a
    # tracemalloc test would see.
    modules = {path: str(Path(tds_qaoa.__file__).parent / path.name) for path in PACKAGE.glob("*.py")}
    marks = {name: bytearray(len(path.read_text().splitlines()) + 2) for path, name in modules.items()}

    def line_tracer(lines: bytearray):
        def trace(frame, event, arg):
            if event == "line":
                lines[frame.f_lineno] = 1
            return trace

        return trace

    tracers = {name: line_tracer(lines) for name, lines in marks.items()}

    def call_tracer(frame, event, arg):
        return tracers.get(frame.f_code.co_filename)

    threading.settrace(call_tracer)
    sys.settrace(call_tracer)
    try:
        status = pytest.main(["-q", "--continue-on-collection-errors", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    missed = missed_statements(modules, marks)
    for entry in missed:
        print(entry)
    print(f"{len(missed)} function statements in {PACKAGE.relative_to(ROOT)} never ran under tier-1")
    return int(status) or int(bool(missed))


if __name__ == "__main__":
    sys.exit(main())
