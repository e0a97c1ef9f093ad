"""Print the statements of the package that a run never executed.

    python tools/statement_coverage.py tests      # the test suite
    python tools/statement_coverage.py commands   # the benchmark's commands

Mode ``tests`` runs the test suite in-process (``pytest.main`` on
``tests/``); mode ``commands`` runs, through ``cli.main`` in-process, the
five shipped configs under their own commands, rep-check on catalog_linear
at its acceptance truncation (basis 6, cap 4, sector_max 3, 50 pairs), and
kernel-check and corr-check on catalog_linear with orders [0, 1] and a
fixed 8-point lambda grid, each writing into a temporary directory.  Either
run is traced with ``sys.settrace``, which sees only this process: code that
runs in a subprocess (the CLI tests' ``python -m multinoise.cli`` calls)
counts as never run.

A statement is any statement of ``src/multinoise/*.py`` except docstrings
and def, class, import, global, nonlocal and try lines; it counts as run
when a line event fires on any line it spans, up to its first nested
statement.  Per module with a statement that never ran the script prints

    <module>.py: <line>, <line>, ...

with the first line of each such statement, and nothing for a module whose
statements all ran.  Standard library only: ``coverage`` is not needed.
The exit code is the test run's, or 1 when a command exits other than 0.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import os
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "multinoise"

SHIPPED = (("gamma", "catalog_linear"), ("gamma", "catalog_quadratic"),
           ("kernel-check", "kernel_linear"),
           ("kernel-check", "kernel_quadratic"),
           ("corr-check", "corr_quadratic"))
LAMBDA_GRID = (0.55, 0.44, 0.36, 0.3, 0.25, 0.2, 0.16, 0.12)
ACCEPTANCE = {"basis_size": 6, "particle_cap": 4, "sector_max": 3}
SKIPPED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import,
           ast.ImportFrom, ast.Global, ast.Nonlocal, ast.Try)


def _is_docstring(node: ast.stmt) -> bool:
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def _bodies(node: ast.stmt):
    """The statement lists nested directly in node, empty ones included."""
    yield from (getattr(node, field, []) for field in ("body", "orelse", "finalbody"))
    yield from (part.body for part in (*getattr(node, "handlers", ()),
                                       *getattr(node, "cases", ())))


def statements(source: str) -> dict[int, range]:
    """First line -> the lines of each counted statement's own code."""
    out: dict[int, range] = {}

    def visit(body: list[ast.stmt]) -> None:
        for i, node in enumerate(body):
            bodies = [b for b in _bodies(node) if b]
            if not (isinstance(node, SKIPPED) or (i == 0 and _is_docstring(node))):
                end = (min(b[0].lineno for b in bodies) - 1 if bodies
                       else node.end_lineno)
                out[node.lineno] = range(node.lineno, max(end, node.lineno) + 1)
            for b in bodies:
                visit(b)

    visit(ast.parse(source).body)
    return out


def _traced(run) -> tuple[object, dict[str, set[int]]]:
    """run() under a line tracer of the package's files; its result and the
    lines that fired, per file."""
    files = {str(p): set() for p in PACKAGE.glob("*.py")}

    def local(frame, event, arg):
        if event == "line":
            files[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        return local if frame.f_code.co_filename in files else None

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        result = run()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return result, files


def _run_tests() -> int:
    import pytest
    return int(pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")]))


def _run_commands() -> int:
    from multinoise import cli

    configs = ROOT / "configs"
    failed = 0
    with tempfile.TemporaryDirectory(prefix="statement-coverage-") as tmp:
        work = Path(tmp)
        raw = json.loads((configs / "catalog_linear.json").read_text())
        grid = work / "linear_grid8.json"
        grid.write_text(json.dumps(dict(raw, orders=[0, 1],
                                        lambda_grid=list(LAMBDA_GRID))))
        rep = work / "rep_acceptance.json"
        rep.write_text(json.dumps(dict(raw, truncation=ACCEPTANCE, rep_pairs=50)))
        runs = [(cmd, configs / f"{name}.json") for cmd, name in SHIPPED]
        runs += [("rep-check", rep), ("kernel-check", grid), ("corr-check", grid)]
        for i, (command, config) in enumerate(runs):
            argv = [command, "--config", str(config), "--out", str(work / str(i))]
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
            print(f"exit {code} {command} {config.name}", file=sys.stderr)
            failed |= code != 0
    return int(failed)


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    modes = {"tests": _run_tests, "commands": _run_commands}
    if len(args) != 1 or args[0] not in modes:
        print(f"usage: statement_coverage.py {{{','.join(modes)}}}",
              file=sys.stderr)
        return 2
    # src importable here and, as the test suite's subprocesses need, in children
    sys.path.insert(0, str(ROOT / "src"))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
    code, fired = _traced(modes[args[0]])
    for path in sorted(fired):
        lines = statements(Path(path).read_text())
        missed = [first for first, own in sorted(lines.items())
                  if fired[path].isdisjoint(own)]
        if missed:
            print(f"{Path(path).name}: {', '.join(map(str, missed))}")
    return code


if __name__ == "__main__":
    sys.exit(main())
