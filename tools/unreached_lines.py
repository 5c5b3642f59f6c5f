"""Statements of the package that the command line and the benchmark never
run.

Usage, from the repository root:

    python3 tools/unreached_lines.py

Traces every line the package executes (``sys.settrace``, worker threads
included) while it runs, in this process, on every bundled problem:

    plaplab sweep --samples 3 --out ...
    plaplab solve --lambda 1 --beta 1 --out ...
    plaplab region --samples 4 --out ...
    plaplab eigen
    plaplab torsion

and then ``harness.run_workload(name, 0, 0)`` for each benchmark workload
(sweep1d, sweep2d, cold2d).  Then it prints, for each module of
``src/plaplab``, each statement no traced line reached, as ``line: text``,
and the count per module and in all.  Definitions, class statements,
imports and docstrings are left out, and so is any statement whose first
lines hold no bytecode (``try:`` and ``while True:`` headers, ``global``):
none of these can show as a traced line.  A statement is reached when any
line of its header (the lines before its body) was traced.

What it lists is what a change could delete, or what only tests reach:
error raises, guards that no bundled problem trips, library defaults.  The
outputs of the commands go to a temporary directory and their text is not
shown; nothing is written under ``perfbench/``.  Exits 0.
"""

import ast
import contextlib
import io
import os
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "plaplab"
sys.dont_write_bytecode = True  # leave no cache behind in perfbench/
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

# each subcommand's arguments after --spec; an --out at the end takes a file
# in a temporary directory
COMMANDS = (("sweep", "--samples", "3", "--out"),
            ("solve", "--lambda", "1", "--beta", "1", "--out"),
            ("region", "--samples", "4", "--out"),
            ("eigen",),
            ("torsion",))
WORKLOADS = ("sweep1d", "sweep2d", "cold2d")
NOT_COUNTED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef,
               ast.Import, ast.ImportFrom)


def traced_lines(work):
    """{file name: set of line numbers} of the package's lines that
    ``work()`` executes, in any thread."""
    files = {str(path) for path in PACKAGE.glob("*.py")}
    seen = {name: set() for name in files}

    def local(frame, event, arg):
        if event == "line":
            seen[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        if frame.f_code.co_filename in files:
            seen[frame.f_code.co_filename].add(frame.f_lineno)
            return local
        return None

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        work()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return seen


def run_everything():
    """The commands and workloads listed in the module docstring.  The
    package is imported here, under the trace, so that its module-level
    statements count as reached."""
    import harness
    from plaplab.cli import main as plaplab
    from plaplab.expr import bundled_problem_path, list_bundled_problems

    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        for name in list_bundled_problems():
            spec = str(bundled_problem_path(name))
            for command, *args in COMMANDS:
                if args[-1:] == ["--out"]:
                    args.append(os.path.join(tmp, f"{name}_{command}.csv"))
                plaplab([command, "--spec", spec, *args])
        for workload in WORKLOADS:
            harness.run_workload(workload, 0, 0)


def code_lines(code):
    """Every line that holds bytecode in a code object or those nested in
    it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= code_lines(const)
    return lines


def header_lines(node):
    """The lines of a statement before its first nested statement."""
    bodies = [child for field in ("body", "orelse", "handlers", "finalbody",
                                  "cases")
              for child in getattr(node, field, [])]
    end = min((child.lineno for child in bodies), default=node.end_lineno + 1)
    return range(node.lineno, max(end, node.lineno + 1))


def is_docstring(node):
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def unreached(path, seen):
    """(line, text) of each counted statement of a module that no traced
    line reached."""
    source = path.read_text()
    executable = code_lines(compile(source, str(path), "exec"))
    text = source.splitlines()
    found = []
    for node in ast.walk(ast.parse(source)):
        if (not isinstance(node, ast.stmt) or isinstance(node, NOT_COUNTED)
                or is_docstring(node)):
            continue
        header = set(header_lines(node))
        if header & executable and not header & seen:
            found.append((node.lineno, text[node.lineno - 1].strip()))
    return sorted(found)


def main():
    seen = traced_lines(run_everything)
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        found = unreached(path, seen[str(path)])
        total += len(found)
        print(f"{path.name}: {len(found)} statements never reached")
        for line, text in found:
            print(f"  {line}: {text}")
    print(f"total: {total} statements never reached")
    return 0


if __name__ == "__main__":
    sys.exit(main())
