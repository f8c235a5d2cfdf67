"""Report the functions of the ciqc package that no command enters.

Runs a fixed matrix of ``ciqc`` commands in process under ``sys.setprofile``
and prints, as a JSON list, every function defined in ``src/ciqc`` (found
with ``ast``, methods and nested functions included, lambdas not) that no
command entered, as ``module.qualified.name``.  Run it from any directory:

    python tests/reachability.py

It must run in a fresh interpreter: ``acceptance._ring`` is a process-wide
cache, so a run after other code built rings would miss ``build_ring`` and
everything under it.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ciqc"
POTENTIAL = str(ROOT / "tests" / "golden" / "cubic4_deg4.potential.json")

# every subcommand, the output specialisations and one usage error
COMMANDS = [
    ["info", "--n", "4", "--d", "3"],
    ["smallqh", "--n", "3", "--d", "4", "--q", "1"],
    ["f1", "--n", "4", "--d", "3"],
    ["f2", "--n", "4", "--d", "3"],
    ["f2", "--n", "5", "--d", "3", "--format", "tsv"],
    ["higherk", "--n", "3", "--d", "3"],
    ["residual", "--n", "4", "--d", "3", "--load", POTENTIAL],
    ["fano-lines", "--n", "4", "--check", "all"],
    ["genus1", "--n", "4"],
    ["verify"],
    ["info", "--n", "4"],
]


def defined_functions():
    """{(file, first line): "module.qualname"} for every def in the package;
    the first line is that of the first decorator, as in ``co_firstlineno``."""
    found = {}

    def visit(node, module, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[(path, first)] = f"{module}.{prefix}{child.name}"
                visit(child, module, path, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, module, path, f"{prefix}{child.name}.")
            else:
                visit(child, module, path, prefix)

    for source in sorted(PACKAGE.glob("*.py")):
        path = str(source.resolve())
        visit(ast.parse(source.read_text(), path), source.stem, path, "")
    return found


def entered_functions():
    """{(file, first line)} of every Python function the matrix calls."""
    sys.path.insert(0, str(ROOT / "src"))
    from ciqc import cli

    if Path(cli.__file__).resolve().parent != PACKAGE:
        raise SystemExit(f"imported ciqc from {cli.__file__}, not {PACKAGE}")
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            entered.add((code.co_filename, code.co_firstlineno))

    sink = io.StringIO()
    for argv in COMMANDS:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            sys.setprofile(profile)
            try:
                cli.main(argv)
            finally:
                sys.setprofile(None)
    return entered


def unreached():
    defined = defined_functions()
    entered = {(str(Path(f).resolve()), line) for f, line in entered_functions()}
    return sorted(name for key, name in defined.items() if key not in entered)


if __name__ == "__main__":
    json.dump(unreached(), sys.stdout, indent=1)
    sys.stdout.write("\n")
