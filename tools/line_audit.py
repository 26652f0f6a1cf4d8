"""Line audit: name every line of ``src/solvmaps`` that Tier-1 never runs.

Runs the Tier-1 suite in this process, with a fixed Hypothesis seed, under a
``sys.settrace`` hook that records the lines run in ``src/solvmaps/*.py``
only.  Each module's executable lines are the ``co_lines()`` of its code
objects, nested ones included.  Prints ``path:line source`` for every
executable line that never ran and exits 1 if there is one or if Tier-1
fails; exits 0 otherwise.

Two blocks run only in the child interpreters that ``tests/test_cli.py``
starts, so they are exempt: ``cli.main``'s ``except BrokenPipeError:``
handler and any ``if __name__ == "__main__":`` block.  Both are found with
``ast``.

Line events differ across CPython versions; the audit is kept clean on
CPython 3.11.  It takes a few times as long as Tier-1.

Usage: PYTHONPATH=src python tools/line_audit.py
"""

from __future__ import annotations

import ast
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "solvmaps"


def executable_lines(code) -> set[int]:
    """Lines of ``code`` and of every code object nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= executable_lines(const)
    return lines


def _is_main_guard(node: ast.AST) -> bool:
    return isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"


def exempt_lines(path: Path, tree: ast.Module) -> set[int]:
    """Lines that only a child interpreter runs: see the module docstring."""
    blocks = [node for node in tree.body if _is_main_guard(node)]
    if path.name == "cli.py":
        for func in tree.body:
            if isinstance(func, ast.FunctionDef) and func.name == "main":
                blocks += [
                    handler
                    for node in ast.walk(func) if isinstance(node, ast.Try)
                    for handler in node.handlers
                    if isinstance(handler.type, ast.Name) and handler.type.id == "BrokenPipeError"
                ]
    return {line for block in blocks for line in range(block.lineno, block.end_lineno + 1)}


def main() -> int:
    watched = {str(path): set() for path in sorted(PACKAGE.glob("*.py"))}

    def trace(frame, event, arg):
        ran = watched.get(frame.f_code.co_filename)
        if ran is None:
            return None
        ran.add(frame.f_lineno)
        return trace

    # The package is imported from this checkout, by the absolute paths watched, and only once
    # the hook is on, so its module-level lines are seen too.
    sys.path.insert(0, str(PACKAGE.parent))
    sys.settrace(trace)
    try:
        status = pytest.main([str(ROOT / "tests"), "-q", "--continue-on-collection-errors", "--hypothesis-seed=0"])
    finally:
        sys.settrace(None)

    missed = []
    for name, ran in watched.items():
        path = Path(name)
        source = path.read_text()
        tree = ast.parse(source)
        never = executable_lines(compile(tree, name, "exec")) - ran - exempt_lines(path, tree)
        text = source.splitlines()
        missed += [f"{path.relative_to(ROOT)}:{line} {text[line - 1].strip()}" for line in sorted(never)]
    if missed:
        print("line audit: lines of src/solvmaps that Tier-1 never runs:", *missed, sep="\n")
    else:
        print("line audit: Tier-1 runs every line of src/solvmaps")
    if status != 0:
        print(f"line audit: Tier-1 failed (pytest exit {int(status)})")
    return 1 if missed or status != 0 else 0


if __name__ == "__main__":
    sys.exit(main())
