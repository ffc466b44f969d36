"""List the src statements that no test reaches.

    python tools/reach.py [pytest arguments]

Runs the Tier-1 suite (``tests/``) and the benchmark self-test
(``perfbench/test_perfbench.py``) in this one process, under a line tracer
confined to ``src/ncym``, then prints every statement of the package that no
test executed, as ``path:line: source``, and their count.  ``raise``
statements and docstrings are left out: a refusal that no test sends is a
gap in the tests, not code that no input reaches.  A compound statement
counts as reached when a line of its header or any statement inside it ran.
Code that runs only in a subprocess (the ``__main__`` guard's body, say) is
not seen.  Extra arguments go to pytest after the two test paths.  Nothing
under ``perfbench/`` is written; the self-test's own scratch directory is
``.bench_tmp/`` at the repository root.  The exit status is pytest's: a
test that fails or a module that is not collected leaves lines untraced,
so the list is exact only when it is 0.
"""

import ast
import collections
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ncym"


def _docstrings(tree: ast.Module) -> set:
    """The docstring statements of a module and of its classes and functions."""
    out = set()
    for node in ast.walk(tree):
        body = getattr(node, "body", None)
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant) and isinstance(body[0].value.value, str)):
            out.add(body[0])
    return out


def _header(stmt: ast.stmt) -> range:
    """The lines of a statement that run before its body: the whole of a
    simple statement, up to the first body statement of a compound one, and
    from its first decorator on."""
    first = min([stmt.lineno] + [d.lineno for d in getattr(stmt, "decorator_list", ())])
    body = getattr(stmt, "body", None)
    last = body[0].lineno - 1 if isinstance(body, list) and body else stmt.end_lineno
    return range(first, max(first, last) + 1)


def unreached(path: Path, ran: set) -> list:
    """``(line, source)`` of each statement in ``path`` that is neither a
    raise nor a docstring and that ran nowhere, by ``ran``'s line numbers."""
    source = path.read_text()
    tree = ast.parse(source)
    skip = _docstrings(tree)
    lines = source.splitlines()
    out = []

    def reached(stmt: ast.stmt) -> bool:
        inner = [reached(child) for child in ast.iter_child_nodes(stmt)
                 if isinstance(child, ast.stmt)]  # every child is visited
        for handler in getattr(stmt, "handlers", ()):
            inner += [reached(child) for child in handler.body]
        hit = any(inner) or any(line in ran for line in _header(stmt))
        if not hit and stmt not in skip and not isinstance(stmt, ast.Raise):
            out.append((stmt.lineno, lines[stmt.lineno - 1].strip()))
        return hit

    for stmt in tree.body:
        reached(stmt)
    return sorted(out)


def main(argv: list) -> int:
    ran = collections.defaultdict(set)
    prefix = str(PACKAGE) + "/"

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def calls(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(calls)
    sys.settrace(calls)
    try:
        code = pytest.main([str(ROOT / "tests"), str(ROOT / "perfbench" / "test_perfbench.py"),
                            "-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
                            *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        for line, text in unreached(path, ran[str(path)]):
            print(f"{path.relative_to(ROOT)}:{line}: {text}")
            total += 1
    print(f"{total} statements reached by no test (pytest exit {int(code)})")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
