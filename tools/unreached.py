"""Statements in the function bodies of quiverk3 that no tier-1 test runs.

Usage: ``python tools/unreached.py <tree>``, where <tree> is a checkout of
this repository. The script imports quiverk3 from ``<tree>/src``, runs the
tier-1 suite of ``<tree>/tests`` in this process under ``sys.settrace``, and
then prints, for each module of ``<tree>/src/quiverk3``, the statements
inside function bodies (methods and nested functions included) that no test
executed: one ``module: k of m statements unreached`` line, then each such
statement as ``  line: source``. Docstrings, bare annotations and
``global``/``nonlocal`` declarations, which run no code, are left out; a
compound statement counts as run when its header or its first body
statement ran. Module-level and class-level statements run on import and
are not listed. The last line gives pytest's exit code. Nothing under
<tree> is written to.

Tracing makes the suite about three times slower (some 120 s on one core),
so a test with a wall-time budget, such as the simplicity-oracle criterion
of ``tests/test_acceptance.py``, can fail under it. Such a test fails at its
final time check, after its work ran, and its statements are counted; a
test that fails part way leaves the rest of its statements unreached.

How it backs a simplicity change: a change that deletes an option or a
branch as unused shows, from this tool's output on the parent tree, that
the statements it deletes are listed, so no test reaches them; the callers
outside the tests (the CLI, the benchmark's workloads, ``tools/``) are
then checked by search, and ``tests/test_report_ladder.py``, which
compares the output of ``tools/report_digests.py`` with
``tests/report_digests.txt``, shows that the reports of the CLI ladder stay
byte-identical. A statement that only a
test reaches is not listed here; whether its option has a caller outside
the tests is for that search to settle.
"""

import ast
import os
import sys
import threading


def body_statements(path: str) -> dict[int, tuple[range, str]]:
    """First line -> (lines, source) of each statement inside a function
    body. The lines are those of a simple statement, or the header and the
    first body line of a compound one; a hit on any of them runs it."""
    with open(path) as fh:
        source = fh.read()
    lines = source.splitlines()
    out: dict[int, tuple[range, str]] = {}

    def visit_body(stmts):
        for k, node in enumerate(stmts):
            if isinstance(node, (ast.Global, ast.Nonlocal)) or (
                    isinstance(node, ast.AnnAssign) and node.value is None):
                continue
            if k == 0 and isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
                    and isinstance(node.value.value, str):
                continue  # a docstring
            body = getattr(node, "body", None)
            if isinstance(body, list) and body:
                # a compound statement: its header ends where its body starts
                span = range(node.lineno, body[0].lineno + 1)
            else:
                span = range(node.lineno, node.end_lineno + 1)
            out[node.lineno] = (span, lines[node.lineno - 1].strip())
            for field in ("body", "orelse", "finalbody"):
                visit_body(getattr(node, field, None) or [])
            for handler in getattr(node, "handlers", None) or []:
                visit_body(handler.body)
            for case in getattr(node, "cases", None) or []:
                visit_body(case.body)

    for node in ast.walk(ast.parse(source, path)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            visit_body(node.body)
    return out


def main() -> None:
    tree = os.path.abspath(sys.argv[1])
    sys.dont_write_bytecode = True  # no __pycache__ under <tree>, from pytest either
    package = os.path.join(tree, "src", "quiverk3")
    sys.path[:0] = [os.path.join(tree, "src"), os.path.join(tree, "tests")]
    hits: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(package):
            return None
        hits.setdefault(name, set())
        return local

    import pytest  # imported before tracing starts

    sys.settrace(on_call)
    threading.settrace(on_call)
    try:
        code = pytest.main([os.path.join(tree, "tests"), "-q", "-p", "no:cacheprovider",
                            "--continue-on-collection-errors", "--rootdir", tree])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(package, name)
        ran = hits.get(path, set())
        stmts = body_statements(path)
        missed = [(line, text) for line, (span, text) in sorted(stmts.items())
                  if not ran.intersection(span)]
        print(f"quiverk3/{name}: {len(missed)} of {len(stmts)} statements unreached")
        for line, text in missed:
            print(f"  {line}: {text}")
    print(f"pytest exit code {int(code)}")


if __name__ == "__main__":
    main()
