"""Statement census: which statements of ``src/abcat`` the test suite runs.

Run it by hand from the repository root::

    python tests/statement_census.py [--show MODULE ...] [--max-gaps N] [pytest arguments]

It runs pytest in this process (on the ``testpaths`` of pyproject.toml,
as tier-1 does, when no pytest arguments are given) under a
``sys.settrace`` line tracer that records only frames whose code lives
in ``src/abcat``.  It then prints, per module, how many
statements it has and how many never ran, with the ``raise`` statements
among those counted apart, and lists the lines of the unexecuted
statements of each module named by ``--show`` (``--show harting``).
With ``--max-gaps N`` it exits 1 when more than N statements that are
not ``raise`` never ran; otherwise it exits with pytest's code.

A statement counts as run when a line event fell on one of its own lines
(its decorators and header, up to its first nested statement) or when a
statement nested in it ran.  Docstrings are not statements here.  Runs of
the command line in a subprocess are not traced.  The suite runs several
times slower under the tracer.

Importing this module does nothing; it is not a test module.
"""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "abcat"


def _is_docstring(node) -> bool:
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def census(path: Path, ran: set) -> dict:
    """Map the first line of each statement in ``path`` to (ran, is raise)."""
    found = {}

    def visit(node) -> bool:
        nested = any([visit(child) for child in ast.iter_child_nodes(node)])
        if not isinstance(node, ast.stmt) or _is_docstring(node):
            return nested
        inner = [c.lineno for c in ast.walk(node) if c is not node and isinstance(c, ast.stmt)]
        start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
        end = max(min(inner), node.lineno + 1) if inner else node.end_lineno + 1
        here = nested or any(line in ran for line in range(start, end))
        found[node.lineno] = (here, isinstance(node, ast.Raise))
        return here

    visit(ast.parse(path.read_text(), str(path)))
    return found


def traced(pytest_args) -> tuple:
    """Run pytest under the line tracer; (exit code, executed lines by file)."""
    ran = {}
    prefix = str(SRC)

    def on_call(frame, event, arg):
        if not frame.f_code.co_filename.startswith(prefix):
            return None
        lines = ran.setdefault(frame.f_code.co_filename, set())

        def on_line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return on_line
        return on_line

    sys.settrace(on_call)
    try:
        import pytest
        code = pytest.main(list(pytest_args) or ["-q", "-p", "no:cacheprovider"])
    finally:
        sys.settrace(None)
    return code, ran


def main(argv) -> int:
    show, max_gaps = set(), None
    while argv[:1] in (["--show"], ["--max-gaps"]):
        if argv[0] == "--show":
            show.add(argv[1].removesuffix(".py"))
        else:
            max_gaps = int(argv[1])
        argv = argv[2:]
    code, ran = traced(argv)
    total = missed = raises = 0
    print(f"\n{'module':<16}{'statements':>11}{'never ran':>11}{'raise':>7}")
    for path in sorted(SRC.glob("*.py")):
        found = census(path, ran.get(str(path), set()))
        never = sorted(line for line, (here, _) in found.items() if not here)
        n_raise = sum(found[line][1] for line in never)
        total, missed, raises = total + len(found), missed + len(never), raises + n_raise
        print(f"{path.name:<16}{len(found):>11}{len(never):>11}{n_raise:>7}")
        if path.stem in show:
            print("  never ran: " + ", ".join(
                f"{line}{' (raise)' if found[line][1] else ''}" for line in never))
    print(f"{'total':<16}{total:>11}{missed:>11}{raises:>7}")
    if max_gaps is not None and missed - raises > max_gaps:
        print(f"{missed - raises} statements that are not raise never ran; "
              f"at most {max_gaps} may")
        return 1
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
