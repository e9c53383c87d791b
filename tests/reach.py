"""Reach report: the statement lines of ``src/arrlab`` that no test runs.

Run from the repository root, with the same arguments as tier-1 (pytest
does not collect this file)::

    PYTHONPATH=src python tests/reach.py -q --continue-on-collection-errors

The test suite runs in this process under ``sys.settrace``, which starts
before ``arrlab`` is first imported, so module-level statements count too.
A statement counts when the compiled module attributes an instruction to
one of its own lines (its lines less those of the statements nested in
it), and it is reached when one of those lines produced a trace event.
The report lists every statement not reached, as ``module.py:N: source``
with N its first line, then a per-module count and the total.  A
statement in ALLOWED (matched by module and stripped source line, not by
line number) is an invariant check that no valid run reaches; every other
unreached statement is a failure.  The exit status is pytest's if that is
not 0, else 1 when some unreached statement is not in ALLOWED, else 0.
"""

from __future__ import annotations

import ast
import sys
import threading
import types
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "arrlab"

# (module file, stripped first source line) -> why no test reaches it
ALLOWED = {
    ("cells.py", 'raise RuntimeError(f"vertex {vid}: a bounded sector face "'):
        "a bounded sector face is always flanked by two bounded edges",
    ("factored.py",
     'raise RuntimeError("search returned an invalid factorization")'):
        "re-check of the search result",
    ("falk.py", 'raise RuntimeError("solver produced weights that fail '
                'verification")'):
        "post-solve re-check of the weights",
    ("scalar.py", 'raise ArithmeticError("sqrt(5) cannot be rational")'):
        "a^2 = 5 b^2 has no rational solution with b != 0",
    ("cli.py", "sys.exit(main())"):
        "entry point run as a script; tests call main()",
}


def statements(path: Path, text: str) -> dict:
    """{first line: own lines} of each statement that compiles to code."""
    code_lines = set()
    stack = [compile(text, str(path), "exec")]
    while stack:
        co = stack.pop()
        code_lines.update(ln for _, _, ln in co.co_lines() if ln is not None)
        stack.extend(c for c in co.co_consts if isinstance(c, types.CodeType))
    out = {}
    for node in ast.walk(ast.parse(text)):
        if not isinstance(node, ast.stmt):
            continue
        own = set(range(node.lineno, node.end_lineno + 1)) & code_lines
        for child in ast.walk(node):
            if child is not node and isinstance(child, ast.stmt):
                own -= set(range(child.lineno, child.end_lineno + 1))
        if own:
            out[node.lineno] = own
    return out


def main(argv) -> int:
    prefix = str(PACKAGE) + "/"
    hit = set()  # (filename, line)

    def local(frame, _event, _arg):
        hit.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def global_(frame, event, arg):
        if frame.f_code.co_filename.startswith(prefix):
            return local(frame, event, arg)
        return None

    if any(m == "arrlab" or m.startswith("arrlab.") for m in sys.modules):
        raise SystemExit("reach: arrlab was imported before tracing began")
    sources = {path: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))}
    threading.settrace(global_)
    sys.settrace(global_)
    try:
        status = pytest.main(list(argv))
    finally:
        sys.settrace(None)
        threading.settrace(None)
    if Path(sys.modules["arrlab"].__file__).parent != PACKAGE:
        raise SystemExit(f"reach: arrlab was not imported from {PACKAGE}")
    if any(path.read_text(encoding="utf-8") != text
           for path, text in sources.items()):
        raise SystemExit("reach: a source file changed during the run")

    total = 0
    counts = []
    unexpected = 0
    for path, text in sources.items():
        source = text.splitlines()
        own_lines = statements(path, text)
        missed = sorted(first for first, own in own_lines.items()
                        if not any((str(path), ln) in hit for ln in own))
        for ln in missed:
            line = source[ln - 1].strip()
            why = ALLOWED.get((path.name, line))
            unexpected += why is None
            print(f"{path.name}:{ln}: {line}"
                  + (f"  [allowed: {why}]" if why else "  [NOT ALLOWED]"))
        if missed:
            counts.append(f"{path.stem} {len(missed)}")
        total += len(missed)
    print(f"unreached statement lines: {total}"
          + (f" ({', '.join(counts)})" if counts else "")
          + f", not allowed: {unexpected}")
    return int(status) or int(unexpected > 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
