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
with N its first line, then a per-module count and the total.  The exit
status is pytest's.
"""

from __future__ import annotations

import ast
import sys
import threading
import types
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "arrlab"


def statements(path: Path) -> dict:
    """{first line: own lines} of each statement that compiles to code."""
    text = path.read_text(encoding="utf-8")
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
    threading.settrace(global_)
    sys.settrace(global_)
    try:
        status = pytest.main(list(argv))
    finally:
        sys.settrace(None)
        threading.settrace(None)
    if Path(sys.modules["arrlab"].__file__).parent != PACKAGE:
        raise SystemExit(f"reach: arrlab was not imported from {PACKAGE}")

    total = 0
    counts = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        missed = sorted(first for first, own in statements(path).items()
                        if not any((str(path), ln) in hit for ln in own))
        for ln in missed:
            print(f"{path.name}:{ln}: {source[ln - 1].strip()}")
        if missed:
            counts.append(f"{path.stem} {len(missed)}")
        total += len(missed)
    print(f"unreached statement lines: {total}"
          + (f" ({', '.join(counts)})" if counts else ""))
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
