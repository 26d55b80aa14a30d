"""The README promises exact arithmetic: no floating point in the library.

Every `.py` file of the package is read as an AST and may hold no float
literal, no `float(...)` call and no true division `/`.  The one division
allowed is in `series._interpolate`, which divides `Fraction`s.
"""

import ast
from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "perigrowth"
DIVIDES = {("series.py", "_interpolate")}


def inexact(source: str, filename: str) -> list[str]:
    """Each float literal, float() call and disallowed true division in the
    source, as 'file:line what'."""
    found = []
    stack = [(ast.parse(source), None)]
    while stack:
        node, function = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        where = f"{filename}:{getattr(node, 'lineno', 0)}"
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            found.append(f"{where} float literal")
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "float":
            found.append(f"{where} float() call")
        elif (
            isinstance(node, (ast.BinOp, ast.AugAssign))
            and isinstance(node.op, ast.Div)
            and (filename, function) not in DIVIDES
        ):
            found.append(f"{where} true division")
        stack.extend((child, function) for child in ast.iter_child_nodes(node))
    return sorted(found)


def test_checker_finds_each_kind():
    source = "def _interpolate(a):\n    return a / 2 + 0.5 + float(a)\n"
    assert inexact(source, "vab.py") == [
        "vab.py:2 float literal",
        "vab.py:2 float() call",
        "vab.py:2 true division",
    ]
    assert inexact(source, "series.py") == [
        "series.py:2 float literal",
        "series.py:2 float() call",
    ]


def test_library_has_no_floating_point():
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += inexact(path.read_text(), path.name)
    assert found == []
