"""Every public top-level function and class of the library, and every
public method of such a class, has a caller.

A caller is a reference from library code (another module, or the defining
module outside the definition itself), from the oracles or the acceptance
suite, from the benchmark child, or a function the benchmark's span
recorder wraps.  Code reached only by its own unit tests is dead weight.
"""

import ast
from pathlib import Path

from test_perfbench_contract import load_spans

ROOT = Path(__file__).parent.parent
SRC = ROOT / "src" / "perigrowth"
CALLERS = [
    ROOT / "tests" / "oracles.py",
    ROOT / "tests" / "test_acceptance.py",
    ROOT / "perfbench" / "child.py",
]

# the README promises that printed series can be parsed back by the library
ALLOWED = {"series_from_text"}


def referenced_names(tree, skip=None) -> set[str]:
    """Names and attributes used anywhere in tree, outside the node skip."""
    names = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        stack.extend(ast.iter_child_nodes(node))
    return names


def public_definitions(tree):
    """(qualified name, node) of the public functions, classes and methods."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if node.name.startswith("_"):
            continue
        yield node.name, node
        if isinstance(node, ast.ClassDef):
            for method in node.body:
                if isinstance(method, ast.FunctionDef) and not method.name.startswith("_"):
                    yield f"{node.name}.{method.name}", method


def test_every_public_helper_has_a_caller():
    modules = {
        path: ast.parse(path.read_text())
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
    }
    external = set()
    for path in CALLERS:
        external |= referenced_names(ast.parse(path.read_text()))
    spans = load_spans()
    wrapped = [f for functions, _ in spans.LAYERS.values() for f in functions]
    external |= {name for _, name in wrapped + list(spans.CALLS)}
    uncalled = []
    for path, tree in modules.items():
        elsewhere = set(external)
        for other, other_tree in modules.items():
            if other != path:
                elsewhere |= referenced_names(other_tree)
        for name, node in public_definitions(tree):
            if node.name in elsewhere | ALLOWED | referenced_names(tree, skip=node):
                continue
            uncalled.append(f"{path.stem}.{name}")
    assert not uncalled, f"no caller: {uncalled}"
