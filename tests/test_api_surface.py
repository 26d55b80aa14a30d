"""Every public top-level function and class of the library, and every
public method of such a class, has a caller; every module-level private
function is referenced from the package itself; every name the package
root re-exports is imported from it by someone; every option of a public
function is set by some call; and every CLI flag is read.

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


def test_package_root_exports_only_what_is_imported_from_it():
    # `from perigrowth import ball` reaches a submodule, not an export
    exported = {
        alias.asname or alias.name
        for node in ast.parse((SRC / "__init__.py").read_text()).body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    importers = [SRC / "cli.py", ROOT / "perfbench" / "child.py"]
    importers += sorted((ROOT / "tests").glob("*.py"))
    imported = {
        alias.name
        for path in importers
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and node.module == "perigrowth"
        for alias in node.names
    }
    unused = sorted(exported - imported)
    assert not unused, f"imported from no caller: {unused}"


def test_every_private_helper_has_a_caller():
    # a module-level `_private` function is reached only through library
    # code, so one that nothing in the package references is dead
    modules = {path: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    names = {path: referenced_names(tree) for path, tree in modules.items()}
    uncalled = []
    for path, tree in modules.items():
        elsewhere = set().union(*(n for other, n in names.items() if other != path))
        for node in tree.body:
            if (
                isinstance(node, ast.FunctionDef)
                and node.name.startswith("_")
                and not node.name.startswith("__")
                and node.name not in elsewhere | referenced_names(tree, skip=node)
            ):
                uncalled.append(f"{path.stem}.{node.name}")
    assert not uncalled, f"no caller in the package: {uncalled}"


def options(node, method: bool):
    """(name, index among a call's positional arguments, or None) of each
    defaulted or keyword-only parameter of a function definition."""
    args = node.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    for i, arg in enumerate(positional[first:], first):
        yield arg.arg, i - int(method)  # a method call passes self implicitly
    for arg in args.kwonlyargs:
        yield arg.arg, None


def passes(call, name: str, index) -> bool:
    """Whether the call passes the parameter by name or by position."""
    if any(k.arg in (name, None) for k in call.keywords):  # None: **kwargs
        return True
    if index is None:
        return False
    return len(call.args) > index or any(isinstance(a, ast.Starred) for a in call.args)


def test_every_option_has_a_caller_that_sets_it():
    # an option that every caller leaves at its default is one value: a
    # constant, not a parameter
    calls = {}
    for path in sorted(SRC.glob("*.py")) + CALLERS:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                calls.setdefault(name, []).append(node)
    unset = []
    for path in sorted(SRC.glob("*.py")):
        for qualname, node in public_definitions(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                continue
            for name, index in options(node, "." in qualname):
                if not any(passes(call, name, index) for call in calls.get(node.name, [])):
                    unset.append(f"{path.stem}.{qualname}({name}=)")
    assert not unset, f"no caller sets: {unset}"


def test_every_cli_flag_is_read():
    # --threads has no effect; it goes once the bench stops passing it
    # (ROADMAP item 7)
    unread_allowed = {"threads"}
    tree = ast.parse((SRC / "cli.py").read_text())
    (parser,) = [n for n in tree.body if getattr(n, "name", None) == "build_parser"]
    dests = {}
    for node in ast.walk(parser):
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "add_argument":
            flag = node.args[0].value
            if flag.startswith("--"):
                dest = [k.value.value for k in node.keywords if k.arg == "dest"]
                dests[dest[0] if dest else flag[2:].replace("-", "_")] = flag
    read = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "args"
    }
    assert unread_allowed <= dests.keys()
    unread = sorted(flag for dest, flag in dests.items() if dest not in read | unread_allowed)
    assert not unread, f"never read: {unread}"
