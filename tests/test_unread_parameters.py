"""No function in caplab takes a parameter that its body never reads,
or a defaulted parameter that no call passes."""

import ast
import math
from pathlib import Path

import caplab

SOURCE = Path(caplab.__file__).parent
# every call of caplab in the repository: the package, its tests, demos and benchmark
CALLERS = [Path(__file__).resolve().parents[1] / name for name in ("src", "tests", "demos", "perfbench")]

# FamilySpec methods share one signature across the families, and these
# families have no use for one of its arguments
INTERFACE = {
    ("families.py", "ClosedSphere.exact", "b"),
    ("families.py", "ClosedSphere.project", "labels"),
    ("families.py", "MongePatch.project", "labels"),
}


def unread_parameters(path):
    """(file, qualified name, parameter) of every parameter no part of its function reads."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}{child.name}"
                args = child.args
                params = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
                params = [p.arg for p in params if p is not None]
                if prefix and params and params[0] in ("self", "cls"):
                    params = params[1:]
                read = {
                    n.id
                    for statement in child.body
                    for n in ast.walk(statement)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
                }
                found.extend((path.name, name, p) for p in params if p not in read)
                visit(child, f"{name}.")
            else:
                visit(child, prefix)

    visit(ast.parse(path.read_text()), "")
    return found


def test_every_parameter_is_read():
    found = [entry for path in sorted(SOURCE.glob("*.py")) for entry in unread_parameters(path)]
    assert [entry for entry in found if entry not in INTERFACE] == []
    # the allowlist holds only parameters that are in fact unread
    assert INTERFACE <= set(found)


def test_the_walk_finds_an_unread_parameter(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        "def f(a, b, *c, d=1, **e):\n"
        "    def g(x):\n"
        "        return a + x\n"
        "    b = 2\n"
        "    return g(d), c, e\n"
        "class C:\n"
        "    def m(self, unused, used):\n"
        "        return lambda: used\n"
    )
    assert unread_parameters(path) == [("sample.py", "f", "b"), ("sample.py", "C.m", "unused")]


def defaulted_parameters(path):
    """(file, qualified name, callee, parameter, position) of every parameter with a default.

    ``callee`` is the name a call uses: the function's, or the class's for
    ``__init__``. ``position`` counts the positional parameters before it,
    ``self`` and ``cls`` left out, and is None for a keyword-only one.
    """
    found = []

    def visit(node, prefix, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}{child.name}"
                callee = cls if cls and child.name == "__init__" else child.name
                args = child.args
                positional = [p.arg for p in (*args.posonlyargs, *args.args)]
                if cls and positional and positional[0] in ("self", "cls"):
                    positional = positional[1:]
                first = len(positional) - len(args.defaults)
                found.extend((path.name, name, callee, p, i) for i, p in enumerate(positional) if i >= first)
                found.extend(
                    (path.name, name, callee, p.arg, None)
                    for p, default in zip(args.kwonlyargs, args.kw_defaults)
                    if default is not None
                )
                visit(child, f"{name}.", None)
            else:
                visit(child, prefix, cls)

    visit(ast.parse(path.read_text()), "", None)
    return found


def unpassed_defaults(definitions, callers):
    """(file, qualified name, parameter) of each defaulted parameter that no call passes.

    A call matches a definition by the last name of its callee, so a call
    of any function of the same name counts; one with ``*args`` passes
    every positional parameter and one with ``**kwargs`` every parameter.
    """
    calls = {}
    for path in callers:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                name = getattr(node.func, "id", None) or node.func.attr
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                calls.setdefault(name, []).append(
                    (math.inf if starred else len(node.args), {k.arg for k in node.keywords})
                )

    def passed(callee, parameter, position):
        return any(
            parameter in keywords or None in keywords or (position is not None and count > position)
            for count, keywords in calls.get(callee, ())
        )

    return [
        (file, name, parameter)
        for path in definitions
        for file, name, callee, parameter, position in defaulted_parameters(path)
        if not passed(callee, parameter, position)
    ]


def test_every_default_is_passed_somewhere():
    callers = [path for root in CALLERS for path in sorted(root.rglob("*.py"))]
    assert unpassed_defaults(sorted(SOURCE.glob("*.py")), callers) == []


def test_the_walk_finds_an_unpassed_default(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "def f(a, b=1, *, c=2, d=3):\n"
        "    return a, b, c, d\n"
        "class C:\n"
        "    def __init__(self, x, y=0):\n"
        "        self.z = x + y\n"
        "    def m(self, p=1, q=2):\n"
        "        return p, q\n"
        "    def n(self, r=1):\n"
        "        return r\n"
    )
    calls = tmp_path / "calls.py"
    calls.write_text("f(0, 5, d=4)\nc = C(1)\nc.m(3)\nc.n(**{})\n")
    assert unpassed_defaults([sample], [sample, calls]) == [
        ("sample.py", "f", "c"),
        ("sample.py", "C.__init__", "y"),
        ("sample.py", "C.m", "q"),
    ]
