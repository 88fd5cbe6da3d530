"""No function in caplab takes a parameter that its body never reads,
or a defaulted parameter that no call passes; and no module but
``reports`` writes a report file or picks the number format of one."""

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
    ("families.py", "ClosedSphere.project", "labels"),
    ("families.py", "Cylinder.meridian", "p"),
    ("families.py", "FlatDisk.meridian", "p"),
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


def signatures(path):
    """(file, qualified name, callee, parameter, position, default) of every parameter.

    ``callee`` is the name a call uses: the function's, or the class's for
    ``__init__``. ``position`` counts the positional parameters before it,
    ``self`` and ``cls`` left out, and is None for a keyword-only one.
    ``default`` is the default's expression, or None.
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
                positional = [*args.posonlyargs, *args.args]
                if cls and positional and positional[0].arg in ("self", "cls"):
                    positional = positional[1:]
                defaults = [None] * (len(positional) - len(args.defaults)) + args.defaults
                found.extend(
                    (path.name, name, callee, p.arg, i, default)
                    for i, (p, default) in enumerate(zip(positional, defaults))
                )
                found.extend(
                    (path.name, name, callee, p.arg, None, default)
                    for p, default in zip(args.kwonlyargs, args.kw_defaults)
                )
                visit(child, f"{name}.", None)
            else:
                visit(child, prefix, cls)

    visit(ast.parse(path.read_text()), "", None)
    return found


def calls_by_name(callers):
    """Every call in ``callers``, by the last name of its callee."""
    calls = {}
    for path in callers:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                calls.setdefault(getattr(node.func, "id", None) or node.func.attr, []).append(node)
    return calls


UNKNOWN = object()


def argument(call, parameter, position, default):
    """The expression ``call`` passes for the parameter: ``default`` if it passes none,
    UNKNOWN if a ``*args`` or ``**kwargs`` may carry it."""
    for keyword in call.keywords:
        if keyword.arg == parameter:
            return keyword.value
    starred = next((i for i, a in enumerate(call.args) if isinstance(a, ast.Starred)), len(call.args))
    if position is not None and position < starred:
        return call.args[position]
    if (position is not None and starred < len(call.args)) or any(k.arg is None for k in call.keywords):
        return UNKNOWN
    return default


def unpassed_defaults(definitions, callers):
    """(file, qualified name, parameter) of each defaulted parameter that no call passes.

    A call matches a definition by the last name of its callee, so a call
    of any function of the same name counts; one with ``*args`` passes
    every positional parameter and one with ``**kwargs`` every parameter.
    """
    calls = calls_by_name(callers)
    return [
        (file, name, parameter)
        for path in definitions
        for file, name, callee, parameter, position, default in signatures(path)
        if default is not None
        and all(argument(call, parameter, position, default) is default for call in calls.get(callee, ()))
    ]


def literal_value(node):
    """(type, value) of a literal expression, or None for any other."""
    try:
        value = ast.literal_eval(node)
    except (ValueError, TypeError, SyntaxError):
        return None
    return type(value), value


def literal_parameters(definitions, callers):
    """(file, qualified name, parameter, value) of each parameter for which every
    call passes the same literal; an omitted argument passes the default.

    Calls match definitions as in ``unpassed_defaults``; a function that no
    call reaches is not flagged.
    """
    calls = calls_by_name(callers)
    found = []
    for path in definitions:
        for file, name, callee, parameter, position, default in signatures(path):
            passed = [argument(call, parameter, position, default) for call in calls.get(callee, ())]
            if not passed or any(node is None or node is UNKNOWN for node in passed):
                continue
            values = [literal_value(node) for node in passed]
            if values[0] is not None and all(value == values[0] for value in values):
                found.append((file, name, parameter, values[0][1]))
    return found


def test_every_default_is_passed_somewhere():
    callers = [path for root in CALLERS for path in sorted(root.rglob("*.py"))]
    assert unpassed_defaults(sorted(SOURCE.glob("*.py")), callers) == []


def test_no_parameter_has_one_value():
    callers = [path for root in CALLERS for path in sorted(root.rglob("*.py"))]
    assert literal_parameters(sorted(SOURCE.glob("*.py")), callers) == []


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


def test_the_walk_finds_a_parameter_with_one_value(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "def f(a, h, *, k=2, t=-1.0):\n"
        "    return a, h, k, t\n"
        "class C:\n"
        "    def __init__(self, x, y=0):\n"
        "        self.z = x + y\n"
        "    def m(self, p, q):\n"
        "        return p, q\n"
        "def g(u, v, w):\n"
        "    return u, v, w\n"
    )
    calls = tmp_path / "calls.py"
    calls.write_text(
        "f(1, 1e-4, k=2)\nf(2, 1e-4, t=-1.0)\n"
        "C(1, y=3)\nC(1)\nc.m('s', 2)\nc.m('s', 2.0)\n"
        "g(1, *rest)\ng(1, None, w=x)\n"
    )
    # k: 2 passed once and defaulted once; x: 1 both times; y: 3 and the default 0;
    # q: 2 and 2.0 differ in type; g's v and w reach a *rest, a None or a name
    assert literal_parameters([sample], [sample, calls]) == [
        ("sample.py", "f", "h", 1e-4),
        ("sample.py", "f", "k", 2),
        ("sample.py", "f", "t", -1.0),
        ("sample.py", "C.__init__", "x", 1),
        ("sample.py", "C.m", "p", "s"),
        ("sample.py", "g", "u", 1),
    ]


# the CAPMESH writer, which meshkit keeps next to its reader
CAPMESH_WRITER = ("meshkit.py", "save", "write_text")


def _open_mode(call):
    """The mode argument of a call of ``open`` (builtin) or ``.open`` (a path's), or None."""
    for keyword in call.keywords:
        if keyword.arg == "mode":
            return keyword.value
    position = 1 if isinstance(call.func, ast.Name) else 0
    return call.args[position] if len(call.args) > position else None


def _write(node):
    """What ``node`` does that only a report writer may: None if nothing."""
    if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
        callee = getattr(node.func, "id", None) or node.func.attr
        if callee in ("write_text", "write_bytes"):
            return callee
        if callee == "open":
            mode = _open_mode(node)
            if mode is not None and not (
                isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                and not set(mode.value) & set("wax+")
            ):
                return "open for writing"
    if isinstance(node, ast.Import) and any(alias.name == "csv" for alias in node.names):
        return "import csv"
    if isinstance(node, ast.ImportFrom) and node.module == "csv":
        return "import csv"
    if isinstance(node, ast.Constant) and isinstance(node.value, str) and ".17g" in node.value:
        return ".17g"
    return None


def writes(path):
    """(file, qualified name of the enclosing function or class, what) of every write
    ``_write`` names: a ``write_text``, an ``open`` for writing, an ``import csv``,
    and the number format ``.17g`` in any string or format spec."""
    found = []

    def visit(node, name):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{name}.{child.name}" if name else child.name)
                continue
            what = _write(child)
            if what:
                found.append((path.name, name, what))
            visit(child, name)

    visit(ast.parse(path.read_text()), "")
    return found


def test_reports_is_the_one_writer():
    found = [entry for path in sorted(SOURCE.glob("*.py")) if path.name != "reports.py" for entry in writes(path)]
    assert [e for e in found if e != CAPMESH_WRITER] == []
    assert CAPMESH_WRITER in found


def test_the_walk_finds_every_writer(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        "import csv\n"
        "from csv import writer\n"
        "def f(path, v):\n"
        "    path.write_text(f'{v:.17g}')\n"
        "    open(path).read()\n"
        "    open(path, 'rb').read()\n"
        "    path.open().read()\n"
        "class C:\n"
        "    def m(self, path, mode):\n"
        "        with open(path, 'a') as fh, path.open(mode=mode) as gh:\n"
        "            return fh, gh, path.open('w'), open(path, 'r+'), '%.17g' % 1.0\n"
    )
    assert writes(path) == [
        ("sample.py", "", "import csv"),
        ("sample.py", "", "import csv"),
        ("sample.py", "f", "write_text"),
        ("sample.py", "f", ".17g"),
        ("sample.py", "C.m", "open for writing"),
        ("sample.py", "C.m", "open for writing"),
        ("sample.py", "C.m", "open for writing"),
        ("sample.py", "C.m", "open for writing"),
        ("sample.py", "C.m", ".17g"),
    ]
