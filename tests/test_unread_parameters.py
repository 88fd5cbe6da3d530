"""No function in caplab takes a parameter that its body never reads."""

import ast
from pathlib import Path

import caplab

SOURCE = Path(caplab.__file__).parent

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
