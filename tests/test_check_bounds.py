"""Every ``Check`` the library builds states its tolerance, and only the
functions of ``UNBOUNDED`` state an infinite one.

A check held to tol = inf passes whatever it reads, so it is no check.
``UNBOUNDED`` lists the three reports that still owe a finite bound from
the discretization, and ``MaskedField.sup``, which reads a sup through
``sup_check`` and reports no check.  The list may shrink; a function
outside it that passes an infinite tolerance, or a call that leaves the
tolerance out, fails this test.

Standard library only: each ``src/chebylift/*.py`` is parsed with ``ast``.
A call counts when it names ``Check``, ``sup_check`` or ``_form_sups``, as
a name or an attribute.  Its tolerance is the argument at that position or
of that keyword.  A tolerance counts as infinite when it is ``inf`` (a
name, or an attribute such as ``np.inf`` or ``math.inf``), ``float("inf")``,
or a tuple of them, repeated or not.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "chebylift"
#: (position, keyword) of the tolerance of each check builder
TOLERANCE = {"Check": (2, "tol"), "sup_check": (2, "tol"),
             "_form_sups": (3, "tols")}
UNBOUNDED = {"lift.MaskedField.sup", "lift.verify_null_coords",
             "lift.h_parallel_e2", "lift._change_coords"}


def infinite(node: ast.expr) -> bool:
    """Whether ``node`` is one of the infinite tolerances above."""
    if isinstance(node, ast.Name):
        return node.id == "inf"
    if isinstance(node, ast.Attribute):
        return node.attr == "inf"
    if isinstance(node, ast.Call):
        return (isinstance(node.func, ast.Name) and node.func.id == "float"
                and [getattr(a, "value", None) for a in node.args] == ["inf"])
    if isinstance(node, ast.Tuple):
        return any(infinite(e) for e in node.elts)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
        return infinite(node.left) or infinite(node.right)
    return False


def tolerance(call: ast.Call):
    """The tolerance argument of a check builder's ``call``, None when the
    call leaves it out, or False when ``call`` builds no check."""
    fn = call.func
    name = getattr(fn, "id", None) or getattr(fn, "attr", None)
    if name not in TOLERANCE:
        return False
    pos, kw = TOLERANCE[name]
    if len(call.args) > pos:
        return call.args[pos]
    return next((k.value for k in call.keywords if k.arg == kw), None)


def tolerance_census(tree: ast.Module, module: str) -> tuple:
    """(functions that pass an infinite tolerance, calls that pass none),
    each a sorted list of module.[Class.]function names: the innermost
    top-level function or method around the call."""
    unbounded, missing = set(), set()

    def visit(node, scope, named):
        # named: a definition directly inside holds a name of its own, as
        # at module level and in a top-level class
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                tol = tolerance(child)
                if tol is None:
                    missing.add(".".join(scope))
                elif tol is not False and infinite(tol):
                    unbounded.add(".".join(scope))
            if named and isinstance(child, (ast.FunctionDef, ast.ClassDef,
                                            ast.AsyncFunctionDef)):
                visit(child, scope + [child.name], len(scope) == 1
                      and isinstance(child, ast.ClassDef))
            else:
                visit(child, scope, named and not isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef,
                            ast.ClassDef, ast.Lambda)))

    visit(tree, [module], True)
    return sorted(unbounded), sorted(missing)


def test_no_hidden_unbounded_checks():
    unbounded, missing = set(), set()
    for p in sorted(SRC.glob("*.py")):
        u, m = tolerance_census(ast.parse(p.read_text(), filename=str(p)),
                                p.stem)
        unbounded.update(u)
        missing.update(m)
    assert not missing, f"checks built without a tolerance in {sorted(missing)}"
    assert unbounded <= UNBOUNDED, (
        f"checks held to an infinite tolerance outside the known reports: "
        f"{sorted(unbounded - UNBOUNDED)}")


def test_hidden_unbounded_checks_are_found():
    tree = ast.parse(
        "import math\n"
        "import numpy as np\n"
        "from .errors import Check\n"
        "def bounded(x):\n"
        "    return sup_check('a', x, 1e-6), Check('b', 1.0, tol=2.0)\n"
        "def unbounded(x):\n"
        "    return sup_check('a', x, np.inf, keep=None)\n"
        "def by_keyword(x):\n"
        "    return Check('b', 1.0, tol=math.inf)\n"
        "def from_float(x):\n"
        "    return Check('b', 1.0, float('inf'))\n"
        "def forms(g):\n"
        "    return _form_sups(g, ('a', 'b', 'c'), (0.0,) * 3, (np.inf,) * 3)\n"
        "def mixed(g):\n"
        "    return numerics._form_sups(g, (), (), tols=(1.0, 1.0, inf))\n"
        "def forgot(x):\n"
        "    return sup_check('a', x, keep=None)\n"
        "def forgot_forms(g):\n"
        "    return _form_sups(g, (), (), band=2)\n"
        "class Field:\n"
        "    def sup(self):\n"
        "        def inner():\n"
        "            return sup_check('s', self.v, np.inf)\n"
        "        return inner()\n"
        "def reads_inf(x):\n"
        "    return np.isinf(x), max(x, np.inf)\n")
    assert tolerance_census(tree, "m") == (
        ["m.Field.sup", "m.by_keyword", "m.forms", "m.from_float", "m.mixed",
         "m.unbounded"],
        ["m.forgot", "m.forgot_forms"])
