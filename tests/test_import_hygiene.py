"""Every name a library module imports is used in that module, every
private name a module defines at top level is read somewhere in the library,
and so is every private method or property (a memo such as a private
``cached_property``) that a top-level class defines.  Every public
top-level function or class is loaded by the library or the benchmark, or
is listed in ``PAPER_NAMES`` with the statement of the paper it carries.
Every ``ChebyliftError`` subclass is named by some ``raise`` in the library,
so a replaced error type cannot stay behind as a name nothing raises.  No
library function but ``MESHGRID_CALLERS`` calls ``meshgrid``, and none
but a ``__post_init__`` and ``SETATTR_CALLERS`` writes a frozen record
through ``object.__setattr__``, nor but ``DICT_UPDATE_CALLERS`` through
``x.__dict__.update``.  In a fresh interpreter, the library and a net,
its lift and their curvature load no ``scipy.interpolate``, and neither
does a spline fit: a helix ``solve`` and a generator ``isothermal_form``
load no scipy module at all, and a Route B ``isothermal_form`` (a lift
without live generators) loads ``scipy.sparse`` alone.

Apart from that interpreter, standard library only: each
``src/chebylift/*.py`` is parsed with ``ast``; a name counts as used when it
occurs as a name anywhere in the module, including inside string
annotations such as ``Optional["Report"]``.  A
private function, class or constant counts as read when a statement other
than its own definition loads it as a name or an attribute; a private
class member counts as read when code outside its own definition loads it
as an attribute.  A public name counts as loaded by the same rule, over
the statements of ``src/chebylift/`` and ``perfbench/``.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "chebylift"
BENCH = Path(__file__).resolve().parents[1] / "perfbench"
#: public names that only tests load, kept for the statement they check
PAPER_NAMES = {
    "check_necessary": "necessity: c' = c0' (d0 + n0), n0 from the frame of D",
    "compatibility_residual": "the compatibility system r1, r2, r3",
    "classify_special": "the lightlike line, planar and helix special cases",
    "decompose": "n3 = cos theta T + p N + q B along alpha = c - u d0",
    "reduce_from_l3": "Cauchy data in L^3 embed as data in R^4_1",
    "solve_pq": "a theta extension gives p = -theta_u sin theta / kappa and "
                "q = (p_u + kappa cos theta) / tor, with p^2 + q^2 = "
                "sin^2 theta",
}
#: the one product grid the library builds with ``meshgrid``: the scattered
#: source points of ``equivalent_immersion`` on a non-square grid.  A closed
#: form over a product grid broadcasts its 1-D factors instead.
MESHGRID_CALLERS = ["chebnet.py:equivalent_immersion"]
#: the one writer of a frozen record outside its ``__post_init__``: the
#: builders' helper that gives a surface its generators.  Anything else
#: written onto a frozen record is a side channel its fields do not show.
SETATTR_CALLERS = ["chebnet.py:_with_generators"]
#: the one writer of a frozen record's ``__dict__``: the helper that builds
#: a ``Grid2D`` of row-checked sums without running its checks again
DICT_UPDATE_CALLERS = ["numerics.py:_unscanned_grid"]


def imported_names(tree: ast.Module) -> set:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names |= {a.asname or a.name for a in node.names}
    return names


def with_string_annotations(tree: ast.AST) -> list:
    """tree, followed by the parsed string annotations inside it."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    strings = [sub.value for ann in annotations if ann is not None
               for sub in ast.walk(ann)
               if isinstance(sub, ast.Constant) and isinstance(sub.value, str)]
    return [tree] + [ast.parse(s, mode="eval") for s in strings]


def used_names(tree: ast.Module) -> set:
    return {n.id for t in with_string_annotations(tree) for n in ast.walk(t)
            if isinstance(n, ast.Name)}


def read_names(stmt: ast.stmt) -> set:
    """Names a statement loads, as names or as attributes."""
    nodes = [n for t in with_string_annotations(stmt) for n in ast.walk(t)]
    return ({n.id for n in nodes
             if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
            | {n.attr for n in nodes if isinstance(n, ast.Attribute)})


def private_definitions(tree: ast.Module) -> list:
    """(name, statement) for each private name defined at top level."""
    out = []
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names = [stmt.name]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) \
                else [stmt.target]
            names = [n.id for t in targets for n in ast.walk(t)
                     if isinstance(n, ast.Name)
                     and isinstance(n.ctx, ast.Store)]
        else:
            continue
        out += [(name, stmt) for name in names
                if name.startswith("_") and not name.startswith("__")]
    return out


def dead_private_names(trees: dict) -> list:
    """module:name for each private top-level name that no other statement
    of any of the modules ``trees`` (name -> parsed module) reads."""
    reads = [(stmt, read_names(stmt))
             for tree in trees.values() for stmt in tree.body]
    return [f"{mod}:{name}" for mod, tree in trees.items()
            for name, stmt in private_definitions(tree)
            if not any(name in names for s, names in reads if s is not stmt)]


def unloaded_public_names(trees: dict, callers: list) -> list:
    """module:name for each public top-level function or class of ``trees``
    that no statement of the parsed files ``callers`` (which hold the
    trees themselves) loads, other than its own definition."""
    reads = [(stmt, read_names(stmt)) for tree in callers
             for stmt in tree.body]
    return [f"{mod}:{stmt.name}" for mod, tree in trees.items()
            for stmt in tree.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and not stmt.name.startswith("_")
            and not any(stmt.name in names for s, names in reads
                        if s is not stmt)]


def attribute_reads(node: ast.AST) -> list:
    """Names loaded as attributes anywhere inside ``node``."""
    return [n.attr for n in ast.walk(node)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)]


def dead_private_members(trees: dict) -> list:
    """module:Class.name for each private method or property of a
    top-level class that no code of ``trees`` outside its own definition
    loads as an attribute."""
    reads = [a for tree in trees.values() for a in attribute_reads(tree)]
    return [f"{mod}:{cls.name}.{stmt.name}"
            for mod, tree in trees.items() for cls in tree.body
            if isinstance(cls, ast.ClassDef) for stmt in cls.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            and stmt.name.startswith("_") and not stmt.name.startswith("__")
            and reads.count(stmt.name)
            == attribute_reads(stmt).count(stmt.name)]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    unused = imported_names(tree) - used_names(tree)
    assert not unused, f"{path.name} imports unused names: {sorted(unused)}"


def test_string_annotations_count_as_uses():
    tree = ast.parse("from typing import Optional\n"
                     "from .errors import Report\n"
                     "def f(x: Optional['Report']) -> None: ...\n")
    assert imported_names(tree) == {"Optional", "Report"}
    assert imported_names(tree) <= used_names(tree)
    unused = ast.parse("from .errors import Check, Report\n"
                       "def f() -> 'Report': ...\n")
    assert imported_names(unused) - used_names(unused) == {"Check"}


def test_every_private_name_is_read():
    trees = {p.name: ast.parse(p.read_text(), filename=str(p))
             for p in sorted(SRC.glob("*.py"))}
    dead = dead_private_names(trees)
    assert not dead, f"private names nothing reads: {dead}"


def test_dead_private_names_are_found():
    tree = ast.parse("_A = 1\n"
                     "_B = _A\n"
                     "def _f(n):\n"
                     "    return _f(n - 1)\n"
                     "class _C: ...\n"
                     "def g(x: '_C') -> None: ...\n")
    other = ast.parse("import m\n"
                      "def h():\n"
                      "    return m._D\n")
    defines_d = ast.parse("_D = 2\n")
    assert dead_private_names({"m": tree}) == ["m:_B", "m:_f"]
    assert dead_private_names({"n": defines_d}) == ["n:_D"]
    assert dead_private_names({"n": defines_d, "o": other}) == []


def test_every_public_name_is_loaded_or_states_the_paper():
    trees = {p.name: ast.parse(p.read_text(), filename=str(p))
             for p in sorted(SRC.glob("*.py"))}
    bench = [ast.parse(p.read_text(), filename=str(p))
             for p in sorted(BENCH.rglob("*.py"))]
    unloaded = unloaded_public_names(trees, [*trees.values(), *bench])
    names = {u.split(":")[1] for u in unloaded}
    assert names <= PAPER_NAMES.keys(), (
        f"public names that src/ and perfbench/ never load: "
        f"{sorted(u for u in unloaded if u.split(':')[1] not in PAPER_NAMES)}")
    assert PAPER_NAMES.keys() <= names, (
        f"PAPER_NAMES entries that code loads or that do not exist: "
        f"{sorted(PAPER_NAMES.keys() - names)}")


def test_unloaded_public_names_are_found():
    tree = ast.parse("def f(n):\n"
                     "    return f(n - 1)\n"
                     "def g(): ...\n"
                     "class C: ...\n"
                     "class D:\n"
                     "    def make(self) -> 'D': ...\n"
                     "def _p():\n"
                     "    return g()\n")
    bench = ast.parse("import m\n"
                      "m.C()\n")
    assert unloaded_public_names({"m": tree}, [tree]) == [
        "m:f", "m:C", "m:D"]
    assert unloaded_public_names({"m": tree}, [tree, bench]) == [
        "m:f", "m:D"]


def test_every_private_member_is_read():
    trees = {p.name: ast.parse(p.read_text(), filename=str(p))
             for p in sorted(SRC.glob("*.py"))}
    dead = dead_private_members(trees)
    assert not dead, f"private members nothing reads: {dead}"


def test_dead_private_members_are_found():
    tree = ast.parse("class A:\n"
                     "    @cached_property\n"
                     "    def _memo(self):\n"
                     "        return self._memo\n"
                     "    @cached_property\n"
                     "    def _used(self): ...\n"
                     "    def _helper(self):\n"
                     "        self._unread = self._used\n"
                     "    def __repr__(self): ...\n"
                     "    def public(self): ...\n")
    other = ast.parse("def f(a):\n"
                      "    return a._helper()\n")
    assert dead_private_members({"m": tree}) == ["m:A._memo", "m:A._helper"]
    assert dead_private_members({"m": tree, "o": other}) == ["m:A._memo"]


def error_types(tree: ast.Module) -> list:
    """Classes of ``tree`` that derive from ``ChebyliftError``, directly or
    through a class defined before them."""
    found = ["ChebyliftError"]
    for stmt in tree.body:
        if isinstance(stmt, ast.ClassDef) and any(
                isinstance(b, ast.Name) and b.id in found for b in stmt.bases):
            found.append(stmt.name)
    return found[1:]


def unraised_errors(errors: ast.Module, trees: list) -> list:
    """Error types of ``errors`` that no ``raise`` of ``trees`` names."""
    raised = set().union(*(read_names(node) for tree in trees
                           for node in ast.walk(tree)
                           if isinstance(node, ast.Raise)))
    return [name for name in error_types(errors) if name not in raised]


def test_every_error_type_is_raised():
    trees = {p.name: ast.parse(p.read_text(), filename=str(p))
             for p in sorted(SRC.glob("*.py"))}
    unraised = unraised_errors(trees["errors.py"], list(trees.values()))
    assert not unraised, f"error types nothing raises: {unraised}"


def test_unraised_errors_are_found():
    errors = ast.parse("class ChebyliftError(Exception): ...\n"
                       "class A(ChebyliftError): ...\n"
                       "class B(A): ...\n"
                       "class C(ChebyliftError): ...\n"
                       "class Other(Exception): ...\n")
    use = ast.parse("import errors\n"
                    "from errors import A\n"
                    "def f(x):\n"
                    "    if x:\n"
                    "        raise errors.B('b')\n"
                    "    return A, C\n")
    assert error_types(errors) == ["A", "B", "C"]
    assert unraised_errors(errors, [errors, use]) == ["A", "C"]


def meshgrid_calls(tree: ast.Module) -> list:
    """The top-level definition around each call of ``meshgrid`` in
    ``tree``, as a name or an attribute, in order ("" at module level)."""
    return [getattr(stmt, "name", "") for stmt in tree.body
            for n in ast.walk(stmt) if isinstance(n, ast.Call)
            and "meshgrid" in (getattr(n.func, "attr", None),
                               getattr(n.func, "id", None))]


def test_closed_forms_broadcast_their_axes():
    calls = [f"{p.name}:{name}" for p in sorted(SRC.glob("*.py"))
             for name in meshgrid_calls(ast.parse(p.read_text(),
                                                  filename=str(p)))]
    assert calls == MESHGRID_CALLERS, (
        f"meshgrid called by {calls}: broadcast the 1-D factors of a "
        f"closed form instead")


def test_meshgrid_calls_are_found():
    tree = ast.parse("import numpy as np\n"
                     "from numpy import meshgrid\n"
                     "U = np.meshgrid([0.0], [1.0])\n"
                     "def f(x):\n"
                     "    def inner():\n"
                     "        return meshgrid(x, x)\n"
                     "    return np.sin(x), inner\n"
                     "class C:\n"
                     "    def g(self, x):\n"
                     "        return np.meshgrid(x, x, indexing='ij')\n")
    assert meshgrid_calls(tree) == ["", "f", "C"]


def is_object_setattr(call: ast.Call) -> bool:
    """``object.__setattr__(...)``."""
    f = call.func
    return (isinstance(f, ast.Attribute) and f.attr == "__setattr__"
            and isinstance(f.value, ast.Name) and f.value.id == "object")


def is_dict_update(call: ast.Call) -> bool:
    """``x.__dict__.update(...)``, whatever x is."""
    f = call.func
    return (isinstance(f, ast.Attribute) and f.attr == "update"
            and isinstance(f.value, ast.Attribute)
            and f.value.attr == "__dict__")


def calls_in(tree: ast.AST, match, where: str = "") -> list:
    """The innermost function around each call in ``tree`` that ``match``
    accepts, in order ("" at module level)."""
    found = []
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found += calls_in(node, match, node.name)
            continue
        if isinstance(node, ast.Call) and match(node):
            found.append(where)
        found += calls_in(node, match, where)
    return found


def test_frozen_records_are_written_on_construction_only():
    for match, allowed in ((is_object_setattr, SETATTR_CALLERS),
                           (is_dict_update, DICT_UPDATE_CALLERS)):
        calls = [f"{p.name}:{name}" for p in sorted(SRC.glob("*.py"))
                 for name in calls_in(ast.parse(p.read_text(),
                                                filename=str(p)), match)
                 if name != "__post_init__"]
        assert calls == allowed, (
            f"{match.__name__} in {calls}: set a frozen record's fields in "
            f"its __post_init__")


def test_setattr_calls_are_found():
    tree = ast.parse("object.__setattr__(a, 'x', 1)\n"
                     "class C:\n"
                     "    def __post_init__(self):\n"
                     "        object.__setattr__(self, 'x', 1)\n"
                     "        def inner(o):\n"
                     "            return object.__setattr__(o, 'y', 2)\n"
                     "def f(o):\n"
                     "    setattr(o, 'x', 1)\n"
                     "    o.__setattr__('x', 1)\n"
                     "    return [object.__setattr__(o, 'z', 3)]\n")
    assert calls_in(tree, is_object_setattr) == ["", "__post_init__",
                                                "inner", "f"]


def test_dict_update_calls_are_found():
    tree = ast.parse("a.__dict__.update(x=1)\n"
                     "class C:\n"
                     "    def __post_init__(self):\n"
                     "        self.__dict__.update(x=1)\n"
                     "        def inner(o):\n"
                     "            return vars(o).update(y=2)\n"
                     "def f(o):\n"
                     "    o.__dict__['x'] = 1\n"
                     "    d = {}\n"
                     "    d.update(x=1)\n"
                     "    return [g(o).__dict__.update(z=3)]\n")
    assert calls_in(tree, is_dict_update) == ["", "__post_init__", "f"]


#: run in a fresh interpreter with the last stage as its argument; prints
#: whether scipy.interpolate is loaded after each stage
COLD_IMPORT = """
import json, sys
import numpy as np
from chebylift import numerics, minkowski, chebnet, lift, bjorling
loaded = lambda: 'scipy.interpolate' in sys.modules
stages = [loaded()]
T1, T2 = (numerics.sample_curve(fn, (-1.5, 1.5), 101,
                                cls=numerics.SphereCurve)
          for fn in (lambda t: np.stack([np.cos(t), np.sin(t), 0 * t], -1),
                     lambda t: np.stack([0 * t, np.sin(t), np.cos(t)], -1)))
surf = lift.lift_net(chebnet.build_first_kind(T1, T2, np.zeros(3)))
lift.gaussian_curvature(surf)
stages.append(loaded())
if sys.argv[1] == 'isothermal_form':
    _, rep = lift.isothermal_form(surf)
    assert max(c.value for c in rep.checks) < 1e-4
else:
    import inputs
    _, rep = bjorling.solve(inputs.helix_data(201, 1.0)[0])
    assert rep.passed
stages.append(loaded())
print(json.dumps(stages))
"""


@pytest.mark.parametrize("fit", ["isothermal_form", "solve"])
def test_scipy_interpolate_loads_on_the_first_fit(fit):
    paths = [str(SRC.parent), str(BENCH)] + [
        p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    proc = subprocess.run(
        [sys.executable, "-c", COLD_IMPORT, fit], capture_output=True,
        text=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(paths)})
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [False, False, False]


#: run in a fresh interpreter with an entry point as its argument; prints
#: the scipy modules loaded by the library's import and that one first call
COLD_ENTRY = """
import json, sys
from dataclasses import replace
import numpy as np
from chebylift import numerics, chebnet, lift, bjorling
if sys.argv[1] == 'solve':
    import inputs
    _, rep = bjorling.solve(inputs.helix_data(201, 1.0)[0])
    assert rep.passed
else:
    T1, T2 = (numerics.sample_curve(fn, (-1.5, 1.5), 101,
                                    cls=numerics.SphereCurve)
              for fn in (lambda t: np.stack([np.cos(t), np.sin(t), 0 * t], -1),
                         lambda t: np.stack([0 * t, np.sin(t), np.cos(t)], -1)))
    surf = lift.lift_net(chebnet.build_first_kind(T1, T2, np.zeros(3)))
    if sys.argv[1] == 'route_b':
        surf = replace(surf, grid=surf.grid.with_values(
            surf.grid.values.copy()))
    iso, rep = lift.isothermal_form(surf)
    assert (iso.generators is None) == (sys.argv[1] == 'route_b')
    assert max(c.value for c in rep.checks) < 1e-4
print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))
"""


@pytest.mark.parametrize("entry", ["solve", "generators", "route_b"])
def test_first_call_loads_no_scipy_interpolate(entry):
    # a helix solve and a lift with live generators fit only 1-D splines,
    # which need no scipy; Route B's diagonal reader multiplies by sparse
    # design matrices, so it loads scipy.sparse, and nothing else fits
    paths = [str(SRC.parent), str(BENCH)] + [
        p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    proc = subprocess.run(
        [sys.executable, "-c", COLD_ENTRY, entry], capture_output=True,
        text=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(paths)})
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    if entry == "route_b":
        assert "scipy.sparse" in loaded
        assert not any(m.startswith("scipy.interpolate") for m in loaded)
    else:
        assert loaded == []
