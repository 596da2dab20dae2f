"""Every optional parameter of a public module-level library function takes
at least two values over the calls in ``src/`` and ``perfbench/``.  An
option that every caller leaves at one value is a constant of the library,
and one that no caller sets is a value only tests choose.

Standard library only: each file is parsed with ``ast``.  A call counts
when it names the function as imported from, or defined in, its module
(``solve(...)``) or as an attribute of the module (``bj.solve(...)``).  An
omitted argument gives the default, a literal argument its value, and any
other argument, ``*args`` and ``**kwargs`` included, counts as varying.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "chebylift"
CALLERS = (ROOT / "src", ROOT / "perfbench")
PACKAGE = "chebylift"
VARYING = "<varying>"


def options(trees: dict) -> dict:
    """(module, function) -> (positional parameter names, {option: default
    node}) for each public module-level function of ``trees`` (module name
    -> parsed module)."""
    out = {}
    for mod, tree in trees.items():
        for fn in tree.body:
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    or fn.name.startswith("_"):
                continue
            a = fn.args
            pos = a.posonlyargs + a.args
            opts = dict(zip((p.arg for p in pos[len(pos) - len(a.defaults):]),
                            a.defaults))
            opts.update((p.arg, d) for p, d in zip(a.kwonlyargs, a.kw_defaults)
                        if d is not None)
            out[(mod, fn.name)] = ([p.arg for p in pos], opts)
    return out


def value(node: ast.expr):
    """The literal value of an argument or default, else ``VARYING``."""
    try:
        return repr(ast.literal_eval(node))
    except ValueError:
        return VARYING


def library_names(tree: ast.Module, module: str, modules: set) -> tuple:
    """({local name: (module, function)}, {local name: module}) for the
    library functions and modules that ``tree``, the file of ``module``
    (None outside the library), binds by import or definition."""
    funcs, mods = {}, {}
    if module is not None:
        funcs.update((s.name, (module, s.name)) for s in tree.body
                     if isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef)))
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        src = node.module or ""
        if (node.level == 1 and not src) or src == PACKAGE:
            mods.update((a.asname or a.name, a.name) for a in node.names
                        if a.name in modules)
            continue
        mod = src.rsplit(".", 1)[-1]
        if mod in modules and (node.level == 1
                               or src == f"{PACKAGE}.{mod}"):
            funcs.update((a.asname or a.name, (mod, a.name))
                         for a in node.names)
    return funcs, mods


def option_values(trees: dict, callers: dict) -> dict:
    """(module, function, option) -> the set of values the calls in
    ``callers`` (file -> (parsed file, its library module or None)) give
    it, for each option of ``trees``."""
    opts = options(trees)
    values = {(m, f, o): set() for (m, f), (_, os) in opts.items()
              for o in os}
    for tree, module in callers.values():
        funcs, mods = library_names(tree, module, set(trees))
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            fn = call.func
            if isinstance(fn, ast.Name):
                key = funcs.get(fn.id)
            elif isinstance(fn, ast.Attribute) \
                    and isinstance(fn.value, ast.Name) \
                    and fn.value.id in mods:
                key = (mods[fn.value.id], fn.attr)
            else:
                key = None
            if key not in opts:
                continue
            pos, defaults = opts[key]
            given = {}
            for i, arg in enumerate(call.args):
                if isinstance(arg, ast.Starred):
                    given.update((p, VARYING) for p in pos[i:])
                    break
                if i < len(pos):
                    given[pos[i]] = value(arg)
            for kw in call.keywords:
                if kw.arg is None:
                    given.update((p, VARYING) for p in defaults)
                else:
                    given[kw.arg] = value(kw.value)
            for name, default in defaults.items():
                values[(*key, name)].add(given.get(name, value(default)))
    return values


def constant_options(values: dict) -> list:
    """module.function(option) for each option given fewer than two values
    and never a varying one."""
    return [f"{m}.{f}({o})" for (m, f, o), vals in values.items()
            if VARYING not in vals and len(vals) < 2]


def test_every_option_takes_two_values():
    trees = {p.stem: ast.parse(p.read_text(), filename=str(p))
             for p in sorted(SRC.glob("*.py"))}
    callers = {p: (ast.parse(p.read_text(), filename=str(p)),
                   p.stem if p.parent == SRC else None)
               for d in CALLERS for p in sorted(d.rglob("*.py"))}
    constant = constant_options(option_values(trees, callers))
    assert not constant, (
        f"options that src/ and perfbench/ give one value or none: "
        f"{constant}")


def test_constant_options_are_found():
    lib = ast.parse("def f(x, tol=1e-6, *, mode='a'): ...\n"
                    "def g(x, n=3): ...\n"
                    "def h(x, k=1): ...\n"
                    "def _p(x, q=0): ...\n"
                    "def use(y):\n"
                    "    return f(y), g(y, 3), h(y, y)\n")
    caller = ast.parse("import numpy as np\n"
                       "from chebylift import m as mm\n"
                       "mm.f(1, mode='b')\n"
                       "np.linalg.g(1, 2)\n"
                       "mm.g(1, **{})\n")
    values = option_values({"m": lib}, {"lib": (lib, "m")})
    assert values[("m", "f", "tol")] == {"1e-06"}
    assert constant_options(values) == ["m.f(tol)", "m.f(mode)", "m.g(n)"]
    values = option_values({"m": lib}, {"lib": (lib, "m"),
                                        "bench": (caller, None)})
    assert values[("m", "f", "mode")] == {"'a'", "'b'"}
    assert constant_options(values) == ["m.f(tol)"]
