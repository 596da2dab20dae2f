"""The three benchmark workloads: op kinds, their schedules and their gates.

An op is one whole user-level call on inputs prepared at set-up.  Each op
kind has four parts: ``make`` builds the inputs from the op's own seed,
``run`` is the timed call, ``gate`` judges the output against an oracle
with the bounds tier-1 holds the same quantities to, and ``perturb``
spoils a good output so the harness can prove the gate rejects it.  A
reject kind has no gate: it passes only by raising its named error.

Library functions are always called through their module (``bj.solve``,
not a from-import), so the tracer's rebinding reaches every call.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from chebylift import bjorling as bj
from chebylift import chebnet as cn
from chebylift import errors
from chebylift import lift as lf
from chebylift import numerics as nm

import inputs as ip

#: Nodes with 1 - |cos theta| below this are left out of comparisons of
#: quantities that divide by sin(theta); it is the library's ANGLE_MARGIN.
ANGLE_MARGIN = 0.1


@dataclass(frozen=True)
class Kind:
    name: str
    make: Callable[[int, np.random.Generator], dict]
    run: Callable[[dict], object]
    gate: Optional[Callable[[dict, object], dict]] = None
    perturb: Optional[Callable[[object], object]] = None
    expect: Optional[type] = None     # the error a reject kind must raise
    # distinct inputs per size; 1 = fixed.  A kind whose ops fail on some
    # draws gets one draw per slot, so that the share of failed ops does not
    # jump with how often one unlucky draw repeats in a run.
    draws: int = 4


@dataclass
class Op:
    kind: Kind
    n: int
    seed: tuple                       # (workload seed, kind index, n, draw)
    inputs: dict


@dataclass
class Outcome:
    """Verdict on one op: ``errors`` is empty iff the op succeeded."""

    errors: list = field(default_factory=list)
    accuracy: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.errors


def judge(op: Op, result=None, exc: Optional[BaseException] = None) -> Outcome:
    """Apply the op kind's gate to what the op returned or raised."""
    kind, out = op.kind, Outcome()
    if kind.expect is not None:
        if exc is None:
            out.errors.append(f"returned, expected {kind.expect.__name__}")
        elif not isinstance(exc, kind.expect):
            out.errors.append(f"{type(exc).__name__}: {exc}")
        return out
    if exc is not None:
        out.errors.append(f"{type(exc).__name__}: {exc}")
        return out
    try:
        checks = kind.gate(op.inputs, result)
    except Exception as e:      # an output the gate cannot read is wrong
        out.errors.append(f"gate could not judge the output: "
                          f"{type(e).__name__}: {e}")
        return out
    for name, (value, bound) in checks.items():
        value = float(value)
        out.accuracy[name] = value
        if not value <= bound:          # NaN fails too
            out.errors.append(f"{name} = {value:.3e} exceeds {bound:g}")
    return out


def _row0(grid):
    return int(np.argmin(np.abs(grid.vs)))


def _sup(a, b, keep=None):
    """Sup of |a - b| over the kept nodes; inf, which fails every bound,
    when the shapes differ or no node is kept."""
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape:
        return np.inf
    d = np.abs(a - b)
    if keep is not None:
        d = d[keep]
    return float(d.max()) if d.size else np.inf


def _shift_lift(s, eps=1e-3):
    return replace(s, grid=s.grid.with_values(s.grid.values + eps))


# ---------------------------------------------------------------------------
# cauchy: one bjorling.solve (or ruled_solution) call per op

def _gate_solve(inp, res):
    sol, rep = res
    g = {"report_failed": (0.0 if rep.passed else 1.0, 0.0),
         "bjorling.solve.curve_sup": (rep.curve_sup, 1e-6),
         "bjorling.solve.projector_sup": (rep.projector_sup, 1e-5),
         "bjorling.solve.h_sup": (rep.h_sup, 1e-5),
         "row_err": (_sup(sol.grid.values[:, _row0(sol.grid)],
                          inp["data"].c.points), 1e-6)}
    if "source" in inp:
        g["bjorling.solve.round_trip_err"] = (
            _sup(sol.grid.values, inp["source"]), 1e-6)
    return g


def _perturb_solve(res):
    sol, rep = res
    return _shift_lift(sol), rep


def _make_helix(n, rng):
    d, _ = ip.helix_data(n, radius=float(np.exp(rng.uniform(-0.2, 0.2))))
    return {"data": d}


def _make_helix_theta(n, rng):
    d, th = ip.helix_data(n, radius=float(np.exp(rng.uniform(-0.2, 0.2))))
    # c0 = t, so the solver's u-grid is the data's own t-grid
    vs = np.linspace(-0.6, 0.6, 121)
    theta = nm.Grid2D(u_min=d.c.t_min, v_min=float(vs[0]), du=d.c.dt,
                      dv=float(vs[1] - vs[0]),
                      values=np.full((n, vs.size), th))
    return {"data": d, "ext": bj.ExtensionChoice.from_theta(theta)}


def _make_lift_random(n, rng):
    n0, _ = ip.normalized_trig_curve(rng, n, (-0.2, 0.2), [1.0, 0.0, 0.0])
    n3, _ = ip.normalized_trig_curve(rng, n, (-0.2, 0.2), [0.0, 0.0, 1.0])
    surf = lf.build_minimal(n0, n3, np.zeros(4))
    return {"data": ip.data_from_lift(surf),
            "ext": bj.ExtensionChoice.from_curve(n3),
            "source": surf.grid.values}


def _make_lift_critical(n, rng):
    surf = lf.lift_net(cn.gallery("critical", nu=n, nv=n).net)
    ext = ip.sphere_curve_like(surf.grid.vs, ip.critical_T2)
    return {"data": ip.data_from_lift(surf),
            "ext": bj.ExtensionChoice.from_curve(ext),
            "source": surf.grid.values}


def _make_line(n, rng):
    phi = rng.uniform(0.0, 2.0 * np.pi)
    w = np.array([np.cos(phi), np.sin(phi), 0.0])
    e3 = np.array([0.0, 0.0, 1.0])
    n3_fn = lambda v: np.cos(v)[:, None] * e3 + np.sin(v)[:, None] * w
    d, n3 = ip.line_with_n3(n3_fn, n)
    # f = c(u) + v d0 + int_0^v n3, in closed form
    vs = n3.ts
    ruling = np.concatenate(
        [vs[:, None], np.sin(vs)[:, None] * e3
         + (1.0 - np.cos(vs))[:, None] * w], axis=1)
    return {"data": d, "n3": n3,
            "exact": d.c.points[:, None, :] + ruling[None, :, :]}


def _gate_line(inp, sol):
    return {"row_err": (_sup(sol.grid.values[:, _row0(sol.grid)],
                             inp["data"].c.points), 1e-6),
            "bjorling.solve.round_trip_err": (
                _sup(sol.grid.values, inp["exact"]), 1e-6)}


def _make_reject_incompatible(n, rng):
    w = rng.uniform(0.2, 0.4)
    return {"data": ip.data_from_null_pair(
        lambda ts: np.stack([np.cos(ts), np.sin(ts), 0 * ts], axis=1),
        lambda ts: np.stack([0 * ts, np.sin(w * ts), np.cos(w * ts)], axis=1),
        (-1.0, 1.0), n)}


def _make_reject_necessary(n, rng):
    # rotate a toward the transversal null normal f_v = (1, 0, 0, 1) of the
    # critical lift along v = 0: (a, b) stays orthonormal but leaves the
    # normal space of c'
    d = _make_lift_critical(n, rng)["data"]
    eps = rng.uniform(0.08, 0.12)
    a = d.a.points + np.tan(eps) * np.array([1.0, 0.0, 0.0, 1.0])
    return {"data": bj.BjorlingData(
        c=d.c, a=nm.SampledCurve(d.a.t_min, d.a.dt, a), b=d.b)}


def _solve(inp):
    return bj.solve(inp["data"], inp.get("ext"))


CAUCHY = (
    Kind("helix", _make_helix, _solve, _gate_solve, _perturb_solve),
    Kind("lift-random", _make_lift_random, _solve, _gate_solve,
         _perturb_solve, draws=6),
    Kind("lift-critical", _make_lift_critical, _solve, _gate_solve,
         _perturb_solve, draws=1),
    Kind("helix-theta", _make_helix_theta, _solve, _gate_solve,
         _perturb_solve),
    Kind("line", _make_line,
         lambda inp: bj.ruled_solution(inp["data"], inp["n3"]), _gate_line,
         _shift_lift),
    Kind("reject-incompatible", _make_reject_incompatible, _solve,
         expect=errors.IncompatibleData),
    Kind("reject-necessary", _make_reject_necessary, _solve,
         expect=errors.NecessaryConditionFailed, draws=2),
)


# ---------------------------------------------------------------------------
# isothermal: isothermal_form followed by to_null_form

def _iso_run(inp):
    iso, rep_fwd = lf.isothermal_form(inp["lift"])
    back, rep_back = lf.to_null_form(iso)
    return back, rep_fwd, rep_back


def _iso_gate(inp, res):
    back, fwd, bwd = res
    exact = inp["exact"](back.grid.us, back.grid.vs)
    return {"lift.isothermal_form.metric_sup": (
                max(fwd.sup_tt, fwd.sup_ss, fwd.sup_ts), 1e-4),
            "back_metric_sup": (max(bwd.sup_tt, bwd.sup_ss), 1e-4),
            "lift.to_null_form.round_trip_err": (
                _sup(back.grid.values, exact), 1e-5)}


def _iso_perturb(res):
    back, fwd, bwd = res
    return _shift_lift(back), fwd, bwd


def _make_iso_critical(n, rng):
    return {"lift": lf.lift_net(cn.gallery("critical", nu=n, nv=n).net),
            "exact": ip.critical_lift_exact}


def _make_iso_random(n, rng):
    T1, f1 = ip.normalized_trig_curve(rng, n, (-0.5, 0.5), [1.0, 0.0, 0.0])
    T2, f2 = ip.normalized_trig_curve(rng, n, (-0.5, 0.5), [0.0, 0.0, 1.0])
    return {"lift": lf.lift_net(cn.build_first_kind(T1, T2, np.zeros(3))),
            "exact": lambda us, vs: ip.first_kind_lift_exact(f1, f2, us, vs)}


def _make_iso_noncritical(n, rng):
    return {"lift": lf.lift_net(cn.gallery("noncritical", nu=n, nv=n).net),
            "exact": ip.noncritical_lift_exact}


ISOTHERMAL = (
    Kind("critical", _make_iso_critical, _iso_run, _iso_gate, _iso_perturb,
         draws=1),
    Kind("first-kind-random", _make_iso_random, _iso_run, _iso_gate,
         _iso_perturb),
    Kind("noncritical", _make_iso_noncritical, _iso_run, _iso_gate,
         _iso_perturb, draws=1),
)


# ---------------------------------------------------------------------------
# surface: analyse one first-kind net from its generators

def _surface_run(inp):
    net = cn.build_first_kind(inp["T1"], inp["T2"], np.zeros(3))
    cheb = cn.is_chebyshev(net)
    shape = cn.euclidean_shape(net)
    sg = cn.sine_gordon_residual(net, shape)
    s = lf.lift_net(net)
    null = lf.verify_null_coords(s)
    hpar = lf.h_parallel_e2(s)
    Kd = lf.gaussian_curvature(s, "direct")
    Kv = lf.gaussian_curvature(s, "via_net")
    n0, n3, _ = lf.decompose_minimal(s)
    return dict(net=net, cheb=cheb, shape=shape, sg=sg, null=null,
                hpar=hpar, Kd=Kd, Kv=Kv, n0=n0, n3=n3, s=s)


def _surface_gate(inp, r):
    """Bounds are those tier-1 holds each quantity to: sine-Gordon and the
    H-off-e2 component per net class (gallery or random, from the inputs),
    H 1e-5, K routes and K_T 1e-3, the shape against its closed form 1e-4,
    recovered generators 1e-6.  The differenced first form and null
    coordinates get 1e-5, tier-1's bound for numerically produced nets (its
    1e-6 is for closed-form gallery grids).  Quantities that divide by
    sin(theta) are compared off the degenerate-angle mask."""
    net, shape, cheb, null = r["net"], r["shape"], r["cheb"], r["null"]
    keep = 1.0 - np.abs(np.cos(net.theta)) >= ANGLE_MARGIN
    keep_k = ~(r["Kd"].degenerate | r["Kv"].degenerate)
    g = {"first_form": (max(cheb.sup_e, cheb.sup_g), 1e-5),
         "f_margin": (cheb.sup_f, 1.0 - 1e-6),
         "sine_gordon": (_sup(r["sg"].values, np.zeros_like(r["sg"].values),
                              keep[2:-2, 2:-2]), inp["sg_tol"]),
         "null_coords": (max(null.sup_fu_fu, null.sup_fv_fv,
                             null.sup_cross), 1e-5),
         "h_off_e2": (r["hpar"].sup_off_e2, inp["hpar_tol"]),
         "k_routes": (_sup(r["Kd"].values, r["Kv"].values, keep_k), 1e-3),
         "lift.mean_curvature.sup": (lf.mean_curvature(r["s"]).sup(), 1e-5),
         "generator_err": (max(_sup(r["n0"].points, inp["T1"].points),
                               _sup(r["n3"].points, inp["T2"].points)), 1e-6)}
    ex = inp["shape_exact"]
    if ex is not None:
        g["chebnet.oracle_err"] = (max(
            _sup(shape.gauss_map, ex["gauss_map"], keep),
            _sup(shape.e, ex["e"], keep), _sup(shape.f, ex["f"], keep),
            _sup(shape.g, ex["g"], keep)), 1e-4)
        g["k_t_err"] = (_sup(shape.K_T, ex["K_T"], keep), 1e-3)
    return g


def _surface_perturb(r):
    # rotate the recovered n0 by 1e-3 about d3; it stays on the sphere
    c, s = np.cos(1e-3), np.sin(1e-3)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    return {**r, "n0": replace(r["n0"], points=r["n0"].points @ rot.T)}


def _make_surface_critical(n, rng):
    T1 = nm.sample_curve(ip.critical_T1, ip.CRITICAL_RANGE, n,
                         cls=nm.SphereCurve)
    T2 = nm.sample_curve(ip.critical_T2, ip.CRITICAL_RANGE, n,
                         cls=nm.SphereCurve)
    return {"T1": T1, "T2": T2, "sg_tol": 1e-4, "hpar_tol": 1e-6,
            "shape_exact": ip.critical_shape_exact(T1.ts, T2.ts)}


def _make_surface_random(n, rng):
    T1, _ = ip.normalized_trig_curve(rng, n, (-0.4, 0.4), [1.0, 0.0, 0.0])
    T2, _ = ip.normalized_trig_curve(rng, n, (-0.4, 0.4), [0.0, 0.0, 1.0])
    return {"T1": T1, "T2": T2, "sg_tol": 1e-3, "hpar_tol": 1e-4,
            "shape_exact": None}


SURFACE = (
    Kind("critical", _make_surface_critical, _surface_run, _surface_gate,
         _surface_perturb, draws=1),
    Kind("random", _make_surface_random, _surface_run, _surface_gate,
         _surface_perturb, draws=108),
)


# ---------------------------------------------------------------------------
# schedules
#
# A schedule is one pass of blocks of (kind, n, draw) slots.  Every block
# holds the workload's whole mix and a run measures whole blocks, so the
# mix a run measures does not depend on its length.  The mix puts each median and the tail inside one cluster of op
# times rather than on the edge between two, so that seed-to-seed changes
# in which ops fail do not move them from one cluster to the next.

def _cauchy_blocks():
    # helix is the reference solve: 5 of the 10 n = 801 ops per block and
    # 4 of the 10 n = 201 ops, so both medians are helix times; the slow
    # lift kinds stay few enough to leave the tail there too.  About 4 s.
    # Five blocks make a pass, the length of a traced run.
    others = [k.name for k in CAUCHY if k.name != "helix"]
    slow = ("lift-random", "lift-critical")
    blocks = []
    for b in range(5):
        small = [("helix", 201, 4 * b + i) for i in range(4)]
        small += [(name, 201, b) for name in others]
        large = [("helix", 801, 5 * b + i) for i in range(5)]
        large += [(name, 801, b) for name in others if name not in slow]
        large.append((slow[b % 2], 801, b // 2))
        blocks.append([slot for pair in zip(small, large) for slot in pair])
    return blocks


def _isothermal_blocks():
    # a round trip at n = 801 takes 6 to 9 s, so the pass is one block of
    # about 32 s: each kind once at n = 801, so the n = 801 median is that
    # of three samples, each followed by 5 of each kind at n = 201
    block = []
    for big in ISOTHERMAL:
        block.append((big.name, 801, 0))
        for r in range(5):
            block += [(k.name, 201, r) for k in ISOTHERMAL]
    return [block]


def _surface_blocks():
    # both kinds at n = 801 (about 1.6 s each), so the n = 801 median is
    # theirs, and 40 ops at n = 201, so the tail falls among those.  The
    # critical net fails its gate at n = 201, so it runs there only 4 times
    # a block; the random draws carry the n = 201 figures.  About 8 s.
    blocks = []
    for b in range(3):
        block = []
        for h, k in enumerate(SURFACE):
            block.append((k.name, 801, b))
            for i in range(18):
                if i % 9 == 0:
                    block.append(("critical", 201, 0))
                block.append(("random", 201, 36 * b + 18 * h + i))
        blocks.append(block)
    return blocks


WORKLOADS = {"cauchy": (CAUCHY, _cauchy_blocks),
             "isothermal": (ISOTHERMAL, _isothermal_blocks),
             "surface": (SURFACE, _surface_blocks)}
# Nominal wall time of one block on a 2-core x86-64 box.  A run of S
# seconds measures ceil(S / BLOCK_SECONDS) blocks: a count fixed by the
# arguments, not by the clock, so two runs with the same seed attempt the
# same ops and fail the same ones.
BLOCK_SECONDS = {"cauchy": 4.0, "isothermal": 32.0, "surface": 8.0}


def build_ops(workload: str, seed: int) -> list:
    """The workload's pass as a list of blocks of ops, inputs from ``seed``.

    Slots that map to the same (kind, n, draw mod kind.draws) share one
    input, so set-up makes each distinct input once.
    """
    kinds, blocks = WORKLOADS[workload]
    index = {k.name: i for i, k in enumerate(kinds)}
    made = {}
    out = []
    for block in blocks():
        ops = []
        for name, n, draw in block:
            kind = kinds[index[name]]
            key = (index[name], n, draw % kind.draws)
            if key not in made:
                made[key] = kind.make(n, np.random.default_rng([seed, *key]))
            ops.append(Op(kind=kind, n=n, seed=(seed, *key),
                          inputs=made[key]))
        out.append(ops)
    return out
