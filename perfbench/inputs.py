"""Seeded input generation for the benchmark workloads.

The helpers below are ported from the tier-1 test helpers (``helix_data``,
``data_from_lift``, ``data_from_null_pair``, ``normalized_trig_curve``,
``line_with_n3``) rather than imported from ``tests/``, so that editing a
test never changes what the benchmark measures.  Every random draw comes
from a ``numpy.random.Generator`` seeded by the op's own seed.

Closed forms used as oracles live here too, next to the inputs they judge.
"""

from __future__ import annotations

import numpy as np

from chebylift import bjorling as bj
from chebylift import lift as lf
from chebylift import minkowski as mk
from chebylift import numerics as nm

# Gauss-Legendre rule used to integrate the analytic generators for oracles.
_GL_X, _GL_W = np.polynomial.legendre.leggauss(24)


def integrate_from_zero(fn, ts, pieces=8):
    """Integral of a vectorized (m,) -> (m, k) callable from 0 to each t.

    Composite Gauss-Legendre on ``pieces`` equal subintervals, accurate to
    roundoff for the smooth generators used here.
    """
    ts = np.asarray(ts, dtype=float)
    edges = np.linspace(0.0, 1.0, pieces + 1)
    out = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid, half = (lo + hi) / 2.0, (hi - lo) / 2.0
        nodes = ts[:, None] * (mid + half * _GL_X[None, :])       # (m, q)
        vals = np.asarray(fn(nodes.ravel()), dtype=float)
        vals = vals.reshape(nodes.shape + (-1,))
        out = out + half * ts[:, None] * np.einsum("q,mqk->mk", _GL_W, vals)
    return out


def trig_sphere_fn(rng, center, max_freq=2):
    """Random trig-polynomial map into the unit sphere around ``center``."""
    center = np.asarray(center, dtype=float)
    coef = 0.3 * rng.standard_normal((3, max_freq, 2))

    def fn(t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        val = np.tile(center, (t.size, 1))
        for i in range(3):
            for k in range(max_freq):
                val[:, i] += (coef[i, k, 0] * np.cos((k + 1) * t)
                              + coef[i, k, 1] * np.sin((k + 1) * t))
        return val / np.linalg.norm(val, axis=1, keepdims=True)

    return fn


def normalized_trig_curve(rng, n, t_range, center):
    fn = trig_sphere_fn(rng, center)
    return nm.sample_curve(fn, t_range, n, cls=nm.SphereCurve), fn


def data_from_lift(surf, j=None):
    """Cauchy data (c, D) along the row v = vs[j] of a null-coordinate lift.

    The normal frame is evaluated on the 9-row strip around row j only: the
    5-point centered stencil at j reads the same nodes as on the full grid,
    so the data are the same and set-up skips an (n, n) frame.
    """
    g = surf.grid
    if j is None:
        j = int(np.argmin(np.abs(g.vs)))
    rows = slice(j - 4, j + 5)
    strip = lf.LiftSurface(
        grid=nm.Grid2D(u_min=g.u_min, v_min=float(g.vs[j - 4]), du=g.du,
                       dv=g.dv, values=g.values[:, rows]),
        theta=surf.theta[:, rows], g12=surf.g12[:, rows])
    fr = lf.normal_frame(strip)
    mkc = lambda pts: nm.SampledCurve(t_min=g.u_min, dt=g.du, points=pts)
    return bj.BjorlingData(c=mkc(g.values[:, j, :].copy()),
                           a=mkc(fr.etilde[:, 4, :].copy()),
                           b=mkc(fr.e2[:, 4, :].copy()))


def data_from_null_pair(alpha_prime, n3_of_u, t_range, n, seed=mk.D2):
    """Data with c' = d0 + n0(u) and transversal null normal d0 + n3(u);
    D(u) is the complement of span{l0, l3} built with the triple wedge."""
    ts = np.linspace(*t_range, n)
    dt = ts[1] - ts[0]
    n0 = np.asarray(alpha_prime(ts), dtype=float)
    n3 = np.asarray(n3_of_u(ts), dtype=float)
    alpha = nm.cumulative_samples(n0, dt)
    alpha -= alpha[int(np.argmin(np.abs(ts)))]
    c_pts = np.concatenate([ts[:, None], alpha], axis=1)
    l0 = np.concatenate([np.ones((n, 1)), n0], axis=1)
    l3 = np.concatenate([np.ones((n, 1)), n3], axis=1)
    a_raw = mk.wedge3(l0, l3, np.tile(seed, (n, 1)))
    a_pts = a_raw / np.sqrt(mk.inner(a_raw, a_raw))[:, None]
    b_raw = mk.wedge3(l0, l3, a_pts)
    b_pts = b_raw / np.sqrt(mk.inner(b_raw, b_raw))[:, None]
    mkc = lambda pts: nm.SampledCurve(t_min=float(ts[0]), dt=float(dt),
                                      points=pts)
    return bj.BjorlingData(c=mkc(c_pts), a=mkc(a_pts), b=mkc(b_pts))


def helix_data(n, radius, t_range=(-2.0, 2.0)):
    """Unit-speed helix of the given radius and unit pitch.

    kappa = r/c^2 and tor = 1/c^2 with c^2 = r^2 + 1; the compatible
    transversal normal cos(th) T + sin(th) B with tan(th) = kappa/tor is
    the constant d3.  Returns the data and th.
    """
    c = np.hypot(radius, 1.0)

    def T(ts):
        return np.stack([-radius * np.sin(ts / c) / c,
                         radius * np.cos(ts / c) / c,
                         np.full_like(ts, 1.0 / c)], axis=1)

    th = float(np.arctan(radius))
    n3 = lambda ts: np.tile([0.0, 0.0, 1.0], (ts.size, 1))
    return data_from_null_pair(T, n3, t_range, n), th


def line_with_n3(n3_fn, n, t_range=(-1.0, 1.0), J=(-1.0, 1.0)):
    """Lightlike-line data c = t (d0 + d1) with a sampled n3 extension."""
    d = data_from_null_pair(
        lambda ts: np.stack([np.ones_like(ts), 0 * ts, 0 * ts], axis=1),
        lambda ts: np.tile([0.0, 0.0, 1.0], (ts.size, 1)), t_range, n)
    return d, nm.sample_curve(n3_fn, J, n, cls=nm.SphereCurve)


def sphere_curve_like(grid_axis_vals, fn):
    """Sphere curve sampled on the nodes of an existing grid axis."""
    vs = np.asarray(grid_axis_vals, dtype=float)
    return nm.SphereCurve(t_min=float(vs[0]), dt=float(vs[1] - vs[0]),
                          points=np.asarray(fn(vs), dtype=float))


# ---------------------------------------------------------------------------
# closed forms

CRITICAL_RANGE = (-np.pi / 2 + 0.05, np.pi / 2 - 0.05)


def critical_T1(t):
    t = np.asarray(t, dtype=float)
    return np.stack([np.cos(t), np.sin(t), 0 * t], axis=-1)


def critical_T2(t):
    t = np.asarray(t, dtype=float)
    return np.stack([0 * t, np.sin(t), np.cos(t)], axis=-1)


def critical_lift_exact(us, vs):
    """f = (u+v, sin u, 2 - cos u - cos v, sin v) of the critical gallery."""
    U, V = np.meshgrid(us, vs, indexing="ij")
    return np.stack([U + V, np.sin(U), 2.0 - np.cos(U) - np.cos(V),
                     np.sin(V)], axis=-1)


def critical_shape_exact(us, vs):
    """Gauss map, second form and K_T of the critical gallery net."""
    U, V = np.meshgrid(us, vs, indexing="ij")
    root = np.sqrt(1.0 - np.sin(U)**2 * np.sin(V)**2)
    gauss = np.stack([np.sin(U) * np.cos(V), -np.cos(U) * np.cos(V),
                      np.cos(U) * np.sin(V)], axis=-1) / root[..., None]
    return {"gauss_map": gauss, "e": -np.cos(V) / root,
            "f": np.zeros_like(U), "g": -np.cos(U) / root,
            "K_T": np.cos(U) * np.cos(V) / root**4}


def first_kind_lift_exact(fn1, fn2, us, vs):
    """f = (u+v) d0 + int_0^u T1 + int_0^v T2 for analytic generators."""
    I1 = integrate_from_zero(fn1, us)
    I2 = integrate_from_zero(fn2, vs)
    X = I1[:, None, :] + I2[None, :, :]
    x0 = us[:, None] + vs[None, :]
    return np.concatenate([x0[..., None], X], axis=-1)


def _profile_yp(s):
    s = np.asarray(s, dtype=float)
    return (0.5 * np.sqrt(4.0 - np.tanh(s)**2 - 1.0 / np.cosh(s)**4))[:, None]


def noncritical_lift_exact(us, vs):
    """Lift of the rotational (noncritical) gallery net at t = u+v, s = v-u:
    X = (x(s) cos t, x(s) sin t, y(s)) with x = tanh(s)/2 and y = int yp."""
    U, V = np.meshgrid(us, vs, indexing="ij")
    T, S = U + V, V - U
    # S takes about 2n distinct values on a square grid; integrate those once
    s_vals, where = np.unique(np.round(S, 12), return_inverse=True)
    y = integrate_from_zero(_profile_yp, s_vals)[:, 0][where].reshape(S.shape)
    x = np.tanh(S) / 2.0
    return np.stack([T, x * np.cos(T), x * np.sin(T), y], axis=-1)
