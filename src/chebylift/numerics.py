"""Grid-based numerical kernels shared by the geometry modules.

Uniform grids only.  Derivatives use 5-point stencils centered in the
interior (fourth order for first derivatives) and one-sided windows of
max(5, order + 3) nodes at the boundary, so that every boundary stencil is
at least O(h^3) (a 5-point one-sided third derivative is O(h^2), with 7
times the error constant of the centred one); all are exact on polynomials
of degree <= 2.  Every stencil is applied to differences of samples, so the
derivative of constant data is exactly 0 in floating point, not a roundoff
residue that later divisions and differencings would amplify.  Cumulative
quadrature sums a 4-point rule per interval, global error O(dt^4) and
smooth from node to node, so quadrature error stays negligible against
differentiation error downstream.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from math import factorial
from typing import Optional

import numpy as np

from .errors import BadGrid, BadSphereCurve, NotRegular

KAPPA_TOL = 1e-7
STENCIL_WIDTH = 5


# ---------------------------------------------------------------------------
# domain types

@dataclass(frozen=True)
class Grid2D:
    """Uniformly spaced rectangular grid; node (i, j) sits at
    (u_min + i*du, v_min + j*dv).  ``values`` is (nu, nv) for scalar fields
    or (nu, nv, k) for vector payloads."""

    u_min: float
    v_min: float
    du: float
    dv: float
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if v.ndim not in (2, 3):
            raise BadGrid("grid payload must be (nu, nv) or (nu, nv, k)")
        if v.shape[0] < 3 or v.shape[1] < 3:
            raise BadGrid("grids need at least 3 nodes per direction")
        if not (self.du > 0 and self.dv > 0):
            raise BadGrid("grid spacings must be positive")
        if not np.all(np.isfinite(v)):
            raise BadGrid("grid values must be finite")

    @property
    def nu(self) -> int:
        return self.values.shape[0]

    @property
    def nv(self) -> int:
        return self.values.shape[1]

    @property
    def us(self) -> np.ndarray:
        return self.u_min + self.du * np.arange(self.nu)

    @property
    def vs(self) -> np.ndarray:
        return self.v_min + self.dv * np.arange(self.nv)

    def with_values(self, values: np.ndarray) -> "Grid2D":
        return replace(self, values=values)

    def base_index(self) -> tuple:
        """Node nearest to (u, v) = (0, 0)."""
        return (int(np.argmin(np.abs(self.us))), int(np.argmin(np.abs(self.vs))))


def grid_from_ranges(u_range, v_range, values) -> Grid2D:
    """Grid over [u0, u1] x [v0, v1] whose node counts come from ``values``."""
    values = np.asarray(values, dtype=float)
    nu, nv = values.shape[0], values.shape[1]
    du = (u_range[1] - u_range[0]) / (nu - 1)
    dv = (v_range[1] - v_range[0]) / (nv - 1)
    return Grid2D(u_min=u_range[0], v_min=v_range[0], du=du, dv=dv, values=values)


@dataclass(frozen=True)
class SampledCurve:
    """Uniformly sampled curve; node i sits at t_min + i*dt.  ``points`` is
    (n, k) with k = 3 for curves in E and k = 4 for curves in R^4_1."""

    t_min: float
    dt: float
    points: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.points, dtype=float)
        object.__setattr__(self, "points", p)
        if p.ndim != 2:
            raise BadGrid("curve points must be a (n, k) array")
        if p.shape[0] < 5:
            raise BadGrid("curves need at least 5 nodes")
        if not self.dt > 0:
            raise BadGrid("curve spacing must be positive")
        if not np.all(np.isfinite(p)):
            raise BadGrid("curve points must be finite")

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def ts(self) -> np.ndarray:
        return self.t_min + self.dt * np.arange(self.n)

    def base_index(self) -> int:
        """Node nearest to t = 0."""
        return int(np.argmin(np.abs(self.ts)))


@dataclass(frozen=True)
class SphereCurve(SampledCurve):
    """Curve into the unit sphere of E; points are 3-vectors of unit norm."""

    def __post_init__(self):
        super().__post_init__()
        if self.points.shape[1] != 3:
            raise BadSphereCurve("sphere-curve points must be 3-vectors in E")
        off = np.abs(np.linalg.norm(self.points, axis=1) - 1.0).max()
        if off > 1e-9:
            raise BadSphereCurve(
                f"curve leaves the unit sphere (max |norm - 1| = {off:.3e})")


def sample_curve(fn, t_range, n, cls=SampledCurve):
    """Sample a vectorized callable on n uniform nodes over [t0, t1]."""
    ts = np.linspace(t_range[0], t_range[1], n)
    pts = np.asarray(fn(ts), dtype=float)
    if pts.shape[0] != n:
        pts = pts.T
    return cls(t_min=float(ts[0]), dt=float(ts[1] - ts[0]), points=pts)


@dataclass(frozen=True)
class FrenetData:
    """Per-node Frenet apparatus of a curve in E.

    N, B and tor are only meaningful where ``degenerate`` is False
    (kappa above the curvature cutoff); they hold NaN elsewhere.
    """

    T: np.ndarray
    N: np.ndarray
    B: np.ndarray
    kappa: np.ndarray
    tor: np.ndarray
    degenerate: np.ndarray
    arclength: bool


# ---------------------------------------------------------------------------
# finite differences

def fd_weights(offsets: np.ndarray, order: int) -> np.ndarray:
    """Stencil weights (in units of h^-order) for nodes at integer offsets."""
    p = len(offsets)
    A = np.array([[o**k / factorial(k) for o in offsets] for k in range(p)])
    rhs = np.zeros(p)
    rhs[order] = 1.0
    return np.linalg.solve(A, rhs)


@lru_cache(maxsize=None)
def _window_weights(width: int, at: int, order: int) -> tuple:
    """Weights of the ``width``-node window for the node at position ``at``
    within it, as an immutable tuple (h = 1)."""
    return tuple(fd_weights(np.arange(width) - at, order))


def _apply_at(y: np.ndarray, width: int, at: int, order: int, h: float,
              start: int, count: int) -> np.ndarray:
    """Order-``order`` stencil of the ``width``-node window starting at row
    ``start``, for the node at position ``at`` in it, on ``count``
    consecutive rows.

    Every row enters as a difference, so the result is exactly 0 on
    constant data: the weight of the row at ``at`` is taken as minus the
    sum of the others.  A centred window pairs the rows at +-k, which for
    odd orders leaves one difference and one product per pair.  Terms are
    accumulated in place, so at most two row-sized temporaries are alive.
    """
    wts = _window_weights(width, at, order)
    scale = h ** -order
    rows = lambda j: y[start + j:start + j + count]
    ref = rows(at)
    if 2 * at + 1 != width:
        terms = ((wts[j], np.subtract(rows(j), ref))
                 for j in range(width) if j != at)
    elif order % 2:
        terms = ((0.5 * (wts[at + k] - wts[at - k]),
                  np.subtract(rows(at + k), rows(at - k)))
                 for k in range(1, at + 1))
    else:
        def pair(k):
            t = np.subtract(rows(at + k), ref)
            t += rows(at - k)
            t -= ref
            return t
        terms = ((0.5 * (wts[at + k] + wts[at - k]), pair(k))
                 for k in range(1, at + 1))
    acc = None
    for wt, diff in terms:
        diff *= wt * scale
        if acc is None:
            acc = diff
        else:
            acc += diff
    return acc


def diff_samples(values: np.ndarray, h: float, order: int, axis: int = 0) -> np.ndarray:
    """Differentiate uniformly sampled values along ``axis``.

    Interior rows use the centered window of min(5, n) nodes, boundary rows
    the one-sided window of min(max(5, order + 3), n) nodes.  The
    derivative of constant data is exactly 0.
    """
    y = np.moveaxis(np.asarray(values, dtype=float), axis, 0)
    n = y.shape[0]
    w = min(STENCIL_WIDTH, n)
    if w <= order:
        raise BadGrid(f"need more than {order} nodes for order-{order} derivatives")
    c = (w - 1) // 2
    s = n - w
    out = np.empty_like(y)
    out[c:s + c + 1] = _apply_at(y, w, c, order, h, 0, s + 1)
    wb = min(max(w, order + 3), n)
    sb = n - wb
    for i in range(c):
        out[i] = _apply_at(y, wb, i, order, h, 0, 1)[0]
    for i in range(s + c + 1, n):
        out[i] = _apply_at(y, wb, i - sb, order, h, sb, 1)[0]
    return np.moveaxis(out, 0, axis)


_PARTIALS = {"u", "v", "uu", "vv", "uv"}


def partials(g: Grid2D, which: str) -> Grid2D:
    """Partial derivative grid; ``which`` is one of u, v, uu, vv, uv.

    The mixed partial composes the two first-derivative operators, so it
    annihilates separable sums A(u) + B(v) exactly.
    """
    if which not in _PARTIALS:
        raise BadGrid(f"unknown partial {which!r}")
    vals = g.values
    if which == "u":
        out = diff_samples(vals, g.du, 1, axis=0)
    elif which == "v":
        out = diff_samples(vals, g.dv, 1, axis=1)
    elif which == "uu":
        out = diff_samples(vals, g.du, 2, axis=0)
    elif which == "vv":
        out = diff_samples(vals, g.dv, 2, axis=1)
    else:
        out = diff_samples(diff_samples(vals, g.du, 1, axis=0), g.dv, 1, axis=1)
    return g.with_values(out)


# ---------------------------------------------------------------------------
# quadrature

def cumulative_samples(values: np.ndarray, h: float) -> np.ndarray:
    """Cumulative integral from node 0 along axis 0.

    Each interval [x_{k-1}, x_k] gets the 4-point rule through its nearest
    nodes, h/24 (-y_{k-2} + 13 y_{k-1} + 13 y_k - y_{k+1}) inside and the
    shifted 4-point rules on the first and last interval.  Every node then
    carries the same smooth O(h^4) error; alternating rules for even and
    odd nodes would leave an odd/even error pattern that differencing
    amplifies.  Three nodes fall back to Simpson with a 3-point closure.
    """
    y = np.asarray(values, dtype=float)
    n = y.shape[0]
    if n < 3:
        raise BadGrid("cumulative integration needs at least 3 nodes")
    out = np.zeros_like(y)
    if n == 3:
        out[1] = (h / 12.0) * (5.0 * y[0] + 8.0 * y[1] - y[2])
        out[2] = (h / 3.0) * (y[0] + 4.0 * y[1] + y[2])
        return out
    step = np.empty_like(y[1:])
    step[0] = 9.0 * y[0] + 19.0 * y[1] - 5.0 * y[2] + y[3]
    step[1:-1] = 13.0 * (y[1:n - 2] + y[2:n - 1]) - (y[0:n - 3] + y[3:n])
    step[-1] = y[n - 4] - 5.0 * y[n - 3] + 19.0 * y[n - 2] + 9.0 * y[n - 1]
    out[1:] = np.cumsum((h / 24.0) * step, axis=0)
    return out


def cumulative_integral(c: SampledCurve, base_index: Optional[int] = None) -> SampledCurve:
    """Node-wise integral of the curve, zero at ``base_index``.

    Defaults to the node nearest t = 0, matching the integral-from-zero
    convention used by the net constructions.
    """
    if base_index is None:
        base_index = c.base_index()
    if not 0 <= base_index < c.n:
        raise BadGrid("base index outside the sample range")
    acc = cumulative_samples(c.points, c.dt)
    acc = acc - acc[base_index]
    return SampledCurve(t_min=c.t_min, dt=c.dt, points=acc)


# ---------------------------------------------------------------------------
# Frenet apparatus

def frenet(alpha: SampledCurve) -> FrenetData:
    """Frenet frame, curvature and torsion of a sampled curve in E.

    T = a'/|a'|, kappa = |a' x a''| / |a'|^3, N = T'/|T'|, B = T x N,
    tor = det(a', a'', a''') / |a' x a''|^2.  Nodes with kappa at most
    ``KAPPA_TOL`` are flagged degenerate and carry no N, B, tor.
    """
    pts = alpha.points
    if pts.shape[1] != 3:
        raise BadGrid("frenet expects a curve in E (3 components)")
    d1 = diff_samples(pts, alpha.dt, 1)
    d2 = diff_samples(pts, alpha.dt, 2)
    d3 = diff_samples(pts, alpha.dt, 3)
    speed = np.linalg.norm(d1, axis=1)
    if speed.min() <= 1e-8:
        raise NotRegular(f"curve is not regular (min |a'| = {speed.min():.3e})")

    T = d1 / speed[:, None]
    cr = np.cross(d1, d2)
    crn = np.linalg.norm(cr, axis=1)
    kappa = crn / speed**3
    degenerate = kappa <= KAPPA_TOL

    N = np.full_like(T, np.nan)
    B = np.full_like(T, np.nan)
    tor = np.full(alpha.n, np.nan)
    ok = ~degenerate
    if np.any(ok):
        Tp = diff_samples(T, alpha.dt, 1)
        Tpn = np.linalg.norm(Tp, axis=1)
        N[ok] = Tp[ok] / Tpn[ok, None]
        B[ok] = np.cross(T[ok], N[ok])
        tor[ok] = np.einsum("ij,ij->i", cr[ok], d3[ok]) / crn[ok]**2

    arclength = bool(np.abs(speed - 1.0).max() < 1e-6)
    return FrenetData(T=T, N=N, B=B, kappa=kappa, tor=tor,
                      degenerate=degenerate, arclength=arclength)


# ---------------------------------------------------------------------------
# norms

def sup_and_l2(g: Grid2D) -> tuple:
    """Sup norm and trapezoid-weighted L2 norm of a scalar grid."""
    v = g.values
    if v.ndim != 2:
        raise BadGrid("sup_and_l2 expects a scalar grid")
    wu = np.ones(g.nu)
    wu[0] = wu[-1] = 0.5
    wv = np.ones(g.nv)
    wv[0] = wv[-1] = 0.5
    weights = np.outer(wu, wv) * g.du * g.dv
    sup = float(np.abs(v).max())
    l2 = float(np.sqrt(np.sum(weights * v * v)))
    return sup, l2


def masked_sup(values: np.ndarray, mask: Optional[np.ndarray] = None) -> float:
    """Sup of |values| over unmasked nodes (mask True = keep)."""
    a = np.abs(np.asarray(values, dtype=float))
    if a.ndim == 3:
        a = np.linalg.norm(a, axis=-1)
    if mask is not None:
        if not np.any(mask):
            return 0.0
        a = a[mask]
    return float(a.max())
