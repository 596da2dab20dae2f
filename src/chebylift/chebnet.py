"""Chebyshev nets in the Euclidean slice E = {0} x R^3.

A Chebyshev net is an immersion whose first fundamental form has
E = G = 1 and F = cos theta strictly inside (-1, 1).  First-kind nets are
built from two sphere curves as X = p0 + int T1 + int T2; for those the
metric coefficient F(u, v) = <T1(u), T2(v)> is evaluated directly, with no
differentiation.  Net points are stored as 3-vectors of E throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np
from scipy.interpolate import RectBivariateSpline

from .errors import (BadGrid, DegenerateMetric, DisjointnessViolated,
                     EmptyOverlap)
from .numerics import (Grid2D, SphereCurve, cumulative_integral,
                       cumulative_samples, diff_samples, grid_from_ranges,
                       partials, sample_curve)

DISJOINT_MARGIN = 1e-6
BISECT_DEPTH = 24        # bisections of a node cell in check_disjointness
BISECT_CELLS = 16384     # open cells allowed at one bisection depth
FIRST_KIND = "first_kind"
GENERAL = "general"
#: parameter range of both generators of the critical gallery net
_CRITICAL_RANGE = (-np.pi / 2 + 0.05, np.pi / 2 - 0.05)


@dataclass(frozen=True)
class NetSurface:
    """Sampled Chebyshev net with its first fundamental form and angle."""

    grid: Grid2D            # E-points, payload (nu, nv, 3)
    E: np.ndarray
    F: np.ndarray
    G: np.ndarray
    theta: np.ndarray
    kind: str
    p0: np.ndarray
    # check_disjointness report of the generators (first-kind nets only)
    disjointness: Optional["DisjointnessReport"] = None


@dataclass(frozen=True)
class EuclideanShape:
    """Gauss map, second fundamental form and Gaussian curvature of a net."""

    gauss_map: np.ndarray   # (nu, nv, 3) unit vectors
    e: np.ndarray
    f: np.ndarray
    g: np.ndarray
    K_T: np.ndarray


@dataclass(frozen=True)
class DisjointnessReport:
    passed: bool
    min_separation: float        # certified over the whole product
    margin: float
    at_u: float
    at_v: float
    sampled_separation: float    # at the sample nodes only


@dataclass(frozen=True)
class ChebyshevReport:
    passed: bool
    sup_e: float
    sup_g: float
    sup_f: float
    tol: float
    f_margin: float
    theta: Optional[np.ndarray]


@dataclass(frozen=True)
class SumOneReport:
    passed: bool
    sup_sum: float
    sup_f: float
    tol: float


def _min_affine_norm(d, a, b, al, be):
    """Rowwise min of |d + a x + b y| over |x| <= al, |y| <= be.

    The norm is convex, so the minimum is at the unconstrained minimizer
    when that lies in the box and on one of the four edges otherwise.
    """
    dot = lambda x, y: np.einsum("ij,ij->i", x, y)

    def edge(d0, e, lim):
        ee = dot(e, e)
        t = np.clip(-dot(d0, e) / np.where(ee > 0.0, ee, 1.0), -lim, lim)
        return np.linalg.norm(d0 + t[:, None] * e, axis=1)

    best = np.minimum.reduce(
        [edge(d + s * al[:, None] * a, b, be) for s in (-1.0, 1.0)]
        + [edge(d + s * be[:, None] * b, a, al) for s in (-1.0, 1.0)])
    aa, ab, bb, ad, bd = dot(a, a), dot(a, b), dot(b, b), dot(a, d), dot(b, d)
    det = aa * bb - ab * ab
    safe = np.where(det > 0.0, det, 1.0)
    x = (ab * bd - bb * ad) / safe
    y = (ab * ad - aa * bd) / safe
    inside = (det > 0.0) & (np.abs(x) <= al) & (np.abs(y) <= be)
    mid = np.linalg.norm(d + x[:, None] * a + y[:, None] * b, axis=1)
    return np.where(inside, np.minimum(best, mid), best)


def check_disjointness(T1: SphereCurve, T2: SphereCurve,
                       margin: float = DISJOINT_MARGIN) -> DisjointnessReport:
    """Certify T1(u) != +-T2(v) on the whole parameter product.

    The separation s(u, v) = min(|T1 - T2|, |T1 + T2|) is bounded from
    below on the cell of every node: the points of the product nearer to
    it than to any other node.  Far from a meeting, s at the node less
    (du/2) max|T1'| + (dv/2) max|T2'| clears the margin.  Cells where it
    does not are bisected.  On a sub-cell the curves are replaced by their
    quadratic Taylor polynomials at the node; the distance of those is at
    least the minimum of its affine part over the sub-cell less the
    quadratic term, and the Taylor remainder
    (1/6)(max|T1'''| (du/2)^3 + max|T2'''| (dv/2)^3) is subtracted.
    Derivatives come from the differenced samples, so the bound holds for
    resolved curves, whose derivatives between samples do not exceed their
    sampled maxima.

    A cell still not certified after ``BISECT_DEPTH`` bisections, or more
    than ``BISECT_CELLS`` open cells at one depth, fails the check.
    ``min_separation`` is the certified lower bound of s over the product
    (clipped at 0), and (at_u, at_v) is where that bound is smallest.
    """
    P1, P2 = T1.points, T2.points
    D1 = [diff_samples(P1, T1.dt, k) for k in (1, 2, 3)]
    D2 = [diff_samples(P2, T2.dt, k) for k in (1, 2, 3)]
    nrm = lambda x: np.linalg.norm(x, axis=1)
    hu, hv = 0.5 * T1.dt, 0.5 * T2.dt
    slack = hu * nrm(D1[0]).max() + hv * nrm(D2[0]).max()
    rem3 = (nrm(D1[2]).max() * hu**3 + nrm(D2[2]).max() * hv**3) / 6.0

    absF = P1 @ P2.T
    np.abs(absF, out=absF)
    sampled = float(np.sqrt(max(2.0 - 2.0 * absF.max(), 0.0)))
    # s = sqrt(2 - 2|F|) at the nodes; the cells where s - slack does not
    # clear the margin are bisected, the others bound s by s - slack
    ii, jj = np.nonzero(absF >= 1.0 - 0.5 * (margin + slack) ** 2)
    absF[ii, jj] = -1.0
    i, j = np.unravel_index(int(np.argmax(absF)), absF.shape)
    best = 2.0 if absF[i, j] < 0 else np.sqrt(2.0 - 2.0 * absF[i, j]) - slack
    at = (T1.ts[i], T2.ts[j])
    sg = np.where(np.einsum("ij,ij->i", P1[ii], P2[jj]) < 0.0, -1.0, 1.0)
    # node cells, clipped to the parameter ranges
    lo_u, hi_u = np.where(ii == 0, 0.0, -hu), np.where(ii == T1.n - 1, 0.0, hu)
    lo_v, hi_v = np.where(jj == 0, 0.0, -hv), np.where(jj == T2.n - 1, 0.0, hv)
    du, al = 0.5 * (lo_u + hi_u), 0.5 * (hi_u - lo_u)
    dv, be = 0.5 * (lo_v + hi_v), 0.5 * (hi_v - lo_v)
    for _ in range(BISECT_DEPTH + 1):
        if ii.size == 0 or ii.size > BISECT_CELLS:
            break
        c1, c2 = D1[1][ii], D2[1][jj]
        a = D1[0][ii] + du[:, None] * c1
        b = -sg[:, None] * (D2[0][jj] + dv[:, None] * c2)
        q1 = P1[ii] + du[:, None] * (D1[0][ii] + 0.5 * du[:, None] * c1)
        q2 = P2[jj] + dv[:, None] * (D2[0][jj] + 0.5 * dv[:, None] * c2)
        lb = (_min_affine_norm(q1 - sg[:, None] * q2, a, b, al, be)
              - 0.5 * (nrm(c1) * al**2 + nrm(c2) * be**2) - rem3)
        k = int(np.argmin(lb))
        if lb[k] < best:
            best = float(lb[k])
            at = (T1.ts[ii[k]] + du[k], T2.ts[jj[k]] + dv[k])
        open_ = lb <= margin
        ii, jj, sg = (np.tile(x[open_], 4) for x in (ii, jj, sg))
        al, be = 0.5 * al[open_], 0.5 * be[open_]
        du = np.concatenate([du[open_] + s * al for s in (-1, -1, 1, 1)])
        dv = np.concatenate([dv[open_] + s * be for s in (-1, 1, -1, 1)])
        al, be = np.tile(al, 4), np.tile(be, 4)
    certified = ii.size == 0
    sep = max(float(best), 0.0) if certified else 0.0
    return DisjointnessReport(passed=certified,
                              min_separation=sep, margin=margin,
                              at_u=float(at[0]), at_v=float(at[1]),
                              sampled_separation=sampled)


def build_first_kind(T1: SphereCurve, T2: SphereCurve, p0) -> NetSurface:
    """First-kind net X(u, v) = p0 + int_0^u T1 + int_0^v T2.

    Integrals are taken from the node nearest the curve parameter 0 by
    ``cumulative_integral``; E = G = 1 up to quadrature error and F is
    exact.

    Generators that meet at the samples (sampled separation at most
    ``DISJOINT_MARGIN``) are rejected.  The net is judged at its samples,
    so a meeting between samples is not an error here; the verdict of
    ``check_disjointness`` over the whole product is kept in
    ``disjointness`` for callers that need the continuous generators
    disjoint, such as ``lift.build_minimal``.
    """
    rep = check_disjointness(T1, T2)
    if rep.sampled_separation <= DISJOINT_MARGIN:
        raise DisjointnessViolated(
            f"generators meet near u={rep.at_u:.6g}, v={rep.at_v:.6g} "
            f"(sampled separation {rep.sampled_separation:.3e})",
            u=rep.at_u, v=rep.at_v)
    p0 = np.asarray(p0, dtype=float)
    I1 = cumulative_integral(T1).points
    I2 = cumulative_integral(T2).points
    X = p0[None, None, :] + I1[:, None, :] + I2[None, :, :]
    F = T1.points @ T2.points.T
    theta = np.arccos(np.clip(F, -1.0, 1.0))
    grid = Grid2D(u_min=T1.t_min, v_min=T2.t_min, du=T1.dt, dv=T2.dt, values=X)
    ones = np.ones_like(F)
    return NetSurface(grid=grid, E=ones, F=F, G=ones.copy(), theta=theta,
                      kind=FIRST_KIND, p0=p0, disjointness=rep)


def _partials_and_form(g: Grid2D) -> tuple:
    """X_u, X_v and the first-form coefficients E, F, G by differencing."""
    if g.values.ndim != 3 or g.values.shape[2] != 3:
        raise BadGrid("first_form expects a grid of E-points")
    Xu = partials(g, "u").values
    Xv = partials(g, "v").values
    E = np.einsum("ijk,ijk->ij", Xu, Xu)
    F = np.einsum("ijk,ijk->ij", Xu, Xv)
    G = np.einsum("ijk,ijk->ij", Xv, Xv)
    return Xu, Xv, E, F, G


def first_form(g: Grid2D) -> tuple:
    """Coefficients (E, F, G) of the first fundamental form by differencing."""
    return _partials_and_form(g)[2:]


def is_chebyshev(g: Union[Grid2D, NetSurface],
                 tol: float = 1e-6) -> ChebyshevReport:
    """Verify E = G = 1 and |F| <= 1 - ``DISJOINT_MARGIN`` by differencing
    the point grid."""
    grid = g.grid if isinstance(g, NetSurface) else g
    E, F, G = first_form(grid)
    sup_e = float(np.abs(E - 1.0).max())
    sup_g = float(np.abs(G - 1.0).max())
    sup_f = float(np.abs(F).max())
    passed = sup_e <= tol and sup_g <= tol and sup_f <= 1.0 - DISJOINT_MARGIN
    theta = np.arccos(np.clip(F, -1.0, 1.0)) if passed else None
    return ChebyshevReport(passed=passed, sup_e=sup_e, sup_g=sup_g,
                           sup_f=sup_f, tol=tol, f_margin=DISJOINT_MARGIN,
                           theta=theta)


def _diagonal_axes(x1: np.ndarray, x2: np.ndarray, direction: str):
    """Source abscissae of the square target grid x1 x x2, and index maps.

    Returns increasing axes ud, vd of 2n - 1 values each and (n, n) integer
    maps iu, iv such that target node (a, b) reads source point
    (ud[iu[a, b]], vd[iv[a, b]]).  Each axis value is computed from one
    representative pair (a, b) of x1 and x2 entries.
    """
    n = x1.size
    k = np.arange(2 * n - 1)
    d = k - (n - 1)
    # in-range index pairs (hi, lo) with difference d and (ka, k - ka)
    # with sum k
    hi, lo = np.maximum(d, 0), np.maximum(-d, 0)
    ka = np.minimum(k, n - 1)
    a, b = np.arange(n)[:, None], np.arange(n)[None, :]
    if direction == "uv_to_ts":
        # u = (x1[a] - x2[b]) / 2 by a - b, v = (x1[a] + x2[b]) / 2 by a + b
        ud = (x1[hi] - x2[lo]) / 2.0
        vd = (x1[ka] + x2[k - ka]) / 2.0
        return ud, vd, a - b + n - 1, a + b
    # u = x1[a] + x2[b] by a + b, v = x2[b] - x1[a] by b - a
    ud = x1[ka] + x2[k - ka]
    vd = x2[hi] - x1[lo]
    return ud, vd, a + b, b - a + n - 1


def equivalent_immersion(g: Grid2D, direction: str = "uv_to_ts") -> Grid2D:
    """Resample through the linear coordinate change t = u+v, s = -u+v.

    Forward maps a (u, v) grid to X~(t, s) = X((t-s)/2, (t+s)/2); inverse
    maps a (t, s) grid to X(u, v) = Y(u+v, -u+v).  The target rectangle is
    the largest one inscribed in the rotated image of the source domain,
    sampled with the source's node counts; values come from a bicubic
    spline of the source samples.

    On a square grid both target axes share one spacing, so each source
    abscissa depends on a - b or a + b of the target node (a, b) alone:
    every target is a node of the (2n-1) x (2n-1) tensor grid of those
    abscissae, where the spline is evaluated once and read off by index.
    A non-square grid falls back to evaluation at the n_u n_v scattered
    source points.
    """
    if direction not in ("uv_to_ts", "ts_to_uv"):
        raise BadGrid(f"unknown direction {direction!r}")
    if g.nu < 4 or g.nv < 4:
        raise EmptyOverlap("source grid too small for the resampling spline")
    us, vs = g.us, g.vs
    Lu = us[-1] - us[0]
    Lv = vs[-1] - vs[0]
    # in both directions a target square of half-width m/4 per axis fits
    half = min(Lu, Lv) / 4.0
    if half <= 0:
        raise EmptyOverlap("inscribed rectangle degenerates")
    uc, vc = (us[0] + us[-1]) / 2.0, (vs[0] + vs[-1]) / 2.0
    if direction == "uv_to_ts":
        c1, c2 = uc + vc, vc - uc
        half1 = half2 = 2.0 * half  # |t - tc| + |s - sc| <= min(Lu, Lv)
    else:
        c1, c2 = (uc - vc) / 2.0, (uc + vc) / 2.0
        half1 = half2 = half
    shrink = 1.0 - 1e-12
    x1 = np.linspace(c1 - half1 * shrink, c1 + half1 * shrink, g.nu)
    x2 = np.linspace(c2 - half2 * shrink, c2 + half2 * shrink, g.nv)

    vals = g.values
    scalar = vals.ndim == 2
    comps = vals[..., None] if scalar else vals
    if g.nu == g.nv:
        ud, vd, iu, iv = _diagonal_axes(x1, x2, direction)

        def evaluate(sp):
            return sp(ud, vd)[iu, iv]
    else:
        A, B = np.meshgrid(x1, x2, indexing="ij")
        if direction == "uv_to_ts":
            src_u, src_v = (A - B) / 2.0, (A + B) / 2.0
        else:
            src_u, src_v = A + B, B - A

        def evaluate(sp):
            return sp.ev(src_u.ravel(), src_v.ravel()).reshape(A.shape)
    out = np.empty((g.nu, g.nv, comps.shape[-1]))
    for k in range(comps.shape[-1]):
        sp = RectBivariateSpline(us, vs, comps[..., k], kx=3, ky=3, s=0)
        out[..., k] = evaluate(sp)
    if scalar:
        out = out[..., 0]
    return Grid2D(u_min=float(x1[0]), v_min=float(x2[0]),
                  du=float(x1[1] - x1[0]), dv=float(x2[1] - x2[0]), values=out)


def check_sum_one(g, tol: float = 1e-8) -> SumOneReport:
    """Check E(t,s) + G(t,s) = 1, the Chebyshev condition in (t, s) form.

    Accepts a point grid (first form by differencing) or a precomputed
    (E, F, G) triple; F is reported separately, not required to vanish.
    """
    if isinstance(g, Grid2D):
        E, F, G = first_form(g)
    else:
        E, F, G = (np.asarray(x, dtype=float) for x in g)
    sup_sum = float(np.abs(E + G - 1.0).max())
    sup_f = float(np.abs(F).max())
    return SumOneReport(passed=sup_sum <= tol, sup_sum=sup_sum,
                        sup_f=sup_f, tol=tol)


def euclidean_shape(n: NetSurface) -> EuclideanShape:
    """Gauss map, second form and Gaussian curvature of the net in E."""
    g = n.grid
    Xu, Xv, E, F, G = _partials_and_form(g)
    det = E * G - F * F
    if det.min() <= 1e-9:
        raise DegenerateMetric(
            f"EG - F^2 reaches {det.min():.3e}; shape quantities undefined")
    cross = np.cross(Xu, Xv)
    gauss = cross / np.linalg.norm(cross, axis=-1)[..., None]
    Xuu = partials(g, "uu").values
    Xvv = partials(g, "vv").values
    Xuv = partials(g.with_values(Xu), "v").values
    e = np.einsum("ijk,ijk->ij", Xuu, gauss)
    f = np.einsum("ijk,ijk->ij", Xuv, gauss)
    gg = np.einsum("ijk,ijk->ij", Xvv, gauss)
    K_T = (e * gg - f * f) / det
    return EuclideanShape(gauss_map=gauss, e=e, f=f, g=gg, K_T=K_T)


def sine_gordon_residual(n: NetSurface, shape: EuclideanShape) -> Grid2D:
    """Residual theta_uv + K_T sin theta on interior nodes.

    Interior means nodes where the centered stencils apply (two-node trim);
    near theta = 0 or pi the arccos differencing degenerates and values
    there should be judged with the usual degenerate-angle mask.
    """
    g = n.grid
    theta_grid = Grid2D(u_min=g.u_min, v_min=g.v_min, du=g.du, dv=g.dv,
                        values=n.theta)
    theta_uv = partials(theta_grid, "uv").values
    res = theta_uv + shape.K_T * np.sin(n.theta)
    it = slice(2, -2)
    return Grid2D(u_min=g.u_min + 2 * g.du, v_min=g.v_min + 2 * g.dv,
                  du=g.du, dv=g.dv, values=res[it, it])


# ---------------------------------------------------------------------------
# gallery

@dataclass(frozen=True)
class Gallery:
    """A gallery net with closed-form oracle fields.

    For ``critical`` the oracles are the metric coefficient F, the Gauss
    map, the second-form coefficients and K_T on the net grid.  For
    ``noncritical`` the rotational surface is provided on its native (t, s)
    grid together with closed-form first-form coefficients, and ``net``
    carries the Chebyshev-equivalent (u, v) immersion evaluated exactly.
    """

    name: str
    net: NetSurface
    oracles: dict
    ts_grid: Optional[Grid2D] = None
    ts_forms: Optional[tuple] = None


def _critical_gallery(nu, nv) -> Gallery:
    us = np.linspace(*_CRITICAL_RANGE, nu)
    vs = np.linspace(*_CRITICAL_RANGE, nv)
    U, V = np.meshgrid(us, vs, indexing="ij")
    # X = int (cos, sin, 0) du + int (0, sin, cos) dv, in closed form
    X = np.stack([np.sin(U), 2.0 - np.cos(U) - np.cos(V), np.sin(V)], axis=-1)
    grid = grid_from_ranges(_CRITICAL_RANGE, _CRITICAL_RANGE, X)
    F = np.sin(U) * np.sin(V)
    theta = np.arccos(np.clip(F, -1.0, 1.0))
    ones = np.ones_like(F)
    net = NetSurface(grid=grid, E=ones, F=F, G=ones.copy(), theta=theta,
                     kind=FIRST_KIND, p0=np.zeros(3))
    root = np.sqrt(1.0 - np.sin(U)**2 * np.sin(V)**2)
    oracles = {
        "F": F,
        "gauss_map": np.stack([np.sin(U) * np.cos(V),
                               -np.cos(U) * np.cos(V),
                               np.cos(U) * np.sin(V)], axis=-1) / root[..., None],
        "second_e": -np.cos(V) / root,
        "second_f": np.zeros_like(F),
        "second_g": -np.cos(U) / root,
        "K_T": np.cos(U) * np.cos(V) / root**4,
    }
    return Gallery(name="critical", net=net, oracles=oracles)


class _NoncriticalProfile:
    """Profile functions of the rotational example: x = tanh(s)/2 and y by
    quadrature of y' = sqrt(4 - tanh^2 s - sech^4 s)/2."""

    def __init__(self):
        from scipy.interpolate import CubicSpline
        sf = np.linspace(0.0, 2.5, 25001)   # step 1e-4
        yv = cumulative_samples(self.yp(sf), sf[1] - sf[0])
        self._yspl = CubicSpline(sf, yv)

    @staticmethod
    def x(s):
        return np.tanh(s) / 2.0

    @staticmethod
    def xp(s):
        return 1.0 / np.cosh(s)**2 / 2.0

    @staticmethod
    def yp(s):
        return 0.5 * np.sqrt(4.0 - np.tanh(s)**2 - 1.0 / np.cosh(s)**4)

    def y(self, s):
        return self._yspl(s)

    def y_deriv(self, s):
        return self._yspl(s, 1)


_PROFILE = None


def _profile() -> _NoncriticalProfile:
    global _PROFILE
    if _PROFILE is None:
        _PROFILE = _NoncriticalProfile()
    return _PROFILE


def _noncritical_gallery(nu, nv) -> Gallery:
    t_range = (-np.pi + 0.05, np.pi - 0.05)
    s_range = (0.25, 2.0)  # s = 0 degenerates the immersion
    pr = _profile()
    ts = np.linspace(*t_range, nu)
    ss = np.linspace(*s_range, nv)
    T, S = np.meshgrid(ts, ss, indexing="ij")
    Y = np.stack([pr.x(S) * np.cos(T), pr.x(S) * np.sin(T), pr.y(S)], axis=-1)
    ts_grid = grid_from_ranges(t_range, s_range, Y)
    Yt = np.stack([-pr.x(S) * np.sin(T), pr.x(S) * np.cos(T),
                   np.zeros_like(S)], axis=-1)
    Ys = np.stack([pr.xp(S) * np.cos(T), pr.xp(S) * np.sin(T),
                   pr.y_deriv(S)], axis=-1)
    E_ts = np.einsum("ijk,ijk->ij", Yt, Yt)
    F_ts = np.einsum("ijk,ijk->ij", Yt, Ys)
    G_ts = np.einsum("ijk,ijk->ij", Ys, Ys)

    # Chebyshev-equivalent (u, v) immersion on the inscribed square,
    # evaluated exactly through t = u + v, s = -u + v.
    Lt, Ls = ts[-1] - ts[0], ss[-1] - ss[0]
    half = min(Lt, Ls) / 4.0
    uc = (ts[0] + ts[-1]) / 4.0 - (ss[0] + ss[-1]) / 4.0
    vc = (ts[0] + ts[-1]) / 4.0 + (ss[0] + ss[-1]) / 4.0
    us = np.linspace(uc - half, uc + half, nu)
    vs = np.linspace(vc - half, vc + half, nv)
    U, V = np.meshgrid(us, vs, indexing="ij")
    Tq, Sq = U + V, V - U
    X = np.stack([pr.x(Sq) * np.cos(Tq), pr.x(Sq) * np.sin(Tq),
                  pr.y(Sq)], axis=-1)
    grid = grid_from_ranges((us[0], us[-1]), (vs[0], vs[-1]), X)
    F = 2.0 * pr.x(Sq)**2 - 1.0
    theta = np.arccos(np.clip(F, -1.0, 1.0))
    ones = np.ones_like(F)
    net = NetSurface(grid=grid, E=ones, F=F, G=ones.copy(), theta=theta,
                     kind=GENERAL, p0=X[nu // 2, nv // 2].copy())
    return Gallery(name="noncritical", net=net, oracles={"F": F},
                   ts_grid=ts_grid, ts_forms=(E_ts, F_ts, G_ts))


def gallery(name: str, nu: int = 201, nv: int = 201) -> Gallery:
    """The two worked examples: ``critical`` (minimal lift) and
    ``noncritical`` (rotational surface with nonvanishing H)."""
    if name == "critical":
        return _critical_gallery(nu, nv)
    if name == "noncritical":
        return _noncritical_gallery(nu, nv)
    raise BadGrid(f"unknown gallery entry {name!r}")


def gallery_generators(n: int = 201):
    """Sphere-curve generators of the critical gallery net."""
    T1 = sample_curve(lambda t: np.stack([np.cos(t), np.sin(t), 0 * t], axis=-1),
                      _CRITICAL_RANGE, n, cls=SphereCurve)
    T2 = sample_curve(lambda t: np.stack([0 * t, np.sin(t), np.cos(t)], axis=-1),
                      _CRITICAL_RANGE, n, cls=SphereCurve)
    return T1, T2
