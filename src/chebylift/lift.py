"""Timelike lifts of Chebyshev nets into R^4_1.

The lift of a net X is f(u, v) = (u + v) d0 + X(u, v); its coordinate
curves are lightlike and the induced metric is 2*(-1 + cos theta) du dv / 2,
i.e. g12 = -1 + cos theta = -2 sin^2(theta/2).  Minimal lifts are exactly
the sums of two lightlike curves f = P0 + (u+v) d0 + int n0 + int n3 with
n0, n3 on the unit sphere of E.

Nodes where the net angle approaches 0 or pi are excluded from the
quantities that divide by sin theta or 1 - cos theta; every such operation
returns the offending-node mask instead of failing globally.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import minkowski as mk
from .chebnet import (NetSurface, build_first_kind, equivalent_immersion,
                      euclidean_shape)
from .errors import (BadGrid, BadInput, DegenerateAngle, MissingSource,
                     NotChebyshev, NotMinimal)
from .numerics import Grid2D, SphereCurve, partials, masked_sup

#: nodes with 1 - |cos theta| below this are excluded from angle-divided sups
ANGLE_MARGIN = 0.1
MINIMAL_TOL = 1e-5

NULL_COORDS = "null"
ISOTHERMAL_COORDS = "isothermal"


@dataclass(frozen=True)
class LiftSurface:
    """Sampled surface f in R^4_1 with its angle field.

    ``coords`` is "null" for (u, v) lifts with lightlike coordinate curves
    and "isothermal" for the (t, s) form f~ = t d0 + X~(t, s).
    """

    grid: Grid2D            # payload (nu, nv, 4)
    theta: np.ndarray
    g12: np.ndarray         # -1 + cos theta
    source: Optional[NetSurface] = None
    coords: str = NULL_COORDS


@dataclass(frozen=True)
class NormalFrame:
    """Spacelike orthonormal normal frame (e~, e2) along a null lift."""

    etilde: np.ndarray      # (nu, nv, 4)
    e2: np.ndarray          # (nu, nv, 4)
    degenerate: np.ndarray  # True where sin theta is below cutoff


@dataclass(frozen=True)
class MaskedField:
    """A nodewise field together with its degenerate-angle mask."""

    values: np.ndarray
    degenerate: np.ndarray

    def sup(self) -> float:
        return masked_sup(self.values, ~self.degenerate)


@dataclass(frozen=True)
class NullCoordReport:
    sup_fu_fu: float
    sup_fv_fv: float
    sup_cross: float
    interior_trim: int


@dataclass(frozen=True)
class HParallelReport:
    sup_off_e2: float
    sup_dot_etilde: float


@dataclass(frozen=True)
class IsothermalReport:
    sup_tt: float
    sup_ss: float
    sup_ts: float


def lift_net(n: NetSurface, tol: float = 1e-6) -> LiftSurface:
    """Lift a verified Chebyshev net: f = (u + v) d0 + X."""
    res = max(np.abs(n.E - 1.0).max(), np.abs(n.G - 1.0).max())
    if res > tol or np.abs(n.F).max() >= 1.0:
        raise NotChebyshev(f"net fails E = G = 1 within {tol:g} "
                           f"(residual {res:.3e})")
    g = n.grid
    x0 = g.us[:, None] + g.vs[None, :]
    vals = np.concatenate([x0[..., None], g.values], axis=-1)
    grid = Grid2D(u_min=g.u_min, v_min=g.v_min, du=g.du, dv=g.dv, values=vals)
    return LiftSurface(grid=grid, theta=n.theta, g12=n.F - 1.0, source=n,
                       coords=NULL_COORDS)


def verify_null_coords(s: LiftSurface) -> NullCoordReport:
    """Sup of |<f_u,f_u>|, |<f_v,f_v>| and |<f_u,f_v> - g12| over the
    interior (centered-stencil) nodes, two rows in from each edge."""
    if s.coords != NULL_COORDS:
        raise BadGrid("null-coordinate check needs a null-coordinate lift")
    fu = partials(s.grid, "u").values
    fv = partials(s.grid, "v").values
    it = slice(2, -2)
    r1 = np.abs(mk.inner(fu, fu))[it, it]
    r2 = np.abs(mk.inner(fv, fv))[it, it]
    r3 = np.abs(mk.inner(fu, fv) - s.g12)[it, it]
    return NullCoordReport(sup_fu_fu=float(r1.max()), sup_fv_fv=float(r2.max()),
                           sup_cross=float(r3.max()), interior_trim=2)


def _degenerate_mask(theta: np.ndarray) -> np.ndarray:
    return (1.0 - np.abs(np.cos(theta))) < ANGLE_MARGIN


def mean_curvature(s: LiftSurface) -> MaskedField:
    """Mean curvature vector H = -f_uv / (2 sin^2(theta/2)).

    The x0 part of f is the separable sum u + v, so f_uv equals X_uv and
    the mixed stencil annihilates it exactly on sums of lightlike curves.
    Nodes with sin^2(theta/2) <= 1e-9 are masked, not fatal.
    """
    if s.coords != NULL_COORDS:
        raise BadGrid("mean curvature needs the null-coordinate form")
    fuv = partials(partials(s.grid, "u"), "v").values
    sin2 = (1.0 - np.cos(s.theta)) / 2.0
    degenerate = sin2 <= 1e-9
    if np.all(degenerate):
        raise DegenerateAngle("sin(theta/2) vanishes on the whole grid")
    denom = np.where(degenerate, 1.0, sin2)
    H = -fuv / (2.0 * denom)[..., None]
    H[degenerate] = np.nan
    return MaskedField(values=H, degenerate=degenerate)


def normal_frame(s: LiftSurface) -> NormalFrame:
    """Orthonormal normal frame e~ = ((1+cos)d0 + X_u + X_v)/sin theta,
    e2 = (X_u x X_v)/sin theta (Euclidean cross product in E); nodes with
    sin theta <= 1e-8 are masked."""
    if s.coords != NULL_COORDS:
        raise BadGrid("normal frame needs the null-coordinate form")
    Xu = mk.spatial(partials(s.grid, "u").values)
    Xv = mk.spatial(partials(s.grid, "v").values)
    sth = np.sin(s.theta)
    degenerate = sth <= 1e-8
    denom = np.where(degenerate, 1.0, sth)
    cth = np.cos(s.theta)
    et_sp = (Xu + Xv) / denom[..., None]
    etilde = np.concatenate([((1.0 + cth) / denom)[..., None], et_sp], axis=-1)
    e2 = mk.embed_e(np.cross(Xu, Xv) / denom[..., None])
    etilde[degenerate] = np.nan
    e2[degenerate] = np.nan
    return NormalFrame(etilde=etilde, e2=e2, degenerate=degenerate)


def h_parallel_e2(s: LiftSurface) -> HParallelReport:
    """Sup of the component of H off the e2 line, and of <H, e~>, over the
    nodes off the degenerate-angle mask; raises ``DegenerateAngle`` when
    that mask covers the whole grid."""
    H = mean_curvature(s)
    fr = normal_frame(s)
    keep = ~(_degenerate_mask(s.theta) | H.degenerate | fr.degenerate)
    if not np.any(keep):
        raise DegenerateAngle("net angle degenerate on the whole grid")
    dot = mk.inner(H.values, fr.e2)
    off = H.values - dot[..., None] * fr.e2
    return HParallelReport(
        sup_off_e2=masked_sup(off, keep),
        sup_dot_etilde=masked_sup(mk.inner(H.values, fr.etilde), keep))


def gaussian_curvature(s: LiftSurface, route: str = "direct") -> MaskedField:
    """Gaussian curvature of a null-coordinate lift.

    ``direct`` evaluates (theta_u theta_v - theta_uv sin theta) /
    (1 - cos theta)^2 from the theta grid; ``via_net`` substitutes the
    sine-Gordon relation and uses K_T of the source net:
    (theta_u theta_v + K_T sin^2 theta) / (1 - cos theta)^2.
    """
    if s.coords != NULL_COORDS:
        raise BadGrid("gaussian curvature needs the null-coordinate form")
    if route not in ("direct", "via_net"):
        raise BadGrid(f"unknown route {route!r}")
    g = s.grid
    tg = Grid2D(u_min=g.u_min, v_min=g.v_min, du=g.du, dv=g.dv, values=s.theta)
    tu = partials(tg, "u").values
    tv = partials(tg, "v").values
    denom = (1.0 - np.cos(s.theta))**2
    degenerate = _degenerate_mask(s.theta)
    if np.all(degenerate):
        raise DegenerateAngle("net angle degenerate on the whole grid")
    denom = np.where(degenerate, 1.0, denom)
    if route == "direct":
        tuv = partials(partials(tg, "u"), "v").values
        K = (tu * tv - tuv * np.sin(s.theta)) / denom
    else:
        if s.source is None:
            raise MissingSource("via_net route needs the source net")
        K_T = euclidean_shape(s.source).K_T
        K = (tu * tv + K_T * np.sin(s.theta)**2) / denom
    K = np.where(degenerate, np.nan, K)
    return MaskedField(values=K, degenerate=degenerate)


def build_minimal(n0: SphereCurve, n3: SphereCurve, P0) -> LiftSurface:
    """Minimal lift f = P0 + (u+v) d0 + int_0^u n0 + int_0^v n3.

    Requires |<n0(u), n3(v)>| < 1 on the product; the result is the lift of
    the first-kind net of (n0, n3) and is minimal by construction.  Like
    ``build_first_kind`` it rejects generators that meet at the samples;
    the certified verdict over the whole product is ``source.disjointness``.
    """
    P0 = np.asarray(P0, dtype=float)
    if P0.shape != (4,):
        raise BadInput("P0 must be a 4-vector")
    net = build_first_kind(n0, n3, mk.spatial(P0))
    surf = lift_net(net)
    vals = surf.grid.values.copy()
    vals[..., 0] += P0[0]
    grid = surf.grid.with_values(vals)
    return LiftSurface(grid=grid, theta=surf.theta, g12=surf.g12,
                       source=net, coords=NULL_COORDS)


def decompose_minimal(s: LiftSurface) -> tuple:
    """Recover the lightlike generators (n0, n3, P0) of a minimal lift.

    The lift must have sup |H| <= ``MINIMAL_TOL``.  n0(u) is the spatial
    part of f_u averaged over the rows (which agree within 1e-6 on a
    genuine sum of two lightlike curves), likewise n3(v) over the columns;
    P0 = f at the (0, 0) node.
    """
    if s.coords != NULL_COORDS:
        raise BadGrid("decomposition needs the null-coordinate form")
    h_sup = mean_curvature(s).sup()
    if h_sup > MINIMAL_TOL:
        raise NotMinimal(f"sup |H| = {h_sup:.3e} exceeds {MINIMAL_TOL:g}")
    fu = mk.spatial(partials(s.grid, "u").values)
    fv = mk.spatial(partials(s.grid, "v").values)
    n0_pts = fu.mean(axis=1)
    n3_pts = fv.mean(axis=0)
    dev = max(np.abs(fu - n0_pts[:, None, :]).max(),
              np.abs(fv - n3_pts[None, :, :]).max())
    if dev > 1e-6:
        raise NotMinimal(f"f_u varies across rows by {dev:.3e}; "
                         "surface is not a sum of two lightlike curves")
    # renormalize: differencing leaves O(h^4) off-sphere noise
    n0_pts = n0_pts / np.linalg.norm(n0_pts, axis=1, keepdims=True)
    n3_pts = n3_pts / np.linalg.norm(n3_pts, axis=1, keepdims=True)
    g = s.grid
    n0 = SphereCurve(t_min=g.u_min, dt=g.du, points=n0_pts)
    n3 = SphereCurve(t_min=g.v_min, dt=g.dv, points=n3_pts)
    i0, j0 = g.base_index()
    P0 = g.values[i0, j0].copy()
    return n0, n3, P0


def isothermal_form(s: LiftSurface) -> tuple:
    """Pass to isothermal parameters f~(t, s) = t d0 + X~(t, s).

    Returns the tagged surface and the report of the metric checks
    <f_t,f_t> = -sin^2(theta/2), <f_s,f_s> = +sin^2(theta/2), <f_t,f_s> = 0
    over interior nodes.
    """
    if s.coords != NULL_COORDS:
        raise BadGrid("isothermal_form expects a null-coordinate lift")
    return _change_coords(s, "uv_to_ts")


def to_null_form(s: LiftSurface) -> tuple:
    """Inverse of :func:`isothermal_form`."""
    if s.coords != ISOTHERMAL_COORDS:
        raise BadGrid("to_null_form expects an isothermal lift")
    return _change_coords(s, "ts_to_uv")


def _change_coords(s: LiftSurface, direction: str) -> tuple:
    g = s.grid
    spatial_grid = g.with_values(mk.spatial(g.values))
    x0_grid = g.with_values(g.values[..., 0])
    theta_grid = g.with_values(s.theta)
    new_sp = equivalent_immersion(spatial_grid, direction)
    new_th = equivalent_immersion(theta_grid, direction).values
    new_th = np.clip(new_th, 0.0, np.pi)
    # x0 is affine in the parameters, so the resampling is exact on it;
    # rebuild it from the coordinates to keep the separable structure.
    x0_off = equivalent_immersion(x0_grid, direction).values
    if direction == "uv_to_ts":
        coord = new_sp.us[:, None] + 0.0 * new_sp.vs[None, :]
        coords_tag = ISOTHERMAL_COORDS
    else:
        coord = new_sp.us[:, None] + new_sp.vs[None, :]
        coords_tag = NULL_COORDS
    const = float(np.mean(x0_off - coord))
    vals = np.concatenate([(coord + const)[..., None], new_sp.values], axis=-1)
    grid = new_sp.with_values(vals)
    out = LiftSurface(grid=grid, theta=new_th, g12=np.cos(new_th) - 1.0,
                      source=None, coords=coords_tag)

    f1 = partials(grid, "u").values
    f2 = partials(grid, "v").values
    sin2 = np.sin(new_th / 2.0)**2
    it = slice(2, -2)
    if direction == "uv_to_ts":
        r_tt = np.abs(mk.inner(f1, f1) + sin2)[it, it].max()
        r_ss = np.abs(mk.inner(f2, f2) - sin2)[it, it].max()
        r_ts = np.abs(mk.inner(f1, f2))[it, it].max()
    else:
        r_tt = np.abs(mk.inner(f1, f1))[it, it].max()
        r_ss = np.abs(mk.inner(f2, f2))[it, it].max()
        r_ts = np.abs(mk.inner(f1, f2) - out.g12)[it, it].max()
    report = IsothermalReport(sup_tt=float(r_tt), sup_ss=float(r_ss),
                              sup_ts=float(r_ts))
    return out, report
