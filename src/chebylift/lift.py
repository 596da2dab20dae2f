"""Timelike lifts of Chebyshev nets into R^4_1.

The lift of a net X is f(u, v) = (u + v) d0 + X(u, v); its coordinate
curves are lightlike and the induced metric is 2*(-1 + cos theta) du dv / 2,
i.e. g12 = -1 + cos theta = -2 sin^2(theta/2).  Minimal lifts are exactly
the sums of two lightlike curves f = P0 + (u+v) d0 + int n0 + int n3 with
n0, n3 on the unit sphere of E.

Lifts made by ``build_minimal``, or by ``lift_net`` of a
``build_first_kind`` net, keep those generators (n0 = T1, n3 = T2) and
have read-only values.  ``build_minimal`` writes x0 and X once, into the
lift's (nu, nv, 4) array, and its source net's grid is the read-only
strided view [..., 1:] of that array; ``lift_net`` copies the net's points.
While a lift's grid is the one its builder made, its tangents are exact:
f_u = d0 + n0(u) and f_v = d0 + n3(v), with n0 and n3 read as broadcast
views, and f_uv = 0.  ``mean_curvature``,
``normal_frame`` and ``decompose_minimal`` then use them and difference
nothing, and ``h_parallel_e2`` measures nothing: H = 0 exactly, so it
states its two sups, 0 by construction, and its route as info.  The
coordinate change of a square lift resamples the 1-D generators, not
2-D splines of the grid, and its (t, s) form keeps them, read-only, for
the way back.  Every other lift (gallery nets, the null forms resampled
from (t, s), hand-built surfaces, a lift whose grid was replaced) has its
partials differenced from the grid by each call that needs them.
``verify_null_coords`` always differences the grid, in slabs of rows: it
checks the samples themselves.  Nothing is kept on a lift beyond its fields.

The curvature calls and the normal frame read the angle's trigonometry
from the metric coefficient g12 = cos theta - 1, with no trigonometric
call on the grid: cos theta = 1 + g12, 1 - cos theta = -g12,
sin^2(theta/2) = -g12/2, sin^2 theta = -g12 (2 + g12) and sin theta its
square root.  theta is read only where it is differenced
(``gaussian_curvature``) or resampled (the coordinate change without
generators, which takes the new g12 from its cosine).

Nodes where the net angle approaches 0 or pi are excluded from the
quantities that divide by sin theta or 1 - cos theta.  ``mean_curvature``,
``gaussian_curvature`` and ``normal_frame`` return the offending-node mask
with their values (NaN on it), and ``h_parallel_e2`` takes its sups off
it.  All but ``normal_frame`` raise ``DegenerateAngle`` when the mask
covers the whole grid.  Measurements are ``Report``s of ``Check``s whose
worst node is a full-grid index with its (u, v); a failed check is
raised with the error it names.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import as_strided

from . import minkowski as mk
from ._splines import CubicSpline
from .chebnet import (Generators, NetSurface, _angle_partials, _diagonal_axes,
                      _first_kind, _generator_tangents, _generators, _on_axes,
                      _read_only, _target_axes, equivalent_immersion,
                      euclidean_shape)
from .errors import (BadGrid, BadInput, DegenerateAngle, MissingSource,
                     NotChebyshev, NotMinimal, Report)
from .numerics import (Grid2D, SphereCurve, _form_sups, cross,
                       cumulative_integral, diff_samples, partials, sup_check)

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

    A surface is immutable: to change its values, build a new
    ``LiftSurface``.  It keeps only its fields: no call stores a partial
    or any other array on it.  ``generators`` is set by the builders (see
    the module docstring) and is live while ``grid`` is the grid they made.
    theta and g12 of another shape than (nu, nv) raise ``BadGrid``.
    """

    grid: Grid2D            # payload (nu, nv, 4)
    theta: np.ndarray
    # cos theta - 1, in [-2, 0]: every sine and cosine of theta comes from it
    g12: np.ndarray
    source: Optional[NetSurface] = None
    coords: str = NULL_COORDS
    generators: Optional[Generators] = None

    def __post_init__(self):
        shape = self.grid.values.shape[:2]
        if np.shape(self.theta) != shape or np.shape(self.g12) != shape:
            raise BadGrid("theta and g12 must have the grid's shape (nu, nv)")


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
        return sup_check("sup", self.values, keep=~self.degenerate).value


def lift_net(n: NetSurface) -> LiftSurface:
    """Lift a Chebyshev net: f = (u + v) d0 + X.

    E = G = 1 holds for a ``NetSurface`` by definition (``is_chebyshev``
    measures it on a point grid), so the lift checks only |F| < 1, which
    keeps g12 = F - 1 negative and the net angle off 0 and pi; it raises
    ``NotChebyshev`` where |F| reaches 1 (tolerance: the float below 1).
    The lift's grid is a new array that X is copied into.  The lift of a
    net with generators keeps them, and its values are read-only.
    """
    return _lift(n)


def _lift(n: NetSurface, grid: Optional[Grid2D] = None) -> LiftSurface:
    """``lift_net``, or the lift on ``grid``, whose (nu, nv, 4) values
    already hold x0 and the net's points (``build_minimal``'s one array)."""
    g = n.grid
    chk = sup_check("sup_f", n.F, np.nextafter(1.0, 0.0), axes=(g.us, g.vs))
    if not chk.passed:
        raise NotChebyshev("net fails |F| < 1", chk)
    gen = _generators(n)
    if grid is None:
        vals = np.empty(g.values.shape[:2] + (4,))
        np.add.outer(g.us, g.vs, out=vals[..., 0])
        for k in range(3):
            vals[..., k + 1] = g.values[..., k]
        if gen is not None:
            _read_only(vals)
        grid = g.with_values(vals)
    theta = np.clip(n.F, -1.0, 1.0)     # n.theta, with arccos in place
    np.arccos(theta, out=theta)
    return LiftSurface(grid=grid, theta=theta, g12=n.F - 1.0, source=n,
                       coords=NULL_COORDS, generators=None if gen is None
                       else replace(gen, grid=grid))


def verify_null_coords(s: LiftSurface) -> Report:
    """Checks sup_fu_fu, sup_fv_fv, sup_cross of |<f_u,f_u>|, |<f_v,f_v>|
    and |<f_u,f_v> - g12| over the interior (centered-stencil) nodes."""
    if s.coords != NULL_COORDS:
        raise BadGrid("null-coordinate check needs a null-coordinate lift")
    return Report(_form_sups(s.grid, ("sup_fu_fu", "sup_fv_fv", "sup_cross"),
                             (0.0, 0.0, s.g12), band=2))


def _degenerate_mask(cos_theta: np.ndarray) -> np.ndarray:
    return (1.0 - np.abs(cos_theta)) < ANGLE_MARGIN


def mean_curvature(s: LiftSurface) -> MaskedField:
    """Mean curvature vector H = -f_uv / (2 sin^2(theta/2)) = f_uv / g12,
    with sin^2(theta/2) = -g12/2.

    On a lift with live generators f_uv = 0 exactly, so H is 0: read-only
    broadcast zeros when no node is masked.  Otherwise
    f_uv is ``partials(grid, "uv")``: the x0 part of f is the separable sum
    u + v, so f_uv equals X_uv and the mixed stencil annihilates it exactly
    on sums of lightlike curves.  Nodes with sin^2(theta/2) <= 1e-9 are
    masked (NaN), not fatal.
    """
    if s.coords != NULL_COORDS:
        raise BadGrid("mean curvature needs the null-coordinate form")
    if _generators(s) is not None:
        return _mean_curvature(s, None)
    return _mean_curvature(s, partials(s.grid, "uv"))


def _mean_curvature(s: LiftSurface, fuv: Optional[np.ndarray]) -> MaskedField:
    """H of ``mean_curvature`` from the mixed partial ``fuv``, or H = 0
    when ``fuv`` is None (live generators)."""
    sin2 = -0.5 * s.g12
    degenerate = sin2 <= 1e-9
    if np.all(degenerate):
        raise DegenerateAngle("sin(theta/2) vanishes on the whole grid")
    if fuv is None and not degenerate.any():
        return MaskedField(np.broadcast_to(0.0, s.grid.values.shape),
                           degenerate)
    if fuv is None:
        H = np.zeros(s.grid.values.shape)
    else:
        denom = np.where(degenerate, 1.0, sin2)
        H = fuv / (-2.0 * denom)[..., None]
    H[degenerate] = np.nan
    return MaskedField(values=H, degenerate=degenerate)


def _differenced_h(s: LiftSurface) -> tuple:
    """f_u and H of a lift without live generators, from one pass along u:
    f_uv is that f_u differenced along v, as ``partials(grid, "uv")``
    does, so H equals ``mean_curvature(s)`` bit for bit."""
    fu = partials(s.grid, "u")
    return fu, _mean_curvature(s, diff_samples(fu, s.grid.dv, 1, axis=1))


def normal_frame(s: LiftSurface) -> NormalFrame:
    """Orthonormal normal frame e~ = ((1+cos)d0 + X_u + X_v)/sin theta,
    e2 = (X_u x X_v)/sin theta (Euclidean cross product in E); nodes with
    sin theta <= 1e-8 are masked.  X_u = n0(u) and X_v = n3(v) exactly on
    a lift with live generators; otherwise they are differenced."""
    if s.coords != NULL_COORDS:
        raise BadGrid("normal frame needs the null-coordinate form")
    gen = _generators(s)
    Xu, Xv = (_generator_tangents(gen) if gen is not None
              else (mk.spatial(partials(s.grid, w)) for w in "uv"))
    return _frame(Xu, Xv, 1.0 + s.g12)


def _frame(Xu: np.ndarray, Xv: np.ndarray, c: np.ndarray) -> NormalFrame:
    """The frame of ``normal_frame`` at nodes of any shape, from the
    tangents X_u, X_v in E, arrays of that shape by 3, and c = cos theta,
    clipped to [-1, 1] for sin theta = sqrt((1 - c)(1 + c))."""
    cl = np.clip(c, -1.0, 1.0)
    sth = np.sqrt((1.0 - cl) * (1.0 + cl))
    degenerate = sth <= 1e-8
    denom = np.where(degenerate, 1.0, sth)
    etilde = np.empty(c.shape + (4,))
    etilde[..., 0] = (1.0 + cl) / denom
    np.add(Xu, Xv, out=etilde[..., 1:])
    etilde[..., 1:] /= denom[..., None]
    e2 = np.zeros_like(etilde)
    np.divide(cross(Xu, Xv), denom[..., None], out=e2[..., 1:])
    etilde[degenerate] = np.nan
    e2[degenerate] = np.nan
    return NormalFrame(etilde=etilde, e2=e2, degenerate=degenerate)


def h_parallel_e2(s: LiftSurface) -> Report:
    """Checks sup_off_e2 and sup_dot_etilde of the component of H off the
    e2 line and of <H, e~> off the degenerate-angle mask; raises
    ``DegenerateAngle`` when that mask covers the whole grid.  Info: route,
    "differenced" or "generators".

    On a lift with live generators H = 0 exactly, so both sups are 0 by
    construction: the call builds neither H nor the frame, makes no check,
    and states sup_off_e2 = sup_dot_etilde = 0.0 as info."""
    if s.coords != NULL_COORDS:
        raise BadGrid("h_parallel_e2 needs the null-coordinate form")
    cos_theta = 1.0 + s.g12
    if _generators(s) is not None:
        if np.all(_degenerate_mask(cos_theta)):
            raise DegenerateAngle("net angle degenerate on the whole grid")
        return Report((), {"route": "generators", "sup_off_e2": 0.0,
                           "sup_dot_etilde": 0.0})
    fu, H = _differenced_h(s)
    fr = _frame(mk.spatial(fu), mk.spatial(partials(s.grid, "v")), cos_theta)
    del fu                  # one (n, n, 4) grid fewer alive below
    keep = ~_degenerate_mask(cos_theta)     # masks H's and the frame's too
    off = mk.inner(H.values, fr.e2)[..., None] * fr.e2
    np.subtract(H.values, off, out=off)
    axes = (s.grid.us, s.grid.vs)
    return Report((
        sup_check("sup_off_e2", off, keep=keep, axes=axes),
        sup_check("sup_dot_etilde", mk.inner(H.values, fr.etilde), keep=keep,
                  axes=axes)), {"route": "differenced"})


def gaussian_curvature(s: LiftSurface, route: str = "direct") -> MaskedField:
    """Gaussian curvature of a null-coordinate lift.

    ``direct`` evaluates (theta_u theta_v - theta_uv sin theta) /
    (1 - cos theta)^2 from the theta grid; ``via_net`` substitutes the
    sine-Gordon relation and uses K_T of the source net:
    (theta_u theta_v + K_T sin^2 theta) / (1 - cos theta)^2.  The angle's
    trigonometry comes from g12: 1 - cos theta = -g12 and
    sin^2 theta = -g12 (2 + g12).
    """
    if s.coords != NULL_COORDS:
        raise BadGrid("gaussian curvature needs the null-coordinate form")
    if route not in ("direct", "via_net"):
        raise BadGrid(f"unknown route {route!r}")
    g12 = s.g12
    degenerate = _degenerate_mask(1.0 + g12)
    if np.all(degenerate):
        raise DegenerateAngle("net angle degenerate on the whole grid")
    denom = np.where(degenerate, 1.0, g12 * g12)
    if route == "direct":
        tu, tv, tuv = _angle_partials(s.theta, s.grid, ("u", "v", "uv"))
        K = (tu * tv - tuv * np.sqrt(-g12 * (2.0 + g12))) / denom
    else:
        if s.source is None:
            raise MissingSource("via_net route needs the source net")
        K_T = euclidean_shape(s.source).K_T
        tu, tv = _angle_partials(s.theta, s.grid, ("u", "v"))
        K = (tu * tv + K_T * (-g12 * (2.0 + g12))) / denom
    K = np.where(degenerate, np.nan, K)
    return MaskedField(values=K, degenerate=degenerate)


def build_minimal(n0: SphereCurve, n3: SphereCurve, P0) -> LiftSurface:
    """Minimal lift f = P0 + (u+v) d0 + int_0^u n0 + int_0^v n3.

    Requires |<n0(u), n3(v)>| < 1 on the product; the result is the lift of
    the first-kind net of (n0, n3) and is minimal by construction.  Like
    ``build_first_kind`` it rejects generators that are not ``SphereCurve``s
    or that meet at the samples; the certified verdict over the whole
    product is ``generators.disjointness``.  The lift keeps n0 and n3 as
    its generators, and its values are read-only.  x0 and X are written
    once, into one (nu, nv, 4) array, checked finite from its rows: the
    source net's grid is its read-only strided view [..., 1:], not a copy.
    """
    P0 = np.asarray(P0, dtype=float)
    if P0.shape != (4,) or not np.all(np.isfinite(P0)):
        raise BadInput("P0 must be a finite 4-vector")
    return _lift(*_first_kind(n0, n3, mk.spatial(P0), P0[0]))


def decompose_minimal(s: LiftSurface) -> tuple:
    """Recover the lightlike generators (n0, n3, P0) of a minimal lift.

    P0 = f at the node nearest (0, 0).  A lift with live generators is a
    sum of two lightlike curves by construction: n0 and n3 are copies of
    its generators, and no check is needed.  Otherwise the lift must have
    sup |H| <= ``MINIMAL_TOL`` (check h_sup); n0(u) is the spatial part of
    the differenced f_u averaged over the rows (which agree within 1e-6 on
    a genuine sum of two lightlike curves: check generator_dev), likewise
    n3(v) over the columns.
    """
    if s.coords != NULL_COORDS:
        raise BadGrid("decomposition needs the null-coordinate form")
    g = s.grid
    i0, j0 = g.base_index()
    gen = _generators(s)
    if gen is not None:
        return (replace(gen.T1, points=gen.T1.points.copy()),
                replace(gen.T2, points=gen.T2.points.copy()),
                g.values[i0, j0].copy())
    fu, H = _differenced_h(s)
    chk = sup_check("h_sup", H.values, MINIMAL_TOL, keep=~H.degenerate,
                    axes=(g.us, g.vs))
    if not chk.passed:
        raise NotMinimal("lift is not minimal", chk)
    fu, fv = mk.spatial(fu), mk.spatial(partials(g, "v"))
    n0_pts = fu.mean(axis=1)
    n3_pts = fv.mean(axis=0)
    dev = np.abs(fu - n0_pts[:, None, :])
    np.maximum(dev, np.abs(fv - n3_pts[None, :, :]), out=dev)
    # max of the component views: max(axis=-1) over 3 values is 4x slower
    chk = sup_check("generator_dev", np.maximum(np.maximum(
        dev[..., 0], dev[..., 1]), dev[..., 2]), 1e-6, axes=(g.us, g.vs))
    if not chk.passed:
        raise NotMinimal("surface is not a sum of two lightlike curves", chk)
    # renormalize: differencing leaves O(h^4) off-sphere noise
    n0_pts = n0_pts / np.linalg.norm(n0_pts, axis=1, keepdims=True)
    n3_pts = n3_pts / np.linalg.norm(n3_pts, axis=1, keepdims=True)
    n0 = SphereCurve(t_min=g.u_min, dt=g.du, points=n0_pts)
    n3 = SphereCurve(t_min=g.v_min, dt=g.dv, points=n3_pts)
    P0 = g.values[i0, j0].copy()
    return n0, n3, P0


def isothermal_form(s: LiftSurface) -> tuple:
    """Pass to isothermal parameters f~(t, s) = t d0 + X~(t, s).

    Returns the tagged surface and the report of the metric checks sup_tt,
    sup_ss, sup_ts of <f_t,f_t> = -sin^2(theta/2), <f_s,f_s> =
    +sin^2(theta/2), <f_t,f_s> = 0 over interior nodes.  A square lift
    with live generators is resampled through them and the result keeps
    them; any other lift through 2-D splines (``_change_coords``).
    """
    if s.coords != NULL_COORDS:
        raise BadGrid("isothermal_form expects a null-coordinate lift")
    return _change_coords(s, "uv_to_ts")


def to_null_form(s: LiftSurface) -> tuple:
    """Inverse of :func:`isothermal_form`, through the generators a (t, s)
    form kept, else 2-D splines; checks sup_tt, sup_ss, sup_ts."""
    if s.coords != ISOTHERMAL_COORDS:
        raise BadGrid("to_null_form expects an isothermal lift")
    return _change_coords(s, "ts_to_uv")


def _change_coords(s: LiftSurface, direction: str) -> tuple:
    """Resample f and theta onto ``equivalent_immersion``'s target grid and
    measure the target metric two rows in from each edge, in slabs of rows.

    A square lift with live generators is resampled through its 1-D curves
    (``_resample_generators``), and its (t, s) form keeps them.  Any other
    lift is resampled by ``equivalent_immersion``, f in one call on its own
    (n, n, 4) grid and theta in a second.  That spline reproduces x0, affine
    in the parameters, up to roundoff; x0 is rebuilt in place from the
    target coordinates plus the mean offset, keeping it exactly separable.
    """
    gen = _generators(s)
    live = gen is not None and s.grid.nu == s.grid.nv
    if live:
        grid, g12 = _resample_generators(gen, s.grid, direction)
        new_th = np.clip(g12, -1.0, 1.0)
        np.arccos(new_th, out=new_th)
        g12 -= 1.0
    else:
        grid = equivalent_immersion(s.grid, direction)
        new_th = np.clip(equivalent_immersion(
            s.grid.with_values(s.theta), direction).values, 0.0, np.pi)
        g12 = np.cos(new_th) - 1.0
        us, vs = grid.us[:, None], grid.vs[None, :]
        coord = us + vs if direction == "ts_to_uv" else us + 0.0 * vs
        x0 = grid.values[..., 0]
        x0[...] = coord + float(np.mean(x0 - coord))
    if direction == "uv_to_ts":
        sin2 = -0.5 * g12
        coords_tag, targets = ISOTHERMAL_COORDS, (-sin2, sin2, 0.0)
    else:
        coords_tag, targets = NULL_COORDS, (0.0, 0.0, g12)
    rep = Report(_form_sups(grid, ("sup_tt", "sup_ss", "sup_ts"), targets,
                            band=2))
    keep = live and direction == "uv_to_ts"     # the (t, s) form keeps them
    if keep:
        _read_only(grid.values)
    return (LiftSurface(grid=grid, theta=new_th, g12=g12, source=None,
                        coords=coords_tag,
                        generators=replace(gen, grid=grid) if keep else None),
            rep)


def _resample_generators(gen: Generators, g: Grid2D, direction: str) -> tuple:
    """``equivalent_immersion``'s target grid of f = P0 + (u + v) d0 +
    I1(u) + I2(v) from the square source grid ``g``, and cos theta =
    <T1(u), T2(v)> there, I1 and I2 the ``cumulative_integral``s of T1 and
    T2.  I1 with T1, and I2 with T2, are resampled by one not-a-knot
    ``CubicSpline`` at the 2n - 1 source abscissae ud, vd of
    ``_diagonal_axes`` (forward) or the target axes (back), and gathered
    by stride: node (a, b) reads entry M (a, b) + o.  FITPACK's bicubic is
    the tensor product of the same 1-D interpolants, so f matches
    ``equivalent_immersion`` up to roundoff; T1, T2 are renormalized.  P0
    is f at node (0, 0) of ``g`` less the resamples at its (u, v)."""
    x1, x2 = _target_axes(g, direction)
    n = x1.size
    if direction == "uv_to_ts":
        *at, M, o = _diagonal_axes(x1, x2, direction)
        base = (g.u_min, g.v_min)
    else:
        at, M, o = (x1, x2), np.eye(2, dtype=int), (0, 0)
        base = ((g.u_min - g.v_min) / 2.0, (g.u_min + g.v_min) / 2.0)
    rows = []
    for i, c in enumerate((gen.T1, gen.T2)):
        x = np.append(at[i], base[i])
        r = np.empty((7, x.size))       # the abscissa, I and T there
        r[0] = x
        r[1:] = CubicSpline(c.ts, np.column_stack(
            (cumulative_integral(c).points, c.points)))(x).T
        r[4:] /= np.sqrt(np.einsum("ki,ki->i", r[4:], r[4:]))
        rows.append(r)
    f0 = rows[0][:4, -1] + rows[1][:4, -1]      # f - P0 at node (0, 0)
    rows[0][:4] += (g.values[0, 0] - f0)[:, None]
    # entry (M (a, b) + o)[i] of row i at every target node (a, b)
    v1, v2 = (as_strided(r[:, o[i]:], (7, n, n), (
        r.strides[0], M[i, 0] * r.strides[1], M[i, 1] * r.strides[1]),
        writeable=False) for i, r in enumerate(rows))
    vals = np.empty((n, n, 4))
    np.add(v1[:4], v2[:4], out=vals.transpose(2, 0, 1))
    return _on_axes(x1, x2, vals), np.einsum("kab,kab->ab", v1[4:], v2[4:])
