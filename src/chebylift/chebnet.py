"""Chebyshev nets in the Euclidean slice E = {0} x R^3.

A Chebyshev net is an immersion whose first fundamental form has
E = G = 1 and F = cos theta strictly inside (-1, 1).  First-kind nets are
built from two sphere curves as X = p0 + int T1 + int T2; for those the
metric coefficient F(u, v) = <T1(u), T2(v)> is evaluated directly, with no
differentiation, and the net keeps its ``Generators``.  Net points are
stored as 3-vectors of E throughout.

The coordinate change fits ``_splines.RectBivariateSpline``, FITPACK's
s = 0 bicubic with its coefficients from one block LU solve per axis of
the collocation matrix.  No spline imports ``scipy.interpolate``; the
diagonal reader's sparse design matrices load ``scipy.sparse`` when a
square grid is first resampled.  Every fit calls this module's
``RectBivariateSpline`` or ``CubicSpline``, so a tracer or a test that
rebinds one of these names sees each fit.  The block LU of an axis and the diagonal reader of a
target grid, with its design matrices, are memoized by the values of
their nodes and knots (``_splines._by_value``), and neither can be
written through, so a fit factors only node sets the memo has not seen.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from functools import cached_property, lru_cache
from typing import Optional, Union

import numpy as np
from numpy.lib.stride_tricks import as_strided

from ._splines import (CubicSpline, RectBivariateSpline, _by_value,
                       design_matrix, knots)
from .errors import (BadGrid, BadInput, BadSphereCurve, Check,
                     DegenerateMetric, DisjointnessViolated, EmptyOverlap,
                     Report)
from .numerics import (Grid2D, SphereCurve, _form_sups, _unscanned_grid,
                       _vector_norm, cross, cumulative_integral,
                       cumulative_samples, diff_samples, grid_from_ranges,
                       partials)

DISJOINT_MARGIN = 1e-6
CHEBYSHEV_TOL = 1e-6     # is_chebyshev: |E - 1| and |G - 1|
BISECT_DEPTH = 24        # bisections of a node cell in check_disjointness
BISECT_CELLS = 16384     # open cells allowed at one bisection depth
#: parameter range of both generators of the critical gallery net
_CRITICAL_RANGE = (-np.pi / 2 + 0.05, np.pi / 2 - 0.05)


@dataclass(frozen=True)
class Generators:
    """The sphere curves T1(u), T2(v) a surface was built from, as
    read-only copies, and the ``check_disjointness`` report on them.

    Only the builders give a surface generators (``_with_generators``):
    ``build_first_kind``, ``lift.build_minimal``, and ``lift.lift_net``
    and ``lift.isothermal_form`` of a surface that has them (a square one
    for the (t, s) form), which shares them.  ``generators`` is no
    constructor argument, so every other surface has none, and so has any
    ``dataclasses.replace`` of a built one, whatever field it changes.  The
    builder marks the grid's values and the angle fields (a net's F, a
    lift's g12 and theta) read-only.  While a surface has generators, its
    tangents are exact, X_u = T1(u), X_v = T2(v) and X_uv = 0, and the
    calls that need them difference no grid: ``euclidean_shape`` and the
    lift's curvature, frame and decomposition read the 1-D curves,
    ``is_chebyshev`` and ``verify_null_coords`` difference the two rows
    whose outer sum the grid of a net or null lift is
    (``_generator_rows``), and the coordinate change resamples the curves.
    A surface without them has its partials differenced from its grid."""

    T1: SphereCurve
    T2: SphereCurve
    disjointness: Report


def _with_generators(s, gen: Optional[Generators]):
    """The surface ``s`` a builder made, with the generators ``gen`` (None
    for none): the one writer of ``generators``.  With generators, the
    grid's values and every array field of ``s`` are marked read-only."""
    if gen is not None:
        for a in [s.grid.values] + [getattr(s, f.name) for f in fields(s)]:
            if isinstance(a, np.ndarray):
                _read_only(a)
        object.__setattr__(s, "generators", gen)
    return s


@dataclass(frozen=True)
class NetSurface:
    """Sampled Chebyshev net with its first fundamental form.

    A Chebyshev net has E = G = 1 by definition, so only F = cos theta is
    stored: ``theta`` is arccos of F clipped to [-1, 1], computed on each
    read into a new array, and a lift of the net takes its angle field
    from it.  ``is_chebyshev`` measures E and G of a point grid.
    A net is immutable: to change its values, build a new ``NetSurface``.
    Its shape operator (``euclidean_shape``) is computed on first use and
    kept on the object, with read-only arrays, for every later call.
    ``build_first_kind`` sets ``generators`` (``Generators``).  The source
    net of a ``lift.build_minimal`` lift holds no points of its own: its
    grid's values are the read-only strided view [..., 1:] of the lift's
    (nu, nv, 4) array, which holds x0 and X.  F of another shape than
    (nu, nv) raises ``BadGrid``.
    """

    grid: Grid2D            # E-points, payload (nu, nv, 3)
    F: np.ndarray
    generators: Optional[Generators] = field(default=None, init=False)

    def __post_init__(self):
        if np.shape(self.F) != self.grid.values.shape[:2]:
            raise BadGrid("F must have the grid's shape (nu, nv)")

    @property
    def theta(self) -> np.ndarray:
        theta = np.clip(self.F, -1.0, 1.0)
        return np.arccos(theta, out=theta)

    @cached_property
    def _shape(self) -> "EuclideanShape":
        return _shape_of(self)


@dataclass(frozen=True)
class EuclideanShape:
    """Gauss map, second fundamental form and Gaussian curvature of a net."""

    # (nu, nv, 3) unit vectors; on the generator route a read-only view of
    # a component-major (3, nu, nv) array, otherwise C-contiguous
    gauss_map: np.ndarray
    e: np.ndarray
    f: np.ndarray
    g: np.ndarray
    K_T: np.ndarray


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
                       margin: float = DISJOINT_MARGIN) -> Report:
    """Certify T1(u) != +-T2(v) on the whole parameter product.

    The separation s(u, v) = min(|T1 - T2|, |T1 + T2|) is bounded from below
    on the cell of every node: the points of the product nearer to it than
    to any other node.  No bound on a cell exceeds s at its node, so a node
    with s at most the margin refutes the pair before either curve is
    differenced.  Else, far from a meeting, s at the node less the slack
    (du/2) max|T1'| + (dv/2) max|T2'| clears the margin, and the other
    cells are bisected.  On a sub-cell the curves are replaced by their
    quadratic Taylor polynomials at the node; the distance of those is at
    least the minimum of its affine part over the sub-cell less the
    quadratic term, and the Taylor remainder (1/6)(max|T1'''| (du/2)^3 +
    max|T2'''| (dv/2)^3) is subtracted.  Derivatives come from the
    differenced samples, so the bound holds for resolved curves, whose
    derivatives between samples do not exceed their sampled maxima.

    Check uncertified_cells, held to 0, counts the nodes with s at most the
    margin, at the first node of largest |F|; else the cells still open
    after ``BISECT_DEPTH`` bisections or at more than ``BISECT_CELLS`` open
    cells at one depth (every cell, unbisected, if the Taylor remainder
    overflows: spacings past about 1e103), at the node and (u, v) of the
    smallest open bound, or if none is open of the smallest bound of the
    closed cells and unbisected nodes; info at_u, at_v repeat that (u, v).
    Info min_separation is that certified lower bound of s over the product,
    clipped at 0 (0.0 if the check fails); also margin, finite and >= 0
    (else ``BadInput``), and sampled_separation, the smallest s at nodes.
    T1 and T2 must be ``SphereCurve``s, else ``BadSphereCurve``: the bound
    reads s off <T1, T2>, which measures distance only on the sphere.
    """
    return _disjointness(T1, T2, margin)[0]


def _disjointness(T1: SphereCurve, T2: SphereCurve, margin: float) -> tuple:
    """``check_disjointness``'s guards and report, then the metric
    coefficient F = T1 T2^T it read |F| from, formed once for both."""
    if not (isinstance(T1, SphereCurve) and isinstance(T2, SphereCurve)):
        raise BadSphereCurve("check_disjointness needs two SphereCurves")
    if not (np.isfinite(margin) and margin >= 0.0):
        raise BadInput(f"margin must be finite and >= 0, got {margin!r}")
    P1, P2 = T1.points, T2.points
    F = P1 @ P2.T
    absF = np.abs(F)
    k = int(np.argmax(absF))
    sampled = float(np.sqrt(max(2.0 - 2.0 * absF.flat[k], 0.0)))
    if sampled <= margin:
        i, j = np.unravel_index(k, absF.shape)
        u, v = float(T1.ts[i]), float(T2.ts[j])
        s = np.subtract(2.0, np.multiply(absF, 2.0, out=absF), out=absF)
        np.sqrt(np.maximum(s, 0.0, out=s), out=s)
        chk = Check("uncertified_cells", float(np.count_nonzero(s <= margin)),
                    0.0, ((int(i), int(j)), (u, v)))
        return Report((chk,), {"min_separation": 0.0, "margin": margin,
                               "at_u": u, "at_v": v,
                               "sampled_separation": sampled}), F
    D1 = [diff_samples(P1, T1.dt, k) for k in (1, 2, 3)]
    D2 = [diff_samples(P2, T2.dt, k) for k in (1, 2, 3)]
    nrm = lambda x: np.linalg.norm(x, axis=1)
    hu, hv = 0.5 * T1.dt, 0.5 * T2.dt
    slack = hu * nrm(D1[0]).max() + hv * nrm(D2[0]).max()
    try:
        rem3 = (nrm(D1[2]).max() * hu**3 + nrm(D2[2]).max() * hv**3) / 6.0
    except OverflowError:   # spacings past ~1e103: no cell can be bounded
        slack = rem3 = np.inf
    # s = sqrt(2 - 2|F|) at the nodes; the cells where s - slack does not
    # clear the margin are bisected, the others bound s by s - slack
    ii = jj = np.empty(0, dtype=np.intp)
    bisect = 1.0 - 0.5 * (margin + slack) ** 2
    if absF.flat[k] >= bisect:
        ii, jj = np.nonzero(absF >= bisect)
        absF[ii, jj] = -1.0
        k = int(np.argmax(absF))
    i, j = np.unravel_index(k, absF.shape)
    # [closed, open]: the smallest bound, with its node and (u, v), over
    # the nodes never bisected and the cells that close, and the open cells
    best = [2.0 if absF[i, j] < 0 else np.sqrt(2.0 - 2.0 * absF[i, j]) - slack,
            np.inf]
    at = [((int(i), int(j)), (T1.ts[i], T2.ts[j]))] * 2
    sg = np.where(np.einsum("ij,ij->i", P1[ii], P2[jj]) < 0.0, -1.0, 1.0)
    # node cells, clipped to the parameter ranges
    lo_u, hi_u = np.where(ii == 0, 0.0, -hu), np.where(ii == T1.n - 1, 0.0, hu)
    lo_v, hi_v = np.where(jj == 0, 0.0, -hv), np.where(jj == T2.n - 1, 0.0, hv)
    du, al = 0.5 * (lo_u + hi_u), 0.5 * (hi_u - lo_u)
    dv, be = 0.5 * (lo_v + hi_v), 0.5 * (hi_v - lo_v)
    for _ in range(BISECT_DEPTH + 1):
        if ii.size == 0 or ii.size > BISECT_CELLS or rem3 == np.inf:
            break
        c1, c2 = D1[1][ii], D2[1][jj]
        a = D1[0][ii] + du[:, None] * c1
        b = -sg[:, None] * (D2[0][jj] + dv[:, None] * c2)
        q1 = P1[ii] + du[:, None] * (D1[0][ii] + 0.5 * du[:, None] * c1)
        q2 = P2[jj] + dv[:, None] * (D2[0][jj] + 0.5 * dv[:, None] * c2)
        lb = (_min_affine_norm(q1 - sg[:, None] * q2, a, b, al, be)
              - 0.5 * (nrm(c1) * al**2 + nrm(c2) * be**2) - rem3)
        open_ = lb <= margin
        for o in (0, 1):
            part = np.where(open_ == o, lb, np.inf)
            k = int(np.argmin(part))
            if part[k] < best[o]:
                best[o] = float(part[k])
                at[o] = ((int(ii[k]), int(jj[k])),
                         (T1.ts[ii[k]] + du[k], T2.ts[jj[k]] + dv[k]))
        ii, jj, sg = (np.tile(x[open_], 4) for x in (ii, jj, sg))
        al, be = 0.5 * al[open_], 0.5 * be[open_]
        du = np.concatenate([du[open_] + s * al for s in (-1, -1, 1, 1)])
        dv = np.concatenate([dv[open_] + s * be for s in (-1, 1, -1, 1)])
        al, be = np.tile(al, 4), np.tile(be, 4)
    node, (u, v) = at[ii.size > 0]
    chk = Check("uncertified_cells", float(ii.size), 0.0,
                (node, (float(u), float(v))))
    return Report((chk,), {
        "min_separation": 0.0 if ii.size else max(float(best[0]), 0.0),
        "margin": margin, "at_u": float(u), "at_v": float(v),
        "sampled_separation": sampled}), F


def build_first_kind(T1: SphereCurve, T2: SphereCurve, p0) -> NetSurface:
    """First-kind net X(u, v) = p0 + int_0^u T1 + int_0^v T2.

    p0 must be a finite 3-vector (else ``BadInput``), and T1 and T2
    ``SphereCurve``s (else ``BadSphereCurve``).  Integrals are taken from
    the node nearest the curve parameter 0 by ``cumulative_integral``;
    E = G = 1 up to quadrature error and F is exact.

    Generators that meet at the samples (sampled separation at most
    ``DISJOINT_MARGIN``) raise ``DisjointnessViolated`` with the failed
    check of ``check_disjointness``, found without bisecting.  A meeting
    between samples is not an error here: that report, over the whole
    product, is kept in ``generators.disjointness`` for callers that need
    the continuous generators disjoint, such as ``bjorling.solve``.  The
    net keeps read-only copies of T1 and T2 in ``generators``, F and the
    grid's values are read-only, and the values are checked finite from
    the integrals' rows.
    """
    p0 = np.asarray(p0, dtype=float)
    if p0.shape != (3,) or not np.all(np.isfinite(p0)):
        raise BadInput("p0 must be a finite 3-vector")
    return _first_kind(T1, T2, p0)[0]


def _first_kind(T1: SphereCurve, T2: SphereCurve, p0: np.ndarray,
                x0: Optional[float] = None) -> tuple:
    """The net of ``build_first_kind`` for a checked p0, with F = T1 T2^T
    formed once by the disjointness kernel, and a grid of the array its
    grid views, written column by column from per-axis rows as (p0 +
    I1(u)) + I2(v).  With ``x0`` the rows lead with u and v: the array is
    the (nu, nv, 4) lift with x0 = (u + v) + x0, and the grid is its view
    [..., 1:]; ``lift._lift`` marks it read-only.  Each component is
    monotone in both rows (and x0), so it is finite iff the sums of the
    rows' minima and maxima are."""
    rep, F = _disjointness(T1, T2, DISJOINT_MARGIN)
    if rep.sampled_separation <= DISJOINT_MARGIN:
        raise DisjointnessViolated(
            f"generators meet near u={rep.at_u:.6g}, v={rep.at_v:.6g} "
            f"(sampled separation {rep.sampled_separation:.3e})",
            rep["uncertified_cells"])
    with np.errstate(over="ignore"):    # the extremes catch an overflow
        row_u = p0 + cumulative_integral(T1).points
        row_v = cumulative_integral(T2).points
        if x0 is not None:
            row_u = np.column_stack((T1.ts, row_u))
            row_v = np.column_stack((T2.ts, row_v))
        ends = np.array([row_u.min(0) + row_v.min(0),
                         row_u.max(0) + row_v.max(0)])
        ends[:, 0] += 0.0 if x0 is None else x0
    if not np.isfinite(ends).all():
        raise BadGrid("grid values must be finite")
    vals = np.empty((T1.n, T2.n, row_u.shape[1]))
    for k in range(row_u.shape[1]):
        np.add.outer(row_u[:, k], row_v[:, k], out=vals[..., k])
    if x0 is not None:
        vals[..., 0] += x0
    axes = (T1.t_min, T2.t_min, T1.dt, T2.dt)
    grid = _unscanned_grid(*axes, vals if x0 is None else vals[..., 1:])
    frozen = lambda c: replace(c, points=_read_only(c.points.copy()))
    return (_with_generators(NetSurface(grid=grid, F=F), Generators(
        frozen(T1), frozen(T2), rep)), _unscanned_grid(*axes, vals))


def is_chebyshev(g: Union[Grid2D, NetSurface]) -> Report:
    """Verify E = G = 1 and |F| <= 1 - ``DISJOINT_MARGIN`` of the point
    grid: checks sup_e, sup_g (``CHEBYSHEV_TOL``) and sup_f.  A net with
    generators is checked from the two rows whose outer sum its grid is
    (``_generator_rows``); any other grid is differenced in slabs of
    rows."""
    grid = g.grid if isinstance(g, NetSurface) else g
    if grid.values.ndim != 3 or grid.values.shape[2] != 3:
        raise BadGrid("is_chebyshev expects a grid of E-points")
    return Report(_form_sups(
        grid, ("sup_e", "sup_g", "sup_f"), (1.0, 1.0, 0.0),
        (CHEBYSHEV_TOL, CHEBYSHEV_TOL, 1.0 - DISJOINT_MARGIN),
        rows=_generator_rows(g)))


def _generator_rows(s) -> Optional[tuple]:
    """The rows whose outer sum is the grid of a net or null lift ``s``
    with generators, else None (also for a ``Grid2D``): p0 + I1(u) and
    I2(v), I1 and I2 the ``cumulative_integral``s of T1 and T2, led on a
    lift by the axes u and v, whose sum is x0 less its constant.  p0 + I1
    is the grid's column at the node nearest v = 0, where I2 is exactly 0,
    and I2 is integrated again as the builder integrated it."""
    gen = None if isinstance(s, Grid2D) else s.generators
    if gen is None:
        return None
    T1, T2, vals = gen.T1, gen.T2, s.grid.values
    a, b = vals[:, T2.base_index(), -3:], cumulative_integral(T2).points
    if vals.shape[2] == 4:
        a, b = np.column_stack((T1.ts, a)), np.column_stack((T2.ts, b))
    return a, b


def _diagonal_axes(x1: np.ndarray, x2: np.ndarray, direction: str) -> tuple:
    """The source abscissae ud, vd of the square target grid x1 x x2, and
    M, o: target node (a, b) reads (ud[iu], vd[iv]), (iu, iv) = M (a, b) +
    o.  ud and vd increase and hold 2n - 1 values each, each computed from
    one representative pair of x1 and x2 entries."""
    n = x1.size
    k = np.arange(2 * n - 1)
    d = k - (n - 1)
    # in-range index pairs (hi, lo) with difference d and (ka, k - ka)
    # with sum k
    hi, lo = np.maximum(d, 0), np.maximum(-d, 0)
    ka = np.minimum(k, n - 1)
    if direction == "uv_to_ts":
        # u = (x1[a] - x2[b]) / 2 by a - b, v = (x1[a] + x2[b]) / 2 by a + b
        ud = (x1[hi] - x2[lo]) / 2.0
        vd = (x1[ka] + x2[k - ka]) / 2.0
        M, o = np.array([[1, -1], [1, 1]]), (n - 1, 0)
    else:
        # u = x1[a] + x2[b] by a + b, v = x2[b] - x1[a] by b - a
        ud = x1[ka] + x2[k - ka]
        vd = x2[hi] - x1[lo]
        M, o = np.array([[1, 1], [-1, 1]]), (0, n - 1)
    return ud, vd, M, o


@_by_value
def _diagonal_reader(x1: np.ndarray, x2: np.ndarray, direction: str,
                     tx: np.ndarray, ty: np.ndarray):
    """A function of a bicubic ``sp`` of knots ``tx``, ``ty`` that returns
    its values on the square target grid x1 x x2 from two parity sub-grids
    of the tensor grid ud x vd of ``_diagonal_axes``, bit for bit the
    products B_x C B_y^T on that tensor grid.

    iu + iv has the parity q of n - 1 at every target, so the targets with
    even iu read ud[0::2] x vd[q::2] and those with odd iu read ud[1::2] x
    vd[1-q::2]: about half of the tensor grid.  The four design matrices
    of those axes are built once per reader, and the reader is memoized
    by ``_splines._by_value``, keyed by the target axes, the direction
    and the knots, its matrices out of reach of callers, so every fit of
    a call, and later calls on the same grids, read the same matrices.  On
    each parity class (a mod 2, b mod 2) iu and iv step by +-2, so the
    class is one strided view of one sub-grid.  Each product sums a
    point's own row of B in one order, so a value does not depend on the
    other points evaluated with it."""
    n = x1.size
    ud, vd, M, o = _diagonal_axes(x1, x2, direction)
    q = (n - 1) % 2
    bs = [(design_matrix(ud[p::2], tx), design_matrix(vd[(p + q) % 2::2], ty))
          for p in (0, 1)]

    def read(sp):
        sub = [(by @ (bx @ sp.c).T).T for bx, by in bs]
        out = np.empty((n, n))
        for pa, pb in ((0, 0), (0, 1), (1, 0), (1, 1)):
            iu, iv = M @ (pa, pb) + o
            s, target = sub[iu % 2], out[pa::2, pb::2]
            target[...] = as_strided(s[iu // 2, iv // 2:], target.shape,
                                     M.T @ s.strides, writeable=False)
        return out
    return read


def equivalent_immersion(g: Grid2D, direction: str = "uv_to_ts") -> Grid2D:
    """Resample through the linear coordinate change t = u+v, s = -u+v.

    Forward maps a (u, v) grid to X~(t, s) = X((t-s)/2, (t+s)/2); inverse
    maps a (t, s) grid to X(u, v) = Y(u+v, -u+v).  The target rectangle is
    the largest one inscribed in the rotated image of the source domain,
    sampled with the source's node counts; values come from one bicubic
    spline per component through the source samples
    (``RectBivariateSpline``: FITPACK's s = 0 knots, and coefficients from
    one block LU solve per axis, by matmuls over all columns).  Each axis's
    block LU is memoized by its nodes' values (``_splines._by_value``), so
    only node sets the memo has not seen are factored.

    On a square grid both target axes share one spacing, so each source
    abscissa depends on a - b or a + b of the target node (a, b) alone:
    every target is a node of the (2n-1) x (2n-1) tensor grid of those
    abscissae.  Every fit of a call shares its knots, so the design
    matrices of the two parity sub-grids that hold the targets are built
    once, by a reader memoized the same way, and each fit is
    evaluated there and read off by index (``_diagonal_reader``).  A
    non-square grid falls back to evaluation at the n_u n_v scattered
    source points.
    """
    x1, x2 = _target_axes(g, direction)
    vals = g.values
    scalar = vals.ndim == 2
    comps = vals[..., None] if scalar else vals
    if g.nu == g.nv:
        evaluate = _diagonal_reader(x1, x2, direction, knots(g.us),
                                    knots(g.vs))
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
        sp = RectBivariateSpline(g.us, g.vs, comps[..., k])
        out[..., k] = evaluate(sp)
    return _on_axes(x1, x2, out[..., 0] if scalar else out)


def _target_axes(g: Grid2D, direction: str) -> tuple:
    """The axes x1, x2 of ``equivalent_immersion``'s target rectangle for
    the source grid ``g``, with its guards."""
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
    return x1, x2


def _on_axes(x1: np.ndarray, x2: np.ndarray, values: np.ndarray) -> Grid2D:
    """The grid of ``values`` at the nodes x1 x x2."""
    return Grid2D(u_min=float(x1[0]), v_min=float(x2[0]),
                  du=float(x1[1] - x1[0]), dv=float(x2[1] - x2[0]),
                  values=values)


def _read_only(a: np.ndarray) -> np.ndarray:
    """Mark an array kept on a surface read-only and return it."""
    a.flags.writeable = False
    return a


def euclidean_shape(n: NetSurface) -> EuclideanShape:
    """Gauss map, second form and Gaussian curvature of the net in E,
    computed once per net; its arrays are read-only.

    For a net with generators (``build_first_kind``) they are exact in the
    generators and come from products of the 1-D curves: each component
    (T1 x T2)_k = T1_i T2_j - T1_j T2_i, (i, j) = (k+1, k+2) mod 3, is a
    rank-2 matrix product; N = T1 x T2 / |T1 x T2| with the norm of those
    three grids (|T| may miss 1 by 1e-9 on a ``SphereCurve``, so it is not
    sqrt(1 - F^2)); e = <T1', N> = ((T1' x T1) T2^T) / |T1 x T2| and
    g = <T2', N> = (T1 (T2 x T2')^T) / |T1 x T2|, the determinants
    det(T1', T1, T2) and det(T2', T1, T2) over |T1 x T2|; f = 0 and
    K_T = e g / (1 - F^2).  T1' and T2' are differenced along the curves,
    ``gauss_map`` is a (nu, nv, 3) view of a (3, nu, nv) array and f is
    read-only broadcast zeros, no stored grid.
    Otherwise every partial is differenced from the grid.
    """
    return n._shape


def _generator_tangents(gen: Generators) -> tuple:
    """T1(u) and T2(v) as read-only (nu, nv, 3) broadcast views."""
    shape = (gen.T1.n, gen.T2.n, 3)
    return (np.broadcast_to(gen.T1.points[:, None, :], shape),
            np.broadcast_to(gen.T2.points[None, :, :], shape))


def _generator_shape(gen: Generators) -> tuple:
    """Gauss map, e and g of ``euclidean_shape`` on the generator route,
    from products of the 1-D curves: the Gauss map is a (nu, nv, 3) view
    of a read-only (3, nu, nv) array."""
    P1, P2 = gen.T1.points, gen.T2.points
    N = np.empty((3, gen.T1.n, gen.T2.n))
    for k in range(3):
        i, j = (k + 1) % 3, (k + 2) % 3
        np.matmul(P1[:, [i, j]], np.stack([P2[:, j], -P2[:, i]]), out=N[k])
    norm = _vector_norm(N.transpose(1, 2, 0))
    N /= norm
    T1p = diff_samples(P1, gen.T1.dt, 1)
    T2p = diff_samples(P2, gen.T2.dt, 1)
    e = cross(T1p, P1) @ P2.T
    e /= norm
    g = P1 @ cross(P2, T2p).T
    g /= norm
    return _read_only(N).transpose(1, 2, 0), e, g


def _shape_of(n: NetSurface) -> EuclideanShape:
    gen, g = n.generators, n.grid
    if gen is None:
        if g.values.ndim != 3 or g.values.shape[2] != 3:
            raise BadGrid("euclidean_shape expects a grid of E-points")
        Xu, Xv = partials(g, "u"), partials(g, "v")
        E, F, G = (np.einsum("ijk,ijk->ij", a, b)
                   for a, b in ((Xu, Xu), (Xu, Xv), (Xv, Xv)))
        det = E * G - F * F
    else:
        det = 1.0 - n.F * n.F
    if det.min() <= 1e-9:
        raise DegenerateMetric(
            f"EG - F^2 reaches {det.min():.3e}; shape quantities undefined")
    if gen is None:
        gauss = cross(Xu, Xv)
        gauss /= _vector_norm(gauss)[..., None]
        Xuu = partials(g, "uu")
        Xvv = partials(g, "vv")
        Xuv = diff_samples(Xu, g.dv, 1, axis=1)
        e = np.einsum("ijk,ijk->ij", Xuu, gauss)
        f = np.einsum("ijk,ijk->ij", Xuv, gauss)
        gg = np.einsum("ijk,ijk->ij", Xvv, gauss)
        K_T = (e * gg - f * f) / det
    else:
        gauss, e, gg = _generator_shape(gen)
        # f = 0 by construction, and e g - 0 0 is e g bit for bit
        f = np.broadcast_to(0.0, e.shape)
        K_T = e * gg / det
    return EuclideanShape(
        gauss_map=_read_only(gauss), e=_read_only(e), f=_read_only(f),
        g=_read_only(gg), K_T=_read_only(K_T))


def _angle_partials(theta: np.ndarray, g: Grid2D, which: tuple) -> tuple:
    """The partials of the angle field ``theta`` on the nodes of ``g``
    named in ``which``, a subset of ("u", "v", "uv") returned in that
    order.  theta_u is always differenced, and theta_uv is differenced
    from it along v."""
    tu = diff_samples(theta, g.du, 1, axis=0)
    out = {"u": tu}
    if "v" in which:
        out["v"] = diff_samples(theta, g.dv, 1, axis=1)
    if "uv" in which:
        out["uv"] = diff_samples(tu, g.dv, 1, axis=1)
    return tuple(out[w] for w in which)


def sine_gordon_residual(n: NetSurface, shape: EuclideanShape) -> Grid2D:
    """Residual theta_uv + K_T sin theta on interior nodes.

    Interior means nodes where the centered stencils apply (two-node trim);
    near theta = 0 or pi the arccos differencing degenerates and values
    there should be judged with the usual degenerate-angle mask.  sin theta
    is read from the stored metric coefficient F = cos theta as
    sqrt((1 - F)(1 + F)), with F clipped to [-1, 1] as theta is, and only
    on those interior nodes.
    """
    g = n.grid
    theta_uv, = _angle_partials(n.theta, g, ("uv",))
    it = slice(2, -2)
    F = np.clip(n.F[it, it], -1.0, 1.0)
    res = 1.0 - F
    F += 1.0
    res *= F
    del F
    np.sqrt(res, out=res)   # sin theta
    res *= shape.K_T[it, it]
    res += theta_uv[it, it]
    return Grid2D(u_min=g.u_min + 2 * g.du, v_min=g.v_min + 2 * g.dv,
                  du=g.du, dv=g.dv, values=res)


# ---------------------------------------------------------------------------
# gallery

@dataclass(frozen=True)
class Gallery:
    """A gallery net with closed-form oracle fields.

    For ``critical`` the oracles are the metric coefficient F, the Gauss
    map, the second-form coefficients and K_T on the net grid.  For
    ``noncritical`` the rotational surface is provided on its native (t, s)
    grid with its first form (x^2, 0, x'^2 + y'^2) in s, and ``net``
    carries the Chebyshev-equivalent (u, v) immersion evaluated exactly.
    Every oracle is read-only.  The F oracle is the net's own F, which is
    read-only too, so neither can be written to move the other.
    """

    net: NetSurface
    oracles: dict
    ts_grid: Optional[Grid2D] = None
    ts_forms: Optional[tuple] = None


def _critical_gallery(nu, nv) -> Gallery:
    us = np.linspace(*_CRITICAL_RANGE, nu)
    vs = np.linspace(*_CRITICAL_RANGE, nv)
    su, cu = np.sin(us)[:, None], np.cos(us)[:, None]
    sv, cv = np.sin(vs)[None, :], np.cos(vs)[None, :]
    # X = int (cos, sin, 0) du + int (0, sin, cos) dv, in closed form
    X = np.empty((nu, nv, 3))
    X[..., 0], X[..., 2] = su, sv
    np.subtract(2.0 - cu, cv, out=X[..., 1])
    grid = grid_from_ranges(_CRITICAL_RANGE, _CRITICAL_RANGE, X)
    F = su * sv
    net = NetSurface(grid=grid, F=F)
    root = su**2 * sv**2
    np.sqrt(np.subtract(1.0, root, out=root), out=root)
    gauss = np.empty((nu, nv, 3))
    for k, (a, b) in enumerate(((su, cv), (-cu, cv), (cu, sv))):
        np.multiply(a, b, out=gauss[..., k])
    gauss /= root[..., None]
    oracles = {
        "F": F,
        "gauss_map": gauss,
        "second_e": -cv / root,
        "second_f": np.zeros_like(F),
        "second_g": -cu / root,
        "K_T": np.divide(cu * cv, np.power(root, 4, out=root), out=root),
    }
    return Gallery(net=net, oracles={k: _read_only(a)
                                     for k, a in oracles.items()})


def _profile_x(s):
    """x = tanh(s)/2, the radius of the rotational example's profile."""
    return np.tanh(s) / 2.0


def _profile_yp(s):
    return 0.5 * np.sqrt(4.0 - np.tanh(s)**2 - 1.0 / np.cosh(s)**4)


@lru_cache(maxsize=None)
def _profile_y():
    """The profile's height y, a ``CubicSpline`` of the quadrature of
    y' = sqrt(4 - tanh^2 s - sech^4 s)/2 on [0, 2.5] at step 1e-4."""
    sf = np.linspace(0.0, 2.5, 25001)
    return CubicSpline(sf, cumulative_samples(_profile_yp(sf), sf[1] - sf[0]))


def _noncritical_gallery(nu, nv) -> Gallery:
    t_range = (-np.pi + 0.05, np.pi - 0.05)
    s_range = (0.25, 2.0)  # s = 0 degenerates the immersion
    x, y = _profile_x, _profile_y()
    ts = np.linspace(*t_range, nu)
    ss = np.linspace(*s_range, nv)
    xs = x(ss)
    Y = np.empty((nu, nv, 3))
    np.multiply(xs, np.cos(ts)[:, None], out=Y[..., 0])
    np.multiply(xs, np.sin(ts)[:, None], out=Y[..., 1])
    Y[..., 2] = y(ss)
    ts_grid = grid_from_ranges(t_range, s_range, Y)
    ts_forms = tuple(np.broadcast_to(a, (nu, nv)) for a in (
        xs**2, np.zeros(nv), (1.0 / np.cosh(ss)**2 / 2.0)**2 + y(ss, 1)**2))

    # Chebyshev-equivalent (u, v) immersion on the inscribed square,
    # evaluated exactly through t = u + v, s = -u + v.
    half = min(ts[-1] - ts[0], ss[-1] - ss[0]) / 4.0
    uc = (ts[0] + ts[-1]) / 4.0 - (ss[0] + ss[-1]) / 4.0
    vc = (ts[0] + ts[-1]) / 4.0 + (ss[0] + ss[-1]) / 4.0
    us = np.linspace(uc - half, uc + half, nu)
    vs = np.linspace(vc - half, vc + half, nv)
    Tq, Sq = us[:, None] + vs, vs - us[:, None]
    xq = x(Sq)
    X = np.empty((nu, nv, 3))
    np.multiply(xq, np.cos(Tq), out=X[..., 0])
    np.multiply(xq, np.sin(Tq), out=X[..., 1])
    X[..., 2] = y(Sq)
    grid = grid_from_ranges((us[0], us[-1]), (vs[0], vs[-1]), X)
    F = 2.0 * xq**2 - 1.0
    net = NetSurface(grid=grid, F=F)
    return Gallery(net=net, oracles={"F": _read_only(F)},
                   ts_grid=ts_grid, ts_forms=ts_forms)


def gallery(name: str, nu: int = 201, nv: int = 201) -> Gallery:
    """The two worked examples: ``critical`` (minimal lift) and
    ``noncritical`` (rotational surface with nonvanishing H).  Each field
    that separates (every critical one, the noncritical (t, s) ones) is
    built from sin, cos, x, y, y' and sech^2 taken once per axis, in the
    node-wise formula's order of operations.  The noncritical (u, v)
    immersion is evaluated node by node: its t = u + v and s = v - u are
    not exact functions of i + j and j - i in floats."""
    if name == "critical":
        return _critical_gallery(nu, nv)
    if name == "noncritical":
        return _noncritical_gallery(nu, nv)
    raise BadGrid(f"unknown gallery entry {name!r}")
