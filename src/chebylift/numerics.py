"""Grid-based numerical kernels shared by the geometry modules.

Uniform grids only.  Derivatives use 5-point stencils centered in the
interior (fourth order for first derivatives) and one-sided windows of
max(5, order + 3) nodes at the boundary, so that every boundary stencil is
at least O(h^3) (a 5-point one-sided third derivative is O(h^2), with 7
times the error constant of the centred one); all are exact on polynomials
of degree <= 2.  Every stencil is applied to differences of samples, so the
derivative of constant data is exactly 0 in floating point, not a roundoff
residue that later divisions and differencings would amplify.  The stencil
kernel views its input as (P, n, Q), with the differenced axis in the
middle, and runs over cache-sized blocks of it: the result is bit-identical
to the unblocked stencil, and about one output array is alive while it
runs.  ``cross`` runs ``np.cross`` over such blocks.  Cumulative
quadrature sums a 4-point rule per interval, global error O(dt^4) and
smooth from node to node, so quadrature error stays negligible against
differentiation error downstream.

The metric checks (``_form_sups``) walk a grid in slabs of rows, through
buffers made once per call.  A slab's f_u and f_v come from the
``_apply_at`` windows of ``diff_samples``, the u stencil reading its halo
rows from the whole grid, and its inner products are the whole grid's
elementwise (an einsum on 3-vectors, ``mk.inner``'s sum in its order on
4-vectors).  The first of the slabs' first maxima or NaNs is
``np.argmax``'s, so each check equals ``sup_check``'s bit for bit.

Values are checked where they enter: a ``Grid2D`` or ``SampledCurve``
checks its shape, spacing and nodes and scans its values for NaN and inf,
bar the sums of checked curves that ``_unscanned_grid`` wraps.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from math import factorial, prod
from typing import Optional

import numpy as np

from .errors import (BadGrid, BadSphereCurve, Check, DegenerateAngle,
                     NotRegular)

KAPPA_TOL = 1e-7
STENCIL_WIDTH = 5
#: bytes of output one block of diff_samples or cross writes; sized so a
#: block and its temporaries stay in a core's cache
_BLOCK_BYTES = 256 * 1024


# ---------------------------------------------------------------------------
# domain types

@dataclass(frozen=True)
class Grid2D:
    """Uniformly spaced rectangular grid; node (i, j) sits at
    (u_min + i*du, v_min + j*dv).  ``values`` is (nu, nv) for scalar fields
    or (nu, nv, k) for vector payloads; nodes and values must be finite."""

    u_min: float
    v_min: float
    du: float
    dv: float
    values: np.ndarray

    @np.errstate(over="ignore")     # a last node that overflows fails
    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if v.ndim not in (2, 3):
            raise BadGrid("grid payload must be (nu, nv) or (nu, nv, k)")
        if v.shape[0] < 3 or v.shape[1] < 3:
            raise BadGrid("grids need at least 3 nodes per direction")
        if not (0 < self.du < np.inf and 0 < self.dv < np.inf):
            raise BadGrid("grid spacings must be finite and positive")
        if not (np.isfinite(self.u_min + self.du * (v.shape[0] - 1))
                and np.isfinite(self.v_min + self.dv * (v.shape[1] - 1))):
            raise BadGrid("grid nodes must be finite")
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


def _unscanned_grid(u_min, v_min, du, dv, values: np.ndarray) -> Grid2D:
    """``Grid2D`` unchecked, for ``chebnet._first_kind``'s row-checked sums."""
    g = object.__new__(Grid2D)
    g.__dict__.update(u_min=u_min, v_min=v_min, du=du, dv=dv, values=values)
    return g


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

    @np.errstate(over="ignore")     # a last node that overflows fails
    def __post_init__(self):
        p = np.asarray(self.points, dtype=float)
        object.__setattr__(self, "points", p)
        if p.ndim != 2:
            raise BadGrid("curve points must be a (n, k) array")
        if p.shape[0] < 5:
            raise BadGrid("curves need at least 5 nodes")
        if not 0 < self.dt < np.inf:
            raise BadGrid("curve spacing must be finite and positive")
        if not np.isfinite(self.t_min + self.dt * (p.shape[0] - 1)):
            raise BadGrid("curve nodes must be finite")
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
    return cls(t_min=float(ts[0]), dt=float(ts[1] - ts[0]), points=fn(ts))


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


# ---------------------------------------------------------------------------
# finite differences

@lru_cache(maxsize=None)
def _window_weights(width: int, at: int, order: int) -> tuple:
    """Weights of the ``width``-node window for the node at position ``at``
    within it, as an immutable tuple (h = 1): the stencil exact on
    polynomials of degree below ``width``."""
    A = np.array([[o**k / factorial(k) for o in np.arange(width) - at]
                  for k in range(width)])
    rhs = np.zeros(width)
    rhs[order] = 1.0
    return tuple(np.linalg.solve(A, rhs))


def _apply_at(y: np.ndarray, width: int, at: int, order: int, h: float,
              start: int, out: np.ndarray) -> None:
    """Order-``order`` stencil of the ``width``-node window starting at row
    ``start`` of axis 1 of the (P, n, ...) array ``y``, for the node at
    position ``at`` in it, written into ``out`` of shape (P, count, ...)
    for ``count`` consecutive rows.

    Every row enters as a difference, so the result is exactly 0 on
    constant data: the weight of the row at ``at`` is taken as minus the
    sum of the others.  A centred window pairs the rows at +-k, which for
    odd orders leaves one difference and one product per pair.  Terms are
    accumulated in place in ``out``, so at most one temporary the size of
    ``out`` (a block, in ``diff_samples``) is alive.
    """
    wts = _window_weights(width, at, order)
    scale = h ** -order
    count = out.shape[1]
    rows = lambda j: y[:, start + j:start + j + count]
    ref = rows(at)
    if 2 * at + 1 != width:
        terms = [(wts[j], j) for j in range(width) if j != at]

        def diff(j, o):
            np.subtract(rows(j), ref, out=o)
    elif order % 2:
        terms = [(0.5 * (wts[at + k] - wts[at - k]), k)
                 for k in range(1, at + 1)]

        def diff(k, o):
            np.subtract(rows(at + k), rows(at - k), out=o)
    else:
        terms = [(0.5 * (wts[at + k] + wts[at - k]), k)
                 for k in range(1, at + 1)]

        def diff(k, o):
            np.subtract(rows(at + k), ref, out=o)
            o += rows(at - k)
            o -= ref
    (wt, j), *rest = terms
    diff(j, out)
    out *= wt * scale
    tmp = np.empty_like(out) if rest else None
    for wt, j in rest:
        diff(j, tmp)
        tmp *= wt * scale
        out += tmp


def diff_samples(values: np.ndarray, h: float, order: int, axis: int = 0) -> np.ndarray:
    """Differentiate uniformly sampled values along ``axis``.

    Interior rows use the centered window of min(5, n) nodes, boundary rows
    the one-sided window of min(max(5, order + 3), n) nodes.  The
    derivative of constant data is exactly 0.

    The values are viewed as (P, n, Q), with the differenced axis in the
    middle, and the stencils run over blocks of about ``_BLOCK_BYTES``: runs
    of P when a whole (n, Q) slab fits in one, otherwise runs of rows of
    one slab.  Each element goes through the same floating-point operations
    in the same order as the unblocked stencil, so the result is
    bit-identical to it.  Besides the output, about one block is alive (one
    boundary row at the edges); an input that no (P, n, Q) view reaches,
    such as a transpose, is copied first.  The result is C-contiguous.
    """
    if not 0 < h < np.inf or order < 1:
        raise BadGrid(f"need a finite spacing h > 0 and an order >= 1 "
                      f"(h = {h}, order {order})")
    a = np.asarray(values, dtype=float)
    if not -a.ndim <= axis < a.ndim:
        raise BadGrid(f"axis {axis} is out of range for {a.ndim}-d values")
    axis %= a.ndim
    n = a.shape[axis]
    w = min(STENCIL_WIDTH, n)
    if w <= order:
        raise BadGrid(f"need more than {order} nodes for order-{order} derivatives")
    P, Q = prod(a.shape[:axis]), prod(a.shape[axis + 1:])
    y = a.reshape(P, n, Q)
    out = np.empty((P, n, Q))
    c = (w - 1) // 2
    end = n - w + c + 1         # one past the last centred row
    rows = max(1, _BLOCK_BYTES // (out.itemsize * max(Q, 1)))
    step = max(1, rows // n)
    for p in range(0, P, step):
        for r in range(c, end, rows):
            _apply_at(y[p:p + step], w, c, order, h, r - c,
                      out[p:p + step, r:min(r + rows, end)])
    _stencil_rows(y, h, order, 0, c, out[:, :c])
    _stencil_rows(y, h, order, end, n, out[:, end:])
    return out.reshape(a.shape)


def _stencil_rows(y: np.ndarray, h: float, order: int, lo: int, hi: int,
                  out: np.ndarray) -> None:
    """Rows ``lo`` to ``hi`` - 1 of the derivative along axis 1 of ``y``
    into ``out``, through the ``_apply_at`` windows of ``diff_samples``."""
    n, w = y.shape[1], min(STENCIL_WIDTH, y.shape[1])
    c = (w - 1) // 2
    end, wb = n - w + c + 1, min(max(w, order + 3), n)
    a, b = max(lo, c), min(hi, end)
    if a < b:
        _apply_at(y, w, c, order, h, a - c, out[:, a - lo:b - lo])
    for i in [*range(lo, min(hi, c)), *range(max(lo, end), hi)]:
        s = 0 if i < c else n - wb
        _apply_at(y, wb, i - s, order, h, s, out[:, i - lo:i - lo + 1])


def cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.cross(a, b)`` of two (m, ..., 3) arrays of one shape, computed
    over blocks of the leading axis so that its temporaries stay in cache;
    the result equals ``np.cross(a, b)`` exactly."""
    if a.shape != b.shape or a.ndim < 2 or a.shape[-1] != 3:
        raise BadGrid("cross expects two (m, ..., 3) arrays of one shape")
    out = np.empty(a.shape, np.result_type(a, b))
    step = max(1, _BLOCK_BYTES // (out.itemsize * max(prod(a.shape[1:]), 1)))
    for i in range(0, len(out), step):
        out[i:i + step] = np.cross(a[i:i + step], b[i:i + step])
    return out


_PARTIALS = {"u", "v", "uu", "vv", "uv"}


def partials(g: Grid2D, which: str) -> np.ndarray:
    """Partial derivative of the grid's values, an array of their shape;
    ``which`` is one of u, v, uu, vv, uv.

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
    return out


# ---------------------------------------------------------------------------
# quadrature

def cumulative_samples(values: np.ndarray, h: float) -> np.ndarray:
    """Cumulative integral from node 0 along axis 0.

    Each interval [x_{k-1}, x_k] gets the 4-point rule through its nearest
    nodes, h/24 (-y_{k-2} + 13 y_{k-1} + 13 y_k - y_{k+1}) inside and the
    shifted 4-point rules on the first and last interval.  Every node then
    carries the same smooth O(h^4) error; alternating rules for even and
    odd nodes would leave an odd/even error pattern that differencing
    amplifies.  Fewer than 4 nodes raise ``BadGrid``.
    """
    y = np.asarray(values, dtype=float)
    n = y.shape[0]
    if n < 4:
        raise BadGrid("cumulative integration needs at least 4 nodes")
    out = np.zeros_like(y)
    step = np.empty_like(y[1:])
    step[0] = 9.0 * y[0] + 19.0 * y[1] - 5.0 * y[2] + y[3]
    step[1:-1] = 13.0 * (y[1:n - 2] + y[2:n - 1]) - (y[0:n - 3] + y[3:n])
    step[-1] = y[n - 4] - 5.0 * y[n - 3] + 19.0 * y[n - 2] + 9.0 * y[n - 1]
    out[1:] = np.cumsum((h / 24.0) * step, axis=0)
    return out


def cumulative_integral(c: SampledCurve) -> SampledCurve:
    """Node-wise integral of the curve, zero at the node nearest t = 0:
    the integral-from-zero convention of the net constructions."""
    acc = cumulative_samples(c.points, c.dt)
    acc = acc - acc[c.base_index()]
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
    return FrenetData(T=T, N=N, B=B, kappa=kappa, tor=tor,
                      degenerate=degenerate)


# ---------------------------------------------------------------------------
# norms

def _vector_norm(x: np.ndarray) -> np.ndarray:
    """Euclidean norm over the last axis: the root of the component
    squares summed in index order, which is how ``np.linalg.norm(x,
    axis=-1)`` sums them, so the result equals it bit for bit, in a few
    whole-grid passes instead of a strided reduction."""
    s = np.square(x[..., 0])
    for k in range(1, x.shape[-1]):
        s += np.square(x[..., k])
    return np.sqrt(s, out=s)


def sup_check(name: str, values: np.ndarray, tol: float = np.inf,
              keep: Optional[np.ndarray] = None, axes: tuple = ()) -> Check:
    """``Check`` of the sup of |values| (the norm over the last axis of a
    (nu, nv, k) field) over the nodes ``keep`` keeps, held to ``tol``.
    ``where`` holds the worst node's index into ``values`` and the entries
    of ``axes``, one parameter array per index, there.  Raises
    ``DegenerateAngle`` when ``keep`` keeps no node."""
    a = np.asarray(values, dtype=float)
    a = _vector_norm(a) if a.ndim == 3 else np.abs(a)
    masked = 0 if keep is None else keep.size - int(np.count_nonzero(keep))
    if keep is not None:
        if masked == keep.size:
            raise DegenerateAngle("no node is left after masking")
        np.copyto(a, -np.inf, where=~keep)
    at = np.unravel_index(int(np.argmax(a)), a.shape)
    return Check(name, float(a[at]), float(tol), (
        tuple(int(i) for i in at),
        tuple(float(ax[i]) for ax, i in zip(axes, at))), masked)


def _form_sups(g: Grid2D, names: tuple, targets: tuple,
               tols: tuple = (np.inf,) * 3, band: int = 0) -> tuple:
    """``Check``s ``names`` (held to ``tols``) of |<f_u,f_u> - g11|,
    |<f_v,f_v> - g22|, |<f_u,f_v> - g12| for ``targets`` (g11, g22, g12),
    scalars or (nu, nv) arrays, over the nodes ``band`` rows in from each
    edge, in slabs: <,> is E's dot product on 3-vectors, the Minkowski one
    on 4-vectors.  Raises ``DegenerateAngle`` if the band keeps no node."""
    vals = g.values
    if vals.ndim != 3 or vals.shape[2] not in (3, 4):
        raise BadGrid("metric checks need a grid of 3- or 4-vectors")
    nu, nv, k = vals.shape
    width, end = nv - 2 * band, nu - band
    if end <= band or width <= 0:
        raise DegenerateAngle("no node is left after masking")
    rows = min(max(1, _BLOCK_BYTES // (8 * width * k)), end - band)
    fu, fv = np.empty((2, rows, width, k))
    res, tmp = np.empty((2, rows, width))
    sups = [[] for _ in names]      # per check: (sup, node) of each slab
    for r in range(band, end, rows):
        m = min(rows, end - r)
        a, b, out = fu[:m], fv[:m], res[:m]
        _stencil_rows(vals[None, :, band:nv - band], g.du, 1, r, r + m,
                      a[None])
        _stencil_rows(vals[r:r + m], g.dv, 1, band, nv - band, b)
        for sup, (x, y), t in zip(sups, ((a, a), (b, b), (a, b)), targets):
            if k == 3:
                np.einsum("ijk,ijk->ij", x, y, out=out)
            else:           # -x0 y0 + x1 y1 + x2 y2 + x3 y3, as mk.inner
                np.negative(np.multiply(x[..., 0], y[..., 0], out=out),
                            out=out)
                for i in (1, 2, 3):
                    out += np.multiply(x[..., i], y[..., i], out=tmp[:m])
            out -= t if np.ndim(t) == 0 else t[r:r + m, band:nv - band]
            j = int(np.argmax(np.abs(out, out=out)))
            sup.append((out.flat[j], (r + j // width, band + j % width)))
    masked = nu * nv - (end - band) * width
    best = [s[int(np.argmax([v for v, _ in s]))] for s in sups]
    return tuple(Check(name, float(v), float(tol), (
        (i, j), (float(g.us[i]), float(g.vs[j]))), masked)
        for name, tol, (v, (i, j)) in zip(names, tols, best))
