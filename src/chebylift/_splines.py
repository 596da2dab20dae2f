"""The library's spline fits, with scipy imported on the first fit: building
a net or a lift fits none, and ``scipy.interpolate`` is most of the
library's import time.

``CubicSpline`` is scipy's.  ``RectBivariateSpline`` is the interpolating
bicubic of a tensor grid, the spline FITPACK's class of that name fits with
kx = ky = 3 and s = 0 (its knots, and its coefficients up to roundoff).  It
is the tensor product of the 1-D not-a-knot cubic interpolants of the two
axes, so its coefficients come from two banded solves that each take every
column of the grid at once (Dierckx, *Curve and Surface Fitting with
Splines*, 1993; de Boor, *A Practical Guide to Splines*).  Its ``knots``
depend on the nodes alone, so a caller that evaluates several fits on one
tensor grid builds the ``design_matrix`` of each axis once.
"""

import numpy as np

from .errors import BadGrid


def CubicSpline(*args, **kwargs):
    from scipy.interpolate import CubicSpline
    return CubicSpline(*args, **kwargs)


def knots(x: np.ndarray) -> np.ndarray:
    """FITPACK's cubic s = 0 knots of the nodes ``x``: its ends four times
    and its nodes but the second and the last but one once."""
    return np.concatenate(((x[0],) * 4, x[2:-2], (x[-1],) * 4))


def design_matrix(xs, t: np.ndarray):
    """The sparse matrix B_j(xs_i) of the cubic B-splines of the knots
    ``t``, the points clamped to the knots' span as FITPACK clamps them."""
    from scipy.interpolate import BSpline
    return BSpline.design_matrix(np.clip(xs, t[0], t[-1]), t, 3)


def RectBivariateSpline(x, y, z) -> "Bicubic":
    """The bicubic spline through the values ``z`` (len(x), len(y)) at the
    nodes x × y, x and y strictly increasing with at least 4 entries each.

    An axis's knots are its ``knots``.  The coefficients C solve
    A_x C A_y^T = z, A the collocation matrix B_j(x_i) of an axis, banded
    with kl = ku = 3.  Each A is LU-factored once, and C takes one solve
    per axis over all columns.  On a tensor grid its values are
    B_x C B_y^T with the ``design_matrix``es B of the points' axes.
    """
    from scipy.linalg.lapack import dgbtrf, dgbtrs

    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if not (np.all(np.diff(x) > 0) and np.all(np.diff(y) > 0)):
        raise BadGrid("spline nodes must be strictly increasing")
    t, lu = [], []
    for a in (x, y):
        t.append(knots(a))
        b = design_matrix(a, t[-1]).tocoo()
        ab = np.zeros((10, a.size))     # LAPACK's band storage of A
        ab[6 + b.row - b.col, b.col] = b.data
        lu.append(dgbtrf(ab, 3, 3, overwrite_ab=True)[:2])
    # LAPACK returns column-major solutions: C^T of the second solve is
    # column-major, so C is row-major, the layout its evaluations read
    w = dgbtrs(lu[0][0], 3, 3, np.asarray(z, dtype=float), lu[0][1])[0]
    return Bicubic(t[0], t[1], dgbtrs(lu[1][0], 3, 3, w.T, lu[1][1])[0].T)


class Bicubic:
    """A bicubic spline of knots ``tx``, ``ty`` and coefficients ``c``.

    Like FITPACK's, its evaluations clamp points to the knots' span."""

    def __init__(self, tx: np.ndarray, ty: np.ndarray, c: np.ndarray):
        self.tx, self.ty, self.c = tx, ty, c

    def ev(self, xs, ys) -> np.ndarray:
        """Values at the points (xs[i], ys[i])."""
        from scipy.interpolate import NdBSpline
        pts = np.stack([np.clip(xs, self.tx[0], self.tx[-1]),
                        np.clip(ys, self.ty[0], self.ty[-1])], axis=-1)
        return NdBSpline((self.tx, self.ty), self.c, 3)(pts)
