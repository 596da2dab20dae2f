"""The library's spline fits, with scipy imported on the first fit: building
a net or a lift fits none, and ``scipy.interpolate`` is most of the
library's import time.

``CubicSpline`` is scipy's.  ``RectBivariateSpline`` is the interpolating
bicubic of a tensor grid, the spline FITPACK's class of that name fits with
kx = ky = 3 and s = 0 (its knots, and its coefficients up to roundoff).  It
is the tensor product of the 1-D not-a-knot cubic interpolants of the two
axes, so its coefficients come from two banded solves that each take every
column of the grid at once (Dierckx, *Curve and Surface Fitting with
Splines*, 1993; de Boor, *A Practical Guide to Splines*).
"""

import numpy as np

from .errors import BadGrid


def CubicSpline(*args, **kwargs):
    from scipy.interpolate import CubicSpline
    return CubicSpline(*args, **kwargs)


def RectBivariateSpline(x, y, z) -> "Bicubic":
    """The bicubic spline through the values ``z`` (len(x), len(y)) at the
    nodes x × y, x and y strictly increasing with at least 4 entries each.

    An axis's knots are FITPACK's s = 0 knots, its ends four times and
    its nodes but the second and the last but one once.  The coefficients
    C solve A_x C A_y^T = z, A the collocation matrix B_j(x_i) of an axis,
    banded with kl = ku = 3.  Each A is LU-factored once, and C takes one
    solve per axis over all columns.
    """
    from scipy.interpolate import BSpline
    from scipy.linalg.lapack import dgbtrf, dgbtrs

    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if not (np.all(np.diff(x) > 0) and np.all(np.diff(y) > 0)):
        raise BadGrid("spline nodes must be strictly increasing")
    t, lu = [], []
    for a in (x, y):
        t.append(np.concatenate(((a[0],) * 4, a[2:-2], (a[-1],) * 4)))
        b = BSpline.design_matrix(a, t[-1], 3).tocoo()
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

    def __call__(self, xs, ys) -> np.ndarray:
        """Values on the tensor grid xs × ys, B_x C B_y^T with the sparse
        design matrices B of the points.  Each product sums a point's own
        row of B in one order, so a value does not depend on the other
        points evaluated with it, bit for bit."""
        from scipy.interpolate import BSpline
        bx, by = (BSpline.design_matrix(np.clip(p, t[0], t[-1]), t, 3)
                  for p, t in ((xs, self.tx), (ys, self.ty)))
        return (by @ (bx @ self.c).T).T

    def ev(self, xs, ys) -> np.ndarray:
        """Values at the points (xs[i], ys[i])."""
        from scipy.interpolate import NdBSpline
        pts = np.stack([np.clip(xs, self.tx[0], self.tx[-1]),
                        np.clip(ys, self.ty[0], self.ty[-1])], axis=-1)
        return NdBSpline((self.tx, self.ty), self.c, 3)(pts)
