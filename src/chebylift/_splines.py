"""The library's spline fits, with scipy imported on the first fit: building
a net or a lift fits none, and ``scipy.interpolate`` is most of the
library's import time.

``CubicSpline`` is scipy's.  ``RectBivariateSpline`` is the interpolating
bicubic of a tensor grid, the spline FITPACK's class of that name fits with
kx = ky = 3 and s = 0 (its knots, and its coefficients up to roundoff).  It
is the tensor product of the 1-D not-a-knot cubic interpolants of the two
axes (Dierckx, *Curve and Surface Fitting with Splines*, 1993; de Boor,
*A Practical Guide to Splines*), so its coefficients come from one solve
with each axis's collocation matrix, each over every column of the grid at
once.

Each solve is a block LU of the collocation matrix A, taken ``_BLOCK`` rows
at a time with no pivoting between blocks, and applied by dense ``matmul``s
over all columns.  A is banded, so its blocks are block tridiagonal, and it
is totally positive, so elimination without pivoting is stable (de Boor &
Pinkus, *Numer. Math.* 27, 1977).

A and its ``knots`` depend on the nodes alone, so an axis's block LU is
memoized (``_factors``), keyed by the nodes' values: a fit factors only
node sets the memo has not seen, and the fits of one coordinate change,
or of repeated ones on the same grid, share their factorizations.  Its
arrays are read-only.  ``_by_value`` builds such memos and states their
bound.
"""

from functools import lru_cache, wraps

import numpy as np

from .errors import BadGrid

#: kl = ku of a collocation matrix: a row of ``design_matrix`` holds four
#: entries, at most 3 off the diagonal
_BAND = 3
#: rows per block of the block LU.  At least ``_BAND``, so that a block
#: couples to its two neighbours only.  A block's dense product costs 2 b
#: flops per entry of the right-hand side, against about 20 for a banded
#: LU's sweeps, but runs as one matmul over all columns; each block costs
#: a few Python steps per sweep and a b x b inverse.  A fit at n = 201 or
#: 801 takes within 10% of its best time for b from 16 to 32, least near
#: 20 to 24.
_BLOCK = 24
#: entries each memo keeps, the least recently used dropped first.  A
#: coordinate change's round trip asks for at most 4 node sets and 2
#: diagonal readers, so the round trips of four grids all fit.
_MEMO = 16


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


def _by_value(fn):
    """``fn`` memoized by the values of its float array arguments, keyed by
    their bytes, and by its other arguments: the last ``_MEMO`` calls are
    kept, and ``.cache_clear()`` empties the memo.  At n = 801 an entry
    holds about 0.2 MB for a block LU (``_factors``) and 0.17 MB for a
    diagonal reader (``chebnet._diagonal_reader``).  ``fn`` receives the
    arrays as read-only 1-D copies, and its results are shared by every
    caller of the same values."""
    memo = lru_cache(maxsize=_MEMO)(lambda *key: fn(*(
        np.frombuffer(k) if isinstance(k, bytes) else k for k in key)))

    @wraps(fn)
    def call(*args):
        return memo(*(np.asarray(a, dtype=float).tobytes()
                      if isinstance(a, np.ndarray) else a for a in args))
    call.cache_clear, call.cache_info = memo.cache_clear, memo.cache_info
    return call


@_by_value
def _factors(x: np.ndarray) -> tuple:
    """The ``_block_lu`` of the nodes ``x``, memoized by ``_by_value``, its
    arrays S and J read-only."""
    lu = _block_lu(x, knots(x))
    for a in lu:
        a.flags.writeable = False
    return lu


def RectBivariateSpline(x, y, z) -> "Bicubic":
    """The bicubic spline through the values ``z`` (len(x), len(y)) at the
    nodes x × y, x and y strictly increasing with at least 4 entries each.

    An axis's knots are its ``knots``.  The coefficients C solve
    A_x C A_y^T = z, A the collocation matrix B_j(x_i) of an axis.  Each
    A's block LU comes from the memo ``_factors``, keyed by the axis's
    nodes, so it is computed only for nodes the memo has not seen
    (``_by_value``).  C takes one solve per axis over all columns
    (``_block_solve``): first of A_y on a C-contiguous copy of z^T, then of
    A_x on the transpose of that solution, so a strided ``z`` gives the
    coefficients of its contiguous copy bit for bit.  C is row-major, the
    layout its evaluations read.  On a tensor grid its values are B_x C B_y^T with
    the ``design_matrix``es B of the points' axes.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if not (np.all(np.diff(x) > 0) and np.all(np.diff(y) > 0)):
        raise BadGrid("spline nodes must be strictly increasing")
    tx, ty = knots(x), knots(y)
    # two buffers, each the other's scratch: z^T, solved by A_y into w;
    # then w^T, copied over z^T, solved by A_x into w
    zt = np.array(np.asarray(z, dtype=float).T, order="C")
    w = np.empty_like(zt)
    _block_solve(_factors(y), zt, w)
    wt = zt.reshape(x.size, y.size)
    np.copyto(wt, w.T)
    return Bicubic(tx, ty, _block_solve(_factors(x), wt,
                                        w.reshape(x.size, y.size)))


def _block_lu(x: np.ndarray, t: np.ndarray) -> tuple:
    """The block LU of the collocation matrix A of the nodes ``x`` and
    knots ``t``, built from A's band: (S, J), with S[k] the inverse of the
    k-th Schur complement and J[k] its coupling factors.

    A's blocks of b = ``_BLOCK`` rows and columns are block tridiagonal:
    D_k on the diagonal, and E_k below and F_k above it, whose only
    nonzeros are the corners E_k[:w, -w:] and F_k[-w:, :w], w = ``_BAND``.
    Elimination without pivoting (A is totally positive) leaves the Schur
    complements S_0 = D_0 and S_k = D_k - E_k S_{k-1}^-1 F_{k-1}, which
    differ from D_k in their leading w x w corner alone.  J[k] is the b x 2w
    pair [S_k^-1 E_k, S_k^-1 F_k], each restricted to its w nonzero
    columns.  The last block, of r <= b rows, is padded with the identity,
    so S and J are (m, b, b) and (m, b, 2w), m = ceil(n / b): no n x n
    array is formed.
    """
    b, w = _BLOCK, _BAND
    a = design_matrix(x, t).tocoo()
    n = x.size
    m = -(-n // b)
    D = np.zeros((m, b, b))
    pad = np.arange(n - (m - 1) * b, b)
    D[-1, pad, pad] = 1.0
    E = np.zeros((m, w, w))     # E[k], F[k] the corners of E_k, F_k
    F = np.zeros((m, w, w))
    (i, ri), (j, rj) = (np.divmod(a.row, b)), (np.divmod(a.col, b))
    for corner, di, dj, keep in ((D, 0, 0, i == j), (E, 0, w - b, j < i),
                                 (F, w - b, 0, j > i)):
        corner[i[keep], ri[keep] + di, rj[keep] + dj] = a.data[keep]
    S = np.empty((m, b, b))
    S[0] = np.linalg.inv(D[0])
    for k in range(1, m):
        D[k, :w, :w] -= E[k] @ S[k - 1, -w:, -w:] @ F[k - 1]
        S[k] = np.linalg.inv(D[k])
    J = np.empty((m, b, 2 * w))
    np.matmul(S[:, :, :w], E, out=J[..., :w])
    np.matmul(S[:, :, -w:], F, out=J[..., w:])
    return S, J


def _block_solve(lu: tuple, z: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The solution X of A X = ``z`` into ``out``, both C-contiguous (n, k)
    and z overwritten, by the block LU ``lu`` of A (``_block_lu``).

    With y_k = S_k^-1 w_k the block solutions of L w = z, X_k = y_k -
    S_k^-1 F_k X_{k+1} and y_k = S_k^-1 z_k - S_k^-1 E_k y_{k-1}.  E_k
    reads the last w rows a_{k-1} of y_{k-1}, and F_k the first w rows
    e_{k+1} of X_{k+1}, so X_k = S_k^-1 z_k - J_k g_k with g_k = [a_{k-1};
    e_{k+1}].  The products S_k^-1 z_k of all blocks take one batched
    ``matmul``, and so do the J_k g_k, written over z; only the w-row
    recurrences of a and e run block by block.
    """
    S, J = lu
    b, w = _BLOCK, _BAND
    m = S.shape[0]
    (n, cols), f = z.shape, (m - 1) * b
    zb, Xb = (a[:f].reshape(m - 1, b, cols) for a in (z, out))
    np.matmul(S[:-1], zb, out=Xb)
    # the last block's S^-1 z, padded to b rows of which the pad's are 0
    P = [*Xb, S[-1, :, :n - f] @ z[f:]]
    g = np.zeros((m, 2 * w, cols))      # g[k] = [a_{k-1}; e_{k+1}]
    for k in range(1, m):
        g[k, :w] = P[k - 1][-w:] - J[k - 1, -w:, :w] @ g[k - 1, :w]
    for k in range(m - 1, 0, -1):
        g[k - 1, w:] = P[k][:w] - J[k, :w] @ g[k]
    Xb -= np.matmul(J[:-1], g[:-1], out=zb)
    out[f:] = P[-1][:n - f] - J[-1, :n - f] @ g[-1]
    return out


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
