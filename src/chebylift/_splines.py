"""The library's cubic splines, built on one kernel: ``_basis``, the four
nonzero cubic B-splines at a point by the Cox-de Boor recursion (de Boor,
*A Practical Guide to Splines*).  No fit or evaluation imports
``scipy.interpolate``; ``design_matrix`` alone loads ``scipy.sparse``.

``CubicSpline`` is the 1-D not-a-knot cubic interpolant and
``RectBivariateSpline`` the interpolating bicubic of a tensor grid, the
spline FITPACK's class of that name fits with kx = ky = 3 and s = 0 (its
knots, and its coefficients up to roundoff).  The not-a-knot interpolant is
the cubic spline of FITPACK's s = 0 knots (``knots``), and the bicubic is
the tensor product of the 1-D interpolants of its two axes (Dierckx, *Curve
and Surface Fitting with Splines*, 1993), so every coefficient comes from a
solve with an axis's collocation matrix A, over every column at once.

Each solve is a block LU of A, taken ``_BLOCK`` rows at a time with no
pivoting between blocks, and applied by dense ``matmul``s over all columns.
A is banded, so its blocks are block tridiagonal, and it is totally
positive, so elimination without pivoting is stable (de Boor & Pinkus,
*Numer. Math.* 27, 1977).

A and its ``knots`` depend on the nodes alone, so an axis's block LU is
memoized (``_factors``), keyed by the nodes' values: a fit factors only
node sets the memo has not seen, and the fits of one coordinate change,
or of repeated ones on the same grid, share their factorizations.  Its
arrays are read-only.  ``_by_value`` builds such memos and states their
bound.
"""

from functools import lru_cache, wraps

import numpy as np

from .errors import BadGrid, BadInput
from .numerics import _BLOCK_BYTES

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
#: most nodes of a 1-D fit whose block LU the memo keeps.  An entry holds
#: 240 bytes per node, so one of this size takes 1 MB; a longer node set,
#: such as the 25001 of the noncritical gallery's profile, fit once, is
#: factored and dropped.
_MEMO_NODES = 4096


def knots(x: np.ndarray) -> np.ndarray:
    """FITPACK's cubic s = 0 knots of the nodes ``x``: its ends four times
    and its nodes but the second and the last but one once.  ``BadGrid``
    unless x is 1-D, with at least 4 entries, strictly increasing."""
    if x.ndim != 1 or x.size < 4 or not np.all(np.diff(x) > 0):
        raise BadGrid("spline nodes must be strictly increasing, at least "
                      "4 of them")
    return np.concatenate(((x[0],) * 4, x[2:-2], (x[-1],) * 4))


def _basis(t: np.ndarray, xs: np.ndarray, k: int = 3) -> tuple:
    """(first, B): the index of the first of the k + 1 B-splines of degree
    ``k`` and knots ``t`` that can be nonzero at each point of the 1-D
    ``xs``, and their values B (m, k + 1) there.

    Points are clamped to the span [t[k], t[-k-1]] as FITPACK clamps them.
    A point's knot interval l has t[l] <= x < t[l+1], the last nonempty
    one at the right end, and B comes from the Cox-de Boor recursion in
    FITPACK's order of operations (``fpbspl``): step j turns the j values
    h of degree j - 1 into j + 1, w_n = h_n / (t[l+n] - t[l+n-j]) adding
    w_n (t[l+n] - x) to entry n - 1 and w_n (x - t[l+n-j]) to entry n.
    Each step runs over every point at once, and a point's values do not
    depend on the points evaluated with it."""
    x = np.minimum(np.maximum(xs, t[k]), t[-k - 1])
    ell = np.searchsorted(t, x, side="right") - 1
    np.minimum(np.maximum(ell, k, out=ell), t.size - k - 2, out=ell)
    near = t[ell + np.arange(1 - k, k + 1)[:, None]]     # t[l+1-k .. l+k]
    h = np.empty((k + 1, x.size))
    h[0] = 1.0
    for j in range(1, k + 1):
        after, before = near[k:k + j], near[k - j:k]    # t[l+n], t[l+n-j]
        w = h[:j] / (after - before)
        right, left = w * (after - x), w * (x - before)
        h[0], h[j] = right[0], left[-1]
        np.add(left[:-1], right[1:], out=h[1:j])
    return ell - k, h.T


def _blocks(m: int, floats: int):
    """Slices of ``m`` points in runs whose ``floats`` floats per point
    take about ``_BLOCK_BYTES``: their basis values, about an eighth of
    the temporaries of an evaluation."""
    step = max(1, _BLOCK_BYTES // (8 * floats))
    return (slice(s, s + step) for s in range(0, m, step))


def design_matrix(xs, t: np.ndarray):
    """The sparse matrix B_j(xs_i) (a CSR ``scipy.sparse`` array) of the
    cubic B-splines of the knots ``t`` at the 1-D points ``xs``, clamped to
    the knots' span as FITPACK clamps them: row i holds the four values
    of ``_basis`` in column order."""
    from scipy.sparse import csr_array
    first, B = _basis(t, np.asarray(xs, dtype=float))
    cols = first[:, None] + np.arange(4)
    return csr_array((B.ravel(), cols.ravel(), np.arange(0, B.size + 1, 4)),
                     shape=(B.shape[0], t.size - 4))


class CubicSpline:
    """The not-a-knot cubic interpolant of the values ``y`` at the nodes
    ``x``, which strictly increase with at least 4 entries, along the
    first axis of ``y`` (``axis`` = 0 only).

    Its knots are ``knots(x)``, and its coefficients C solve A C = y, A
    the collocation matrix of x, by A's block LU (``_block_solve``), from
    the memo ``_factors`` up to ``_MEMO_NODES`` nodes.  Evaluation clamps
    points to [x[0], x[-1]], as FITPACK does, and sums each point's four
    ``_basis`` values times their rows of C in order, over runs of points
    (``_blocks``): a point's value does not depend on the points evaluated
    with it."""

    def __init__(self, x, y, axis: int = 0):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if axis != 0:
            raise BadInput("CubicSpline interpolates along axis 0 only")
        self.t, self.shape = knots(x), y.shape[1:]
        if y.shape[:1] != x.shape:
            raise BadGrid("a cubic spline needs one row of values per node")
        z = np.array(y.reshape(x.size, -1), order="C")
        lu = _factors(x) if x.size <= _MEMO_NODES else _block_lu(x, self.t)
        self.c = _block_solve(lu, z, np.empty_like(z))

    def __call__(self, xs, nu: int = 0) -> np.ndarray:
        """Values (``nu`` = 0) or first derivatives (``nu`` = 1) at the
        points ``xs``, of shape xs.shape + y.shape[1:]."""
        t, c, k = self.t, self.c, 3
        if nu == 1:
            # the derivative: degree 2 on t[1:-1], with the differences of
            # consecutive coefficients
            c = 3.0 * np.diff(c, axis=0) / (t[4:-1] - t[1:-4])[:, None]
            t, k = t[1:-1], 2
        elif nu != 0:
            raise BadInput("CubicSpline evaluates values or first "
                           "derivatives only")
        xs = np.asarray(xs, dtype=float)
        flat = xs.reshape(-1)
        out = np.empty((flat.size, c.shape[1]))
        for run in _blocks(flat.size, k + 1):
            first, B = _basis(t, flat[run], k)
            o = out[run]
            np.multiply(B[:, :1], c[first], out=o)
            for a in range(1, k + 1):
                o += B[:, a:a + 1] * c[first + a]
        return out.reshape(xs.shape + self.shape)


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
    n = x.size
    m = -(-n // b)
    # row r of A holds the four _basis values of x[r] from column first[r]
    first, B = _basis(t, x)
    (i, ri), (j, rj) = (np.divmod(np.repeat(np.arange(n), 4), b),
                        np.divmod((first[:, None] + np.arange(4)).ravel(), b))
    S = np.zeros((m, b, b))     # D_k, each turned into S_k^-1 in place
    pad = np.arange(n - (m - 1) * b, b)
    S[-1, pad, pad] = 1.0
    E, F = np.zeros((2, m, w, w))   # E[k], F[k] the corners of E_k, F_k
    for corner, di, dj, keep in ((S, 0, 0, i == j), (E, 0, w - b, j < i),
                                 (F, w - b, 0, j > i)):
        corner[i[keep], ri[keep] + di, rj[keep] + dj] = B.ravel()[keep]
    S[0] = np.linalg.inv(S[0])
    for k in range(1, m):
        S[k, :w, :w] -= E[k] @ S[k - 1, -w:, -w:] @ F[k - 1]
        S[k] = np.linalg.inv(S[k])
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
    last = S[-1, :, :n - f] @ z[f:]
    g = np.zeros((m, 2 * w, cols))      # g[k] = [a_{k-1}; e_{k+1}]
    a, e = g[:, :w], g[:, w:]
    # the recurrences' operands as lists of views, indexed once per block
    tails, heads = [*Xb[:, -w:]], [*Xb[:, :w], last[:w]]
    Ja, Jg = [*J[:, -w:, :w]], [*J[:, :w]]
    for k in range(1, m):
        np.subtract(tails[k - 1], Ja[k - 1] @ a[k - 1], out=a[k])
    for k in range(m - 1, 0, -1):
        np.subtract(heads[k], Jg[k] @ g[k], out=e[k - 1])
    Xb -= np.matmul(J[:-1], g[:-1], out=zb)
    out[f:] = last[:n - f] - J[-1, :n - f] @ g[-1]
    return out


class Bicubic:
    """A bicubic spline of knots ``tx``, ``ty`` and coefficients ``c``.

    Like FITPACK's, its evaluations clamp points to the knots' span."""

    def __init__(self, tx: np.ndarray, ty: np.ndarray, c: np.ndarray):
        self.tx, self.ty, self.c = tx, ty, c

    def ev(self, xs, ys) -> np.ndarray:
        """Values at the points (xs[i], ys[i]), xs and ys 1-D: each point's
        4 x 4 coefficients times the products of the ``_basis`` values of
        both axes, summed in order over runs of points (``_blocks``)."""
        xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
        out = np.zeros(xs.size)
        for run in _blocks(xs.size, 8):
            (fx, bx), (fy, by) = (_basis(t, p[run])
                                  for t, p in ((self.tx, xs), (self.ty, ys)))
            o = out[run]
            for a in range(4):
                inner = by[:, 0] * self.c[fx + a, fy]
                for b in range(1, 4):
                    inner += by[:, b] * self.c[fx + a, fy + b]
                o += bx[:, a] * inner
        return out
