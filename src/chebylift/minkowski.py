"""Lorentz-Minkowski vector algebra with signature (-,+,+,+).

Vectors are plain numpy arrays of shape (..., 4); all operations but
``build_frame`` broadcast over leading axes.  The Euclidean slice
E = {0} x R^3 is handled through the ``spatial`` helper, with E-points
stored as 3-vectors.

The adapted frame of a spacelike plane span{a,b} consists of the unit
timelike vector tau, the unit spacelike normal nu, the sphere points n0, n3
obtained by projecting the lightlike directions tau -+ nu, and the angle
theta with cos theta = <n0,n3>.  The projection pi(L) = (0, L1/L0, L2/L0,
L3/L0) of a lightlike L onto the unit sphere of E is done only there, one
frame at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadInput, Check, NotLightlike, ZeroTimeComponent

#: Metric signs (eps_0, ..., eps_3).
ETA = np.array([-1.0, 1.0, 1.0, 1.0])

D0 = np.array([1.0, 0.0, 0.0, 0.0])
D1 = np.array([0.0, 1.0, 0.0, 0.0])
D2 = np.array([0.0, 0.0, 1.0, 0.0])
D3 = np.array([0.0, 0.0, 0.0, 1.0])

#: how far from orthonormal ``build_frame`` accepts its pair (a, b)
ORTHO_TOL = 1e-5


def spatial(v: np.ndarray) -> np.ndarray:
    """Spatial part (x1, x2, x3) of vectors of R^4_1."""
    return np.asarray(v, dtype=float)[..., 1:]


def inner(v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Minkowski inner product -v0*w0 + v1*w1 + v2*w2 + v3*w3."""
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    return np.einsum("...i,i,...i->...", v, ETA, w)


def wedge3(u: np.ndarray, v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Triple wedge product: the unique r with <r, x> = det(x, u, v, w).

    Antisymmetric in its arguments; vanishes on linearly dependent triples.
    Componentwise r_i = eps_i * det(d_i, u, v, w), expanded by cofactors so
    that integer inputs stay exact.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)

    def mnr(j, k):
        return v[..., j] * w[..., k] - v[..., k] * w[..., j]

    m0 = u[..., 1] * mnr(2, 3) - u[..., 2] * mnr(1, 3) + u[..., 3] * mnr(1, 2)
    m1 = u[..., 0] * mnr(2, 3) - u[..., 2] * mnr(0, 3) + u[..., 3] * mnr(0, 2)
    m2 = u[..., 0] * mnr(1, 3) - u[..., 1] * mnr(0, 3) + u[..., 3] * mnr(0, 1)
    m3 = u[..., 0] * mnr(1, 2) - u[..., 1] * mnr(0, 2) + u[..., 2] * mnr(0, 1)
    return np.stack([-m0, -m1, m2, -m3], axis=-1)


@dataclass(frozen=True)
class MinkowskiFrame:
    """Adapted frame (tau, a, b, nu) of a spacelike plane span{a, b}."""

    a: np.ndarray
    b: np.ndarray
    tau: np.ndarray
    nu: np.ndarray
    tau0: float
    n0: np.ndarray
    n3: np.ndarray
    theta: float


def build_frame(a: np.ndarray, b: np.ndarray) -> MinkowskiFrame:
    """Construct the adapted frame of the spacelike plane span{a, b}.

    ``a`` and ``b`` must be finite and orthonormal spacelike within
    ``ORTHO_TOL``, which leaves room above the 1e-6 to which the Cauchy
    solver checks the pairs of its data before it frames them.
    nu is the printed cofactor vector (0, Delta_23, -Delta_13, Delta_12)
    over tau0.  It equals -tau^a^b, since tau - d0/tau0 lies in span{a, b},
    but unlike the triple wedge it sums no terms that cancel.  With e the
    largest Gram residual of the pair, |<nu,nu> - 1| <= 2e + 2e^2, so at
    most about 2 ``ORTHO_TOL``; so is |<tau,tau> + 1|, which is computed
    from those residuals.  tau and nu are normalized, so tau -+ nu is
    lightlike to roundoff and every pair accepted has a frame.  The kernel
    works in Python floats: numpy's overhead per call on 4-vectors would
    cost several times the arithmetic.  pi is done in floats too, by
    ``_project_floats``, so n0 = pi(tau - nu) and n3 = pi(tau + nu) are
    quotients of the frame's own components; cos theta is the float dot of
    n0 and n3.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != (4,) or b.shape != (4,):
        raise BadInput("frame inputs must be single 4-vectors")
    a0, a1, a2, a3 = a.tolist()
    b0, b1, b2, b3 = b.tolist()
    eaa = -a0 * a0 + a1 * a1 + a2 * a2 + a3 * a3 - 1.0
    ebb = -b0 * b0 + b1 * b1 + b2 * b2 + b3 * b3 - 1.0
    eab = -a0 * b0 + a1 * b1 + a2 * b2 + a3 * b3
    # a NaN or inf component, or a square that overflows, reaches the sum
    if not math.isfinite(eaa + ebb + eab):
        raise BadInput("frame inputs and their inner products must be finite")
    res = max(abs(eaa), abs(ebb), abs(eab))
    if res > ORTHO_TOL:
        raise BadInput("inputs are not an orthonormal spacelike pair",
                       Check("orthonormal", res, ORTHO_TOL))

    t2 = 1.0 + a0 * a0 + b0 * b0
    tau0 = math.sqrt(t2)
    # tau = (d0 + a0 a + b0 b) / tau0 has <tau,tau> = -1 + x / tau0^2
    x = a0 * a0 * eaa + b0 * b0 * ebb + 2.0 * a0 * b0 * eab
    tn = tau0 * math.sqrt(1.0 - x / t2)
    tau = [t2 / tn, (a0 * a1 + b0 * b1) / tn, (a0 * a2 + b0 * b2) / tn,
           (a0 * a3 + b0 * b3) / tn]
    # the printed cofactor vector; its factor 1/tau0 cancels in the norm
    nu = [0.0, a2 * b3 - a3 * b2, a3 * b1 - a1 * b3, a1 * b2 - a2 * b1]
    nn = math.sqrt(nu[1] * nu[1] + nu[2] * nu[2] + nu[3] * nu[3])
    nu = [v / nn for v in nu]
    n0 = _project_floats([t - v for t, v in zip(tau, nu)])
    n3 = _project_floats([t + v for t, v in zip(tau, nu)])
    c = n0[1] * n3[1] + n0[2] * n3[2] + n0[3] * n3[3]
    theta = math.acos(min(1.0, max(-1.0, c)))
    return MinkowskiFrame(a=a, b=b, tau=np.array(tau), nu=np.array(nu),
                          tau0=tau0, n0=np.array(n0), n3=np.array(n3),
                          theta=theta)


def _project_floats(L: list) -> list:
    """pi(L) = (0, L1/L0, L2/L0, L3/L0) of one 4-vector of Python floats:
    its point on the unit sphere of E, invariant under positive rescaling
    of L and of unit norm exactly when L is exactly lightlike.  L counts as
    lightlike when |<L,L>| <= 1e-9 max(|L|^2, 1), a roundoff floor, else
    ``NotLightlike``; |L0| <= 1e-12 raises ``ZeroTimeComponent``."""
    l0, l1, l2, l3 = L
    q = -l0 * l0 + l1 * l1 + l2 * l2 + l3 * l3
    e2 = l0 * l0 + l1 * l1 + l2 * l2 + l3 * l3
    if abs(q) > 1e-9 * max(e2, 1.0):
        raise NotLightlike("projection requires a lightlike vector")
    if abs(l0) <= 1e-12:
        raise ZeroTimeComponent("lightlike vector with vanishing x0")
    return [0.0, l1 / l0, l2 / l0, l3 / l0]


def plane_projector(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Minkowski-orthogonal projector onto the nondegenerate plane span{p,q}.

    Returns the 4x4 matrix P with P x = projection of x; broadcasts over
    the leading axes of (..., 4) pairs, returning (..., 4, 4).  Requires
    the Gram matrix of every pair (p, q) to be invertible.
    """
    B = np.stack([np.asarray(p, float), np.asarray(q, float)], axis=-1)
    Bt_eta = np.swapaxes(B, -1, -2) * ETA
    gram = Bt_eta @ B
    if np.any(np.abs(np.linalg.det(gram)) < 1e-14):
        raise BadInput("plane is degenerate; projector undefined")
    return B @ np.linalg.solve(gram, Bt_eta)
