"""Lorentz-Minkowski vector algebra with signature (-,+,+,+).

Vectors are plain numpy arrays of shape (..., 4); all operations broadcast
over leading axes.  The Euclidean slice E = {0} x R^3 is handled through the
``embed_e`` / ``spatial`` helpers, with E-points stored as 3-vectors.

The adapted frame of a spacelike plane span{a,b} consists of the unit
timelike vector tau, the unit spacelike normal nu, the sphere points n0, n3
obtained by projecting the lightlike directions tau -+ nu, the angle theta
with cos theta = <n0,n3>, and (when tau0 > 1) the auxiliary orthonormal
basis e1~, e2~ of the plane together with the sphere point e.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .errors import BadInput, NotLightlike, ZeroTimeComponent

#: Metric signs (eps_0, ..., eps_3).
ETA = np.array([-1.0, 1.0, 1.0, 1.0])

D0 = np.array([1.0, 0.0, 0.0, 0.0])
D1 = np.array([0.0, 1.0, 0.0, 0.0])
D2 = np.array([0.0, 0.0, 1.0, 0.0])
D3 = np.array([0.0, 0.0, 0.0, 1.0])

DEFAULT_ORTHO_TOL = 1e-9


def vec4(x0: float, x1: float, x2: float, x3: float) -> np.ndarray:
    """Build a vector of R^4_1 from its components in the standard basis."""
    v = np.array([x0, x1, x2, x3], dtype=float)
    if not np.all(np.isfinite(v)):
        raise BadInput("vector components must be finite")
    return v


def embed_e(p: np.ndarray) -> np.ndarray:
    """Embed E-points/vectors (..., 3) into R^4_1 with vanishing x0."""
    p = np.asarray(p, dtype=float)
    out = np.zeros(p.shape[:-1] + (4,))
    out[..., 1:] = p
    return out


def spatial(v: np.ndarray) -> np.ndarray:
    """Spatial part (x1, x2, x3) of vectors of R^4_1."""
    return np.asarray(v, dtype=float)[..., 1:]


def inner(v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Minkowski inner product -v0*w0 + v1*w1 + v2*w2 + v3*w3."""
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    return np.einsum("...i,i,...i->...", v, ETA, w)


class CausalClass(Enum):
    SPACELIKE = "spacelike"
    TIMELIKE = "timelike"
    LIGHTLIKE = "lightlike"


def causal_class(v: np.ndarray, tol: float = 0.0) -> CausalClass:
    """Causal trichotomy of a single vector; v = 0 counts as spacelike.

    With ``tol > 0``, vectors with |<v,v>| <= tol * |v|^2_euclid are
    classified lightlike (v != 0).
    """
    v = np.asarray(v, dtype=float)
    q = float(inner(v, v))
    e2 = float(v @ v)
    if e2 == 0.0:
        return CausalClass.SPACELIKE
    if abs(q) <= tol * e2:
        return CausalClass.LIGHTLIKE
    if q > 0.0:
        return CausalClass.SPACELIKE
    if q < 0.0:
        return CausalClass.TIMELIKE
    return CausalClass.LIGHTLIKE


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


def project_lightlike(L: np.ndarray, light_tol: float = 1e-9) -> np.ndarray:
    """Project a lightlike vector onto the unit sphere of E.

    Returns (0, L1/L0, L2/L0, L3/L0); the result has unit Euclidean norm
    exactly when L is exactly lightlike, and is invariant under positive
    rescaling of L.
    """
    L = np.asarray(L, dtype=float)
    q = inner(L, L)
    e2 = np.einsum("...i,...i->...", L, L)
    if np.any(np.abs(q) > light_tol * np.maximum(e2, 1.0)):
        raise NotLightlike("projection requires a lightlike vector")
    L0 = L[..., 0]
    if np.any(np.abs(L0) <= 1e-12):
        raise ZeroTimeComponent("lightlike vector with vanishing x0")
    out = L / L0[..., None]
    out[..., 0] = 0.0
    return out


@dataclass(frozen=True)
class MinkowskiFrame:
    """Adapted frame (tau, a, b, nu) of a spacelike plane span{a, b}.

    ``e1tilde``, ``e2tilde`` and ``e`` are present only when tau0 > 1,
    i.e. when the plane is not contained in E.
    """

    a: np.ndarray
    b: np.ndarray
    tau: np.ndarray
    nu: np.ndarray
    tau0: float
    n0: np.ndarray
    n3: np.ndarray
    theta: float
    e1tilde: Optional[np.ndarray] = None
    e2tilde: Optional[np.ndarray] = None
    e: Optional[np.ndarray] = None


def build_frame(a: np.ndarray, b: np.ndarray,
                ortho_tol: float = DEFAULT_ORTHO_TOL) -> MinkowskiFrame:
    """Construct the adapted frame of the spacelike plane span{a, b}.

    ``a`` and ``b`` must be orthonormal spacelike within ``ortho_tol``.
    nu is evaluated as -tau^a^b through the triple wedge, which is unit;
    the printed cofactor shortcut Delta_23 d1 - Delta_13 d2 + Delta_12 d3
    equals tau0 * nu and is therefore not unit when tau0 > 1.

    tau and nu are normalized before tau -+ nu is projected.  A pair off
    orthonormal by up to ``ortho_tol`` leaves tau and nu off unit by about
    as much, and tau -+ nu would then be off lightlike by more than the
    projection's roundoff-level tolerance; normalized, tau -+ nu is
    lightlike to roundoff (nu is orthogonal to tau through the wedge), so
    every pair this function accepts has a frame.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != (4,) or b.shape != (4,):
        raise BadInput("frame inputs must be single 4-vectors")
    res = max(abs(inner(a, a) - 1.0), abs(inner(b, b) - 1.0), abs(inner(a, b)))
    if res > ortho_tol:
        raise BadInput(
            f"inputs are not an orthonormal spacelike pair (residual {res:.3e})")

    a0, b0 = a[0], b[0]
    tau0 = float(np.sqrt(1.0 + a0 * a0 + b0 * b0))
    tau = (D0 + a0 * a + b0 * b) / tau0
    nu = -wedge3(tau, a, b)
    nu2 = inner(nu, nu)
    if abs(nu2 - 1.0) > 1e3 * ortho_tol + 1e-12:
        raise BadInput("span{a,b} is not a spacelike plane (nu not unit)")
    tau = tau / np.sqrt(-inner(tau, tau))
    nu = nu / np.sqrt(nu2)

    n0 = project_lightlike(tau - nu)
    n3 = project_lightlike(tau + nu)
    cos_theta = float(np.clip(inner(n0, n3), -1.0, 1.0))
    theta = float(np.arccos(cos_theta))

    e1tilde = e2tilde = e = None
    r2 = a0 * a0 + b0 * b0
    if r2 > ortho_tol:
        r = np.sqrt(r2)
        e1tilde = (a0 * a + b0 * b) / r
        e2tilde = (-b0 * a + a0 * b) / r
        e = (n0 + n3) / (2.0 * np.cos(theta / 2.0))

    return MinkowskiFrame(a=a, b=b, tau=tau, nu=nu, tau0=tau0, n0=n0, n3=n3,
                          theta=theta, e1tilde=e1tilde, e2tilde=e2tilde, e=e)


@dataclass(frozen=True)
class FrameIdentityReport:
    """Absolute residuals of the half-angle and frame identities."""

    residuals: dict
    not_applicable: tuple

    def max_residual(self) -> float:
        return max(self.residuals.values()) if self.residuals else 0.0


def frame_identity_residuals(f: MinkowskiFrame) -> FrameIdentityReport:
    """Check the half-angle identities and both printed forms of tau.

    Identities through e / e1~ are reported as not applicable at tau0 = 1
    (theta = pi), where those fields are absent.
    """
    r = np.hypot(f.a[0], f.b[0])
    t0 = f.tau0
    th = f.theta
    res = {
        "sin_theta": abs(np.sin(th) - 2.0 * r / t0**2),
        "sin_half": abs(np.sin(th / 2.0) - 1.0 / t0),
        "cos_half": abs(np.cos(th / 2.0) - r / t0),
    }
    na = []
    if f.e is None:
        na += ["tau_form1", "tau_form2", "e1tilde_relation"]
    else:
        res["tau_form1"] = float(
            np.abs(f.tau - (D0 + r * f.e1tilde) / t0).max())
        res["tau_form2"] = float(
            np.abs(f.tau - (t0 * D0 + t0 * np.cos(th / 2.0) * f.e)).max())
        res["e1tilde_relation"] = float(
            np.abs(f.e1tilde - (D0 / np.tan(th / 2.0)
                                + f.e / np.sin(th / 2.0))).max())
    return FrameIdentityReport(residuals=res, not_applicable=tuple(na))


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
