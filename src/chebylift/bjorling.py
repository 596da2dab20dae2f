"""Cauchy problem for lightlike initial curves in R^4_1.

Input data is a lightlike curve c(t) with increasing time component and an
orthonormal spacelike distribution D(t) = span{a(t), b(t)} normal along it.
The solver checks the lightlike-tangent condition c' = c0' (d0 + n0) with
n0 taken from the adapted frame of D (both orderings of {a, b} are tried,
since the sign of nu depends on the ordering), decomposes the data along
the spatial curve alpha(u) = c(u) - u d0, measures the compatibility of the
second null generator, and assembles solutions as sums of two lightlike
curves.  Solutions are classified into the line / helix / planar-alpha
special cases, and non-uniqueness is realized by exchanging extensions of
the second generator with a fixed value at v = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Union

import numpy as np
from scipy.interpolate import CubicSpline

from . import minkowski as mk
from .chebnet import check_disjointness
from .errors import (BadData, DegenerateFrenet, DisjointnessViolated,
                     DivisionDegenerate, ExtensionMismatch, IncompatibleData,
                     InconsistentSeed, NecessaryConditionFailed)
from .lift import (MINIMAL_TOL, LiftSurface, build_minimal, mean_curvature,
                   normal_frame)
from .numerics import (FrenetData, Grid2D, KAPPA_TOL, STENCIL_WIDTH,
                       SampledCurve, SphereCurve, diff_samples, frenet)

NECESSARY_TOL = 1e-6
COMPAT_TOL = 1e-5
ZERO_TOL = 1e-3          # "identically zero" cutoff for the classifier
CIRCLE_TOL = 1e-9        # distance of T from a circle of S^2, roundoff floor
SEED_TOL = 1e-6
EXTENSION_TOL = 1e-4     # theta-profile extension: residual, u-variation, anchor
STRUCT_TOL = 1e-6
#: separation sqrt(2 - 2|<n0, n3>|) at |<n0, n3>| = 1 - 1e-3
DEFAULT_EXT_MARGIN = float(np.sqrt(2e-3))


# ---------------------------------------------------------------------------
# data types

@dataclass(frozen=True)
class BjorlingData:
    """Lightlike curve plus orthonormal spacelike distribution along it."""

    c: SampledCurve
    a: SampledCurve
    b: SampledCurve

    def __post_init__(self):
        for name, cur in (("c", self.c), ("a", self.a), ("b", self.b)):
            if cur.points.shape[1] != 4:
                raise BadData(f"{name} must be a curve in R^4_1")
        if not (self.c.n == self.a.n == self.b.n):
            raise BadData("c, a, b must share their sample grid")
        for cur in (self.a, self.b):
            if abs(cur.t_min - self.c.t_min) > 1e-12 or \
               abs(cur.dt - self.c.dt) > 1e-12:
                raise BadData("c, a, b must share their sample grid")

    def validate_structure(self) -> float:
        """Frame preconditions: (a, b) orthonormal spacelike, c lightlike
        with c0' > 0.  Normality of D to c' is *not* enforced here; it is
        exactly what the necessary-condition check measures.

        (a, b) is held to ``STRUCT_TOL``.  c' is differenced, so the
        lightlike residual <c', c'>/|c'|^2 is held to max(STRUCT_TOL, 2 err),
        where err is ``derivative_error()``: an error d in c' moves that
        residual by at most 2|d|/|c'|.  Returns err.
        """
        a, b = self.a.points, self.b.points
        res = max(np.abs(mk.inner(a, a) - 1.0).max(),
                  np.abs(mk.inner(b, b) - 1.0).max(),
                  np.abs(mk.inner(a, b)).max())
        if res > STRUCT_TOL:
            raise BadData(f"(a, b) is not orthonormal spacelike "
                          f"(residual {res:.3e})")
        cp = diff_samples(self.c.points, self.c.dt, 1)
        if cp[:, 0].min() <= 0:
            raise BadData("c0'(t) must be positive")
        err = self.derivative_error()
        light = np.abs(mk.inner(cp, cp)) / np.einsum("ij,ij->i", cp, cp)
        tol = max(STRUCT_TOL, 2.0 * err)
        if light.max() > tol:
            raise BadData(f"c is not lightlike (residual {light.max():.3e}, "
                          f"tolerance {tol:.3e})")
        return err

    def derivative_error(self) -> float:
        """Estimated relative error max |d c'| / min |c'| of the differenced
        tangent c', read off the data itself.

        max |Delta^5 c| / h covers both parts of the error of the one-sided
        5-point stencil at the ends: its truncation error h^4 |c^(5)| / 5,
        and its amplification of sample noise, whose weights sum to 128/12
        in absolute value while a fifth difference of independent noise is
        about 16 times the noise.  It is 0 for curves of degree <= 4 and for
        curves too short to have a fifth difference.
        """
        cp = diff_samples(self.c.points, self.c.dt, 1)
        d5 = np.linalg.norm(np.diff(self.c.points, 5, axis=0), axis=1)
        return float(d5.max(initial=0.0) / self.c.dt
                     / np.linalg.norm(cp, axis=1).min())

    def normality_residual(self) -> float:
        cp = diff_samples(self.c.points, self.c.dt, 1)
        return float(max(np.abs(mk.inner(cp, self.a.points)).max(),
                         np.abs(mk.inner(cp, self.b.points)).max()))


@dataclass(frozen=True)
class NecessaryReport:
    passed: bool
    orientation: Optional[str]   # "ab" or "ba"
    residual_ab: float
    residual_ba: float
    tol: float

    @property
    def residual(self) -> float:
        return min(self.residual_ab, self.residual_ba)


@dataclass(frozen=True)
class CurveDecomposition:
    """Curve-level data on a uniform u-grid with c0'(u) = 1."""

    data: BjorlingData           # reparametrized copy
    alpha: SampledCurve          # spatial curve in E
    frenet: FrenetData
    theta0: np.ndarray
    p0fn: np.ndarray
    q0fn: np.ndarray
    n0curve: SphereCurve
    n3curve: SphereCurve
    orientation: str

    @property
    def us(self) -> np.ndarray:
        return self.alpha.ts


@dataclass(frozen=True)
class CompatibilityReport:
    sup_r1: float
    sup_r2: float
    sup_r3: float
    sup_dn3: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.sup_dn3 <= self.tol


class SpecialCaseKind(Enum):
    GENERIC = "generic"
    PLANAR_ALPHA = "planar_alpha"
    LIGHTLIKE_LINE = "lightlike_line"
    HELIX = "helix"


@dataclass(frozen=True)
class SpecialCase:
    kind: SpecialCaseKind
    diagnostics: dict


@dataclass(frozen=True)
class ExtensionChoice:
    """Second-generator extension: an explicit sphere curve over J, or a
    theta profile over I x J from which p, q follow."""

    kind: str                    # "sphere_curve" | "theta_profile"
    curve: Optional[SphereCurve] = None
    theta: Optional[Grid2D] = None

    @classmethod
    def from_curve(cls, curve: SphereCurve) -> "ExtensionChoice":
        return cls(kind="sphere_curve", curve=curve)

    @classmethod
    def from_theta(cls, theta: Grid2D) -> "ExtensionChoice":
        return cls(kind="theta_profile", theta=theta)


@dataclass(frozen=True)
class SolveReport:
    passed: bool
    orientation: str
    extension_kind: str
    compatibility_sup: float
    curve_sup: float
    projector_sup: float
    h_sup: float
    tols: dict


# ---------------------------------------------------------------------------
# necessary condition

def _frame_nulls(a_pts: np.ndarray, b_pts: np.ndarray) -> tuple:
    """Nodewise n0 = pi(tau - nu), n3 = pi(tau + nu) for given (a, b)."""
    n0 = np.empty_like(a_pts)
    n3 = np.empty_like(a_pts)
    for i in range(a_pts.shape[0]):
        f = mk.build_frame(a_pts[i], b_pts[i], ortho_tol=1e-5)
        n0[i] = f.n0
        n3[i] = f.n3
    return n0, n3


def _data_n3(d: BjorlingData, orientation: str) -> np.ndarray:
    """Spatial part of n3 = pi(tau + nu) of the frames of D, with the
    admissible orientation: swapping (a, b) exchanges n0 and n3."""
    n0, n3 = _frame_nulls(d.a.points, d.b.points)
    return mk.spatial(n0 if orientation == "ba" else n3)


def check_necessary(d: BjorlingData) -> NecessaryReport:
    """Check c' = c0'(d0 + n00) against both orderings of {a, b}.

    Swapping (a, b) flips nu and exchanges n0 with n3, so the two residuals
    come from one frame pass.  The residual is measured on c'/c0', which
    makes pass/fail invariant under orientation-preserving reparametrization
    of c.  It is held to max(NECESSARY_TOL, (2 + sqrt 2) err) with err the
    data's ``derivative_error``: for lightlike c, |c'| = sqrt 2 c0', and an
    error d in c' moves c'/c0' by at most (2 + sqrt 2)|d|/|c'|.  The report
    carries the tolerance applied.
    """
    err = d.validate_structure()
    tol = max(NECESSARY_TOL, (2.0 + np.sqrt(2.0)) * err)
    cp = diff_samples(d.c.points, d.c.dt, 1)
    l_data = cp / cp[:, :1]      # c'/c0', time component 1
    n0, n3 = _frame_nulls(d.a.points, d.b.points)
    r_ab = float(np.linalg.norm(l_data - mk.D0 - n0, axis=1).max())
    r_ba = float(np.linalg.norm(l_data - mk.D0 - n3, axis=1).max())
    orientation = None
    if min(r_ab, r_ba) <= tol:
        orientation = "ab" if r_ab <= r_ba else "ba"
    return NecessaryReport(passed=orientation is not None,
                           orientation=orientation, residual_ab=r_ab,
                           residual_ba=r_ba, tol=tol)


def _require_necessary(d: BjorlingData) -> NecessaryReport:
    """``check_necessary``, raising when both orientations fail."""
    rep = check_necessary(d)
    if not rep.passed:
        raise NecessaryConditionFailed(
            f"residuals {rep.residual_ab:.3e} / {rep.residual_ba:.3e} exceed "
            f"{rep.tol:.3g}")
    return rep


# ---------------------------------------------------------------------------
# reparametrization and decomposition

def _resample(d: BjorlingData) -> BjorlingData:
    """Reparametrize to u = c0(t) - c0(t_base) on a uniform grid with a
    u = 0 node; after this c0'(u) = 1 up to interpolation error."""
    ts = d.c.ts
    c0 = d.c.points[:, 0]
    if np.any(np.diff(c0) <= 0):
        raise BadData("c0(t) must be strictly increasing")
    u_of_t = c0 - c0[d.c.base_index()]
    span = u_of_t[-1] - u_of_t[0]
    du = span / (d.c.n - 1)
    k_lo = int(np.ceil(u_of_t[0] / du - 1e-9))
    k_hi = int(np.floor(u_of_t[-1] / du + 1e-9))
    if k_hi - k_lo < 4:
        raise BadData("curve too short to resample")
    us = du * np.arange(k_lo, k_hi + 1)
    t_of_u = CubicSpline(u_of_t, ts)
    t_new = np.clip(t_of_u(us), ts[0], ts[-1])

    def resampled(cur: SampledCurve) -> np.ndarray:
        return CubicSpline(ts, cur.points, axis=0)(t_new)

    c_new = resampled(d.c)
    a_new = resampled(d.a)
    b_new = resampled(d.b)
    # restore exact orthonormality lost to interpolation
    a_new = a_new / np.sqrt(mk.inner(a_new, a_new))[:, None]
    b_new = b_new - mk.inner(a_new, b_new)[:, None] * a_new
    b_new = b_new / np.sqrt(mk.inner(b_new, b_new))[:, None]
    t0 = float(us[0])
    mkc = lambda pts: SampledCurve(t_min=t0, dt=float(du), points=pts)
    return BjorlingData(c=mkc(c_new), a=mkc(a_new), b=mkc(b_new))


def _resampled_frenet(d: BjorlingData) -> tuple:
    """Resample d to c0' = 1 (``_resample``); return it with the spatial
    curve alpha(u) = c(u) - u d0 and the Frenet apparatus of alpha."""
    rd = _resample(d)
    alpha = SampledCurve(t_min=rd.c.t_min, dt=rd.c.dt,
                         points=mk.spatial(rd.c.points))
    return rd, alpha, frenet(alpha)


def _unit_n0(c: SampledCurve) -> np.ndarray:
    """n0 = spatial(c') / |spatial(c')| at every node."""
    cp = diff_samples(c.points, c.dt, 1)
    return cp[:, 1:] / np.linalg.norm(cp[:, 1:], axis=1, keepdims=True)


def decompose(d: BjorlingData,
              orientation: Optional[str] = None) -> CurveDecomposition:
    """Frenet decomposition of the data along alpha(u) = c(u) - u d0.

    Reparametrizes so that c0' = 1, takes T = n0 = spatial(c'), computes
    n3 from the adapted frames of D with the admissible orientation, and
    projects n3 = cos(theta) T + p N + q B on the Frenet frame.
    """
    if orientation is None:
        orientation = _require_necessary(d).orientation
    return _decomposition(*_resampled_frenet(d), orientation)


def _decomposition(rd: BjorlingData, alpha: SampledCurve, fr: FrenetData,
                   orientation: str) -> CurveDecomposition:
    """``decompose`` of data already resampled by ``_resampled_frenet``."""
    if np.any(fr.degenerate):
        raise DegenerateFrenet(
            f"kappa <= {KAPPA_TOL:g} on {int(fr.degenerate.sum())} nodes; "
            "use classify_special / ruled_solution for straight-line data")
    n3_sp = _data_n3(rd, orientation)
    n0_sp = _unit_n0(rd.c)
    theta0 = np.arccos(np.clip(np.einsum("ij,ij->i", n0_sp, n3_sp), -1.0, 1.0))
    p0fn = np.einsum("ij,ij->i", n3_sp, fr.N)
    q0fn = np.einsum("ij,ij->i", n3_sp, fr.B)
    n0curve = SphereCurve(t_min=alpha.t_min, dt=alpha.dt, points=n0_sp)
    n3curve = SphereCurve(t_min=alpha.t_min, dt=alpha.dt,
                          points=n3_sp / np.linalg.norm(n3_sp, axis=1,
                                                        keepdims=True))
    return CurveDecomposition(data=rd, alpha=alpha, frenet=fr, theta0=theta0,
                              p0fn=p0fn, q0fn=q0fn, n0curve=n0curve,
                              n3curve=n3curve, orientation=orientation)


def compatibility_residual(dec: CurveDecomposition) -> CompatibilityReport:
    """Residuals of the curve-level compatibility system at v = 0.

    The three equations are the Frenet decomposition of d n3/du = 0:
    r1 = theta_u sin theta + kappa p, r2 = p_u + kappa cos theta - tor q,
    r3 = q_u + tor p.  Expanding n3 = cos theta T + p N + q B gives
    r1 = -<n3', T>, r2 = <n3', N>, r3 = <n3', B>, and that is how they are
    computed: from the one differenced n3' projected on the Frenet frame,
    not by differencing theta, p and q, which are already built from
    second derivatives of the data.  sup |d n3/du| is the value the solver
    gates on, against ``COMPAT_TOL``.
    """
    dn3 = diff_samples(dec.n3curve.points, dec.alpha.dt, 1)
    fr = dec.frenet
    r1 = np.einsum("ij,ij->i", dn3, fr.T)
    r2 = np.einsum("ij,ij->i", dn3, fr.N)
    r3 = np.einsum("ij,ij->i", dn3, fr.B)
    return CompatibilityReport(sup_r1=float(np.abs(r1).max()),
                               sup_r2=float(np.abs(r2).max()),
                               sup_r3=float(np.abs(r3).max()),
                               sup_dn3=float(np.linalg.norm(dn3, axis=1).max()),
                               tol=COMPAT_TOL)


def solve_pq(theta: Grid2D, kappa: np.ndarray, tor: np.ndarray) -> tuple:
    """Solve the reduced system for (p, q) given a theta extension.

    p = -theta_u sin theta / kappa, q = (p_u + kappa cos theta) / tor; the
    returned residual p^2 + q^2 - sin^2 theta is the consistency check an
    admissible theta extension must satisfy.  |kappa| or |tor| at most
    1e-9 anywhere raises ``DivisionDegenerate``.
    """
    kappa = np.asarray(kappa, dtype=float)
    tor = np.asarray(tor, dtype=float)
    if np.abs(kappa).min() <= 1e-9 or np.abs(tor).min() <= 1e-9:
        raise DivisionDegenerate(
            "kappa or torsion vanishes; theta-profile extensions need the "
            "generic case")
    th = theta.values
    th_u = diff_samples(th, theta.du, 1, axis=0)
    p = -th_u * np.sin(th) / kappa[:, None]
    p_u = diff_samples(p, theta.du, 1, axis=0)
    q = (p_u + kappa[:, None] * np.cos(th)) / tor[:, None]
    residual = p * p + q * q - np.sin(th)**2
    return (theta.with_values(p), theta.with_values(q),
            theta.with_values(residual))


# ---------------------------------------------------------------------------
# special cases

def classify_special(x: Union[BjorlingData, CurveDecomposition]) -> SpecialCase:
    """Classify data into the line / planar / helix / generic cases.

    A planar alpha is recognized by tor = 0 alone: the worked constant-angle
    circle data has theta_u = 0 as well, so the planar test cannot require
    theta_u != 0.  ``ZERO_TOL`` is the cutoff for kappa, tor, theta_u and
    p; on the helix data of the tests at h = 0.04 (n = 101), clean or with
    1e-8 noise on c, theta_u and p stay below 2e-4.

    A helix needs kappa/tor constant.  By Lancret's theorem that holds
    exactly when T lies on a circle of S^2, which is checked from T = n0,
    a first derivative of the data, instead of from the third derivatives
    in tor: the largest distance of T from its least-squares plane must not
    exceed max(CIRCLE_TOL, 4 sqrt 2 err), with err the data's
    ``derivative_error`` (T moves by at most 2 sqrt 2 err; the factor 2
    allows for the fit).  On that helix data the distance is 2e-8 clean
    and 7e-7 with noise, against 6e-3 for the generic test curve.
    """
    if isinstance(x, BjorlingData):
        return _classify(x, *_resampled_frenet(x))
    sup_kappa = float(x.frenet.kappa.max())
    if sup_kappa <= ZERO_TOL:
        return SpecialCase(kind=SpecialCaseKind.LIGHTLIKE_LINE,
                           diagnostics={"sup_kappa": sup_kappa})
    return _classify_curved(x, sup_kappa)


def _classify(d: BjorlingData, rd: BjorlingData, alpha: SampledCurve,
              fr: FrenetData) -> SpecialCase:
    """``classify_special`` of d, given its ``_resampled_frenet``."""
    sup_kappa = float(fr.kappa.max())
    if sup_kappa <= ZERO_TOL:
        return SpecialCase(kind=SpecialCaseKind.LIGHTLIKE_LINE,
                           diagnostics={"sup_kappa": sup_kappa})
    if np.any(fr.degenerate):
        return SpecialCase(kind=SpecialCaseKind.GENERIC, diagnostics={
            "sup_kappa": sup_kappa,
            "degenerate_nodes": int(fr.degenerate.sum())})
    dec = _decomposition(rd, alpha, fr, _require_necessary(d).orientation)
    return _classify_curved(dec, sup_kappa)


def _classify_curved(dec: CurveDecomposition, sup_kappa: float) -> SpecialCase:
    """The planar / helix / generic part of ``classify_special``."""
    du = dec.alpha.dt
    sup_tor = float(np.abs(dec.frenet.tor).max())
    sup_theta_u = float(np.abs(diff_samples(dec.theta0, du, 1)).max())
    sup_p = float(np.abs(dec.p0fn).max())
    diag = {"sup_kappa": sup_kappa, "sup_tor": sup_tor,
            "sup_theta_u": sup_theta_u, "sup_p": sup_p}
    if sup_tor <= ZERO_TOL:
        return SpecialCase(kind=SpecialCaseKind.PLANAR_ALPHA, diagnostics=diag)
    T = dec.n0curve.points - dec.n0curve.points.mean(axis=0)
    axis = np.linalg.eigh(T.T @ T)[1][:, 0]
    off_circle = float(np.abs(T @ axis).max())
    tol = max(CIRCLE_TOL, 4.0 * np.sqrt(2.0) * dec.data.derivative_error())
    diag.update(off_circle=off_circle, circle_tol=tol)
    if sup_theta_u <= ZERO_TOL and sup_p <= ZERO_TOL and off_circle <= tol:
        return SpecialCase(kind=SpecialCaseKind.HELIX, diagnostics=diag)
    return SpecialCase(kind=SpecialCaseKind.GENERIC, diagnostics=diag)


def ruled_solution(d: BjorlingData, n3: SphereCurve) -> LiftSurface:
    """Solution through a lightlike straight line: f = u l0 + v d0 + int n3.

    ``n3(0)`` must agree with pi(tau + nu) of D at the basepoint (admissible
    orientation) within 1e-5; the surface is ruled by the constant
    direction l0.  n3 must stay off +-l0 on the whole product, between
    samples too.
    """
    rd, alpha, fr = _resampled_frenet(d)
    case = _classify(d, rd, alpha, fr)
    if case.kind is not SpecialCaseKind.LIGHTLIKE_LINE:
        raise BadData(f"data classifies as {case.kind.value}, not a line")
    rep = _require_necessary(d)
    n0_const = _unit_n0(rd.c).mean(axis=0)
    n0_const /= np.linalg.norm(n0_const)
    seed = _data_n3(rd, rep.orientation)[rd.c.base_index()]
    miss = float(np.linalg.norm(n3.points[n3.base_index()] - seed))
    if miss > 1e-5:
        raise InconsistentSeed(
            f"n3(0) differs from the frame value by {miss:.3e}")
    n0curve = SphereCurve(t_min=rd.c.t_min, dt=rd.c.dt,
                          points=np.tile(n0_const, (rd.c.n, 1)))
    P0 = rd.c.points[rd.c.base_index()]
    return _build_solution(n0curve, n3, P0)


# ---------------------------------------------------------------------------
# assembly

def _build_solution(n0: SphereCurve, n3: SphereCurve, P0) -> LiftSurface:
    """``build_minimal`` for a solution of the Cauchy problem, whose
    generators must be disjoint on the whole product, between samples
    too: the certified verdict of ``check_disjointness`` must pass."""
    surf = build_minimal(n0, n3, P0)
    rep = surf.source.disjointness
    if not rep.passed:
        raise DisjointnessViolated(
            f"generators meet near u={rep.at_u:.6g}, v={rep.at_v:.6g}, "
            f"between samples (certified separation "
            f"{rep.min_separation:.3e})", u=rep.at_u, v=rep.at_v)
    return surf


def default_extension(dec: CurveDecomposition) -> SphereCurve:
    """Unit-rate rotation of n3(0) in the plane span{n3(0), e2(0)} over
    v in [-1, 1] on 201 nodes, truncated before it violates disjointness
    against n0.

    The truncation uses ``check_disjointness``, the certified check that
    ``solve`` applies to the assembled generators, with the separation
    ``DEFAULT_EXT_MARGIN`` that keeps |<n0, n3>| below 1 - 1e-3 on the
    whole product, so the solver never rejects the extension it built.
    The grid is symmetric, so v = 0 is an exact node.
    """
    n3c = dec.n3curve.points.mean(axis=0)
    n3c /= np.linalg.norm(n3c)
    e2 = np.cross(dec.n0curve.points[dec.n0curve.base_index()], n3c)
    nrm = np.linalg.norm(e2)
    if nrm < 1e-9:
        raise DisjointnessViolated("n0 and n3 parallel at the basepoint")
    e2 /= nrm
    half = 1.0
    for _ in range(30):
        vs = np.linspace(-half, half, 201)
        pts = np.outer(np.cos(vs), n3c) + np.outer(np.sin(vs), e2)
        ext = SphereCurve(t_min=-half, dt=float(vs[1] - vs[0]), points=pts)
        if check_disjointness(dec.n0curve, ext, DEFAULT_EXT_MARGIN).passed:
            return ext
        half *= 0.8
    raise DisjointnessViolated("could not truncate the default extension "
                               "into the admissible region")


def _extension_curve(dec: CurveDecomposition,
                     ext: Optional[ExtensionChoice]) -> SphereCurve:
    n3_seed = dec.n3curve.points[dec.n3curve.base_index()]
    if ext is None:
        return default_extension(dec)
    if ext.kind == "sphere_curve":
        cur = ext.curve
        if abs(cur.ts[cur.base_index()]) > 1e-9:
            raise ExtensionMismatch("extension curve needs a v = 0 node")
        miss = float(np.linalg.norm(cur.points[cur.base_index()] - n3_seed))
        if miss > SEED_TOL:
            raise ExtensionMismatch(
                f"extension seed differs from data by {miss:.3e}")
        return cur
    if ext.kind != "theta_profile":
        raise ExtensionMismatch(f"unknown extension kind {ext.kind!r}")

    theta = ext.theta
    if theta.nu != dec.alpha.n or abs(theta.u_min - dec.alpha.t_min) > 1e-9 \
            or abs(theta.du - dec.alpha.dt) > 1e-9:
        raise ExtensionMismatch("theta profile must live on the data's u-grid")
    j0 = int(np.argmin(np.abs(theta.vs)))
    if abs(theta.vs[j0]) > theta.dv / 2:
        raise ExtensionMismatch("theta profile needs a v = 0 column")
    edge = float(np.abs(theta.values[:, j0] - dec.theta0).max())
    if edge > SEED_TOL:
        raise ExtensionMismatch(
            f"theta(u, 0) differs from curve data by {edge:.3e}")
    p, q, residual = solve_pq(theta, dec.frenet.kappa, dec.frenet.tor)
    res = float(np.abs(residual.values).max())
    if res > EXTENSION_TOL:
        raise ExtensionMismatch(
            f"theta extension violates p^2 + q^2 = sin^2 theta by {res:.3e}")
    fr = dec.frenet
    n3_field = (np.cos(theta.values)[..., None] * fr.T[:, None, :]
                + p.values[..., None] * fr.N[:, None, :]
                + q.values[..., None] * fr.B[:, None, :])
    dev = float(np.abs(n3_field - n3_field.mean(axis=0)).max())
    if dev > EXTENSION_TOL:
        raise ExtensionMismatch(
            f"extension's n3 varies along u by {dev:.3e}")
    pts = n3_field.mean(axis=0)
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    # The rebuilt curve carries the differencing error of kappa and tor, so
    # its v = 0 value misses the data's n3 slightly; rotate it onto the seed
    # so the solution's normal plane along c is the data's own.
    m = pts[j0]
    k = np.cross(m, n3_seed)
    cos_phi = float(m @ n3_seed)
    anchor = float(np.linalg.norm(m - n3_seed))
    if anchor > EXTENSION_TOL:
        raise ExtensionMismatch(
            f"extension's n3(0) differs from the data's by {anchor:.3e}")
    pts = (cos_phi * pts + np.cross(k, pts)
           + np.outer(pts @ k, k) / (1.0 + cos_phi))
    pts[j0] = n3_seed
    return SphereCurve(t_min=theta.v_min, dt=theta.dv, points=pts)


def solve(d: BjorlingData, ext: Optional[ExtensionChoice] = None) -> tuple:
    """Assemble a minimal lift solving the Cauchy problem for (c, D).

    Runs the necessary-condition check, the decomposition and the
    compatibility gate, builds the second generator from the extension
    choice (a default rotation when none is given), certifies that the two
    generators are disjoint on the whole product, and returns the surface
    together with the verification report: the surface interpolates c along
    v = 0, its normal bundle there spans D at every node off the
    degenerate-angle mask, and it is minimal.
    """
    rep = _require_necessary(d)
    dec = decompose(d, orientation=rep.orientation)
    comp = compatibility_residual(dec)
    if not comp.passed:
        raise IncompatibleData(
            f"n3 varies along the curve: sup |dn3/du| = {comp.sup_dn3:.3e}",
            sup_dn3=comp.sup_dn3)
    n3curve = _extension_curve(dec, ext)
    P0 = dec.data.c.points[dec.data.c.base_index()]
    surf = _build_solution(dec.n0curve, n3curve, P0)

    # postconditions
    tols = {"necessary": rep.tol, "compatibility": comp.tol, "curve": 1e-6,
            "projector": 1e-5, "minimal": MINIMAL_TOL}
    j0 = int(np.argmin(np.abs(surf.grid.vs)))
    curve_sup = float(np.linalg.norm(
        surf.grid.values[:, j0, :] - dec.data.c.points, axis=1).max())
    # the frame on the stencil-wide strip around v = 0 equals the whole
    # grid's frame on column j0: every v-derivative window of j0 lies in it
    g = surf.grid
    lo = min(max(j0 - STENCIL_WIDTH // 2, 0), max(g.nv - STENCIL_WIDTH, 0))
    cols = slice(lo, lo + STENCIL_WIDTH)
    strip = LiftSurface(
        grid=Grid2D(u_min=g.u_min, v_min=float(g.vs[lo]), du=g.du, dv=g.dv,
                    values=g.values[:, cols]),
        theta=surf.theta[:, cols], g12=surf.g12[:, cols])
    fr = normal_frame(strip)
    keep = ~fr.degenerate[:, j0 - lo]
    P_surf = mk.plane_projector(fr.etilde[keep, j0 - lo],
                                fr.e2[keep, j0 - lo])
    P_data = mk.plane_projector(dec.data.a.points[keep],
                                dec.data.b.points[keep])
    proj_sup = float(np.abs(P_surf - P_data).max(initial=0.0))
    h_sup = mean_curvature(surf).sup()
    passed = (curve_sup <= tols["curve"] and proj_sup <= tols["projector"]
              and h_sup <= tols["minimal"])
    report = SolveReport(
        passed=passed, orientation=rep.orientation,
        extension_kind=ext.kind if ext is not None else "default",
        compatibility_sup=comp.sup_dn3, curve_sup=curve_sup,
        projector_sup=proj_sup, h_sup=h_sup, tols=tols)
    return surf, report


# ---------------------------------------------------------------------------
# reduction from L^3

def reduce_from_l3(gamma: SampledCurve, n: SampledCurve) -> BjorlingData:
    """Embed Cauchy data of L^3 = R^3_1 into R^4_1.

    gamma must be lightlike in R^3_1 (signature (-,+,+)) with increasing
    time component, n unit spacelike and normal to gamma'.  The embedding
    is c = (gamma, 0), a = (n, 0), b = d3; solutions then stay inside the
    slice x3 = 0 and solve the three-dimensional problem.  Each of these
    conditions is held to ``STRUCT_TOL``.
    """
    if gamma.points.shape[1] != 3 or n.points.shape[1] != 3:
        raise BadData("gamma and n must be curves in R^3_1 (3 components)")
    if gamma.n != n.n or abs(gamma.t_min - n.t_min) > 1e-12 or \
            abs(gamma.dt - n.dt) > 1e-12:
        raise BadData("gamma and n must share their sample grid")
    eta3 = np.array([-1.0, 1.0, 1.0])

    def ip3(x, y):
        return np.einsum("...i,i,...i->...", x, eta3, y)

    gp = diff_samples(gamma.points, gamma.dt, 1)
    if gp[:, 0].min() <= 0:
        raise BadData("gamma0'(t) must be positive")
    light = np.abs(ip3(gp, gp)) / np.einsum("ij,ij->i", gp, gp)
    if light.max() > STRUCT_TOL:
        raise BadData(f"gamma is not lightlike in R^3_1 "
                      f"(residual {light.max():.3e})")
    if np.abs(ip3(n.points, n.points) - 1.0).max() > STRUCT_TOL:
        raise BadData("n is not unit spacelike in R^3_1")
    if np.abs(ip3(gp, n.points)).max() > STRUCT_TOL:
        raise BadData("n is not normal to gamma'")

    pad = lambda p: np.concatenate([p, np.zeros((p.shape[0], 1))], axis=1)
    c = SampledCurve(t_min=gamma.t_min, dt=gamma.dt, points=pad(gamma.points))
    a = SampledCurve(t_min=gamma.t_min, dt=gamma.dt, points=pad(n.points))
    b = SampledCurve(t_min=gamma.t_min, dt=gamma.dt,
                     points=np.tile(mk.D3, (gamma.n, 1)))
    return BjorlingData(c=c, a=a, b=b)
