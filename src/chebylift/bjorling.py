"""Cauchy problem for lightlike initial curves in R^4_1.

Input data is a lightlike curve c(t) with increasing time component and an
orthonormal spacelike distribution D(t) = span{a(t), b(t)} normal along it.
The solver checks the lightlike-tangent condition c' = c0' (d0 + n0) with
n0 taken from the adapted frame of D (both orderings of {a, b} are tried,
since the sign of nu depends on the ordering), decomposes the data along
the spatial curve alpha(u) = c(u) - u d0, measures the compatibility of the
second null generator by |n3'|, and assembles solutions as sums of two
lightlike curves, whose tangents along c are the frame's n0 and n3 (only
the Frenet apparatus of alpha is differenced from c, for a theta profile
and the classifier).  Solutions are classified into the line / helix /
planar-alpha special cases, and non-uniqueness is realized by exchanging
extensions of n3 with a fixed value at v = 0.

Each public function runs that chain on a ``CurveDecomposition`` of its
argument, as far as it reads it, and errors come in chain order.  ``solve``
reads: ``BadData`` on the structure, ``NecessaryConditionFailed``, ``BadData``
on the resample, compatibility, extension, disjointness.  After the
resample ``ruled_solution`` adds its not-a-line ``BadData``, and
``decompose`` its ``DegenerateFrenet``.  ``classify_special`` always checks
the structure first, but the necessary condition only on data that is not
a straight line.

The resample to c0' = 1 fits the library's not-a-knot ``CubicSpline``
(``_splines``), so a solve loads no scipy module.  Every fit calls this
module's ``CubicSpline``, so a tracer or a test that rebinds that name sees
each fit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property
from typing import Optional

import numpy as np

from . import minkowski as mk
from ._splines import CubicSpline
from .chebnet import check_disjointness
from .errors import (BadData, BadInput, Check, DegenerateFrenet,
                     DisjointnessViolated, DivisionDegenerate,
                     ExtensionMismatch, IncompatibleData,
                     NecessaryConditionFailed, Report)
from .lift import LiftSurface, _frame, build_minimal
from .numerics import (FrenetData, Grid2D, KAPPA_TOL, SampledCurve,
                       SphereCurve, diff_samples, frenet, sup_check)

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
        where err is the derivative error of c (``_derivative_error``): an
        error d in c' moves that residual by at most 2|d|/|c'|.  Returns err.
        """
        return CurveDecomposition(self)._structure_error


def _derivative_error(c: SampledCurve, cp: np.ndarray) -> float:
    """Estimated relative error max |d c'| / min |c'| of the tangent
    c' = cp differenced from the samples of c, read off the data itself.

    max |Delta^5 c| / h covers both parts of the error of the one-sided
    5-point stencil at the ends: its truncation error h^4 |c^(5)| / 5, and
    its amplification of sample noise, whose weights sum to 128/12 in
    absolute value while a fifth difference of independent noise is about
    16 times the noise.  It is 0 for curves of degree <= 4 and for curves
    too short to have a fifth difference.
    """
    d5 = np.linalg.norm(np.diff(c.points, 5, axis=0), axis=1)
    return float(d5.max(initial=0.0) / c.dt / np.linalg.norm(cp, axis=1).min())


@dataclass(frozen=True)
class CurveDecomposition:
    """The chain on ``source``, each stage computed once, on first use: c'
    and the ``necessary`` report of ``source``, its admissible
    ``orientation`` (which raises ``NecessaryConditionFailed``), the
    resample ``data`` with c0'(u) = 1, ``alpha`` = c - u d0 and its
    ``frenet`` apparatus, the resample's frame nulls ``n0curve`` and
    ``n3curve`` (one pass, which reads ``orientation`` first), the
    ``compatibility`` check of n3', ``theta0``, ``p0fn``, ``q0fn`` and the
    ``special`` case.  Each public call builds its own and drops it on
    return; nothing is kept on ``source``, so a second call on the same
    data computes everything again.
    """

    source: BjorlingData

    @cached_property
    def _dc(self) -> np.ndarray:
        c = self.source.c
        return diff_samples(c.points, c.dt, 1)

    @cached_property
    def _structure_error(self) -> float:
        """``validate_structure`` of the source."""
        d = self.source
        a, b = d.a.points, d.b.points
        ts = (d.c.ts,)
        chk = sup_check("orthonormal", np.maximum.reduce(
            [np.abs(mk.inner(a, a) - 1.0), np.abs(mk.inner(b, b) - 1.0),
             np.abs(mk.inner(a, b))]), STRUCT_TOL, axes=ts)
        if not chk.passed:
            raise BadData("(a, b) is not orthonormal spacelike", chk)
        cp = self._dc
        if cp[:, 0].min() <= 0:
            raise BadData("c0'(t) must be positive")
        err = _derivative_error(d.c, cp)
        light = mk.inner(cp, cp) / np.einsum("ij,ij->i", cp, cp)
        chk = sup_check("lightlike", light, max(STRUCT_TOL, 2.0 * err),
                        axes=ts)
        if not chk.passed:
            raise BadData("c is not lightlike", chk)
        return err

    @cached_property
    def necessary(self) -> Report:
        """``check_necessary`` of the source."""
        d = self.source
        tol = max(NECESSARY_TOL, (2.0 + np.sqrt(2.0)) * self._structure_error)
        l_data = self._dc / self._dc[:, :1]      # c'/c0', time component 1
        n0, n3 = _frame_nulls(d.a.points, d.b.points)
        r = {o: np.linalg.norm(l_data - mk.D0 - n, axis=1)
             for o, n in (("ab", n0), ("ba", n3))}
        sup = {o: float(x.max()) for o, x in r.items()}
        best = "ba" if sup["ba"] < sup["ab"] else "ab"
        residual = sup_check("residual", r[best], tol, axes=(d.c.ts,))
        return Report((residual,), {
            "orientation": best if residual.passed else None,
            "residual_ab": sup["ab"], "residual_ba": sup["ba"]})

    @cached_property
    def orientation(self) -> str:
        """The ordering of (a, b) that passes the necessary check."""
        rep = self.necessary
        if not rep["residual"].passed:
            raise NecessaryConditionFailed(
                "c' misses d0 + n0 for both orderings of (a, b)",
                rep["residual"])
        return rep.orientation

    @cached_property
    def data(self) -> BjorlingData:
        """The source reparametrized to u = c0(t) - c0(t_base) on a uniform
        grid with a u = 0 node; there c0'(u) = 1 up to interpolation error."""
        d = self.source
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
        c_new, a_new, b_new = (CubicSpline(ts, cur.points, axis=0)(t_new)
                               for cur in (d.c, d.a, d.b))
        # restore exact orthonormality lost to interpolation
        a_new = a_new / np.sqrt(mk.inner(a_new, a_new))[:, None]
        b_new = b_new - mk.inner(a_new, b_new)[:, None] * a_new
        b_new = b_new / np.sqrt(mk.inner(b_new, b_new))[:, None]
        t0 = float(us[0])
        mkc = lambda pts: SampledCurve(t_min=t0, dt=float(du), points=pts)
        return BjorlingData(c=mkc(c_new), a=mkc(a_new), b=mkc(b_new))

    @cached_property
    def alpha(self) -> SampledCurve:
        """The spatial curve alpha(u) = c(u) - u d0 in E."""
        c = self.data.c
        return SampledCurve(t_min=c.t_min, dt=c.dt,
                            points=mk.spatial(c.points))

    @cached_property
    def frenet(self) -> FrenetData:
        return frenet(self.alpha)

    @property
    def us(self) -> np.ndarray:
        return self.alpha.ts

    @cached_property
    def _nulls(self) -> tuple:
        """``_frame_nulls`` of the resample as ``SphereCurve``s (n0, n3), in
        the admissible orientation: swapping (a, b) exchanges them."""
        orientation = self.orientation
        t0, h = self.alpha.t_min, self.alpha.dt
        pair = [SphereCurve(t_min=t0, dt=h, points=mk.spatial(n)) for n in
                _frame_nulls(self.data.a.points, self.data.b.points)]
        return tuple(pair[::-1] if orientation == "ba" else pair)

    @cached_property
    def n0curve(self) -> SphereCurve:
        return self._nulls[0]

    @cached_property
    def n3curve(self) -> SphereCurve:
        return self._nulls[1]

    @cached_property
    def _dn3(self) -> np.ndarray:
        """d n3/du, differenced from the resample's n3."""
        return diff_samples(self.n3curve.points, self.alpha.dt, 1)

    @cached_property
    def compatibility(self) -> Check:
        """sup_dn3: sup |d n3/du| held to ``COMPAT_TOL``."""
        return sup_check("sup_dn3", np.linalg.norm(self._dn3, axis=1),
                         COMPAT_TOL, axes=(self.us,))

    @cached_property
    def theta0(self) -> np.ndarray:
        n0, n3 = self._nulls
        return np.arccos(np.clip(np.einsum(
            "ij,ij->i", n0.points, n3.points), -1.0, 1.0))

    @cached_property
    def p0fn(self) -> np.ndarray:
        return np.einsum("ij,ij->i", self._nulls[1].points, self.frenet.N)

    @cached_property
    def q0fn(self) -> np.ndarray:
        return np.einsum("ij,ij->i", self._nulls[1].points, self.frenet.B)

    @cached_property
    def special(self) -> Report:
        """``classify_special`` of the source."""
        self._structure_error            # BadData comes first
        fr = self.frenet
        us = (self.us,)
        kappa = sup_check("sup_kappa", fr.kappa, ZERO_TOL, axes=us)
        if kappa.passed:
            return Report((kappa,), {"kind": SpecialCaseKind.LIGHTLIKE_LINE})
        # tor and p are sups over the nodes with a Frenet frame
        keep = ~fr.degenerate
        tor = sup_check("sup_tor", fr.tor, ZERO_TOL, keep=keep, axes=us)
        checks = (kappa, tor,
                  sup_check("sup_theta_u", diff_samples(
                      self.theta0, self.alpha.dt, 1), ZERO_TOL, axes=us),
                  sup_check("sup_p", self.p0fn, ZERO_TOL, keep=keep, axes=us))
        kind = SpecialCaseKind.PLANAR_ALPHA
        if not tor.passed:
            T = fr.T - fr.T.mean(axis=0)
            axis = np.linalg.eigh(T.T @ T)[1][:, 0]
            c = self.data.c
            tol = max(CIRCLE_TOL, 4.0 * np.sqrt(2.0) * _derivative_error(
                c, diff_samples(c.points, c.dt, 1)))
            checks += (sup_check("off_circle", T @ axis, tol, axes=us),)
            kind = SpecialCaseKind.HELIX if all(
                c.passed for c in checks[2:]) else SpecialCaseKind.GENERIC
        return Report(checks, {"kind": kind,
                               "degenerate_nodes": int(fr.degenerate.sum())})


class SpecialCaseKind(Enum):
    GENERIC = "generic"
    PLANAR_ALPHA = "planar_alpha"
    LIGHTLIKE_LINE = "lightlike_line"
    HELIX = "helix"


@dataclass(frozen=True)
class ExtensionChoice:
    """Second-generator extension: exactly one of an explicit sphere
    ``curve`` over J and a scalar ``theta`` profile over I x J, from which
    p, q follow; else ``ExtensionMismatch``.  ``kind`` names the one set."""

    curve: Optional[SphereCurve] = None
    theta: Optional[Grid2D] = None

    def __post_init__(self):
        if not (isinstance(self.curve, SphereCurve) and self.theta is None
                or self.curve is None and isinstance(self.theta, Grid2D)
                and self.theta.values.ndim == 2):
            raise ExtensionMismatch("an extension is one SphereCurve or one "
                                    "scalar Grid2D theta profile")

    @property
    def kind(self) -> str:
        return "theta_profile" if self.curve is None else "sphere_curve"

    @classmethod
    def from_curve(cls, curve: SphereCurve) -> "ExtensionChoice":
        return cls(curve=curve)

    @classmethod
    def from_theta(cls, theta: Grid2D) -> "ExtensionChoice":
        return cls(theta=theta)


# ---------------------------------------------------------------------------
# necessary condition and decomposition

def _frame_nulls(a_pts: np.ndarray, b_pts: np.ndarray) -> tuple:
    """Nodewise n0 = pi(tau - nu), n3 = pi(tau + nu) for given (a, b), of
    the source for ``necessary`` and of the resample for the generators:
    one float ``build_frame`` call per node, a count the benchmark's
    self-check pins: 402 calls per helix solve at n = 201."""
    n0 = np.empty_like(a_pts)
    n3 = np.empty_like(a_pts)
    for i in range(a_pts.shape[0]):
        f = mk.build_frame(a_pts[i], b_pts[i])
        n0[i] = f.n0
        n3[i] = f.n3
    return n0, n3


def check_necessary(d: BjorlingData) -> Report:
    """Check c' = c0'(d0 + n00) against both orderings of {a, b}.

    Swapping (a, b) flips nu and exchanges n0 with n3, so the two residuals
    come from one frame pass.  The residual is measured on c'/c0', which
    makes pass/fail invariant under orientation-preserving reparametrization
    of c.  It is held to max(NECESSARY_TOL, (2 + sqrt 2) err) with err the
    error estimate of c' that ``validate_structure`` returns: for lightlike
    c, |c'| = sqrt 2 c0', and an error d in c' moves c'/c0' by at most
    (2 + sqrt 2)|d|/|c'|.  Check residual, the better ordering's, held to
    that tolerance; info ``orientation``, "ab" or "ba" if it passes, else
    None, and the sups residual_ab and residual_ba of both orderings.
    """
    return CurveDecomposition(d).necessary


def decompose(d: BjorlingData) -> CurveDecomposition:
    """Frenet decomposition of the data along alpha(u) = c(u) - u d0.

    Reparametrizes so that c0' = 1, takes n0 and n3 from the adapted frames
    of D with the admissible orientation, and projects n3 = cos(theta) T +
    p N + q B on the Frenet frame of alpha, still differenced from c, which
    a theta profile needs at every node: else ``DegenerateFrenet``.  Every
    stage that can raise has run when it returns.
    """
    dec = CurveDecomposition(d)
    dec.orientation                 # NecessaryConditionFailed comes first
    fr = dec.frenet
    if np.any(fr.degenerate):
        raise DegenerateFrenet(
            f"kappa <= {KAPPA_TOL:g} on {int(fr.degenerate.sum())} nodes; "
            "a theta profile needs the Frenet frame")
    dec.theta0, dec.n3curve         # the frames of the resample
    return dec


def compatibility_residual(dec: CurveDecomposition) -> Report:
    """The compatibility system r1, r2, r3 at v = 0, and its one check.

    The three equations are the Frenet decomposition of d n3/du = 0:
    r1 = theta_u sin theta + kappa p, r2 = p_u + kappa cos theta - tor q,
    r3 = q_u + tor p.  Expanding n3 = cos theta T + p N + q B gives
    r1 = -<n3', T>, r2 = <n3', N>, r3 = <n3', B>, and that is how they are
    computed: from the one differenced n3' projected on the Frenet frame,
    not by differencing theta, p and q, which are already built from
    second derivatives of the data.  Each r_i projects n3' on a unit
    vector, so |r_i| <= |n3'| node by node, and no bound on them could
    fail while the check, sup_dn3 = sup |d n3/du| held to ``COMPAT_TOL``,
    passes: their sups sup_r1, sup_r2 and sup_r3 are info.

    N and B, hence r2 and r3, are undefined at Frenet-degenerate nodes:
    sup_r2 and sup_r3 leave them out, info ``degenerate_nodes`` counts
    them, and on a line, where every node is degenerate, there are none.
    """
    dn3, fr = dec._dn3, dec.frenet
    keep = ~fr.degenerate
    info = {"sup_r1": float(np.abs(np.einsum("ij,ij->i", dn3, fr.T)).max()),
            "degenerate_nodes": int(fr.degenerate.sum())}
    if keep.any():
        info.update((name, float(np.abs(np.einsum(
            "ij,ij->i", dn3[keep], X[keep])).max()))
            for name, X in (("sup_r2", fr.N), ("sup_r3", fr.B)))
    return Report((dec.compatibility,), info)


def solve_pq(theta: Grid2D, kappa: np.ndarray, tor: np.ndarray) -> tuple:
    """Solve the reduced system for (p, q) given a theta extension.

    p = -theta_u sin theta / kappa, q = (p_u + kappa cos theta) / tor; the
    returned residual p^2 + q^2 - sin^2 theta, like p and q an array on the
    nodes of ``theta``, is the consistency check an admissible theta
    extension must satisfy.  kappa and tor need one entry per u-node of a
    scalar ``theta`` grid, else ``BadInput``.  |kappa| or |tor| at most 1e-9
    or NaN anywhere (tor is NaN at a Frenet-degenerate node) raises
    ``DivisionDegenerate``.
    """
    if theta.values.ndim != 2 or np.shape(kappa) != (theta.nu,) \
            or np.shape(tor) != (theta.nu,):
        raise BadInput("kappa and tor need one entry per u-node of a scalar "
                       "theta grid")
    return _solve_pq(theta, kappa, tor)[:3]


def _solve_pq(theta: Grid2D, kappa: np.ndarray, tor: np.ndarray) -> tuple:
    """``solve_pq``'s p, q and residual, then the cos theta they used."""
    kappa = np.asarray(kappa, dtype=float)
    tor = np.asarray(tor, dtype=float)
    # written so that a NaN fails it
    if not (np.all(np.abs(kappa) > 1e-9) and np.all(np.abs(tor) > 1e-9)):
        raise DivisionDegenerate(
            "kappa or torsion vanishes; theta-profile extensions need the "
            "generic case")
    th = theta.values
    th_u = diff_samples(th, theta.du, 1, axis=0)
    sth = np.sin(th)
    p = -th_u * sth / kappa[:, None]
    p_u = diff_samples(p, theta.du, 1, axis=0)
    cth = np.cos(th)
    q = (p_u + kappa[:, None] * cth) / tor[:, None]
    return p, q, p * p + q * q - sth**2, cth


# ---------------------------------------------------------------------------
# special cases

def classify_special(d: BjorlingData) -> Report:
    """Classify data into the line / planar / helix / generic cases; data
    that fails ``validate_structure`` raises its ``BadData`` first.

    Info ``kind`` is the ``SpecialCaseKind``.  Each check is a sup over
    the resampled u nodes that passes when its quantity vanishes.
    sup_kappa comes first, and a line stops there.  Then come sup_tor,
    sup_theta_u and sup_p, and off_circle when tor does not vanish.
    sup_tor and sup_p leave out the Frenet-degenerate nodes, where tor, N
    and so p are undefined: their ``masked`` and info ``degenerate_nodes``
    count them.  A line passes sup_kappa, a planar alpha sup_tor, and a
    helix sup_theta_u, sup_p and off_circle.

    A planar alpha is recognized by tor = 0 alone: the worked constant-angle
    circle data has theta_u = 0 as well, so the planar test cannot require
    theta_u != 0.  ``ZERO_TOL`` is the cutoff for kappa, tor, theta_u and
    p; on the helix data of the tests at h = 0.04 (n = 101), clean or with
    1e-8 noise on c, theta_u and p stay below 2e-4.

    A helix needs kappa/tor constant.  By Lancret's theorem that holds
    exactly when T lies on a circle of S^2, which is checked from the
    Frenet T, from the resampled c', instead of from the third derivatives
    in tor: the largest distance of T from its least-squares plane
    (off_circle) must not exceed max(CIRCLE_TOL, 4 sqrt 2 err), with err
    the derivative error of the resampled c (T moves by at most 2 sqrt 2
    err; the factor 2 allows for the fit).  On that helix data the
    distance is 2e-8 clean and 7e-7 with noise, against 6e-3 for the
    generic test curve.
    """
    return CurveDecomposition(d).special


def ruled_solution(d: BjorlingData, n3: SphereCurve) -> LiftSurface:
    """Solution through a lightlike straight line: f = u l0 + v d0 + int n3.

    ``solve``'s chain with the extension curve ``n3``, after ``BadData``
    unless the data classifies as ``LIGHTLIKE_LINE``.  On a line the frame's
    n0 is the constant direction l0, which rules the surface.  An ``n3``
    that is not a ``SphereCurve`` raises ``ExtensionMismatch`` before the
    compatibility gate.
    """
    dec = CurveDecomposition(d)
    dec.orientation                 # NecessaryConditionFailed comes first
    case = dec.special
    if case.kind is not SpecialCaseKind.LIGHTLIKE_LINE:
        raise BadData(f"data classifies as {case.kind.value}, not a line")
    return _solution(dec, ExtensionChoice.from_curve(n3))[0]


# ---------------------------------------------------------------------------
# assembly

def _solution(dec: CurveDecomposition,
              ext: Optional[ExtensionChoice]) -> tuple:
    """The solution f = P0 + (u+v) d0 + int n0 + int n3 through the data of
    ``dec`` and its compatibility check, which ``IncompatibleData`` carries
    when it fails.  The generators must be disjoint on the whole product,
    between samples too: else ``DisjointnessViolated`` carries the failed
    uncertified_cells check of their ``check_disjointness`` report."""
    compat = dec.compatibility
    if not compat.passed:
        raise IncompatibleData("n3 varies along the curve", compat)
    n3 = _extension_curve(dec, ext)
    c = dec.data.c
    surf = build_minimal(dec.n0curve, n3, c.points[c.base_index()])
    rep = surf.generators.disjointness
    if not rep.passed:
        raise DisjointnessViolated("generators meet between samples",
                                   rep["uncertified_cells"])
    return surf, compat


def default_extension(dec: CurveDecomposition) -> SphereCurve:
    """Unit-rate rotation of n3(0) in the plane span{n3(0), e2(0)} on 201
    nodes over v in [-h, h], for the first h of 1, 0.8, 0.8^2, ... (30 at
    most) that ``check_disjointness`` certifies against n0 at
    ``DEFAULT_EXT_MARGIN``, so ``solve`` never rejects the extension.

    The grid is symmetric, so its middle node is v = 0 within roundoff
    (8.9e-16 at half-width 1), and the extension takes the data's n3 there:
    while n3(0) is within the margin of +-n0, "could not truncate" is raised.
    """
    n3c = dec.n3curve.points[dec.n3curve.base_index()]
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
    """n3 of ``ext``, an ``ExtensionChoice`` or None (the default); else
    ``ExtensionMismatch``, as for a curve without a v = 0 node where it takes
    the data's n3(0) within ``SEED_TOL`` (check seed_miss)."""
    if ext is None:
        return default_extension(dec)
    if not isinstance(ext, ExtensionChoice):
        raise ExtensionMismatch("extension must be an ExtensionChoice or "
                                f"None, not {type(ext).__name__}")
    n3_seed = dec.n3curve.points[dec.n3curve.base_index()]
    cur = ext.curve
    if cur is not None:
        if abs(cur.ts[cur.base_index()]) > 1e-9:
            raise ExtensionMismatch("extension curve needs a v = 0 node")
        chk = Check("seed_miss", float(np.linalg.norm(
            cur.points[cur.base_index()] - n3_seed)), SEED_TOL)
        if not chk.passed:
            raise ExtensionMismatch("extension seed differs from data", chk)
        return cur

    theta = ext.theta
    if theta.nu != dec.alpha.n or abs(theta.u_min - dec.alpha.t_min) > 1e-9 \
            or abs(theta.du - dec.alpha.dt) > 1e-9:
        raise ExtensionMismatch("theta profile must live on the data's u-grid")
    j0 = int(np.argmin(np.abs(theta.vs)))
    if abs(theta.vs[j0]) > 1e-9:
        raise ExtensionMismatch("theta profile needs a v = 0 column")
    chk = sup_check("theta_edge", theta.values[:, j0] - dec.theta0, SEED_TOL,
                    axes=(theta.us,))
    if not chk.passed:
        raise ExtensionMismatch("theta(u, 0) differs from curve data", chk)
    p, q, residual, cth = _solve_pq(theta, dec.frenet.kappa, dec.frenet.tor)
    # NaN and inf fail this check, so no non-finite p or q gets past it
    axes = (theta.us, theta.vs)
    chk = sup_check("pq_residual", residual, EXTENSION_TOL, axes=axes)
    if not chk.passed:
        raise ExtensionMismatch(
            "theta extension violates p^2 + q^2 = sin^2 theta", chk)
    fr = dec.frenet
    n3_field = (cth[..., None] * fr.T[:, None, :]
                + p[..., None] * fr.N[:, None, :]
                + q[..., None] * fr.B[:, None, :])
    dev = np.abs(n3_field - n3_field.mean(axis=0))
    # max of the component views: max(axis=-1) over 3 values is 4x slower
    chk = sup_check("n3_u_variation", np.maximum(np.maximum(
        dev[..., 0], dev[..., 1]), dev[..., 2]), EXTENSION_TOL, axes=axes)
    if not chk.passed:
        raise ExtensionMismatch("extension's n3 varies along u", chk)
    pts = n3_field.mean(axis=0)
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    # The rebuilt curve carries the differencing error of kappa and tor, so
    # its v = 0 value misses the data's n3 slightly; rotate it onto the seed
    # so the solution's normal plane along c is the data's own.
    m = pts[j0]
    k = np.cross(m, n3_seed)
    cos_phi = float(m @ n3_seed)
    chk = Check("n3_anchor", float(np.linalg.norm(m - n3_seed)),
                EXTENSION_TOL)
    if not chk.passed:
        raise ExtensionMismatch("extension's n3(0) misses the data's", chk)
    pts = (cos_phi * pts + np.cross(k, pts)
           + np.outer(pts @ k, k) / (1.0 + cos_phi))
    pts[j0] = n3_seed
    return SphereCurve(t_min=theta.v_min, dt=theta.dv, points=pts)


def solve(d: BjorlingData, ext: Optional[ExtensionChoice] = None) -> tuple:
    """Assemble a minimal lift solving the Cauchy problem for (c, D).

    Runs the necessary-condition check, the resample, the compatibility
    gate on sup |n3'|, the second generator from ``ext`` (a default
    rotation when None) and the certificate that the generators are
    disjoint on the whole product.  Only a theta profile reads the Frenet
    frame of alpha.  Returns the surface with the report of the gates
    passed (necessary, compatibility_sup) and the postconditions: along
    v = 0, at the nodes of the data resampled to c0' = 1, the surface
    interpolates c (curve_sup) and its normal bundle spans D off the
    degenerate-angle mask (projector_sup).  The normal bundle is the frame
    of the solution's own generators, X_u = n0(u) and X_v = n3(0), so
    nothing of the solution is differenced: projector_sup tests that
    ``build_frame`` and ``lift._frame`` are inverse to each other, to
    roundoff.  Minimality is not measured: the solution is a sum of two
    lightlike curves, n0 and n3 on the unit sphere, certified disjoint on
    the whole product, so its angle stays off 0 and pi, f_uv = 0 and H = 0
    exactly.  Info: orientation, extension_kind, and h_sup = 0.0, that
    exact value.
    """
    dec = CurveDecomposition(d)
    surf, compat = _solution(dec, ext)
    rep = dec.necessary

    # postconditions, on the v = 0 row
    g, gen, us = surf.grid, surf.generators, (dec.us,)
    j0 = int(np.argmin(np.abs(g.vs)))
    curve = sup_check("curve_sup", np.linalg.norm(
        g.values[:, j0, :] - dec.data.c.points, axis=1), 1e-6, axes=us)
    n0 = gen.T1.points
    fr = _frame(n0, np.broadcast_to(gen.T2.points[j0], n0.shape),
                surf.source.F[:, j0])
    keep = ~fr.degenerate
    P_surf = mk.plane_projector(fr.etilde[keep], fr.e2[keep])
    P_data = mk.plane_projector(dec.data.a.points[keep],
                                dec.data.b.points[keep])
    proj = np.zeros(keep.shape)
    proj[keep] = np.abs(P_surf - P_data).max(axis=(-2, -1))
    checks = (
        replace(rep["residual"], name="necessary"),
        replace(compat, name="compatibility_sup"), curve,
        sup_check("projector_sup", proj, 1e-5, keep=keep, axes=us))
    return surf, Report(checks, {
        "orientation": rep.orientation,
        "extension_kind": ext.kind if ext is not None else "default",
        "h_sup": 0.0})


# ---------------------------------------------------------------------------
# reduction from L^3

def reduce_from_l3(gamma: SampledCurve, n: SampledCurve) -> BjorlingData:
    """Embed Cauchy data of L^3 = R^3_1 into R^4_1.

    gamma must be lightlike in R^3_1 (signature (-,+,+)) with increasing
    time component, n unit spacelike and normal to gamma'.  The embedding
    is c = (gamma, 0), a = (n, 0), b = d3.  A solution stays inside the
    slice x3 = 0, and so solves the three-dimensional problem, only when
    its second generator lies on the equator x3 = 0 of the sphere, as an
    ``ExtensionChoice.from_curve`` of such a curve does.  The default
    extension rotates n3(0) toward n0 x n3 = +-d3 and leaves the slice:
    sup |x3| = 0.46 on ``TestReduceFromL3``'s data.  The embedded
    data run the chain's structure check, so they pass here exactly when
    they pass ``validate_structure``: with b = d3 its orthonormal check of
    (a, b) is the unit check of n, and gamma's lightlike residual is held to
    the data's own bound.  Normality, sup |<c', a>| on the chain's
    differenced c', is held to max(``STRUCT_TOL``, err min|c'| max|a|)
    (check normal), err the derivative error of the lightlike check
    (``_derivative_error``): an error d in c' moves <c', a> by at most
    |d| |a|, and err min|c'| is the estimated max |d|.  A failed check
    raises ``BadData``.
    """
    if gamma.points.shape[1] != 3 or n.points.shape[1] != 3:
        raise BadData("gamma and n must be curves in R^3_1 (3 components)")
    pad = lambda cur: SampledCurve(t_min=cur.t_min, dt=cur.dt,
                                   points=np.pad(cur.points, ((0, 0), (0, 1))))
    d = BjorlingData(c=pad(gamma), a=pad(n), b=SampledCurve(
        t_min=gamma.t_min, dt=gamma.dt, points=np.tile(mk.D3, (gamma.n, 1))))
    dec = CurveDecomposition(d)
    err = dec._structure_error      # BadData on the structure comes first
    nrm = lambda x: np.linalg.norm(x, axis=1)
    tol = max(STRUCT_TOL, err * nrm(dec._dc).min() * nrm(d.a.points).max())
    chk = sup_check("normal", mk.inner(dec._dc, d.a.points), tol,
                    axes=(gamma.ts,))
    if not chk.passed:
        raise BadData("n is not normal to gamma'", chk)
    return d
