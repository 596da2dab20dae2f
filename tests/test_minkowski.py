import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chebylift import minkowski as mk
from chebylift.errors import BadInput, Check, NotLightlike, ZeroTimeComponent
from chebylift.minkowski import (
    D0, D1, D2, D3, ORTHO_TOL, MinkowskiFrame, build_frame, inner,
    plane_projector, wedge3,
)

#: per unit tau0^2, the roundoff of a frame invariant: the products in the
#: frame and its inner products grow like tau0^2 (measured worst 1.2e-15)
FRAME_EPS = 1e-14


def vec4(*x):
    return np.array(x, dtype=float)


def oracle_wedge(u, v, w):
    # Solve <r, x> = det(x, u, v, w) against the standard basis:
    # <r, d_i> = eps_i r_i, hence r_i = eps_i det(d_i, u, v, w).
    eps = np.array([-1.0, 1.0, 1.0, 1.0])
    dets = np.array([np.linalg.det(np.stack([e, u, v, w])) for e in np.eye(4)])
    return eps * dets


def project_lightlike(L):
    """Reference pi: (0, L1/L0, L2/L0, L3/L0) of lightlike vectors (..., 4)
    in numpy, with the guards of ``mk._project_floats``, which must return
    and raise what this returns and raises."""
    L = np.asarray(L, dtype=float)
    q = inner(L, L)
    e2 = np.einsum("...i,...i->...", L, L)
    if np.any(np.abs(q) > 1e-9 * np.maximum(e2, 1.0)):
        raise NotLightlike("projection requires a lightlike vector")
    L0 = L[..., 0]
    if np.any(np.abs(L0) <= 1e-12):
        raise ZeroTimeComponent("lightlike vector with vanishing x0")
    out = L / L0[..., None]
    out[..., 0] = 0.0
    return out


def random_spacelike_pair(rng, span=2.0):
    # Any (a0, b0) plus an orthonormal spatial pair yields an orthonormal
    # spacelike pair: solve <a,a>=<b,b>=1, <a,b>=0 for the spatial parts.
    a0, b0 = rng.uniform(-span, span, 2)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    x, y = q[:, 0], q[:, 1]
    ahat = np.sqrt(1.0 + a0 * a0) * x
    g = a0 * b0 / np.sqrt(1.0 + a0 * a0)
    bhat = np.sqrt(1.0 + b0 * b0 - g * g) * y + g * x
    a = np.concatenate([[a0], ahat])
    b = np.concatenate([[b0], bhat])
    return a, b


class TestInner:
    def test_basis_timelike(self):
        assert inner(D0, D0) == -1.0

    def test_canonical_lightlike(self):
        assert inner(D0 + D1, D0 + D1) == 0.0

    def test_direct_arithmetic(self):
        v = vec4(1.0, np.sqrt(2.0), 0.0, 0.0)
        assert inner(v, v) == pytest.approx(1.0, abs=1e-15)

    def test_symmetric_bilinear(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            u, v, w = rng.normal(size=(3, 4))
            s, t = rng.normal(size=2)
            assert inner(u, v) == pytest.approx(inner(v, u), abs=1e-12)
            assert inner(s * u + t * w, v) == pytest.approx(
                s * inner(u, v) + t * inner(w, v), abs=1e-12)


class TestWedge3:
    def test_spatial_basis(self):
        assert np.allclose(wedge3(D1, D2, D3), -D0)

    def test_mixed_basis_vs_oracle(self):
        r = wedge3(D0, D2, D3)
        assert np.allclose(r, -D1)
        assert np.allclose(r, oracle_wedge(D0, D2, D3))

    def test_repeated_argument_vanishes(self):
        rng = np.random.default_rng(1)
        u, w = rng.normal(size=(2, 4))
        assert np.allclose(wedge3(u, u, w), 0.0)

    def test_defining_property_random(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            u, v, w = rng.normal(size=(3, 4))
            r = wedge3(u, v, w)
            assert np.allclose(r, oracle_wedge(u, v, w), atol=1e-10, rtol=0)
            for arg in (u, v, w):
                assert abs(inner(r, arg)) < 1e-10

    def test_antisymmetry(self):
        rng = np.random.default_rng(3)
        u, v, w = rng.normal(size=(3, 4))
        assert np.allclose(wedge3(u, v, w), -wedge3(v, u, w))
        assert np.allclose(wedge3(u, v, w), -wedge3(u, w, v))


class TestProjectLightlike:
    def test_axis(self):
        assert np.allclose(project_lightlike(vec4(1, 0, 0, 1)), vec4(0, 0, 0, 1))

    def test_scale_invariance(self):
        assert np.allclose(project_lightlike(vec4(2, 0, 2, 0)), vec4(0, 0, 1, 0))
        rng = np.random.default_rng(4)
        for _ in range(20):
            s = rng.normal(size=3)
            L = np.concatenate([[np.linalg.norm(s)], s])
            lam = rng.uniform(0.1, 10.0)
            assert np.allclose(project_lightlike(lam * L), project_lightlike(L))

    def test_componentwise(self):
        L = vec4(np.sqrt(2.0), 1.0, 0.0, -1.0)
        p = project_lightlike(L)
        assert np.allclose(p, vec4(0.0, 1 / np.sqrt(2), 0.0, -1 / np.sqrt(2)))
        assert np.linalg.norm(p) == pytest.approx(1.0, abs=1e-12)

    def test_errors(self):
        with pytest.raises(NotLightlike):
            project_lightlike(D0)
        with pytest.raises(ZeroTimeComponent):
            project_lightlike(vec4(0, 0, 0, 0))

    @pytest.mark.parametrize("L", [
        D0, vec4(0, 0, 0, 0), vec4(1, 0, 0, 1 + 1e-8),
        vec4(1, 0, 0, 1 + 1e-10), vec4(2, 0, -2, 0), vec4(-1, 0.6, 0, 0.8)])
    def test_float_copy(self, L):
        # build_frame's float pi raises what the array pi raises, and
        # returns what it returns
        try:
            ref = project_lightlike(L)
        except (NotLightlike, ZeroTimeComponent) as err:
            with pytest.raises(type(err), match=str(err)):
                mk._project_floats(L.tolist())
        else:
            assert mk._project_floats(L.tolist()) == ref.tolist()


class TestBuildFrame:
    def test_plane_in_e(self):
        f = build_frame(D1, D2)
        assert np.allclose(f.tau, D0)
        assert np.allclose(f.nu, D3)
        assert np.allclose(f.n0, vec4(0, 0, 0, -1))
        assert np.allclose(f.n3, vec4(0, 0, 0, 1))
        assert f.theta == pytest.approx(np.pi)

    def test_boosted_plane(self):
        a = vec4(1.0, np.sqrt(2.0), 0.0, 0.0)
        f = build_frame(a, D2)
        assert np.allclose(f.tau, vec4(np.sqrt(2), 1, 0, 0))
        assert np.allclose(f.nu, D3)
        s = 1 / np.sqrt(2)
        assert np.allclose(f.n0, vec4(0, s, 0, -s))
        assert np.allclose(f.n3, vec4(0, s, 0, s))
        assert f.theta == pytest.approx(np.pi / 2)

    def test_paper_half_angle_value(self):
        # any valid pair with a0 = b0 = 1 has tau0 = sqrt(3), cos theta = 1/3
        a = vec4(1.0, np.sqrt(2.0), 0.0, 0.0)
        b = vec4(1.0, 1 / np.sqrt(2.0), np.sqrt(3.0 / 2.0), 0.0)
        f = build_frame(a, b)
        assert f.tau0 == pytest.approx(np.sqrt(3.0), abs=1e-12)
        assert np.cos(f.theta) == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert np.sin(f.theta / 2) == pytest.approx(1 / np.sqrt(3.0), abs=1e-12)

    def test_bad_input(self):
        with pytest.raises(BadInput) as err:
            build_frame(2.0 * D1, D2)
        assert err.value.check == Check("orthonormal", 3.0, ORTHO_TOL)
        assert "orthonormal = 3.000e+00 (tolerance 1e-05)" in str(err.value)
        with pytest.raises(BadInput, match="orthonormal = 1.000e"):
            build_frame(D1, D1)

    @pytest.mark.parametrize("a, b", [
        (vec4(np.nan, 1, 0, 0), D2), (D1, vec4(0, 0, np.nan, 0)),
        (D1, vec4(0, 0, 1, np.inf)),
        # finite, but the squares overflow: inf - inf in <b, b>
        (D1, vec4(1e200, 0, 1e200, 0))])
    def test_non_finite(self, a, b):
        with pytest.raises(BadInput, match="must be finite"):
            build_frame(a, b)

    @pytest.mark.parametrize("a", [np.zeros(3), np.zeros((2, 4)), 1.0])
    def test_not_one_4_vector(self, a):
        with pytest.raises(BadInput, match="single 4-vectors"):
            build_frame(a, D2)

    def test_nu_lost_to_roundoff(self):
        # with components near 1e5 the pair is orthonormal to 1e-6, within
        # the tolerance; the triple wedge summed terms near 1e15 there and
        # lost nu to roundoff, the cofactor nu sums none that cancel
        a, b = random_spacelike_pair(np.random.default_rng(2), span=1e5)
        res = max(abs(inner(a, a) - 1.0), abs(inner(b, b) - 1.0),
                  abs(inner(a, b)))
        assert res <= 1e-5
        f = build_frame(a, b)
        tol = FRAME_EPS * f.tau0**2
        assert f.tau0 > 1e4
        # n0 = (tau_s - nu_s) / tau_0 is unit to roundoff at any tau0
        assert np.linalg.norm(f.n0) == pytest.approx(1.0, abs=1e-15)
        assert np.cos(f.theta) == pytest.approx(1 - 2 / f.tau0**2, abs=tol)
        assert abs(inner(f.nu, a)) <= tol and abs(inner(f.nu, b)) <= tol

    def test_random_frame_invariants(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            a, b = random_spacelike_pair(rng)
            f = build_frame(a, b)
            for lhs, rhs in [
                (inner(f.tau, f.tau), -1.0), (inner(f.nu, f.nu), 1.0),
                (inner(f.tau, f.nu), 0.0), (inner(f.tau, a), 0.0),
                (inner(f.tau, b), 0.0), (inner(f.nu, a), 0.0),
                (inner(f.nu, b), 0.0),
            ]:
                assert lhs == pytest.approx(rhs, abs=1e-10)
            assert f.nu[0] == pytest.approx(0.0, abs=1e-12)
            assert f.tau0 >= 1.0
            assert np.cos(f.theta) == pytest.approx(1 - 2 / f.tau0**2, abs=1e-10)
            # positive, future-directed frame
            assert np.linalg.det(np.stack([f.tau, a, b, f.nu])) > 0
            # paper's printed cofactor formula equals tau0 * nu
            d23 = a[2] * b[3] - a[3] * b[2]
            d13 = a[1] * b[3] - a[3] * b[1]
            d12 = a[1] * b[2] - a[2] * b[1]
            assert np.allclose(vec4(0, d23, -d13, d12), f.tau0 * f.nu,
                               atol=1e-10, rtol=0)

    @settings(derandomize=True, max_examples=300, deadline=None,
              database=None)
    @given(seed=st.integers(0, 2**32 - 1), bad=st.integers(0, 31),
           value=st.sampled_from([np.nan, np.inf, -np.inf]))
    def test_frame_or_bad_input(self, seed, bad, value):
        # a RuntimeWarning fails the test (pyproject's filterwarnings); a
        # draw with bad < 8 gets a non-finite component at index bad
        rng = np.random.default_rng(seed)
        span = 10.0 ** rng.uniform(-3.0, 7.0)
        a, b = random_spacelike_pair(rng, span)
        finite = bad >= 8
        if not finite:
            (a if bad < 4 else b)[bad % 4] = value
        try:
            f = build_frame(a, b)
        except BadInput as err:
            # a finite draw is refused only for its Gram residual, which
            # the draw's own roundoff pushes past ORTHO_TOL at large spans
            assert not finite or err.check.name == "orthonormal"
            return
        assert finite
        fields = (f.tau, f.nu, f.n0, f.n3, [f.tau0, f.theta])
        assert all(np.isfinite(x).all() for x in fields)
        tol = FRAME_EPS * f.tau0**2
        for lhs, rhs in [
            (inner(f.tau, f.tau), -1.0), (inner(f.nu, f.nu), 1.0),
            (inner(f.tau, f.nu), 0.0), (inner(f.tau, a), 0.0),
            (inner(f.tau, b), 0.0), (inner(f.nu, a), 0.0),
            (inner(f.nu, b), 0.0), (np.cos(f.theta), 1 - 2 / f.tau0**2),
            (np.linalg.det(np.stack([f.tau, a, b, f.nu])), 1.0),
        ]:
            assert lhs == pytest.approx(rhs, abs=tol)
        assert f.nu[0] == 0.0 and f.tau0 >= 1.0
        d23 = a[2] * b[3] - a[3] * b[2]
        d13 = a[1] * b[3] - a[3] * b[1]
        d12 = a[1] * b[2] - a[2] * b[1]
        assert np.allclose(vec4(0, d23, -d13, d12) / f.tau0, f.nu, atol=tol,
                           rtol=0)
        if span <= 10.0:
            w = -wedge3(f.tau, a, b)
            assert np.allclose(w / np.sqrt(inner(w, w)), f.nu, atol=1e-13,
                               rtol=0)

    @settings(derandomize=True, max_examples=300, deadline=None,
              database=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_float_pi_is_project_lightlike(self, seed):
        # build_frame projects tau -+ nu in floats; the array pi must give
        # the same n0 and n3 bit for bit, and theta must be the acos of a
        # dot within a few ulps of n0 . n3 (the sums run in another order)
        rng = np.random.default_rng(seed)
        a, b = random_spacelike_pair(rng, 10.0 ** rng.uniform(-3.0, 4.0))
        f = build_frame(a, b)
        n0, n3 = project_lightlike(np.stack([f.tau - f.nu, f.tau + f.nu]))
        assert np.array_equal(f.n0, n0) and np.array_equal(f.n3, n3)
        c, ulps = float(f.n0 @ f.n3), 4 * np.finfo(float).eps
        assert (math.acos(min(1.0, c + ulps)) <= f.theta
                <= math.acos(max(-1.0, c - ulps)))

    def test_no_array_pi(self, monkeypatch):
        # pi, the inner products and theta stay in floats: one frame calls
        # neither the array inner product nor an einsum
        a, b = random_spacelike_pair(np.random.default_rng(11))
        called = []

        def counted(module, name):
            original = getattr(module, name)

            def call(*args, **kwargs):
                called.append(name)
                return original(*args, **kwargs)
            monkeypatch.setattr(module, name, call)

        counted(mk, "inner")
        counted(np, "einsum")
        build_frame(a, b)
        assert called == []

    def test_lightlike_pair_metric_coefficient(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            a, b = random_spacelike_pair(rng)
            f = build_frame(a, b)
            l0, l3 = D0 + f.n0, D0 + f.n3
            assert inner(l0, l0) == pytest.approx(0.0, abs=1e-10)
            assert inner(l3, l3) == pytest.approx(0.0, abs=1e-10)
            assert inner(l0, l3) == pytest.approx(-1 + np.cos(f.theta), abs=1e-10)


def frame_identity_residuals(f: MinkowskiFrame) -> tuple:
    """The absolute residuals of the half-angle identities and of both
    printed forms of tau, by name, and the names left out.

    The forms through the half-angle basis, e1~ = (a0 a + b0 b) / r with
    r^2 = a0^2 + b0^2 and the sphere point e = (n0 + n3) / (2 cos(theta/2)),
    are left out when r^2 <= 1e-9: at tau0 = 1 (theta = pi) that basis is
    undefined.
    """
    a0, b0 = f.a[0], f.b[0]
    r = np.hypot(a0, b0)
    t0 = f.tau0
    th = f.theta
    res = {
        "sin_theta": abs(np.sin(th) - 2.0 * r / t0**2),
        "sin_half": abs(np.sin(th / 2.0) - 1.0 / t0),
        "cos_half": abs(np.cos(th / 2.0) - r / t0),
    }
    r2 = a0 * a0 + b0 * b0
    if r2 <= 1e-9:
        return res, ("tau_form1", "tau_form2", "e1tilde_relation")
    e1tilde = (a0 * f.a + b0 * f.b) / np.sqrt(r2)
    e = (f.n0 + f.n3) / (2.0 * np.cos(th / 2.0))
    res["tau_form1"] = np.abs(f.tau - (D0 + r * e1tilde) / t0).max()
    res["tau_form2"] = np.abs(
        f.tau - (t0 * D0 + t0 * np.cos(th / 2.0) * e)).max()
    res["e1tilde_relation"] = np.abs(
        e1tilde - (D0 / np.tan(th / 2.0) + e / np.sin(th / 2.0))).max()
    return res, ()


class TestFrameIdentities:
    def test_boosted_example_exact(self):
        f = build_frame(vec4(1.0, np.sqrt(2.0), 0.0, 0.0), D2)
        res, not_applicable = frame_identity_residuals(f)
        assert not_applicable == ()
        assert max(res.values()) <= 1e-12

    def test_theta_pi_boundary(self):
        res, not_applicable = frame_identity_residuals(build_frame(D1, D2))
        assert set(not_applicable) == {"tau_form1", "tau_form2",
                                       "e1tilde_relation"}
        assert max(res.values()) <= 1e-12

    def test_random_sweep(self):
        rng = np.random.default_rng(8)
        worst = 0.0
        for _ in range(1000):
            a, b = random_spacelike_pair(rng)
            worst = max(worst, max(frame_identity_residuals(
                build_frame(a, b))[0].values()))
        assert worst <= 1e-10


class TestPlaneProjector:
    def test_idempotent_and_reproduces_span(self):
        rng = np.random.default_rng(9)
        pairs = []
        for _ in range(20):
            a, b = random_spacelike_pair(rng)
            pairs.append((a, b))
            P = plane_projector(a, b)
            assert np.allclose(P @ P, P, atol=1e-10, rtol=0)
            assert np.allclose(P @ a, a, atol=1e-10, rtol=0)
            assert np.allclose(P @ b, b, atol=1e-10, rtol=0)
            f = build_frame(a, b)
            assert np.allclose(P @ f.tau, 0.0, atol=1e-10, rtol=0)
            assert np.allclose(P @ f.nu, 0.0, atol=1e-10, rtol=0)
        # stacked pairs: one projector per pair, equal to the single ones
        A = np.array([a for a, _ in pairs]).reshape(4, 5, 4)
        B = np.array([b for _, b in pairs]).reshape(4, 5, 4)
        stacked = plane_projector(A, B)
        assert stacked.shape == (4, 5, 4, 4)
        single = np.array([plane_projector(a, b) for a, b in pairs])
        assert np.array_equal(stacked.reshape(20, 4, 4), single)
        B[1, 2] = A[1, 2]        # one degenerate pair fails the whole stack
        with pytest.raises(BadInput):
            plane_projector(A, B)

    def test_same_plane_other_basis(self):
        rng = np.random.default_rng(10)
        a, b = random_spacelike_pair(rng)
        c = np.cos(0.3) * a + np.sin(0.3) * b
        d = -np.sin(0.3) * a + np.cos(0.3) * b
        assert np.allclose(plane_projector(a, b), plane_projector(c, d),
                           atol=1e-10, rtol=0)
