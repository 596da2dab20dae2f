import numpy as np
import pytest

from chebylift import minkowski as mk
from chebylift.chebnet import build_first_kind, gallery, gallery_generators
from chebylift.errors import DegenerateAngle, MissingSource, NotMinimal
from chebylift.lift import (
    build_minimal, decompose_minimal, gaussian_curvature, h_parallel_e2,
    isothermal_form, lift_net, mean_curvature, normal_frame, to_null_form,
    verify_null_coords,
)
from chebylift.numerics import SphereCurve, sample_curve

from test_chebnet import random_net_pair


@pytest.fixture(scope="module")
def critical_lift():
    return lift_net(gallery("critical").net)


@pytest.fixture(scope="module")
def noncritical_lift():
    return lift_net(gallery("noncritical").net)


def planar_lift(n=41):
    mk_curve = lambda p: sample_curve(
        lambda t: np.tile(np.asarray(p, float), (np.atleast_1d(t).size, 1)),
        (-1.0, 1.0), n, cls=SphereCurve)
    net = build_first_kind(mk_curve([1, 0, 0]), mk_curve([0, 1, 0]), np.zeros(3))
    return lift_net(net)


class TestLiftNet:
    def test_gallery_g12(self, critical_lift):
        g = critical_lift.grid
        i0, j0 = g.base_index()
        assert critical_lift.g12[i0, j0] == pytest.approx(-1.0, abs=1e-12)

    def test_planar_lift(self):
        s = planar_lift()
        assert np.abs(s.g12 + 1.0).max() < 1e-12
        # f is affine in each variable
        assert np.abs(np.diff(s.grid.values, 2, axis=0)).max() < 1e-12

    def test_time_component_is_u_plus_v(self, critical_lift):
        g = critical_lift.grid
        x0 = g.values[..., 0]
        assert np.abs(x0 - (g.us[:, None] + g.vs[None, :])).max() < 1e-12


class TestVerifyNullCoords:
    def test_gallery_critical(self, critical_lift):
        rep = verify_null_coords(critical_lift)
        assert rep.sup_fu_fu <= 1e-6
        assert rep.sup_fv_fv <= 1e-6
        assert rep.sup_cross <= 1e-6

    def test_noncritical_via_resampling(self):
        from chebylift.chebnet import equivalent_immersion, is_chebyshev
        gal = gallery("noncritical")
        resampled = equivalent_immersion(gal.ts_grid, "ts_to_uv")
        rep = is_chebyshev(resampled, tol=1e-5)
        assert rep.passed
        from chebylift.chebnet import GENERAL, NetSurface
        ones = np.ones_like(rep.theta)
        net = NetSurface(grid=resampled, E=ones, F=np.cos(rep.theta),
                         G=ones.copy(), theta=rep.theta, kind=GENERAL,
                         p0=resampled.values[0, 0])
        out = verify_null_coords(lift_net(net, tol=1e-5))
        assert max(out.sup_fu_fu, out.sup_fv_fv, out.sup_cross) <= 1e-5

    def test_corrupted_lift_detected(self, critical_lift):
        vals = critical_lift.grid.values.copy()
        vals[..., 0] *= 1.1
        from chebylift.lift import LiftSurface
        bad = LiftSurface(grid=critical_lift.grid.with_values(vals),
                          theta=critical_lift.theta, g12=critical_lift.g12)
        rep = verify_null_coords(bad)
        assert rep.sup_fu_fu > 0.1


class TestMeanCurvature:
    def test_critical_vanishes(self, critical_lift):
        assert mean_curvature(critical_lift).sup() <= 1e-6

    def test_noncritical_does_not(self, noncritical_lift):
        assert mean_curvature(noncritical_lift).sup() >= 0.01

    def test_planar_zero(self):
        # zero up to eps/h^2 rounding in the mixed stencil
        assert mean_curvature(planar_lift()).sup() < 1e-11


class TestNormalFrame:
    def test_center_values(self, critical_lift):
        fr = normal_frame(critical_lift)
        i0, j0 = critical_lift.grid.base_index()
        # at the origin: sin theta = 1, X_u = d1, X_v = d3
        assert np.allclose(fr.etilde[i0, j0], [1, 1, 0, 1], atol=1e-6)
        assert np.allclose(fr.e2[i0, j0], [0, 0, -1, 0], atol=1e-6)

    def test_orthonormal_normal(self, critical_lift):
        fr = normal_frame(critical_lift)
        assert np.abs(mk.inner(fr.etilde, fr.e2)[~fr.degenerate]).max() <= 1e-8
        # unit-ness residuals carry the 1/sin^2 theta amplification, so
        # judge them away from the degenerate-angle corners
        keep = (1 - np.abs(np.cos(critical_lift.theta))) >= 0.1
        assert np.abs(mk.inner(fr.etilde, fr.etilde) - 1)[keep].max() <= 1e-6
        assert np.abs(mk.inner(fr.e2, fr.e2) - 1)[keep].max() <= 1e-6
        # frame is normal to the surface
        from chebylift.numerics import partials
        fu = partials(critical_lift.grid, "u").values
        fv = partials(critical_lift.grid, "v").values
        for tangent in (fu, fv):
            for nrm in (fr.etilde, fr.e2):
                assert np.abs(mk.inner(tangent, nrm)[keep]).max() <= 1e-6


class TestHParallel:
    def test_noncritical(self, noncritical_lift):
        rep = h_parallel_e2(noncritical_lift)
        assert rep.sup_off_e2 <= 1e-5
        assert rep.sup_dot_etilde <= 1e-5

    def test_critical_trivial(self, critical_lift):
        rep = h_parallel_e2(critical_lift)
        assert rep.sup_off_e2 <= 1e-6

    def test_random_net(self):
        rng = np.random.default_rng(21)
        T1, T2 = random_net_pair(rng, n=161, t_range=(-0.4, 0.4))
        s = lift_net(build_first_kind(T1, T2, np.zeros(3)))
        rep = h_parallel_e2(s)
        assert rep.sup_off_e2 <= 1e-4

    def test_degenerate_everywhere_raises(self):
        # 1 - |cos theta| lies in [0.020, 0.084] on the whole grid, below
        # the angle margin, so no node is left to take a sup over
        c = np.cos(0.3)
        T1 = sample_curve(
            lambda t: np.stack([np.cos(t), np.sin(t), 0 * t], axis=-1),
            (-0.1, 0.1), 101, cls=SphereCurve)
        T2 = sample_curve(
            lambda t: np.stack([c * np.cos(t), np.sin(0.3) + 0 * t,
                                c * np.sin(t)], axis=-1),
            (-0.1, 0.1), 101, cls=SphereCurve)
        s = lift_net(build_first_kind(T1, T2, np.zeros(3)))
        with pytest.raises(DegenerateAngle):
            h_parallel_e2(s)
        with pytest.raises(DegenerateAngle):
            gaussian_curvature(s)


class TestGaussianCurvature:
    def test_gallery_center_value(self, critical_lift):
        i0, j0 = critical_lift.grid.base_index()
        for route in ("direct", "via_net"):
            K = gaussian_curvature(critical_lift, route)
            assert K.values[i0, j0] == pytest.approx(1.0, abs=1e-3)

    def test_constant_theta_flat(self):
        assert gaussian_curvature(planar_lift()).sup() < 1e-10

    def test_routes_agree(self, critical_lift):
        Kd = gaussian_curvature(critical_lift, "direct")
        Kv = gaussian_curvature(critical_lift, "via_net")
        keep = ~(Kd.degenerate | Kv.degenerate)
        assert np.abs(Kd.values - Kv.values)[keep].max() <= 1e-3

    def test_routes_agree_random(self):
        rng = np.random.default_rng(22)
        T1, T2 = random_net_pair(rng, n=161, t_range=(-0.4, 0.4))
        s = lift_net(build_first_kind(T1, T2, np.zeros(3)))
        Kd = gaussian_curvature(s, "direct")
        Kv = gaussian_curvature(s, "via_net")
        keep = ~(Kd.degenerate | Kv.degenerate)
        assert np.abs(Kd.values - Kv.values)[keep].max() <= 1e-3

    def test_missing_source(self, critical_lift):
        from chebylift.lift import LiftSurface
        bare = LiftSurface(grid=critical_lift.grid, theta=critical_lift.theta,
                           g12=critical_lift.g12, source=None)
        with pytest.raises(MissingSource):
            gaussian_curvature(bare, "via_net")

    def test_translation_invariance(self, critical_lift):
        from chebylift.lift import LiftSurface
        from chebylift.numerics import Grid2D
        g = critical_lift.grid
        shifted_grid = Grid2D(u_min=g.u_min + 0.37, v_min=g.v_min - 0.11,
                              du=g.du, dv=g.dv, values=g.values)
        shifted = LiftSurface(grid=shifted_grid, theta=critical_lift.theta,
                              g12=critical_lift.g12)
        K1 = gaussian_curvature(critical_lift, "direct")
        K2 = gaussian_curvature(shifted, "direct")
        keep = ~K1.degenerate
        assert np.abs(K1.values - K2.values)[keep].max() <= 1e-8


class TestBuildMinimal:
    def test_matches_gallery_lift(self, critical_lift):
        T1, T2 = gallery_generators(n=201)
        s = build_minimal(T1, T2, np.zeros(4))
        # same surface as the closed-form gallery lift, up to quadrature
        assert np.abs(s.grid.values - critical_lift.grid.values).max() < 1e-8

    def test_constant_generators_plane(self):
        c0 = sample_curve(lambda t: np.tile([1.0, 0, 0], (np.atleast_1d(t).size, 1)),
                          (-1, 1), 41, cls=SphereCurve)
        c3 = sample_curve(lambda t: np.tile([0, 0, 1.0], (np.atleast_1d(t).size, 1)),
                          (-1, 1), 41, cls=SphereCurve)
        s = build_minimal(c0, c3, np.array([2.0, 1.0, 0.0, 0.0]))
        assert mean_curvature(s).sup() < 1e-11
        assert gaussian_curvature(s).sup() < 1e-11
        i0, j0 = s.grid.base_index()
        assert np.allclose(s.grid.values[i0, j0], [2, 1, 0, 0])

    def test_random_minimal(self):
        rng = np.random.default_rng(23)
        for _ in range(3):
            n0, n3 = random_net_pair(rng, n=201, t_range=(-0.1, 0.1))
            s = build_minimal(n0, n3, np.zeros(4))
            assert mean_curvature(s).sup() <= 1e-5
            rep = verify_null_coords(s)
            assert max(rep.sup_fu_fu, rep.sup_fv_fv, rep.sup_cross) <= 1e-8

    def test_generator_dependence_split(self):
        rng = np.random.default_rng(24)
        n0, n3 = random_net_pair(rng, n=101, t_range=(-0.1, 0.1))
        s = build_minimal(n0, n3, np.zeros(4))
        from chebylift.numerics import partials
        fu = partials(s.grid, "u").values
        fv = partials(s.grid, "v").values
        assert np.abs(fu - fu[:, :1, :]).max() <= 1e-8
        assert np.abs(fv - fv[:1, :, :]).max() <= 1e-8


class TestDecomposeMinimal:
    def test_round_trip_gallery(self, critical_lift):
        n0, n3, P0 = decompose_minimal(critical_lift)
        us = critical_lift.grid.us
        vs = critical_lift.grid.vs
        T1 = np.stack([np.cos(us), np.sin(us), 0 * us], axis=1)
        T2 = np.stack([0 * vs, np.sin(vs), np.cos(vs)], axis=1)
        assert np.abs(n0.points - T1).max() <= 1e-6
        assert np.abs(n3.points - T2).max() <= 1e-6
        rebuilt = build_minimal(n0, n3, P0)
        assert np.abs(rebuilt.grid.values - critical_lift.grid.values).max() <= 1e-6

    def test_lightlike_plane_constant(self):
        c0 = sample_curve(lambda t: np.tile([1.0, 0, 0], (np.atleast_1d(t).size, 1)),
                          (-1, 1), 41, cls=SphereCurve)
        c3 = sample_curve(lambda t: np.tile([0, 0, 1.0], (np.atleast_1d(t).size, 1)),
                          (-1, 1), 41, cls=SphereCurve)
        s = build_minimal(c0, c3, np.zeros(4))
        n0, n3, _ = decompose_minimal(s)
        assert np.abs(n0.points - [1, 0, 0]).max() < 1e-10
        assert np.abs(n3.points - [0, 0, 1]).max() < 1e-10

    def test_noncritical_rejected(self, noncritical_lift):
        with pytest.raises(NotMinimal):
            decompose_minimal(noncritical_lift)


class TestIsothermal:
    def test_noncritical_native_metric(self):
        # the (t,s) rotational chart is already isothermal with
        # sin^2(theta/2) = G = x'^2 + y'^2
        gal = gallery("noncritical")
        E_ts, F_ts, G_ts = gal.ts_forms
        sin2 = 1.0 - E_ts  # = G since E + G = 1
        assert np.abs(sin2 - G_ts).max() < 1e-10

    def test_planar_lift_metric(self):
        s, rep = isothermal_form(planar_lift(n=101))
        assert s.coords == "isothermal"
        assert max(rep.sup_tt, rep.sup_ss, rep.sup_ts) < 1e-8
        # theta = pi/2: coefficient 1/2
        assert np.abs(np.sin(s.theta / 2)**2 - 0.5).max() < 1e-10

    def test_critical_metric(self, critical_lift):
        s, rep = isothermal_form(critical_lift)
        assert max(rep.sup_tt, rep.sup_ss, rep.sup_ts) < 1e-4

    def test_round_trip(self, critical_lift):
        iso, _ = isothermal_form(critical_lift)
        back, rep = to_null_form(iso)
        assert back.coords == "null"
        assert max(rep.sup_tt, rep.sup_ss) < 1e-4
        U, V = np.meshgrid(back.grid.us, back.grid.vs, indexing="ij")
        exact = np.stack([U + V, np.sin(U), 2 - np.cos(U) - np.cos(V),
                          np.sin(V)], axis=-1)
        assert np.abs(back.grid.values - exact).max() <= 1e-5


class TestInvariants:
    def test_g12_identity(self, critical_lift):
        assert np.abs(critical_lift.g12
                      + 2 * np.sin(critical_lift.theta / 2)**2).max() <= 1e-12

    def test_normal_frame_vs_minkowski_frame(self):
        rng = np.random.default_rng(25)
        n0c, n3c = random_net_pair(rng, n=101, t_range=(-0.1, 0.1))
        s = build_minimal(n0c, n3c, np.zeros(4))
        fr = normal_frame(s)
        from chebylift.numerics import partials
        fu = partials(s.grid, "u").values
        fv = partials(s.grid, "v").values
        for idx in [(10, 17), (50, 50), (80, 3)]:
            a = fr.etilde[idx]
            b = fr.e2[idx]
            frame = mk.build_frame(a / np.sqrt(mk.inner(a, a)),
                                   b / np.sqrt(mk.inner(b, b)),
                                   ortho_tol=1e-5)
            # complement span{tau, nu} is the tangent plane
            P_frame = mk.plane_projector(frame.tau, frame.nu)
            P_tan = mk.plane_projector(fu[idx], fv[idx])
            assert np.abs(P_frame - P_tan).max() <= 1e-6
