import numpy as np
import pytest
from scipy.interpolate import RectBivariateSpline

from chebylift.chebnet import (
    build_first_kind, check_disjointness, check_sum_one, equivalent_immersion,
    euclidean_shape, first_form, gallery, gallery_generators, is_chebyshev,
    sine_gordon_residual,
)
from chebylift.errors import DisjointnessViolated
from chebylift.numerics import SphereCurve, grid_from_ranges, sample_curve


def normalized_trig_curve(rng, n=201, t_range=(-0.5, 0.5), max_freq=2,
                          center=None):
    """Random trig-polynomial sphere curve around a given sphere point."""
    if center is None:
        center = np.array([1.0, 0.0, 0.0])
    coef = 0.3 * rng.standard_normal((3, max_freq, 2))

    def fn(t):
        t = np.atleast_1d(t)
        val = np.tile(center, (t.size, 1)).astype(float)
        for i in range(3):
            for k in range(max_freq):
                val[:, i] += (coef[i, k, 0] * np.cos((k + 1) * t)
                              + coef[i, k, 1] * np.sin((k + 1) * t))
        return val / np.linalg.norm(val, axis=1, keepdims=True)

    return sample_curve(fn, t_range, n, cls=SphereCurve)


def random_net_pair(rng, n=201, t_range=(-0.5, 0.5)):
    # centers near orthogonal axes keep theta away from 0 and pi
    T1 = normalized_trig_curve(rng, n, t_range, center=np.array([1.0, 0.0, 0.0]))
    T2 = normalized_trig_curve(rng, n, t_range, center=np.array([0.0, 0.0, 1.0]))
    return T1, T2


class TestBuildFirstKind:
    def test_example_metric(self):
        T1, T2 = gallery_generators(n=201)
        net = build_first_kind(T1, T2, np.zeros(3))
        U, V = np.meshgrid(T1.ts, T2.ts, indexing="ij")
        assert np.abs(net.F - np.sin(U) * np.sin(V)).max() < 1e-12
        E, F, G = first_form(net.grid)
        assert np.abs(E - 1).max() < 1e-6
        assert np.abs(G - 1).max() < 1e-6

    def test_planar_net(self):
        mk = lambda p: sample_curve(
            lambda t: np.tile(np.asarray(p, float), (np.atleast_1d(t).size, 1)),
            (-1.0, 1.0), 41, cls=SphereCurve)
        net = build_first_kind(mk([1, 0, 0]), mk([0, 1, 0]), np.zeros(3))
        assert np.abs(net.F).max() == 0.0
        # X is affine: second differences vanish
        X = net.grid.values
        assert np.abs(np.diff(X, 2, axis=0)).max() < 1e-12
        assert np.abs(np.diff(X, 2, axis=1)).max() < 1e-12

    def test_disjointness_violated(self):
        T1, _ = gallery_generators(n=101)
        with pytest.raises(DisjointnessViolated):
            build_first_kind(T1, T1, np.zeros(3))

    def test_direct_f_matches_differenced_f(self):
        rng = np.random.default_rng(11)
        T1, T2 = random_net_pair(rng, n=201, t_range=(-0.1, 0.1))
        net = build_first_kind(T1, T2, np.zeros(3))
        _, F, _ = first_form(net.grid)
        assert np.abs(F - net.F).max() < 2e-6


class TestCheckDisjointness:
    def test_gallery_curves_pass(self):
        T1, T2 = gallery_generators(n=201)
        rep = check_disjointness(T1, T2)
        assert rep.passed
        assert rep.min_separation > 0.05

    def test_antipodal_fails(self):
        T1, _ = gallery_generators(n=101)
        T2 = SphereCurve(T1.t_min, T1.dt, -T1.points)
        rep = check_disjointness(T1, T2)
        assert not rep.passed
        assert rep.min_separation < 1e-12

    def test_meeting_between_samples_fails(self):
        # T2 passes through T1 = d1 at v = pi/2, half-way between two nodes,
        # where the nearest samples still stand 0.08 apart
        T1 = sample_curve(lambda t: np.tile([1.0, 0.0, 0.0], (t.size, 1)),
                          (-1.0, 1.0), 11, cls=SphereCurve)
        T2 = sample_curve(
            lambda t: np.stack([np.sin(t), 0 * t, np.cos(t)], axis=-1),
            (0.0, np.pi), 20, cls=SphereCurve)
        assert np.abs(T1.points @ T2.points.T).max() < 0.997
        rep = check_disjointness(T1, T2)
        assert not rep.passed
        assert abs(rep.at_v - np.pi / 2) < T2.dt

    def test_certified_bound_random_arcs(self):
        # a great circle against a small circle that stays exactly `gap`
        # (in angle) off it, and against a second great circle that crosses
        # it: the first must pass with a bound no larger than the true
        # separation, the second must fail, at random rates and spacings
        rng = np.random.default_rng(13)
        for _ in range(20):
            q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
            w1, w2 = rng.uniform(0.5, 4.0, 2)
            n1, n2 = rng.integers(20, 300, 2)
            o1, o2 = rng.uniform(-0.3, 0.3, 2)
            c1 = sample_curve(
                lambda t: np.outer(np.cos(w1 * t), q[:, 0])
                + np.outer(np.sin(w1 * t), q[:, 1]),
                (o1 - 0.5, o1 + 0.5), n1, cls=SphereCurve)
            gap, rho = 10 ** rng.uniform(-4, -1), rng.uniform(0.2, 1.2)
            m = np.cos(rho + gap) * q[:, 0] + np.sin(rho + gap) * q[:, 2]
            e = -np.sin(rho + gap) * q[:, 0] + np.cos(rho + gap) * q[:, 2]
            near = sample_curve(
                lambda t: np.cos(rho) * m + np.sin(rho) * (
                    np.outer(-np.cos(w2 * t), e)
                    + np.outer(np.sin(w2 * t), q[:, 1])),
                (o2 - 0.5, o2 + 0.5), n2, cls=SphereCurve)
            rep = check_disjointness(c1, near)
            assert rep.passed
            assert rep.min_separation <= 2.0 * np.sin(gap / 2.0)
            b = np.cos(rho) * q[:, 1] + np.sin(rho) * q[:, 2]
            crossing = sample_curve(
                lambda t: np.outer(np.cos(w2 * t), q[:, 0])
                + np.outer(np.sin(w2 * t), b),
                (o2 - 0.5, o2 + 0.5), n2, cls=SphereCurve)
            assert not check_disjointness(c1, crossing).passed

    def test_orthogonal_great_circles_pass(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
            c1 = sample_curve(
                lambda t: np.outer(np.cos(t), q[:, 0]) + np.outer(np.sin(t), q[:, 1]),
                (-0.7, 0.7), 101, cls=SphereCurve)
            # the circles meet at +-q0; c2 reaches q0 = c1(0) at t = pi/2,
            # so its arc stops 0.2 short of it
            c2 = sample_curve(
                lambda t: np.outer(np.cos(t), q[:, 2]) + np.outer(np.sin(t), q[:, 0]),
                (0.9, np.pi / 2 - 0.2), 101, cls=SphereCurve)
            assert check_disjointness(c1, c2).passed


class TestFirstFormAndChebyshev:
    def test_plane(self):
        us = np.linspace(0, 1, 41)
        U, V = np.meshgrid(us, us, indexing="ij")
        g = grid_from_ranges((0, 1), (0, 1),
                             np.stack([U, V, 0 * U], axis=-1))
        E, F, G = first_form(g)
        assert np.abs(E - 1).max() < 1e-10
        assert np.abs(F).max() < 1e-10
        assert np.abs(G - 1).max() < 1e-10

    def test_stretched_plane(self):
        us = np.linspace(0, 1, 41)
        U, V = np.meshgrid(us, us, indexing="ij")
        g = grid_from_ranges((0, 1), (0, 1),
                             np.stack([2 * U, V, 0 * U], axis=-1))
        E, F, G = first_form(g)
        assert np.abs(E - 4).max() < 1e-9
        assert np.abs(F).max() < 1e-9
        assert np.abs(G - 1).max() < 1e-9

    def test_gallery_passes_scaled_fails(self):
        net = gallery("critical", nu=101, nv=101).net
        assert is_chebyshev(net).passed
        scaled = net.grid.with_values(2.0 * net.grid.values)
        rep = is_chebyshev(scaled)
        assert not rep.passed
        assert rep.sup_e == pytest.approx(3.0, abs=1e-6)

    def test_noncritical_ts_fails_uv_passes(self):
        gal = gallery("noncritical", nu=101, nv=101)
        assert not is_chebyshev(gal.ts_grid).passed
        rep = is_chebyshev(gal.net, tol=1e-6)
        assert rep.passed
        assert rep.theta is not None


class TestEquivalentImmersion:
    def test_planar_metric_halves(self):
        # F = 0 net: in (t,s) coordinates the metric is (dt^2 + ds^2)/2
        us = np.linspace(-1, 1, 201)
        U, V = np.meshgrid(us, us, indexing="ij")
        X = np.stack([U, V, 0 * U], axis=-1)
        g = grid_from_ranges((-1, 1), (-1, 1), X)
        out = equivalent_immersion(g, "uv_to_ts")
        E, F, G = first_form(out)
        assert np.abs(E - 0.5).max() < 1e-7
        assert np.abs(G - 0.5).max() < 1e-7
        assert np.abs(F).max() < 1e-7

    def test_round_trip(self):
        net = gallery("critical", nu=201, nv=201).net
        fwd = equivalent_immersion(net.grid, "uv_to_ts")
        back = equivalent_immersion(fwd, "ts_to_uv")
        # compare against the closed form on the round-trip grid
        U, V = np.meshgrid(back.us, back.vs, indexing="ij")
        X = np.stack([np.sin(U), 2 - np.cos(U) - np.cos(V), np.sin(V)], axis=-1)
        assert np.abs(back.values - X).max() < 1e-6

    def test_noncritical_resample_is_chebyshev(self):
        gal = gallery("noncritical", nu=201, nv=201)
        out = equivalent_immersion(gal.ts_grid, "ts_to_uv")
        rep = is_chebyshev(out, tol=1e-5)
        assert rep.passed

    @pytest.mark.parametrize("direction", ["uv_to_ts", "ts_to_uv"])
    @pytest.mark.parametrize("source", ["critical", "noncritical"])
    def test_matches_scattered_evaluation(self, source, direction):
        # reading the spline off the tensor grid of distinct abscissae gives
        # the values of evaluating it at every target point
        gal = gallery(source, nu=201, nv=201)
        g = gal.net.grid if source == "critical" else gal.ts_grid
        out = equivalent_immersion(g, direction)
        A, B = np.meshgrid(out.us, out.vs, indexing="ij")
        if direction == "uv_to_ts":
            src_u, src_v = (A - B) / 2.0, (A + B) / 2.0
        else:
            src_u, src_v = A + B, B - A
        ref = np.stack(
            [RectBivariateSpline(g.us, g.vs, g.values[..., k], kx=3, ky=3,
                                 s=0).ev(src_u, src_v)
             for k in range(g.values.shape[-1])], axis=-1)
        assert np.abs(out.values - ref).max() < 1e-13

    @pytest.mark.parametrize("nu, nv", [(161, 161), (161, 201), (201, 161)])
    def test_point_set_preserved(self, nu, nv):
        gal = gallery("noncritical", nu=nu, nv=nv)
        out = equivalent_immersion(gal.ts_grid, "ts_to_uv")
        # resampled points must reproduce the closed-form immersion
        exact = gal.net  # same map, exact evaluation on its own square
        U, V = np.meshgrid(out.us, out.vs, indexing="ij")
        from chebylift.chebnet import _profile
        pr = _profile()
        T, S = U + V, V - U
        X = np.stack([pr.x(S) * np.cos(T), pr.x(S) * np.sin(T), pr.y(S)],
                     axis=-1)
        assert np.abs(out.values - X).max() < 1e-7


class TestCheckSumOne:
    def test_noncritical_passes(self):
        gal = gallery("noncritical", nu=151, nv=151)
        rep = check_sum_one(gal.ts_forms, tol=1e-8)
        assert rep.passed
        assert rep.sup_f < 1e-9

    def test_unit_speed_strip_fails(self):
        E = np.ones((21, 21))
        rep = check_sum_one((E, np.zeros_like(E), np.ones_like(E)))
        assert not rep.passed
        assert rep.sup_sum == pytest.approx(1.0)

    def test_synthetic_cos_sin(self):
        ss = np.linspace(0, 1, 21)
        _, S = np.meshgrid(ss, ss, indexing="ij")
        rep = check_sum_one((np.cos(S)**2, np.zeros_like(S), np.sin(S)**2))
        assert rep.passed


class TestEuclideanShape:
    def test_gallery_oracles(self):
        gal = gallery("critical")
        shape = euclidean_shape(gal.net)
        assert np.abs(shape.gauss_map - gal.oracles["gauss_map"]).max() < 1e-4
        assert np.abs(shape.e - gal.oracles["second_e"]).max() < 1e-4
        assert np.abs(shape.f - gal.oracles["second_f"]).max() < 1e-4
        assert np.abs(shape.g - gal.oracles["second_g"]).max() < 1e-4
        assert np.abs(shape.K_T - gal.oracles["K_T"]).max() < 1e-3

    def test_center_and_quarter_values(self):
        gal = gallery("critical")
        shape = euclidean_shape(gal.net)
        i0 = int(np.argmin(np.abs(gal.net.grid.us)))
        j0 = int(np.argmin(np.abs(gal.net.grid.vs)))
        assert np.allclose(shape.gauss_map[i0, j0], [0, -1, 0], atol=1e-6)
        assert shape.K_T[i0, j0] == pytest.approx(1.0, abs=1e-4)
        iq = int(np.argmin(np.abs(gal.net.grid.us - np.pi / 4)))
        jq = int(np.argmin(np.abs(gal.net.grid.vs - np.pi / 4)))
        uq, vq = gal.net.grid.us[iq], gal.net.grid.vs[jq]
        expect = np.cos(uq) * np.cos(vq) / (1 - np.sin(uq)**2 * np.sin(vq)**2)**2
        assert shape.K_T[iq, jq] == pytest.approx(expect, abs=1e-4)
        # 8/9 at exactly (pi/4, pi/4)
        assert np.cos(np.pi / 4)**2 / (1 - np.sin(np.pi / 4)**4)**2 == \
            pytest.approx(8.0 / 9.0, abs=1e-12)

    def test_plane_flat(self):
        us = np.linspace(0, 1, 31)
        U, V = np.meshgrid(us, us, indexing="ij")
        g = grid_from_ranges((0, 1), (0, 1), np.stack([U, V, 0 * U], axis=-1))
        ones = np.ones_like(U)
        from chebylift.chebnet import GENERAL, NetSurface
        net = NetSurface(grid=g, E=ones, F=0 * ones, G=ones.copy(),
                         theta=np.full_like(U, np.pi / 2), kind=GENERAL,
                         p0=np.zeros(3))
        shape = euclidean_shape(net)
        assert np.abs(shape.K_T).max() < 1e-9
        assert np.abs(shape.e).max() < 1e-9


class TestSineGordon:
    def test_gallery_identity(self):
        gal = gallery("critical")
        shape = euclidean_shape(gal.net)
        res = sine_gordon_residual(gal.net, shape)
        # mask nodes where arccos differencing degenerates
        U, V = np.meshgrid(res.us, res.vs, indexing="ij")
        keep = 1 - np.abs(np.sin(U) * np.sin(V)) >= 0.1
        assert np.abs(res.values[keep]).max() < 1e-4

    def test_planar_zero(self):
        mk = lambda p: sample_curve(
            lambda t: np.tile(np.asarray(p, float), (np.atleast_1d(t).size, 1)),
            (-1.0, 1.0), 41, cls=SphereCurve)
        net = build_first_kind(mk([1, 0, 0]), mk([0, 1, 0]), np.zeros(3))
        res = sine_gordon_residual(net, euclidean_shape(net))
        assert np.abs(res.values).max() < 1e-9

    def test_random_first_kind(self):
        rng = np.random.default_rng(13)
        for _ in range(3):
            T1, T2 = random_net_pair(rng, n=161, t_range=(-0.4, 0.4))
            net = build_first_kind(T1, T2, np.zeros(3))
            res = sine_gordon_residual(net, euclidean_shape(net))
            theta_int = net.theta[2:-2, 2:-2]
            keep = 1 - np.abs(np.cos(theta_int)) >= 0.1
            assert np.abs(res.values[keep]).max() < 1e-3


class TestInvariants:
    def test_lift_metric_identity(self):
        net = gallery("critical", nu=101, nv=101).net
        lhs = -1 + net.F
        rhs = -2 * np.sin(net.theta / 2)**2
        assert np.abs(lhs - rhs).max() < 1e-10
