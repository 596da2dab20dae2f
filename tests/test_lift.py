import tracemalloc
import warnings
from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.interpolate import CubicSpline

from chebylift import chebnet, lift, minkowski as mk, numerics
from chebylift.bjorling import ExtensionChoice, solve
from chebylift.chebnet import (
    NetSurface, _profile_x, _profile_y, build_first_kind, check_disjointness,
    euclidean_shape, gallery, is_chebyshev, sine_gordon_residual,
)
from chebylift.errors import (BadGrid, ChebyliftError, DegenerateAngle,
                              MissingSource, NotChebyshev, NotMinimal, Report)
from chebylift.lift import (
    LiftSurface, build_minimal, decompose_minimal, gaussian_curvature, h_parallel_e2,
    isothermal_form, lift_net, mean_curvature, normal_frame, to_null_form,
    verify_null_coords,
)
from chebylift.numerics import (SphereCurve, cumulative_integral,
                                diff_samples, partials, sample_curve)

from test_bjorling import critical_lift_data, data_from_lift
from test_chebnet import (DINI_AS, DINI_NS, DINI_TRUNCATION, EDGE_WEIGHTS,
                          dini_net, first_form, gallery_generators,
                          normalized_trig_curve, random_net_pair,
                          record_diff_samples, stencil_roundoff)
from test_numerics import check_bits, reference_form_sups


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


def random_lift():
    """The lift of a random first-kind net, which keeps its generators."""
    T1, T2 = random_net_pair(np.random.default_rng(21), n=161,
                             t_range=(-0.4, 0.4))
    return lift_net(build_first_kind(T1, T2, np.zeros(3)))


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

    @pytest.mark.parametrize("f", [1.0, -1.0])
    def test_f_reaching_one_raises(self, f):
        # a net with generators is held to |F| < 1 too: only build_minimal,
        # whose F the disjointness check bounded, skips the check
        for net in (gallery("critical", nu=21, nv=21).net,
                    build_first_kind(*gallery_generators(21), np.zeros(3))):
            F = net.F.copy()
            F[3, 4] = f
            with pytest.raises(NotChebyshev):
                lift_net(replace(net, F=F))

    def test_build_minimal_scans_no_f(self, monkeypatch):
        seen, check = [], lift.sup_check

        def counted(name, *args, **kwargs):
            seen.append(name)
            return check(name, *args, **kwargs)

        monkeypatch.setattr(lift, "sup_check", counted)
        T1, T2 = gallery_generators(41)
        s = build_minimal(T1, T2, np.zeros(4))
        assert seen == []
        lift_net(s.source)
        assert seen == ["sup_f"]


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
        rep = is_chebyshev(resampled)
        assert rep.passed
        from chebylift.chebnet import NetSurface
        net = NetSurface(grid=resampled, F=first_form(resampled)[1])
        out = verify_null_coords(lift_net(net))
        assert max(out.sup_fu_fu, out.sup_fv_fv, out.sup_cross) <= 1e-5

    def test_corrupted_lift_detected(self, critical_lift):
        vals = critical_lift.grid.values.copy()
        vals[..., 0] *= 1.1
        from chebylift.lift import LiftSurface
        bad = LiftSurface(grid=critical_lift.grid.with_values(vals),
                          theta=critical_lift.theta, g12=critical_lift.g12)
        rep = verify_null_coords(bad)
        assert rep.sup_fu_fu > 0.1
        # one raised x1 sample: the worst node is named in full-grid
        # indices, with its (u, v), and the trimmed edge counts as masked
        vals = critical_lift.grid.values.copy()
        vals[50, 60, 1] += 1e-3
        bad = LiftSurface(grid=critical_lift.grid.with_values(vals),
                          theta=critical_lift.theta, g12=critical_lift.g12)
        chk = verify_null_coords(bad)["sup_fu_fu"]
        (i, j), (u, v) = chk.where
        assert j == 60 and abs(i - 50) <= 2
        assert (u, v) == (bad.grid.us[i], bad.grid.vs[j])
        assert chk.masked == 201 * 201 - 197 * 197


class TestMeanCurvature:
    def test_critical_vanishes(self, critical_lift):
        assert mean_curvature(critical_lift).sup() <= 1e-6

    def test_noncritical_does_not(self, noncritical_lift):
        assert mean_curvature(noncritical_lift).sup() >= 0.01

    def test_planar_zero(self):
        # zero up to eps/h^2 rounding in the mixed stencil
        assert mean_curvature(planar_lift()).sup() < 1e-11

    def test_zero_angle_everywhere_raises(self):
        s = planar_lift(n=21)
        # theta = 0 and g12 = cos theta - 1 = 0: H reads the angle from g12
        flat = replace(s, theta=np.zeros_like(s.theta),
                       g12=np.zeros_like(s.g12))
        with pytest.raises(DegenerateAngle, match="whole grid"):
            mean_curvature(flat)


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
        fu = partials(critical_lift.grid, "u")
        fv = partials(critical_lift.grid, "v")
        for tangent in (fu, fv):
            for nrm in (fr.etilde, fr.e2):
                assert np.abs(mk.inner(tangent, nrm)[keep]).max() <= 1e-6

    @staticmethod
    def theta_frame(s):
        """The frame with sin theta and cos theta evaluated on the theta
        grid, from the tangents ``normal_frame`` reads."""
        gen = s.generators
        if gen is not None:
            Xu, Xv = np.broadcast_arrays(gen.T1.points[:, None, :],
                                         gen.T2.points[None, :, :])
        else:
            Xu, Xv = (mk.spatial(partials(s.grid, w)) for w in "uv")
        sth = np.sin(s.theta)
        degenerate = sth <= 1e-8
        denom = np.where(degenerate, 1.0, sth)[..., None]
        etilde = np.concatenate([1.0 + np.cos(s.theta)[..., None], Xu + Xv],
                                axis=-1) / denom
        e2 = np.concatenate([np.zeros_like(denom), np.cross(Xu, Xv)],
                            axis=-1) / denom
        etilde[degenerate] = e2[degenerate] = np.nan
        return etilde, e2, degenerate

    @pytest.mark.parametrize("n", [201, 801])
    @pytest.mark.parametrize("name", ["critical", "random"])
    def test_cosine_frame_matches_theta_frame(self, name, n):
        if name == "critical":
            s = lift_net(gallery(name, nu=n, nv=n).net)
        else:
            T1, T2 = random_net_pair(np.random.default_rng(21), n=n,
                                     t_range=(-0.4, 0.4))
            s = lift_net(build_first_kind(T1, T2, np.zeros(3)))
        fr = normal_frame(s)
        etilde, e2, degenerate = self.theta_frame(s)
        assert np.array_equal(fr.degenerate, degenerate)
        for got, want in ((fr.etilde, etilde), (fr.e2, e2)):
            assert np.array_equal(np.isnan(got), np.isnan(want))
            keep = ~np.isnan(want)
            assert np.all(np.abs(got - want)[keep] <= 1e-13 * np.maximum(
                1.0, np.abs(want[keep])))

    def test_cosine_one_ulp_above_one_is_masked(self):
        # a hand-built g12 of 2^-52 puts 1 + g12 one ulp above 1: the frame
        # clips it, reads sin theta = 0 and masks the node, and no square
        # root of a negative number warns
        s = planar_lift(n=21)
        g12 = s.g12.copy()
        g12[5, 7] = 2.0**-52
        assert 1.0 + g12[5, 7] == np.nextafter(1.0, 2.0)
        bad = replace(s, g12=g12)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fr = normal_frame(bad)
            h_parallel_e2(replace(bad))
        assert np.argwhere(fr.degenerate).tolist() == [[5, 7]]
        assert np.isnan(fr.etilde[5, 7]).all() and np.isnan(fr.e2[5, 7]).all()
        assert np.isfinite(fr.etilde[~fr.degenerate]).all()


class TestHParallel:
    def test_noncritical(self, noncritical_lift):
        rep = h_parallel_e2(noncritical_lift)
        assert rep.sup_off_e2 <= 1e-5
        assert rep.sup_dot_etilde <= 1e-5

    def test_critical_trivial(self, critical_lift):
        rep = h_parallel_e2(critical_lift)
        assert rep.sup_off_e2 <= 1e-6

    def test_random_net(self):
        # without its generators the lift is differenced and measured
        rep = h_parallel_e2(replace(random_lift()))
        assert rep.route == "differenced"
        assert rep.sup_off_e2 <= 1e-4

    def test_generator_route_measures_nothing(self, monkeypatch):
        # H = 0 exactly on a sum of two lightlike curves: both sups are
        # stated as info, no check is made and nothing is differenced
        s = random_lift()
        called = []

        def counted(name):
            original = getattr(lift, name)

            def call(*args):
                called.append(name)
                return original(*args)
            return call

        for name in ("normal_frame", "mean_curvature"):
            monkeypatch.setattr(lift, name, counted(name))
        seen = record_diff_samples(monkeypatch)
        rep = h_parallel_e2(s)
        assert rep.checks == ()
        assert rep.info == {"route": "generators", "sup_off_e2": 0.0,
                            "sup_dot_etilde": 0.0}
        assert called == [] and seen == []

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


def angle_lifts():
    """Lifts whose curvatures read cos theta and sin theta from g12: the two
    gallery nets (degenerate angles near the corners, resp. along an edge),
    and a random first-kind net with and without its generators."""
    s = random_lift()
    return {"critical": lift_net(gallery("critical").net),
            "noncritical": lift_net(gallery("noncritical").net),
            "random": s, "random-differenced": replace(s)}


def cos_based_curvatures(s):
    """The mean and Gaussian curvatures of a lift with cos theta and sin
    theta evaluated on the theta grid, as (values, mask) pairs."""
    g, th = s.grid, s.theta
    cth = np.cos(th)
    sin2 = (1.0 - cth) / 2.0
    h_deg = sin2 <= 1e-9
    if s.generators is None:
        H = partials(g, "uv") / (-2.0 * np.where(h_deg, 1.0, sin2))[..., None]
    else:
        H = np.zeros(g.values.shape)
    H[h_deg] = np.nan
    k_deg = (1.0 - np.abs(cth)) < lift.ANGLE_MARGIN
    denom = np.where(k_deg, 1.0, (1.0 - cth)**2)
    tu = diff_samples(th, g.du, 1, axis=0)
    tv = diff_samples(th, g.dv, 1, axis=1)
    tuv = diff_samples(tu, g.dv, 1, axis=1)
    K_T = euclidean_shape(s.source).K_T
    direct = (tu * tv - tuv * np.sin(th)) / denom
    via_net = (tu * tv + K_T * np.sin(th)**2) / denom
    return {"H": (H, h_deg),
            "direct": (np.where(k_deg, np.nan, direct), k_deg),
            "via_net": (np.where(k_deg, np.nan, via_net), k_deg)}


class TestAngleFromMetric:
    """cos theta = 1 + g12 and sin^2 theta = -g12 (2 + g12) in place of
    trigonometry on the theta grid."""

    @pytest.mark.parametrize("name", ["critical", "noncritical", "random",
                                      "random-differenced"])
    def test_masks_and_values_match_cos_theta(self, name):
        s = angle_lifts()[name]
        want = cos_based_curvatures(s)
        got = {"H": mean_curvature(s),
               "direct": gaussian_curvature(s, "direct"),
               "via_net": gaussian_curvature(s, "via_net")}
        for key, field in got.items():
            values, mask = want[key]
            assert np.array_equal(field.degenerate, mask), key
            assert np.array_equal(np.isnan(field.values), np.isnan(values))
            keep = ~np.isnan(values)
            gap = np.abs(field.values - values)[keep]
            assert np.all(gap <= 1e-11 * np.maximum(1.0, np.abs(values[keep]))
                          ), key
        rep = h_parallel_e2(s)
        if s.generators is not None:
            return
        # the sups of h_parallel_e2 over the cos-theta mask
        fr = normal_frame(s)
        H, h_deg = want["H"]
        keep = ~(want["direct"][1] | h_deg | fr.degenerate)
        off = H - mk.inner(H, fr.e2)[..., None] * fr.e2
        for chk, field in ((rep["sup_off_e2"], off),
                           (rep["sup_dot_etilde"], mk.inner(H, fr.etilde))):
            ref = numerics.sup_check("ref", field, np.inf, keep=keep)
            assert chk.masked == ref.masked and chk.where[0] == ref.where[0]
            assert abs(chk.value - ref.value) <= 1e-11 * max(1.0, ref.value)

    def test_no_grid_sized_trigonometry_norm_or_cross(self, monkeypatch):
        # on the generator route the shape and the curvatures make (n, n)
        # products of 1-D curves and read the angle from F and g12; only
        # is_chebyshev and verify_null_coords, not called here, difference
        # the samples
        T1, T2 = random_net_pair(np.random.default_rng(26), n=61)
        net = build_first_kind(T1, T2, np.zeros(3))
        s = lift_net(net)
        calls = []

        def counted(module, name):
            original = getattr(module, name)

            def call(*args, **kwargs):
                calls.append((name, max((a.size for a in args
                                         if isinstance(a, np.ndarray)),
                                        default=0)))
                return original(*args, **kwargs)
            monkeypatch.setattr(module, name, call)

        for name in ("cos", "sin", "einsum"):
            counted(np, name)
        counted(np.linalg, "norm")
        for module in (numerics, chebnet, lift):
            counted(module, "cross")
        shape = euclidean_shape(net)
        sine_gordon_residual(net, shape)
        h_parallel_e2(s)
        mean_curvature(s).sup()
        gaussian_curvature(s, "direct")
        gaussian_curvature(s, "via_net")
        assert "cross" in {name for name, _ in calls}
        assert [c for c in calls if c[1] >= net.F.size] == []

    def test_differenced_route_one_fu_per_call(self, monkeypatch):
        # f_uv is differenced from the f_u the call makes: three (n, n, 4)
        # passes per call, and the same sups as mean_curvature and
        # normal_frame give
        built = random_lift()
        s = replace(built)
        vals = s.grid.values
        H, fr = mean_curvature(s), normal_frame(s)
        keep = ~(H.degenerate | fr.degenerate
                 | lift._degenerate_mask(1.0 + s.g12))
        off = H.values - mk.inner(H.values, fr.e2)[..., None] * fr.e2
        seen = record_diff_samples(monkeypatch)
        rep = h_parallel_e2(s)
        assert rep.route == "differenced"
        assert rep.sup_off_e2 == numerics.sup_check("o", off, np.inf,
                                                     keep=keep).value
        assert rep.sup_dot_etilde == numerics.sup_check(
            "d", mk.inner(H.values, fr.etilde), np.inf, keep=keep).value
        passes = lambda: [(v is vals, axis) for v, axis in seen
                          if np.shape(v) == vals.shape]
        assert passes() == [(True, 0), (False, 1), (True, 1)]
        seen.clear()
        n0, n3, _ = decompose_minimal(s)
        assert passes() == [(True, 0), (False, 1), (True, 1)]
        for got, want in ((n0, built.generators.T1), (n3, built.generators.T2)):
            assert np.abs(got.points - want.points).max() <= 1e-6


class TestBuildMinimal:
    @pytest.mark.parametrize("P0", [[np.nan, 0, 0, 0], [np.inf, 0, 0, 0],
                                    [0, 0, -np.inf, 0]])
    def test_non_finite_base_point_raises(self, P0):
        with pytest.raises(ChebyliftError):
            build_minimal(*gallery_generators(21), P0)

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

    def test_one_array_is_the_copied_lift(self):
        # x0 and X written once into one array equal the lift of the
        # first-kind net with P0[0] added to x0, bit for bit
        n0, n3 = random_net_pair(np.random.default_rng(41), n=101)
        P0 = np.array([0.7, -1.3, 2.1, 0.4])
        s = build_minimal(n0, n3, P0)
        ref = lift_net(build_first_kind(n0, n3, P0[1:]))
        x = ref.grid.values.copy()
        x[..., 0] += P0[0]
        spacing = lambda g: (g.u_min, g.v_min, g.du, g.dv)
        assert spacing(s.grid) == spacing(ref.grid)
        assert np.array_equal(s.grid.values, x)
        for a, b in ((s.theta, ref.theta), (s.g12, ref.g12),
                     (s.source.F, ref.source.F),
                     (s.generators.T1.points, ref.generators.T1.points),
                     (s.generators.T2.points, ref.generators.T2.points)):
            assert np.array_equal(a, b)
        assert s.generators.disjointness == ref.generators.disjointness
        assert np.array_equal(s.theta, s.source.theta)

    def test_source_grid_views_the_lift(self):
        s = build_minimal(*gallery_generators(41), np.ones(4))
        lifted, points = s.grid.values, s.source.grid.values
        assert np.shares_memory(lifted, points)
        assert np.array_equal(points, lifted[..., 1:])
        assert not lifted.flags.writeable and not points.flags.writeable
        assert s.source.generators is s.generators
        # lift_net of a net it did not build copies the points
        again = lift_net(s.source)
        assert not np.shares_memory(again.grid.values, points)

    def test_kept_memory(self):
        # one (n, n, 4) array with F, theta and g12: 7 (n, n) grids, where
        # a lift that copies its net's points keeps 10
        n0, n3 = random_net_pair(np.random.default_rng(43), n=401)
        build_minimal(n0, n3, np.zeros(4))
        tracemalloc.start()
        try:
            s = build_minimal(n0, n3, np.zeros(4))
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert s.grid.values.shape == (401, 401, 4)
        assert kept <= 7 * 8 * 401 * 401 + 64 * 1024

    def test_generator_dependence_split(self):
        rng = np.random.default_rng(24)
        n0, n3 = random_net_pair(rng, n=101, t_range=(-0.1, 0.1))
        s = build_minimal(n0, n3, np.zeros(4))
        from chebylift.numerics import partials
        fu = partials(s.grid, "u")
        fv = partials(s.grid, "v")
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

    def test_not_a_sum_of_generators(self):
        # f + 5e-6 u v d3 has H = -5e-6 d3 at theta = pi/2, within the
        # minimality tolerance, but its f_u moves by 5e-6 along each row
        s = planar_lift(n=41)
        g = s.grid
        vals = g.values.copy()
        vals[..., 3] += 5e-6 * g.us[:, None] * g.vs[None, :]
        bumped = replace(s, grid=g.with_values(vals))
        assert mean_curvature(bumped).sup() <= 1e-5
        with pytest.raises(NotMinimal) as err:
            decompose_minimal(bumped)
        assert err.value.check.name == "generator_dev"

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

    @pytest.mark.parametrize("call, message", [
        pytest.param(f, m, id=f.__name__) for f, m in (
            (verify_null_coords, "null-coordinate check needs"),
            (mean_curvature, "mean curvature needs"),
            (normal_frame, "normal frame needs"),
            (h_parallel_e2, "h_parallel_e2 needs"),
            (gaussian_curvature, "gaussian curvature needs"),
            (decompose_minimal, "decomposition needs"),
            (isothermal_form, "isothermal_form expects"),
            (to_null_form, "to_null_form expects"))])
    def test_rejects_the_other_coords(self, call, message):
        # the (t, s) form is not a null lift, and to_null_form needs it;
        # each call's own guard raises, before any call it makes
        null = planar_lift(n=21)
        s = null if call is to_null_form else isothermal_form(null)[0]
        with pytest.raises(BadGrid, match=message):
            call(s)


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
        fu = partials(s.grid, "u")
        fv = partials(s.grid, "v")
        for idx in [(10, 17), (50, 50), (80, 3)]:
            a = fr.etilde[idx]
            b = fr.e2[idx]
            frame = mk.build_frame(a / np.sqrt(mk.inner(a, a)),
                                   b / np.sqrt(mk.inner(b, b)))
            # complement span{tau, nu} is the tangent plane
            P_frame = mk.plane_projector(frame.tau, frame.nu)
            P_tan = mk.plane_projector(fu[idx], fv[idx])
            assert np.abs(P_frame - P_tan).max() <= 1e-6


class TestGeneratorRoute:
    """The exact generator partials against the differenced oracle: the
    same surface on a copy of its grid, which leaves its generators stale."""

    @settings(derandomize=True, max_examples=20, deadline=None,
              database=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([41, 81]),
           half=st.floats(0.2, 0.5))
    def test_matches_differenced_oracle(self, seed, n, half):
        T1, T2 = random_net_pair(np.random.default_rng(seed), n=n,
                                 t_range=(-half, half))
        assume(check_disjointness(T1, T2).passed)
        s = build_minimal(T1, T2, np.zeros(4))
        net = s.source
        oracle = replace(s, grid=s.grid.with_values(s.grid.values.copy()))
        net_oracle = replace(net, grid=net.grid.with_values(
            net.grid.values.copy()))
        keep = 1.0 - np.abs(np.cos(s.theta)) >= 0.1
        assume(keep.any())
        # the oracle's one-sided boundary stencils are O(h^4) for first and
        # O(h^3) for second derivatives of X; the fifth derivatives of X,
        # the fourth derivatives of T1 and T2, set their error constant
        d4 = max(np.abs(diff_samples(c.points, c.dt, 4)).max()
                 for c in (T1, T2))
        tol1, tol2 = T1.dt**4 * d4, 2.0 * T1.dt**3 * d4

        def gap(a, b):
            d = np.abs(a - b)
            return (d.max(axis=-1) if d.ndim == 3 else d)[keep]

        ex, dif = euclidean_shape(net), euclidean_shape(net_oracle)
        assert gap(ex.gauss_map, dif.gauss_map).max() <= tol1
        assert gap(ex.e, dif.e).max() <= tol2
        assert gap(ex.g, dif.g).max() <= tol2
        assert not ex.f.any() and np.abs(dif.f)[keep].max() <= tol2
        # K_T = e g / (1 - F^2) moves by (|e| + |g|) tol2 / (1 - F^2)
        k_tol = (np.abs(ex.e) + np.abs(ex.g)) * tol2 / (1.0 - net.F**2)
        assert np.all(gap(ex.K_T, dif.K_T) <= k_tol[keep])

        fr, fr_dif = normal_frame(s), normal_frame(oracle)
        assert np.array_equal(fr.degenerate, fr_dif.degenerate)
        for name in ("etilde", "e2"):
            assert np.all(gap(getattr(fr, name), getattr(fr_dif, name))
                          <= tol1 / np.sin(s.theta)[keep]), name

        H, H_dif = mean_curvature(s), mean_curvature(oracle)
        assert np.array_equal(H.degenerate, H_dif.degenerate)
        assert np.all(np.isnan(H.values[H.degenerate]))
        assert not H.values[~H.degenerate].any()
        # the mixed stencil annihilates the sampled sum up to roundoff
        assert H_dif.sup() <= 1e-8

        n0, n3, P0 = decompose_minimal(s)
        m0, m3, Q0 = decompose_minimal(oracle)
        assert np.array_equal(n0.points, T1.points)
        assert np.array_equal(n3.points, T2.points)
        assert np.abs(n0.points - m0.points).max() <= tol1
        assert np.abs(n3.points - m3.points).max() <= tol1
        assert np.array_equal(P0, Q0)

    def test_replaced_grid_is_differenced(self):
        s = build_minimal(*gallery_generators(101), np.zeros(4))
        g = s.grid
        vals = g.values.copy()
        # a bump 1e-3 u (v - v_min) in x1 makes f_uv = 1e-3 d1: the
        # samples are no longer minimal
        vals[..., 1] += 1e-3 * g.us[:, None] * (g.vs[None, :] - g.vs[0])
        bumped = replace(s, grid=g.with_values(vals))
        assert mean_curvature(s).sup() == 0.0
        assert mean_curvature(bumped).sup() >= 1e-4
        with pytest.raises(NotMinimal):
            decompose_minimal(bumped)

    def test_generator_h_is_broadcast_zeros(self):
        s = build_minimal(*gallery_generators(201), np.zeros(4))
        mean_curvature(s)
        tracemalloc.start()
        try:
            H = mean_curvature(s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the (n, n) angle mask, not an (n, n, 4) grid of zeros
        assert peak < s.grid.values.nbytes / 2
        assert H.values.shape == s.grid.values.shape
        assert not H.values.flags.writeable and not H.values.any()
        chk = numerics.sup_check("sup", H.values, np.inf, keep=~H.degenerate)
        assert (chk.value, chk.where[0], chk.masked) == (0.0, (0, 0), 0)
        # a masked node still gets its NaN, on a writable grid of zeros.
        # T2(v) = (cos e cos v, sin e, cos e sin v) passes T1(u) = (cos u,
        # sin u, 0) at u = e, v = 0, so the node u = v = 0 has F = cos e and
        # sin^2(theta/2) = 2.3e-10, under the mask's 1e-9, while its sampled
        # separation 3e-5 passes the builder's 1e-6
        e, ts = 3e-5, np.linspace(-0.5, 0.5, 101)
        c, z = np.cos(ts), np.zeros_like(ts)
        T1, T2 = (SphereCurve(t_min=-0.5, dt=0.01, points=np.column_stack(p))
                  for p in ((c, np.sin(ts), z),
                            (np.cos(e) * c, z + np.sin(e),
                             np.cos(e) * np.sin(ts))))
        s = build_minimal(T1, T2, np.zeros(4))
        assert s.generators is not None
        H = mean_curvature(s)
        assert np.argwhere(np.isnan(H.values[..., 0])).tolist() == [[50, 50]]
        assert H.values.flags.writeable and H.sup() == 0.0

    @pytest.mark.parametrize("field", ["g12", "theta"])
    def test_replaced_angle_is_differenced(self, field, monkeypatch):
        # generators describe the angle their builder formed: a lift whose
        # g12 or theta is another array takes the routes of a lift whose
        # grid was replaced, bit for bit, and its coordinate change fits
        # bicubics
        s = build_minimal(*gallery_generators(41), np.zeros(4))
        angle = {"g12": 0.9 * s.g12, "theta": 0.9 * s.theta}[field]
        moved = replace(s, **{field: angle})
        stale = replace(moved, grid=s.grid.with_values(s.grid.values.copy()))
        assert moved.generators is None
        H, H_stale = mean_curvature(moved), mean_curvature(stale)
        assert np.array_equal(H.values, H_stale.values, equal_nan=True)
        fits, fit = [], chebnet.RectBivariateSpline
        monkeypatch.setattr(chebnet, "RectBivariateSpline",
                            lambda *a: fits.append(a) or fit(*a))
        (iso, _), (iso_stale, _) = map(isothermal_form, (moved, stale))
        assert len(fits) == 10 and iso.generators is None
        for name in ("g12", "theta"):
            assert np.array_equal(getattr(iso, name), getattr(iso_stale, name))

    @pytest.mark.parametrize("n", [51, 101, 201, 401, 801])
    def test_checks_from_rows_match_the_differenced_grid(self, n):
        # a net or lift with live generators is checked from the two rows
        # whose outer sum its grid is; its grid copied is differenced.  The
        # sums round each grid value by at most eps max|f| (two half-ulp
        # roundings on a lift's x0), the first-derivative stencils amplify
        # that by W / h per component, W the sum of their |weights|: 128/12
        # one-sided (band 0) or 18/12 centred (band 2), and an inner
        # product moves by at most 2 |f_u| |d f_u| in Euclidean norms,
        # |f_u| = 1 on a net and sqrt 2 on a lift; 8 eps covers the
        # products' own rounding
        eps = np.finfo(float).eps
        pairs = {"critical": gallery_generators(n),
                 "random": random_net_pair(np.random.default_rng(n), n=n)}
        for name, (T1, T2) in pairs.items():
            net = build_first_kind(T1, T2, np.zeros(3))
            s = build_minimal(T1, T2, np.array([0.3, 1.0, -2.0, 0.5]))
            for check, obj, band, fu in (
                    (is_chebyshev, net, 0, 1.0),
                    (is_chebyshev, s.source, 0, 1.0),
                    (verify_null_coords, lift_net(net), 2, np.sqrt(2.0)),
                    (verify_null_coords, s, 2, np.sqrt(2.0))):
                assert chebnet._generator_rows(obj) is not None
                vals = obj.grid.values
                copied = replace(obj, grid=obj.grid.with_values(vals.copy()))
                k, W = vals.shape[2], (128.0 if band == 0 else 18.0) / 12.0
                tol = (2.0 * fu * np.sqrt(k) * W * eps * np.abs(vals).max()
                       / obj.grid.du + 8.0 * eps)
                for got, want in zip(check(obj).checks, check(copied).checks):
                    assert (got.name, got.tol, got.masked) == \
                        (want.name, want.tol, want.masked)
                    assert abs(got.value - want.value) <= tol, (name, got)
                    (i, j), uv = got.where
                    assert uv == (obj.grid.us[i], obj.grid.vs[j])

    def test_replaced_inputs_are_differenced_bit_for_bit(self):
        T1, T2 = gallery_generators(41)
        net = build_first_kind(T1, T2, np.zeros(3))
        s = build_minimal(T1, T2, np.zeros(4))
        copy = lambda o: replace(o, grid=o.grid.with_values(
            o.grid.values.copy()))
        nets = (copy(net), replace(net, F=0.9 * net.F))
        lifts = (copy(s), replace(s, g12=0.9 * s.g12),
                 replace(s, theta=0.9 * s.theta))
        for o in nets:
            assert chebnet._generator_rows(o) is None
            want = reference_form_sups(
                o.grid, ("sup_e", "sup_g", "sup_f"), (1.0, 1.0, 0.0),
                (chebnet.CHEBYSHEV_TOL,) * 2 + (1.0 - chebnet.DISJOINT_MARGIN,))
            assert check_bits(is_chebyshev(o).checks) == check_bits(want)
        for o in lifts:
            assert chebnet._generator_rows(o) is None
            want = reference_form_sups(
                o.grid, ("sup_fu_fu", "sup_fv_fv", "sup_cross"),
                (0.0, 0.0, o.g12), (np.inf,) * 3, band=2)
            assert check_bits(verify_null_coords(o).checks) == \
                check_bits(want)

    def test_retagged_isothermal_form_is_differenced(self):
        # the (t, s) form keeps its source's curves, but its grid is no
        # outer sum of their rows: retagged as null coordinates it is
        # differenced, as the same form without generators
        s = build_minimal(*gallery_generators(61), np.zeros(4))
        iso, _ = isothermal_form(s)
        assert iso.generators is not None
        fake = replace(iso, coords=lift.NULL_COORDS)
        bare = replace(fake)
        assert fake.generators is None
        assert verify_null_coords(fake) == verify_null_coords(bare)
        assert mean_curvature(fake).sup() == mean_curvature(bare).sup() > 0.1

    def test_checks_from_rows_can_fail(self):
        # the critical net at n = 51 misses E = 1 by 3.493e-6, over
        # CHEBYSHEV_TOL = 1e-6, on both routes
        net = build_first_kind(*gallery_generators(51), np.zeros(3))
        copied = replace(net, grid=net.grid.with_values(
            net.grid.values.copy()))
        for rep in (is_chebyshev(net), is_chebyshev(copied)):
            assert not rep.passed and not rep["sup_e"].passed
            assert rep.sup_e == pytest.approx(3.493e-6, rel=1e-3)

    def test_builder_payloads_are_read_only(self):
        s = build_minimal(*gallery_generators(41), np.zeros(4))
        for a in (s.grid.values, s.source.grid.values,
                  s.generators.T1.points, s.source.generators.T2.points):
            with pytest.raises(ValueError):
                a[0, 0] = 1.0
        # decompose_minimal hands out copies the caller may write
        n0, n3, _ = decompose_minimal(s)
        n0.points[0, 0] = 1.0
        assert s.generators.T1.points[0, 0] != 1.0


#: (class, name) of every constructor field of a surface
SURFACE_FIELDS = [(cls, f.name) for cls in (NetSurface, LiftSurface)
                  for f in fields(cls) if f.init]


def assert_same_masked(a, b):
    assert np.array_equal(a.values, b.values, equal_nan=True)
    assert np.array_equal(a.degenerate, b.degenerate)


class TestOnlyBuildersGiveGenerators:
    """A surface has generators only as its builder made it: any other
    surface, ``dataclasses.replace`` of a built one included, takes the
    differenced routes, bit for bit those of the same values on a copied
    grid."""

    def test_retagged_null_lift_is_differenced(self):
        # a null lift retagged as isothermal has no generators, so
        # to_null_form fits its grid, as on a copied grid, and does not
        # resample its curves (a result 0.729 away)
        T1, T2 = (sample_curve(fn, (-0.5, 0.5), 101, cls=SphereCurve)
                  for fn in (lambda t: np.stack([np.cos(t), np.sin(t),
                                                 0 * t], axis=-1),
                             lambda t: np.stack([0 * t, np.sin(t),
                                                 np.cos(t)], axis=-1)))
        fake = replace(build_minimal(T1, T2, np.zeros(4)),
                       coords=lift.ISOTHERMAL_COORDS)
        copied = replace(fake, grid=fake.grid.with_values(
            fake.grid.values.copy()))
        assert fake.generators is None
        (got, rep), (want, rep_want) = map(to_null_form, (fake, copied))
        for name in ("theta", "g12"):
            assert np.array_equal(getattr(got, name), getattr(want, name))
        assert np.array_equal(got.grid.values, want.grid.values)
        assert rep == rep_want

    @pytest.mark.parametrize("cls, name", SURFACE_FIELDS,
                             ids=[f"{c.__name__}.{n}"
                                  for c, n in SURFACE_FIELDS])
    def test_any_replace_is_differenced(self, cls, name):
        s = build_minimal(*random_net_pair(np.random.default_rng(3), n=41),
                          np.array([0.5, 0.0, 1.0, -1.0]))
        obj = s.source if cls is NetSurface else s
        assert obj.generators is not None
        moved = replace(obj, **{name: getattr(obj, name)})
        copied = replace(obj, grid=obj.grid.with_values(
            obj.grid.values.copy()))
        assert moved.generators is None
        if cls is NetSurface:
            assert is_chebyshev(moved) == is_chebyshev(copied)
            got, want = euclidean_shape(moved), euclidean_shape(copied)
            for f in fields(got):
                assert np.array_equal(getattr(got, f.name),
                                      getattr(want, f.name)), f.name
            moved, copied = lift_net(moved), lift_net(copied)
        assert verify_null_coords(moved) == verify_null_coords(copied)
        assert_same_masked(mean_curvature(moved), mean_curvature(copied))

    @pytest.mark.parametrize("cls", [NetSurface, LiftSurface])
    def test_generators_are_no_argument(self, cls):
        s = build_minimal(*gallery_generators(21), np.zeros(4))
        obj = s.source if cls is NetSurface else s
        kwargs = {f.name: getattr(obj, f.name) for f in fields(cls)
                  if f.init}
        with pytest.raises(TypeError):
            cls(**kwargs, generators=s.generators)
        with pytest.raises(ValueError):
            replace(obj, generators=s.generators)

    def test_builder_angles_are_read_only(self):
        # the exact routes hold for the angle the builder formed, so no
        # caller may write it in place
        net = build_first_kind(*gallery_generators(41), np.zeros(3))
        s = build_minimal(*gallery_generators(41), np.zeros(4))
        iso, _ = isothermal_form(s)
        lifted = lift_net(net)
        for a in (net.F, s.source.F, lifted.g12, lifted.theta, s.g12,
                  s.theta, iso.g12, iso.theta, iso.grid.values):
            with pytest.raises(ValueError):
                a[0, 0] = 0.5


def derivative_sups(*curves) -> tuple:
    """max |T'''| and max |T''''| over the differenced samples of the
    sphere curves: bounds on I'''' and T'''' of a lift's generators."""
    return tuple(max(np.abs(diff_samples(c.points, c.dt, k)).max()
                     for c in curves) for k in (3, 4))


def one_d_reference(T1, T2, P0, u, v) -> tuple:
    """f = P0 + (u + v) d0 + I1(u) + I2(v) and cos theta at the points
    (u, v), each curve resampled by its not-a-knot cubic interpolant and
    T1, T2 renormalized."""
    f = np.empty(u.shape + (4,))
    f[..., 0] = u + v + P0[0]
    f[..., 1:] = P0[1:] + sum(
        CubicSpline(c.ts, cumulative_integral(c).points)(x)
        for c, x in ((T1, u), (T2, v)))
    T = [CubicSpline(c.ts, c.points)(x) for c, x in ((T1, u), (T2, v))]
    T = [t / np.linalg.norm(t, axis=-1, keepdims=True) for t in T]
    return f, np.einsum("...k,...k->...", *T)


class TestCoordinateChange:
    """The coordinate change of a square lift through its 1-D generators
    against the 2-D spline route, which a copy of the lift's grid takes
    (its generators are stale)."""

    @settings(derandomize=True, max_examples=20, deadline=None,
              database=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([41, 81]),
           half=st.floats(0.2, 0.5),
           x0=st.one_of(st.none(), st.floats(0.25, 2.0)))
    def test_matches_spline_route(self, seed, n, half, x0):
        rng = np.random.default_rng(seed)
        T1, T2 = random_net_pair(rng, n=n, t_range=(-half, half))
        assume(check_disjointness(T1, T2).passed)
        p0 = rng.uniform(-1.0, 1.0, 3)
        # x0 None: the lift of a first-kind net, else build_minimal's lift
        # with P0[0] = x0
        s = (lift_net(build_first_kind(T1, T2, p0)) if x0 is None
             else build_minimal(T1, T2, np.concatenate(([x0], p0))))
        stale = replace(s, grid=s.grid.with_values(s.grid.values.copy()))
        iso, _ = isothermal_form(s)
        iso_o, _ = isothermal_form(stale)
        gen = iso.generators
        assert iso.generators is s.generators and iso_o.generators is None
        assert gen.T1 is s.generators.T1 and gen.T2 is s.generators.T2
        assert not iso.grid.values.flags.writeable
        back, _ = to_null_form(iso)
        back_o, _ = to_null_form(iso_o)
        assert back.generators is None and back_o.generators is None
        # forward, both routes evaluate the same 1-D interpolants (FITPACK's
        # bicubic is their tensor product), so f agrees up to roundoff, n
        # ulps of its largest entry.  Back, the spline route interpolates
        # the (t, s) samples, so f differs by an interpolation error: h^4
        # times max |I''''| = max |T'''| and a constant below 1/16.  theta
        # and g12 differ by the angle's: h^4 max |T''''| times a constant
        # below 1/16 (largest measured ratio 0.017, forward), theta off the
        # nodes where arccos amplifies it
        h = T1.dt
        d3, d4 = derivative_sups(T1, T2)
        roundoff = n * np.finfo(float).eps * np.abs(s.grid.values).max()
        assert np.abs(iso.grid.values - iso_o.grid.values).max() <= roundoff
        assert (np.abs(back.grid.values - back_o.grid.values).max()
                <= h**4 * d3 / 16.0)
        for a, b in ((iso, iso_o), (back, back_o)):
            keep = 1.0 - np.abs(1.0 + a.g12) >= 0.1
            assert np.abs(a.g12 - b.g12).max() <= h**4 * d4 / 16.0
            assert np.abs(a.theta - b.theta)[keep].max(
                initial=0.0) <= h**4 * d4 / 16.0

    def test_non_square_lift_takes_the_spline_route(self):
        rng = np.random.default_rng(41)
        T1 = normalized_trig_curve(rng, 61, (-0.4, 0.4),
                                   center=np.array([1.0, 0.0, 0.0]))
        T2 = normalized_trig_curve(rng, 81, (-0.4, 0.4),
                                   center=np.array([0.0, 0.0, 1.0]))
        P0 = np.array([0.5, 0.1, -0.2, 0.3])
        s = build_minimal(T1, T2, P0)
        iso, rep = isothermal_form(s)
        back, rep_b = to_null_form(iso)
        assert iso.generators is None and back.generators is None
        # FITPACK's bicubic of a sum of two curves is the sum of their 1-D
        # interpolants, here at each node's scattered source point; theta
        # and the way back carry interpolation errors, bounded as above
        d3, d4 = derivative_sups(T1, T2)
        tol = lambda d: (T1.dt**4 + T2.dt**4) * d / 16.0
        roundoff = 81 * np.finfo(float).eps * np.abs(s.grid.values).max()
        A, B = np.meshgrid(iso.grid.us, iso.grid.vs, indexing="ij")
        f, cos = one_d_reference(T1, T2, P0, (A - B) / 2.0, (A + B) / 2.0)
        assert np.abs(iso.grid.values[..., 1:] - f[..., 1:]).max() <= roundoff
        assert np.abs(iso.grid.values[..., 0] - A - P0[0]).max() <= roundoff
        assert np.abs(iso.g12 - (cos - 1.0)).max() <= tol(d4)
        U, V = np.meshgrid(back.grid.us, back.grid.vs, indexing="ij")
        f, cos = one_d_reference(T1, T2, P0, U, V)
        assert np.abs(back.grid.values - f).max() <= tol(d3)
        assert np.abs(back.g12 - (cos - 1.0)).max() <= tol(d4)
        assert max(c.value for c in rep.checks + rep_b.checks) <= 1e-6

    def test_observed_orders_of_the_metric_sups(self):
        """Observed orders of convergence of the coordinate change's metric
        sups, log2 of the ratio of the sups at n and 2n - 1 nodes, on one
        first-kind lift (seed 0) at n = 51, 101, 201 and 401, both
        directions and both routes.  Pinned as measured:

        - forward, both routes: 9.15e-7, 1.11e-7, 1.36e-8, 1.70e-9, orders
          3.05, 3.02, 3.01, equal to three digits on the two routes.  The
          resampled values converge at order 4
          (``test_observed_orders_of_the_values``); the sups are of a
          differenced metric.  The diagonal reader reads the 1-D
          interpolants alternately at their knots, where the
          interpolation error is 0, and at midpoints, where it is
          O(h^4), and a 1/h stencil turns that grid-scale pattern into
          O(h^3).  Both routes read the same interpolants, so they share
          the order.
        - back, generators: 1.06e-7 to 2.88e-11, orders 3.89, 3.97, 3.98.
        - back, 2-D splines: 1.22e-7 to 9.87e-11, orders 3.61, 3.57, 3.10.
        """
        sups = {k: [] for k in ("fwd", "fwd_o", "back", "back_o")}
        for n in (51, 101, 201, 401):
            T1, T2 = random_net_pair(np.random.default_rng(0), n=n)
            s = lift_net(build_first_kind(T1, T2, np.zeros(3)))
            stale = replace(s, grid=s.grid.with_values(s.grid.values.copy()))
            for key, surf in (("", s), ("_o", stale)):
                iso, rep = isothermal_form(surf)
                _, rep_b = to_null_form(iso)
                sups["fwd" + key].append(max(c.value for c in rep.checks))
                sups["back" + key].append(max(c.value for c in rep_b.checks))
        np.testing.assert_allclose(sups["fwd"], sups["fwd_o"], rtol=1e-3)
        for key, lo, hi in (("fwd", 2.95, 3.10), ("fwd_o", 2.95, 3.10),
                            ("back", 3.85, 4.05), ("back_o", 3.05, 3.70)):
            order = np.log2(np.divide(sups[key][:-1], sups[key][1:]))
            assert np.all((lo <= order) & (order <= hi)), (key, order)

    @pytest.mark.parametrize("name", ["critical", "noncritical"])
    def test_observed_orders_of_the_values(self, name):
        """Observed orders of convergence of the 2-D spline route's values
        against the gallery's closed form, log2 of the ratio of the sup
        errors at n and 2n - 1 nodes, n = 51, 101, 201 and 401: forward
        on the (t, s) grid, at u = (t - s)/2 and v = (t + s)/2, and back on
        the (u, v) grid of the round trip.  Measured:

        - critical: forward 3.52e-7 to 8.63e-11, back 7.14e-8 to 1.74e-11,
          orders 3.995 to 4.001;
        - noncritical: forward 6.87e-9 to 1.64e-12, back 2.34e-9 to
          5.94e-13, orders 3.972 to 4.016.

        The interpolation error of a cubic spline is O(h^4), so the band
        is [3.9, 4.1].  A solve that adds 1e-13 to the coefficients moves
        the last noncritical back order below it.
        """
        errs = {"fwd": [], "back": []}
        for n in (51, 101, 201, 401):
            s = lift_net(gallery(name, nu=n, nv=n).net)
            iso, _ = isothermal_form(s)
            back, _ = to_null_form(iso)
            assert s.generators is None and iso.generators is None
            T, S = np.meshgrid(iso.grid.us, iso.grid.vs, indexing="ij")
            U, V = np.meshgrid(back.grid.us, back.grid.vs, indexing="ij")
            for key, f, exact in (
                    ("fwd", iso, gallery_lift_exact(name, (T - S) / 2.0,
                                                    (T + S) / 2.0)),
                    ("back", back, gallery_lift_exact(name, U, V))):
                errs[key].append(np.abs(f.grid.values - exact).max())
        for key, e in errs.items():
            order = np.log2(np.divide(e[:-1], e[1:]))
            assert np.all((3.9 <= order) & (order <= 4.1)), (key, order)


def gallery_lift_exact(name: str, u, v) -> np.ndarray:
    """The closed-form lift f = (u + v, X(u, v)) of a gallery net at the
    points (u, v): X = (sin u, 2 - cos u - cos v, sin v) for ``critical``,
    and (x(s) cos t, x(s) sin t, y(s)) at t = u + v, s = v - u for
    ``noncritical``."""
    if name == "critical":
        X = (np.sin(u), 2.0 - np.cos(u) - np.cos(v), np.sin(v))
    else:
        t, s = u + v, v - u
        X = (_profile_x(s) * np.cos(t), _profile_x(s) * np.sin(t),
             _profile_y()(s))
    return np.stack((u + v,) + X, axis=-1)


def surface_chain(T1, T2):
    """Build, check, shape, lift, curvature and decomposition of one
    first-kind net, the call sequence of the benchmark's surface op."""
    net = build_first_kind(T1, T2, np.zeros(3))
    cheb = is_chebyshev(net)
    shape = euclidean_shape(net)
    sg = sine_gordon_residual(net, shape)
    s = lift_net(net)
    null = verify_null_coords(s)
    hpar = h_parallel_e2(s)
    Kd = gaussian_curvature(s, "direct")
    Kv = gaussian_curvature(s, "via_net")
    n0, n3, _ = decompose_minimal(s)
    return dict(net=net, cheb=cheb, shape=shape, sg=sg, null=null,
                hpar=hpar, Kd=Kd, Kv=Kv, n0=n0, n3=n3, s=s)


def unshared_surface_chain(T1, T2):
    """``surface_chain`` with a freshly built net or lift for every call,
    so that no call reads what another one memoized."""
    fresh_net = lambda: build_first_kind(T1, T2, np.zeros(3))
    net = fresh_net()
    s = lift_net(fresh_net())
    fresh_lift = lambda: lift_net(fresh_net())
    cheb = is_chebyshev(fresh_net())
    shape = euclidean_shape(fresh_net())
    sg = sine_gordon_residual(fresh_net(), shape)
    null = verify_null_coords(fresh_lift())
    hpar = h_parallel_e2(fresh_lift())
    Kd = gaussian_curvature(fresh_lift(), "direct")
    Kv = gaussian_curvature(fresh_lift(), "via_net")
    n0, n3, _ = decompose_minimal(fresh_lift())
    return dict(net=net, cheb=cheb, shape=shape, sg=sg, null=null,
                hpar=hpar, Kd=Kd, Kv=Kv, n0=n0, n3=n3, s=s)


def leaves(obj, path="result"):
    """(path, value) of every array and scalar inside nested results."""
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from leaves(v, f"{path}.{k}")
    elif isinstance(obj, tuple):
        for i, v in enumerate(obj):
            yield from leaves(v, f"{path}[{i}]")
    elif is_dataclass(obj):
        for f in fields(obj):
            yield from leaves(getattr(obj, f.name), f"{path}.{f.name}")
    else:
        yield path, obj


def surface_inputs():
    return {"critical": gallery_generators(201),
            "random": random_net_pair(np.random.default_rng(31), n=201)}


#: tracemalloc peak of ``surface_chain`` plus one ``mean_curvature`` on the
#: critical net at n = 201, in bytes, with the blocked stencil kernel, the
#: exact generator partials, no partials kept on the lift, nothing computed
#: by ``h_parallel_e2`` on the generator route, the norm of a vector grid
#: taken without ``np.linalg.norm``, the two sample checks in slabs and H
#: on the generator route as broadcast zeros (numpy 2.4, Python 3.11): the
#: largest figure measured under pytest in fresh processes over both nets,
#: first and repeated runs, alone and in the whole suite
#: (8,167,191-8,180,413; the peak is in ``gaussian_curvature``'s via_net
#: route, 2.0 MB above its base, then in its direct route, 2.3 MB above a
#: lower base), plus a margin of one 256 KiB kernel block (3.2%) for
#: allocator and test-order noise.  Whole-grid partials in
#: ``verify_null_coords`` (9.15 MB, 3.3 MB above its base) fail it, and so
#: does a zero H allocated as an (n, n, 4) grid (8.59 MB).
SURFACE_CHAIN_PEAK = 8_180_413 + 256 * 1024

#: tracemalloc bound on each sample check at n = 801: the slab buffers
#: take about 1 MB, where whole-grid partials took 46 MB (``is_chebyshev``)
#: and 53 MB (``verify_null_coords``)
CHECK_PEAK_801 = 10_000_000


def record_grid_reads(monkeypatch) -> list:
    """``record_diff_samples``, with each call of the one-pass metric
    checks (``numerics._form_sups``, as ``chebnet`` and ``lift`` load it)
    that differences its grid recorded as the two passes it makes over it:
    (values, 0) along u and (values, 1) along v.  A call handed the rows
    of the grid differences them through ``diff_samples``, recorded there."""
    seen = record_diff_samples(monkeypatch)
    original = numerics._form_sups

    def recorded(g, *args, **kwargs):
        if kwargs.get("rows") is None:
            seen.extend([(g.values, 0), (g.values, 1)])
        return original(g, *args, **kwargs)

    for mod in (chebnet, lift):
        monkeypatch.setattr(mod, "_form_sups", recorded)
    return seen


class TestMemo:
    def test_via_net_reuses_the_shape(self, monkeypatch):
        T1, T2 = random_net_pair(np.random.default_rng(6), n=61)
        net = build_first_kind(T1, T2, np.zeros(3))
        euclidean_shape(net)
        seen = record_diff_samples(monkeypatch)
        gaussian_curvature(lift_net(net), "via_net")
        # theta_u and theta_v only: no pass over the net's points
        assert [(np.shape(v), axis) for v, axis in seen] == \
            [(net.theta.shape, 0), (net.theta.shape, 1)]

    def test_first_partials_differenced_once(self, monkeypatch):
        built = lift_net(build_first_kind(*gallery_generators(101),
                                          np.zeros(3)))
        seen = record_grid_reads(monkeypatch)
        # with its generators the lift differences no grid: its check
        # reads the two (n, 4) rows whose outer sum the grid is
        verify_null_coords(built)
        normal_frame(built)
        decompose_minimal(built)
        assert [(np.shape(v), axis) for v, axis in seen] == \
            [((101, 4), 0), ((101, 4), 0)]
        # without them the check differences each axis of the grid once
        bare = replace(built)
        seen.clear()
        verify_null_coords(bare)
        assert [(v is bare.grid.values, axis) for v, axis in seen] == \
            [(True, 0), (True, 1)]

    def test_net_check_reads_its_rows(self, monkeypatch):
        net = build_first_kind(*gallery_generators(101), np.zeros(3))
        seen = record_grid_reads(monkeypatch)
        is_chebyshev(net)
        assert [(np.shape(v), axis) for v, axis in seen] == \
            [((101, 3), 0), ((101, 3), 0)]
        bare = replace(net)
        seen.clear()
        is_chebyshev(bare)
        assert [(v is bare.grid.values, axis) for v, axis in seen] == \
            [(True, 0), (True, 1)]

    def test_rebuilt_lift_recomputes(self):
        s = lift_net(build_first_kind(*gallery_generators(61), np.zeros(3)))
        assert verify_null_coords(s).sup_cross <= 1e-5
        scaled = replace(s, grid=s.grid.with_values(2.0 * s.grid.values))
        # <2 f_u, 2 f_v> = 4 g12 now misses g12 by 3 |g12|
        assert verify_null_coords(scaled).sup_cross >= 1.0

    def test_solve_result_keeps_no_memo(self):
        # a solution or a lift is kept while the caller works on, so arrays
        # memoized on it would add to every later peak
        _, d = critical_lift_data()
        sol, _ = solve(d)
        built = lift_net(build_first_kind(*gallery_generators(61),
                                          np.zeros(3)))
        lifts = (built, replace(built))
        for s in lifts:
            verify_null_coords(s)
            normal_frame(s)
            h_parallel_e2(s)
            decompose_minimal(s)
        for obj in (sol, sol.source) + lifts:
            assert set(vars(obj)) <= {f.name for f in fields(obj)}


class TestSurfaceChain:
    @pytest.mark.parametrize("name", ["critical", "random"])
    def test_bit_identical_to_unshared_calls(self, name):
        T1, T2 = surface_inputs()[name]
        got = list(leaves(surface_chain(T1, T2)))
        want = list(leaves(unshared_surface_chain(T1, T2)))
        assert [p for p, _ in got] == [p for p, _ in want]
        for (path, a), (_, b) in zip(got, want):
            if isinstance(a, np.ndarray):
                nan = a.dtype.kind == "f"
                assert np.array_equal(a, b, equal_nan=nan), path
            else:
                assert a == b, path

    def test_traced_peak(self):
        T1, T2 = surface_inputs()["critical"]
        tracemalloc.start()
        try:
            r = surface_chain(T1, T2)
            mean_curvature(r["s"]).sup()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= SURFACE_CHAIN_PEAK

    @pytest.mark.parametrize("check", ["is_chebyshev", "verify_null_coords"])
    def test_check_peak_at_801(self, check):
        net = build_first_kind(*gallery_generators(801), np.zeros(3))
        call, arg = ((is_chebyshev, net) if check == "is_chebyshev"
                     else (verify_null_coords, lift_net(net)))
        want = call(arg)
        tracemalloc.start()
        try:
            got = call(arg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == want and peak < CHECK_PEAK_801


#: the checks that each public call of ``surface_chain``, and ``solve`` of
#: data taken from its lift, returns on a lift with live generators.  A sup
#: that is 0 by construction there (sup_off_e2, sup_dot_etilde, h_sup) is
#: stated as info, never as a check that cannot fail.
GENERATOR_ROUTE_CHECKS = {
    "cheb": ("sup_e", "sup_g", "sup_f"),
    "null": ("sup_fu_fu", "sup_fv_fv", "sup_cross"),
    "hpar": (),
    "solve": ("necessary", "compatibility_sup", "curve_sup",
              "projector_sup"),
}


class TestNoCheckByConstruction:
    @pytest.mark.parametrize("name", ["critical", "random"])
    def test_every_check_is_measured(self, name):
        T1, T2 = surface_inputs()[name]
        r = surface_chain(T1, T2)
        reports = {k: v for k, v in r.items() if isinstance(v, Report)}
        _, reports["solve"] = solve(data_from_lift(r["s"]),
                                    ExtensionChoice.from_curve(T2))
        assert {k: tuple(c.name for c in rep.checks)
                for k, rep in reports.items()} == GENERATOR_ROUTE_CHECKS
        for k, rep in reports.items():
            for c in rep.checks:
                # a sup over the sampled nodes, located at one; a value
                # fixed by construction would read exactly 0
                assert c.where is not None and c.value > 0.0, (k, c.name)


class TestDiniLift:
    """The lift of a Dini net (``test_chebnet.dini_net``), which has no
    generators, so its H is differenced: not a sum of lightlike curves."""

    @pytest.mark.parametrize("a", DINI_AS)
    def test_mean_curvature_against_the_closed_form(self, a):
        # H = f_uv / g12 with f_uv = (0, X_uv) and X_uv = f N, so H =
        # f N / (cos theta - 1).  |H - f N / g12| |g12| is the error of the
        # differenced f_uv, two first-derivative stencils: order 4, with
        # f's truncation constant (f_uv's measured err / h^4: 16.0 to
        # 43.6) and the mixed stencil's roundoff on the lift's grid.
        # Observed order from n = 101 to 201: 3.92 to 4.04
        p, c = DINI_TRUNCATION["f"]
        errs = []
        for n in DINI_NS[:2]:
            net, exact = dini_net(a, n)
            s = lift_net(net)
            H = mean_curvature(s)
            assert not H.degenerate.any()
            N = exact["N"]
            f = np.einsum("ijk,ijk->ij", exact["Xuv"], N)
            want = np.zeros(H.values.shape)
            want[..., 1:] = f[..., None] * N / s.g12[..., None]
            errs.append((np.abs(H.values - want)
                         * np.abs(s.g12)[..., None]).max())
            assert errs[-1] <= c * net.grid.du**p + stencil_roundoff(
                s, EDGE_WEIGHTS[1] ** 2), (n, errs[-1])
        assert 3.8 <= np.log2(errs[0] / errs[1]) <= 4.2

    @pytest.mark.parametrize("a", DINI_AS)
    def test_decomposition_refuses(self, a):
        net, _ = dini_net(a, 101)
        with pytest.raises(NotMinimal) as err:
            decompose_minimal(lift_net(net))
        assert err.value.check.name == "h_sup"
