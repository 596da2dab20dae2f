import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.interpolate import BSpline, CubicSpline, RectBivariateSpline

from chebylift import _splines, chebnet, numerics
from chebylift.chebnet import (
    _CRITICAL_RANGE, NetSurface, _diagonal_reader, _profile_x, _profile_y,
    build_first_kind, check_disjointness, equivalent_immersion,
    euclidean_shape, gallery, is_chebyshev,
    sine_gordon_residual,
)
from chebylift.errors import (BadGrid, Check, DegenerateMetric,
                              DisjointnessViolated, EmptyOverlap, Report)
from chebylift.lift import (build_minimal, isothermal_form, lift_net,
                            to_null_form)
from chebylift.numerics import (Grid2D, SphereCurve, cumulative_integral,
                                diff_samples, grid_from_ranges, sample_curve,
                                sup_check)

SUM_ONE_TOL = 1e-8       # check_sum_one: |E + G - 1|
EPS = np.finfo(float).eps


def check_sum_one(forms: tuple) -> Report:
    """Check E(t,s) + G(t,s) = 1, the Chebyshev condition in (t, s) form,
    on a first-form triple (E, F, G): check sup_sum, held to
    ``SUM_ONE_TOL``; sup_f of |F| is reported, not required to vanish."""
    E, F, G = (np.asarray(x, dtype=float) for x in forms)
    return Report((sup_check("sup_sum", E + G - 1.0, SUM_ONE_TOL),
                   sup_check("sup_f", F, np.inf)))


def first_form(g) -> tuple:
    """The first-form coefficients (E, F, G) of a grid of E-points, the
    dot products of its differenced partials X_u and X_v."""
    Xu, Xv = numerics.partials(g, "u"), numerics.partials(g, "v")
    dot = lambda a, b: np.einsum("ijk,ijk->ij", a, b)
    return dot(Xu, Xu), dot(Xu, Xv), dot(Xv, Xv)


def gallery_generators(n: int):
    """Sphere-curve generators of the critical gallery net."""
    T1 = sample_curve(lambda t: np.stack([np.cos(t), np.sin(t), 0 * t], axis=-1),
                      _CRITICAL_RANGE, n, cls=SphereCurve)
    T2 = sample_curve(lambda t: np.stack([0 * t, np.sin(t), np.cos(t)], axis=-1),
                      _CRITICAL_RANGE, n, cls=SphereCurve)
    return T1, T2


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


def diagonal_axes(x1, x2, direction):
    """Source abscissae ud, vd of the square target grid x1 x x2 and (n, n)
    index maps iu, iv: target node (a, b) reads ud[iu[a, b]], vd[iv[a, b]]."""
    n = x1.size
    k = np.arange(2 * n - 1)
    d = k - (n - 1)
    hi, lo = np.maximum(d, 0), np.maximum(-d, 0)
    ka = np.minimum(k, n - 1)
    a, b = np.arange(n)[:, None], np.arange(n)[None, :]
    if direction == "uv_to_ts":
        # u = (x1[a] - x2[b]) / 2 by a - b, v = (x1[a] + x2[b]) / 2 by a + b
        return ((x1[hi] - x2[lo]) / 2.0, (x1[ka] + x2[k - ka]) / 2.0,
                a - b + n - 1, a + b)
    # u = x1[a] + x2[b] by a + b, v = x2[b] - x1[a] by b - a
    return x1[ka] + x2[k - ka], x2[hi] - x1[lo], a + b, b - a + n - 1


def record_diff_samples(monkeypatch) -> list:
    """Route every ``diff_samples`` call of the package, from-import copies
    included, through a recorder; returns the list of (values, axis) pairs
    it appends to."""
    original = numerics.diff_samples
    seen = []

    def recorded(values, h, order, axis=0):
        seen.append((values, axis))
        return original(values, h, order, axis)

    for name, mod in list(sys.modules.items()):
        if (name.startswith("chebylift")
                and getattr(mod, "diff_samples", None) is original):
            monkeypatch.setattr(mod, "diff_samples", recorded)
    return seen


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

    def test_meeting_at_a_sample_raises_unbisected(self, monkeypatch):
        # T2(v) is the great circle through T1(u_30) at v_10, leaving it
        # along e3: the generators meet at node (30, 10) and nowhere else
        # within the margin, which the error's check names, with no curve
        # differenced
        T1, _ = gallery_generators(n=41)
        p, e3 = T1.points[30], np.array([0.0, 0.0, 1.0])
        v10 = np.linspace(-1.0, 1.0, 41)[10]
        T2 = sample_curve(lambda v: np.outer(np.cos(v - v10), p)
                          + np.outer(np.sin(v - v10), e3),
                          (-1.0, 1.0), 41, cls=SphereCurve)
        seen = record_diff_samples(monkeypatch)
        with pytest.raises(DisjointnessViolated, match="generators meet") \
                as err:
            build_first_kind(T1, T2, np.zeros(3))
        assert seen == []
        assert err.value.check == Check(
            "uncertified_cells", 1.0, 0.0, ((30, 10), (T1.ts[30], T2.ts[10])))

    @pytest.mark.parametrize("pair", ["gallery", "random", "between"])
    def test_report_is_check_disjointness(self, pair):
        # the builder forms F once and runs check_disjointness's kernel on
        # it: the same report, also when it bisects or fails between samples
        if pair == "gallery":
            T1, T2 = gallery_generators(n=201)
        elif pair == "random":
            T1, T2 = random_net_pair(np.random.default_rng(12), n=201)
        else:
            T1, T2 = TestCheckDisjointness.between_samples()
        net = build_first_kind(T1, T2, np.zeros(3))
        rep = check_disjointness(T1, T2)
        assert net.generators.disjointness == rep
        assert rep.passed is (pair != "between")
        assert np.array_equal(net.F, T1.points @ T2.points.T)

    def test_direct_f_matches_differenced_f(self):
        rng = np.random.default_rng(11)
        T1, T2 = random_net_pair(rng, n=201, t_range=(-0.1, 0.1))
        net = build_first_kind(T1, T2, np.zeros(3))
        _, F, _ = first_form(net.grid)
        assert np.abs(F - net.F).max() < 2e-6


def axis_curve(k: int, h: float, n: int = 9) -> SphereCurve:
    """The constant sphere curve at the k-th unit vector of E, on n nodes
    centred on t = 0 at spacing h."""
    return SphereCurve(-(n // 2) * h, h, np.tile(np.eye(3)[k], (n, 1)))


def outer_sum(T1, T2, p0, x0=None) -> np.ndarray:
    """The first-kind array scanned whole: (p0 + I1(u)) + I2(v) component by
    component, led by (u + v) + x0 when x0 is given, overflowing freely."""
    with np.errstate(over="ignore"):
        ru = p0 + cumulative_integral(T1).points
        rv = cumulative_integral(T2).points
        if x0 is not None:
            ru, rv = np.column_stack((T1.ts, ru)), np.column_stack((T2.ts, rv))
        out = np.empty((T1.n, T2.n, ru.shape[1]))
        for k in range(ru.shape[1]):
            np.add.outer(ru[:, k], rv[:, k], out=out[..., k])
        if x0 is not None:
            out[..., 0] += x0
    return out


class TestValidatedOnce:
    """First-kind nets and minimal lifts are sums of checked curves: their
    grids are checked finite from the rows, with no scan of the array."""

    @staticmethod
    def count_scans(monkeypatch) -> list:
        seen = []
        scan = Grid2D.__post_init__

        def counted(self):
            seen.append(self)
            scan(self)
        monkeypatch.setattr(Grid2D, "__post_init__", counted)
        return seen

    def test_builders_scan_no_grid(self, monkeypatch):
        T1, T2 = gallery_generators(n=41)
        seen = self.count_scans(monkeypatch)
        net = build_first_kind(T1, T2, np.zeros(3))
        assert len(seen) == 0
        lift = build_minimal(T1, T2, np.zeros(4))
        assert len(seen) == 0
        lift_net(net)               # a new array: scanned once
        assert len(seen) == 1
        for g in (net.grid, lift.grid, lift.source.grid):
            g.with_values(g.values)
        assert len(seen) == 4       # a grid made from theirs is scanned

    def test_unscanned_grids_match_the_scanned_ones(self):
        T1, T2 = gallery_generators(n=41)
        P0 = np.array([0.5, 1.0, -2.0, 3.0])
        lift = build_minimal(T1, T2, P0)
        assert np.array_equal(lift.grid.values, outer_sum(T1, T2, P0[1:], 0.5))
        for g in (lift.grid, lift.source.grid):
            assert (g.u_min, g.v_min, g.du, g.dv) == (
                T1.t_min, T2.t_min, T1.dt, T2.dt)
            assert isinstance(g, Grid2D) and not g.values.flags.writeable

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_near_overflow_decided_as_the_scan_does(self, sign):
        # spacing 1e292: the integrals reach 4e292, two ulps of the largest
        # float, so p0 = +-(max - k ulp) overflows for the first few k only
        big = np.finfo(float).max
        ulp = big - np.nextafter(big, 0.0)
        T1, T2 = axis_curve(0, 1e292), axis_curve(1, 1e292)
        verdicts = set()
        for k in range(8):
            p = sign * (big - k * ulp)
            for P0 in (np.array([p, 0.0, 0.0]), np.array([p, 0.0, p, 0.0])):
                x0 = None if P0.size == 3 else P0[0]
                scanned = outer_sum(T1, T2, P0[-3:], x0)
                finite = bool(np.isfinite(scanned).all())
                build = lambda: (build_first_kind(T1, T2, P0) if x0 is None
                                 else build_minimal(T1, T2, P0))
                if finite:
                    assert np.array_equal(build().grid.values, scanned)
                else:
                    with pytest.raises(BadGrid,
                                       match="grid values must be finite"):
                        build()
                verdicts.add(finite)
        assert verdicts == {True, False}


class TestOneAngle:
    """A net holds its angle once, as F = cos theta; theta is read from F."""

    def test_theta_is_not_a_field(self):
        net = gallery("critical", nu=21, nv=21).net
        with pytest.raises(TypeError):
            NetSurface(grid=net.grid, F=net.F, theta=net.theta)

    def test_replacing_f_moves_theta(self):
        net = gallery("critical", nu=21, nv=21).net
        moved = replace(net, F=0.5 * net.F)
        assert np.array_equal(moved.theta, np.arccos(0.5 * net.F))
        assert not np.array_equal(moved.theta, net.theta)

    @pytest.mark.parametrize("builder", ["first_kind", "critical",
                                         "noncritical"])
    def test_theta_is_arccos_of_clipped_f(self, builder):
        if builder == "first_kind":
            T1, T2 = random_net_pair(np.random.default_rng(5), n=41)
            net = build_first_kind(T1, T2, np.zeros(3))
        else:
            net = gallery(builder, nu=41, nv=41).net
        assert np.array_equal(net.theta,
                              np.arccos(np.clip(net.F, -1.0, 1.0)))



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

    def test_zero_margin_asks_strict_disjointness(self):
        T1, T2 = gallery_generators(n=201)
        assert check_disjointness(T1, T2, 0.0).passed
        assert not check_disjointness(T1, T1, 0.0).passed

    @staticmethod
    def between_samples():
        # T2 passes through T1 = d1 at v = pi/2, half-way between two nodes,
        # where the nearest samples still stand 0.08 apart
        T1 = sample_curve(lambda t: np.tile([1.0, 0.0, 0.0], (t.size, 1)),
                          (-1.0, 1.0), 11, cls=SphereCurve)
        T2 = sample_curve(
            lambda t: np.stack([np.sin(t), 0 * t, np.cos(t)], axis=-1),
            (0.0, np.pi), 20, cls=SphereCurve)
        return T1, T2

    @pytest.mark.parametrize("h", [1.2e103, 1e292])
    def test_overflowing_remainder_fails_every_cell(self, h):
        # (h/2)^3 overflows past h ~ 1.1e103: no cell can be bounded, so
        # the check fails on all 81 node cells, with no warning, and the
        # builders keep that verdict instead of raising
        T1, T2 = axis_curve(0, h), axis_curve(1, h)
        rep = check_disjointness(T1, T2)
        assert rep["uncertified_cells"].value == 81.0 and not rep.passed
        assert rep.min_separation == 0.0
        assert rep.sampled_separation == np.sqrt(2.0)
        assert build_first_kind(T1, T2, np.zeros(3)).generators \
            .disjointness == rep
        assert build_minimal(T1, T2, np.zeros(4)).generators \
            .disjointness == rep

    def test_finite_remainder_below_the_overflow(self):
        rep = check_disjointness(axis_curve(0, 1e102), axis_curve(1, 1e102))
        assert rep.passed and rep.min_separation == np.sqrt(2.0)

    def test_meeting_between_samples_fails(self):
        T1, T2 = self.between_samples()
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

    def test_verdict_is_the_uncertified_cells_check(self):
        T1, T2 = gallery_generators(n=101)
        for rep, open_cells in ((check_disjointness(T1, T2), False),
                                (check_disjointness(T1, SphereCurve(
                                    T1.t_min, T1.dt, -T1.points)), True)):
            chk = rep["uncertified_cells"]
            assert rep.checks == (chk,) and chk.tol == 0.0
            assert rep.passed is not open_cells
            assert (chk.value > 0.0) is open_cells
            assert chk.where[1] == (rep.at_u, rep.at_v)

    def test_passing_bound_clears_its_margin(self):
        # pair 73 of this draw passes at the default extension's margin
        # after bisecting cells that closed later; a bound that took those
        # cells while they were open read 0.04465 against 0.04472
        def draw(rng, n):
            T1 = normalized_trig_curve(rng, n, (-0.5, 0.5))
            centre = np.array([1.0, 0.0, 0.0]) + rng.uniform(-0.9, 0.9, 3)
            return T1, normalized_trig_curve(rng, n, (-0.5, 0.5),
                                             center=centre)

        rng = np.random.default_rng(5)
        for _ in range(74):
            state = rng.bit_generator.state
            T1, T2 = draw(rng, 101)
        rng.bit_generator.state = state
        fine = draw(rng, 801)          # the same curves, 8 times finer
        margin = float(np.sqrt(2e-3))
        rep = check_disjointness(T1, T2, margin)
        assert rep.passed
        assert rep.min_separation > margin
        absF = np.abs(fine[0].points @ fine[1].points.T).max()
        assert rep.min_separation <= np.sqrt(2.0 - 2.0 * absF)

    @settings(derandomize=True, database=None, max_examples=60,
              deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n1=st.sampled_from([21, 81, 201]),
           n2=st.sampled_from([21, 81, 201]), log_margin=st.floats(-6, -1),
           push=st.booleans())
    def test_sampled_refutation_and_unbisected_report(self, seed, n1, n2,
                                                      log_margin, push):
        # a node within the margin lies in its own cell, which never closes,
        # so the check fails at once, counting such nodes, with no curve
        # differenced; with no node at the bisection threshold the report
        # is the argmax node of |F| less the slack, and passes
        rng = np.random.default_rng(seed)
        T1 = normalized_trig_curve(rng, n1, (-0.5, 0.5))
        centre = np.array([1.0, 0.0, 0.0]) + rng.uniform(-0.9, 0.9, 3)
        T2 = normalized_trig_curve(rng, n2, (-0.5, 0.5), center=centre)
        margin = 10.0 ** log_margin
        if push:
            # the reflection that maps node j of T2 to b, at an angle below
            # the margin from +-T1(i)
            i, j = rng.integers(n1), rng.integers(n2)
            p = rng.choice([-1.0, 1.0]) * T1.points[i]
            w = np.cross(p, rng.standard_normal(3))
            delta = rng.uniform(0.0, 0.9) * margin
            b = np.cos(delta) * p + np.sin(delta) * w / np.linalg.norm(w)
            k = (T2.points[j] - b) / np.linalg.norm(T2.points[j] - b)
            T2 = SphereCurve(T2.t_min, T2.dt,
                             T2.points - 2.0 * np.outer(T2.points @ k, k))
        with pytest.MonkeyPatch.context() as mp:
            seen = record_diff_samples(mp)
            rep = check_disjointness(T1, T2, margin)
        absF = np.abs(T1.points @ T2.points.T)
        nrm = lambda x: np.linalg.norm(x, axis=1)
        slack = (0.5 * T1.dt * nrm(diff_samples(T1.points, T1.dt, 1)).max()
                 + 0.5 * T2.dt * nrm(diff_samples(T2.points, T2.dt, 1)).max())
        if rep.sampled_separation <= margin:
            i, j = np.unravel_index(int(np.argmax(absF)), absF.shape)
            refuted = np.sqrt(np.maximum(2.0 - 2.0 * absF, 0.0)) <= margin
            assert not rep.passed and seen == []
            assert rep.uncertified_cells == np.count_nonzero(refuted) >= 1
            assert rep["uncertified_cells"].where == (
                (i, j), (T1.ts[i], T2.ts[j]))
            assert rep.min_separation == 0.0
        if absF.max() < 1.0 - 0.5 * (margin + slack) ** 2:
            i, j = np.unravel_index(int(np.argmax(absF)), absF.shape)
            assert rep.passed
            assert rep["uncertified_cells"].where == (
                (i, j), (T1.ts[i], T2.ts[j]))
            assert rep.min_separation == np.sqrt(2.0 - 2.0 * absF[i, j]) - slack

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
        rep = is_chebyshev(gal.net)
        assert rep.passed


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
        rep = is_chebyshev(out)
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

    def test_grid_too_small_for_the_spline(self):
        g = grid_from_ranges((0, 1), (0, 1), np.zeros((3, 9, 3)))
        with pytest.raises(EmptyOverlap, match="too small"):
            equivalent_immersion(g)

    @pytest.mark.parametrize("direction", ["uv_to_ts", "ts_to_uv"])
    @pytest.mark.parametrize("n", [40, 41, 200, 201])
    def test_parity_subgrids_read_the_tensor_grid(self, n, direction):
        # the two parity sub-grids hold every target, bit for bit the same
        # products on the whole tensor grid: a point's value does not depend
        # on the points evaluated with it.  FITPACK's values there agree.
        gal = gallery("noncritical", nu=n, nv=n)
        g = gal.net.grid if direction == "uv_to_ts" else gal.ts_grid
        out = equivalent_immersion(g, direction)
        ud, vd, iu, iv = diagonal_axes(out.us, out.vs, direction)
        read = _diagonal_reader(out.us, out.vs, direction,
                                _splines.knots(g.us), _splines.knots(g.vs))
        for k in range(3):
            sp, ref = (fit(g.us, g.vs, g.values[..., k])
                       for fit in FITS.values())
            got = read(sp)
            assert np.array_equal(got, tensor_values(sp, ud, vd)[iu, iv])
            assert np.abs(got - ref(ud, vd)[iu, iv]).max() < 1e-13

    @pytest.mark.parametrize(
        "nu, nv, direction",
        [(161, 161, "ts_to_uv"), (161, 201, "ts_to_uv"),
         (201, 161, "ts_to_uv"), (161, 201, "uv_to_ts")],
        ids=["161-161", "161-201", "201-161", "161-201-uv_to_ts"])
    def test_point_set_preserved(self, nu, nv, direction):
        # a non-square grid is evaluated at scattered points, not through
        # the diagonal reader
        gal = gallery("noncritical", nu=nu, nv=nv)
        source = gal.ts_grid if direction == "ts_to_uv" else gal.net.grid
        out = equivalent_immersion(source, direction)
        # resampled points must reproduce the closed-form immersion
        U, V = np.meshgrid(out.us, out.vs, indexing="ij")
        T, S = (U + V, V - U) if direction == "ts_to_uv" else (U, V)
        X = np.stack([_profile_x(S) * np.cos(T), _profile_x(S) * np.sin(T),
                      _profile_y()(S)], axis=-1)
        assert np.abs(out.values - X).max() < 1e-7


def tensor_values(sp, xs, ys) -> np.ndarray:
    """The library bicubic ``sp`` on the tensor grid xs x ys: B_x C B_y^T,
    the products ``_diagonal_reader`` forms on its sub-grids."""
    bx, by = (_splines.design_matrix(p, t)
              for p, t in ((xs, sp.tx), (ys, sp.ty)))
    return (by @ (bx @ sp.c).T).T


#: the library's bicubic fit and FITPACK's, its reference
FITS = {"library": _splines.RectBivariateSpline,
        "fitpack": lambda x, y, z: RectBivariateSpline(x, y, z, kx=3, ky=3,
                                                       s=0)}


class TestBicubicFit:
    """The library's s = 0 bicubic against FITPACK's: the same knots, and
    values on tensor grids and at scattered points, clamped points outside
    the nodes' span among them, to the bound of
    ``test_matches_scattered_evaluation``."""

    @staticmethod
    def assert_matches(x, y, z, rng):
        sp, ref = (FITS[f](x, y, z) for f in ("library", "fitpack"))
        assert all(np.array_equal(a, b)
                   for a, b in zip((sp.tx, sp.ty), ref.get_knots()))
        # the span of an axis and a tenth of it beyond each end
        span = lambda a: (1.1 * a[0] - 0.1 * a[-1], 1.1 * a[-1] - 0.1 * a[0])
        xs, ys = (np.sort(rng.uniform(*span(a), 3 * a.size)) for a in (x, y))
        assert np.abs(tensor_values(sp, xs, ys) - ref(xs, ys)).max() < 1e-13
        assert np.abs(tensor_values(sp, x, y) - z).max() < 1e-13
        xs, ys = (rng.uniform(*span(a), 500) for a in (x, y))
        assert np.abs(sp.ev(xs, ys) - ref.ev(xs, ys)).max() < 1e-13

    @pytest.mark.parametrize("nu, nv", [(4, 4), (5, 5), (6, 6), (41, 41),
                                        (201, 201), (161, 201)])
    def test_matches_fitpack(self, nu, nv):
        rng = np.random.default_rng(nu * nv)
        x = np.cumsum(rng.uniform(0.5, 1.5, nu))
        y = np.linspace(-1.0, 2.0, nv)
        X, Y = np.meshgrid(x, y, indexing="ij")
        z = np.sin(X) * np.cos(2.0 * Y) + 0.1 * rng.standard_normal(X.shape)
        self.assert_matches(x, y, z, rng)

    def test_matches_fitpack_on_the_noncritical_ts_grid(self):
        g = gallery("noncritical", nu=201, nv=201).ts_grid
        for k in range(3):
            self.assert_matches(g.us, g.vs, g.values[..., k],
                                np.random.default_rng(k))


def lapack_fit(x, y, z) -> np.ndarray:
    """The s = 0 bicubic's coefficients by LAPACK's banded LU with partial
    pivoting, ``dgbtrf`` once per axis and ``dgbtrs`` over all columns:
    the reference of ``_splines.RectBivariateSpline``'s block LU."""
    from scipy.linalg.lapack import dgbtrf, dgbtrs
    c = np.asarray(z, dtype=float)
    for axis, a in enumerate((x, y)):
        b = _splines.design_matrix(a, _splines.knots(a)).tocoo()
        ab = np.zeros((10, a.size))     # LAPACK's band storage, kl = ku = 3
        ab[6 + b.row - b.col, b.col] = b.data
        lu, piv, info = dgbtrf(ab, 3, 3)
        assert info == 0
        c = np.moveaxis(dgbtrs(lu, 3, 3, np.moveaxis(c, axis, 0), piv)[0],
                        0, axis)
    return c


def spline_nodes(kind: str, n: int, rng) -> np.ndarray:
    """n increasing nodes: uniform, random gaps in [0.1, 1], or graded,
    gaps growing geometrically by a factor 1e3 from the first to the last."""
    if kind == "uniform":
        return np.linspace(-1.0, 2.0, n)
    if kind == "random":
        return np.cumsum(rng.uniform(0.1, 1.0, n))
    return np.concatenate(([0.0], np.cumsum(np.geomspace(1.0, 1e3, n - 1))))


class TestBlockSolve:
    """The block LU's coefficients against LAPACK's banded solve.

    Both solves are backward stable, and these collocation matrices are
    well conditioned, so the coefficients agree to a few ulps of the
    largest one: 16 eps bounds them (measured at most 3.8 eps, on 5
    graded nodes).  The node counts put the last block of ``_splines._BLOCK``
    rows at every remainder that matters: one block, full blocks, a
    one-row last block, and the workloads' sizes."""

    B = _splines._BLOCK

    @pytest.mark.parametrize("kind", ["uniform", "random", "graded"])
    @pytest.mark.parametrize("n", [4, 5, 6, B - 1, B, B + 1, 2 * B + 1, 201,
                                   801])
    def test_matches_lapack(self, n, kind):
        rng = np.random.default_rng(n)
        x, y = spline_nodes(kind, n, rng), spline_nodes(kind, n, rng)
        z = rng.standard_normal((n, n))
        ref = lapack_fit(x, y, z)
        got = _splines.RectBivariateSpline(x, y, z).c
        assert got.flags.c_contiguous
        assert np.abs(got - ref).max() <= 16 * EPS * np.abs(ref).max()

    @pytest.mark.parametrize("n", [B + 1, 201])
    def test_strided_component_is_bit_identical(self, n):
        # a component view z[..., k] of an (n, n, 4) grid, as the
        # coordinate change passes it, and its contiguous copy
        rng = np.random.default_rng(n)
        x, y = (spline_nodes("random", n, rng) for _ in range(2))
        grid = rng.standard_normal((n, n + 3, 4))
        y = np.append(y, y[-1] + np.arange(1.0, 4.0))
        for k in range(4):
            view = grid[..., k]
            assert not view.flags.c_contiguous
            assert np.array_equal(
                _splines.RectBivariateSpline(x, y, view).c,
                _splines.RectBivariateSpline(x, y, view.copy()).c)


def dense(first, B, cols: int) -> np.ndarray:
    """The (m, cols) matrix of the ``_basis`` values ``B`` whose first
    column in each row is ``first``."""
    out = np.zeros((B.shape[0], cols))
    out[np.arange(B.shape[0])[:, None],
        first[:, None] + np.arange(B.shape[1])] = B
    return out


class TestBasis:
    """``_splines._basis`` against scipy's B-spline design matrix, the
    oracle, at the nodes, inside and beyond the ends: they agree to a few
    ulps of values in [0, 1] (measured: bit for bit)."""

    @pytest.mark.parametrize("kind", ["uniform", "random", "graded"])
    @pytest.mark.parametrize("n", [4, 5, 201, 801])
    def test_matches_scipy_design_matrix(self, n, kind):
        rng = np.random.default_rng(n)
        x = spline_nodes(kind, n, rng)
        t = _splines.knots(x)
        pad = 0.1 * (x[-1] - x[0])
        xs = np.concatenate((x, rng.uniform(x[0] - pad, x[-1] + pad, 3 * n)))
        ref = BSpline.design_matrix(np.clip(xs, x[0], x[-1]), t, 3).toarray()
        got = dense(*_splines._basis(t, xs), n)
        assert np.abs(got - ref).max() <= 4 * EPS
        assert np.array_equal(_splines.design_matrix(xs, t).toarray(), got)

    @pytest.mark.parametrize("kind", ["uniform", "random", "graded"])
    def test_partition_of_unity(self, kind):
        # degree 3 on the knots, and degree 2 on the knots of the derivative
        rng = np.random.default_rng(7)
        x = spline_nodes(kind, 41, rng)
        xs = np.concatenate((x, rng.uniform(x[0], x[-1], 500)))
        t = _splines.knots(x)
        for k, knots in ((3, t), (2, t[1:-1])):
            first, B = _splines._basis(knots, xs, k)
            assert B.shape == (xs.size, k + 1)
            assert np.all(B >= 0.0)
            assert np.abs(B.sum(axis=1) - 1.0).max() <= 4 * EPS
            assert first.min() >= 0 and first.max() <= knots.size - 2 * k - 2

    def test_ends_clamp(self):
        x = spline_nodes("random", 9, np.random.default_rng(3))
        t = _splines.knots(x)
        first, B = _splines._basis(t, np.array([x[0] - 1.0, x[0],
                                                x[-1], x[-1] + 1.0]))
        assert list(first) == [0, 0, 5, 5]
        assert np.array_equal(B[0], B[1]) and np.array_equal(B[2], B[3])
        assert np.array_equal(B[1], [1.0, 0.0, 0.0, 0.0])
        assert np.array_equal(B[2], [0.0, 0.0, 0.0, 1.0])


class TestCubicSpline:
    """``_splines.CubicSpline``, the library's not-a-knot interpolant,
    against scipy's ``CubicSpline``, the oracle: values and first
    derivatives agree to 32 eps of their largest value (measured at most
    6.5 eps, on random nodes at n = 201)."""

    @pytest.mark.parametrize("kind", ["uniform", "random", "graded"])
    @pytest.mark.parametrize("n", [5, 201, 801])
    def test_matches_scipy(self, n, kind):
        rng = np.random.default_rng(n)
        x = spline_nodes(kind, n, rng)
        s = (x - x[0]) / (x[-1] - x[0])
        y = np.column_stack((np.sin(3.0 * s), rng.standard_normal(n)))
        xs = np.concatenate((x, rng.uniform(x[0], x[-1], 3 * n)))
        got, ref = _splines.CubicSpline(x, y, axis=0), CubicSpline(x, y)
        for nu in (1, 0):
            want = ref(xs, nu)
            scale = np.abs(want).max()
            assert got(xs, nu).shape == want.shape
            assert np.abs(got(xs, nu) - want).max() <= 32 * EPS * scale
        # the nodes, to the same bound of the values' largest, which the
        # graded nodes' overshoot puts far above y's
        assert np.abs(got(x) - y).max() <= 32 * EPS * scale

    def test_four_nodes_give_the_cubic_and_fewer_raise(self):
        x = np.array([-1.0, 0.5, 1.0, 3.0])
        cubic = np.polynomial.Polynomial([1.0, -2.0, 0.5, 0.25])
        sp = _splines.CubicSpline(x, cubic(x))
        xs = np.linspace(-1.0, 3.0, 50)
        assert np.abs(sp(xs) - cubic(xs)).max() <= 64 * EPS
        assert np.abs(sp(xs, 1) - cubic.deriv()(xs)).max() <= 64 * EPS
        for n in (2, 3):
            with pytest.raises(BadGrid, match="at least 4"):
                _splines.CubicSpline(x[:n], cubic(x[:n]))
        with pytest.raises(BadGrid, match="strictly increasing"):
            _splines.CubicSpline(x[::-1], cubic(x))

    def test_value_does_not_depend_on_its_run(self):
        # more points than one run of evaluation: each point alone, and
        # the 2-D array of them, give the values bit for bit
        rng = np.random.default_rng(11)
        x = spline_nodes("random", 201, rng)
        sp = _splines.CubicSpline(x, np.column_stack((np.cos(x), x)))
        xs = rng.uniform(x[0], x[-1], 40000)
        for nu in (0, 1):
            vals = sp(xs, nu)
            assert vals.shape == (40000, 2)
            assert np.array_equal(sp(xs.reshape(200, 200), nu),
                                  vals.reshape(200, 200, 2))
            some = rng.choice(xs.size, 50, replace=False)
            assert np.array_equal(
                np.array([sp(xs[i], nu) for i in some]), vals[some])


def clear_memos():
    _splines._factors.cache_clear()
    chebnet._diagonal_reader.cache_clear()


def counted_calls(monkeypatch, module, name) -> list:
    """Rebind ``module.name`` to a wrapper that records each call's
    arguments in the returned list."""
    calls, fn = [], getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


class TestSplineSeam:
    def test_round_trip_fits_through_the_module_name(self, monkeypatch):
        # each direction of the coordinate change of a square lift without
        # live generators fits one spline per component of f and one for
        # theta; every fit calls chebnet.RectBivariateSpline, the name a
        # tracer rebinds to count it.  A lift with live generators is
        # resampled through its 1-D curves and fits none.
        fits = counted_calls(monkeypatch, chebnet, "RectBivariateSpline")
        T1, T2 = gallery_generators(n=101)
        surf = lift_net(build_first_kind(T1, T2, np.zeros(3)))
        stale = replace(surf, grid=surf.grid.with_values(
            surf.grid.values.copy()))
        assert len(fits) == 0
        iso, _ = isothermal_form(stale)
        assert len(fits) == 5
        to_null_form(iso)
        assert len(fits) == 10
        iso, _ = isothermal_form(surf)
        assert iso.generators is not None
        to_null_form(iso)
        assert len(fits) == 10


class TestFactorMemo:
    """The block LU of an axis and the diagonal reader, with its design
    matrices, are memoized by the values of their nodes: a Route B round
    trip (a lift without live generators) factors each distinct node set
    once, and a memo entry gives the coefficients a fresh factorization
    gives, bit for bit."""

    @pytest.mark.parametrize("name, node_sets", [("noncritical", 4),
                                                 ("critical", 2)])
    def test_round_trip_factors_each_node_set_once(self, name, node_sets,
                                                   monkeypatch):
        # the critical gallery's axes are equal both ways; without the
        # memo a round trip factored 20 (noncritical) and 10 (critical)
        # times
        clear_memos()
        lus = counted_calls(monkeypatch, _splines, "_block_lu")
        designs = counted_calls(monkeypatch, chebnet, "design_matrix")
        fits = counted_calls(monkeypatch, chebnet, "RectBivariateSpline")
        surf = lift_net(gallery(name, nu=41, nv=41).net)
        cold, _ = to_null_form(isothermal_form(surf)[0])
        # 10 fits; the theta call of each direction reuses the f call's
        # reader, so 8 reader matrices are built, not 16
        assert (len(lus), len(fits), len(designs)) == (node_sets, 10, 8)
        warm, _ = to_null_form(isothermal_form(surf)[0])
        assert (len(lus), len(fits), len(designs)) == (node_sets, 20, 8)
        assert np.array_equal(warm.grid.values, cold.grid.values)
        assert np.array_equal(warm.theta, cold.theta)

    def test_memoized_factorization_is_read_only(self):
        S, J = _splines._factors(np.linspace(0.0, 1.0, 41))
        for a in (S, J):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1

    @staticmethod
    def assert_warm_equals_cleared(x, y, z):
        # the warm fit reads both factorizations from the memo, after a
        # fit of other values on the same nodes
        clear_memos()
        cold = _splines.RectBivariateSpline(x, y, z).c
        _splines.RectBivariateSpline(x, y, np.cos(z))
        hits = _splines._factors.cache_info().hits
        warm = _splines.RectBivariateSpline(x, y, z).c
        assert _splines._factors.cache_info().hits == hits + 2
        assert np.array_equal(warm, cold)

    @pytest.mark.parametrize("kind", ["uniform", "random", "graded"])
    @pytest.mark.parametrize("n", [TestBlockSolve.B + 1, 201])
    def test_warm_memo_gives_the_cleared_coefficients(self, n, kind):
        rng = np.random.default_rng(n)
        x, y = spline_nodes(kind, n, rng), spline_nodes(kind, n, rng)
        self.assert_warm_equals_cleared(x, y, rng.standard_normal((n, n)))

    @pytest.mark.parametrize("name", ["critical", "noncritical"])
    def test_warm_memo_on_the_gallery_grids(self, name):
        g = lift_net(gallery(name, nu=201, nv=201).net).grid
        for k in range(4):
            self.assert_warm_equals_cleared(g.us, g.vs, g.values[..., k])


def grid_axes(g) -> np.ndarray:
    return np.array([g.u_min, g.v_min, g.du, g.dv])


def meshgrid_gallery(name, nu, nv) -> dict:
    """Every array of ``gallery(name, nu, nv)``, each closed form taken
    node by node on (nu, nv) meshgrids: the reference the axis-wise
    builders must reproduce bit for bit."""
    if name == "critical":
        us = np.linspace(*_CRITICAL_RANGE, nu)
        vs = np.linspace(*_CRITICAL_RANGE, nv)
        U, V = np.meshgrid(us, vs, indexing="ij")
        X = np.stack([np.sin(U), 2.0 - np.cos(U) - np.cos(V), np.sin(V)],
                     axis=-1)
        F = np.sin(U) * np.sin(V)
        root = np.sqrt(1.0 - np.sin(U)**2 * np.sin(V)**2)
        return {
            "X": X, "F": F, "oracle F": F,
            "net grid": grid_axes(grid_from_ranges(_CRITICAL_RANGE,
                                                   _CRITICAL_RANGE, X)),
            "gauss_map": np.stack([np.sin(U) * np.cos(V),
                                   -np.cos(U) * np.cos(V),
                                   np.cos(U) * np.sin(V)],
                                  axis=-1) / root[..., None],
            "second_e": -np.cos(V) / root,
            "second_f": np.zeros_like(F),
            "second_g": -np.cos(U) / root,
            "K_T": np.cos(U) * np.cos(V) / root**4,
        }
    x, y = _profile_x, _profile_y()
    ts = np.linspace(-np.pi + 0.05, np.pi - 0.05, nu)
    ss = np.linspace(0.25, 2.0, nv)
    T, S = np.meshgrid(ts, ss, indexing="ij")
    Y = np.stack([x(S) * np.cos(T), x(S) * np.sin(T), y(S)], axis=-1)
    Lt, Ls = ts[-1] - ts[0], ss[-1] - ss[0]
    half = min(Lt, Ls) / 4.0
    uc = (ts[0] + ts[-1]) / 4.0 - (ss[0] + ss[-1]) / 4.0
    vc = (ts[0] + ts[-1]) / 4.0 + (ss[0] + ss[-1]) / 4.0
    us = np.linspace(uc - half, uc + half, nu)
    vs = np.linspace(vc - half, vc + half, nv)
    U, V = np.meshgrid(us, vs, indexing="ij")
    Tq, Sq = U + V, V - U
    F = 2.0 * x(Sq)**2 - 1.0
    X = np.stack([x(Sq) * np.cos(Tq), x(Sq) * np.sin(Tq), y(Sq)], axis=-1)
    return {
        "X": X, "F": F, "oracle F": F, "Y": Y,
        "net grid": grid_axes(grid_from_ranges((us[0], us[-1]),
                                               (vs[0], vs[-1]), X)),
        "ts grid": grid_axes(grid_from_ranges(
            (-np.pi + 0.05, np.pi - 0.05), (0.25, 2.0), Y)),
        "E_ts": x(S)**2, "F_ts": np.zeros_like(S),
        "G_ts": (1.0 / np.cosh(S)**2 / 2.0)**2 + y(S, 1)**2,
    }


class TestGalleryFromAxes:
    """Both gallery builders take each closed form once per axis and
    broadcast it, with every value the meshgrid formula's bit for bit."""

    @pytest.mark.parametrize("name", ["critical", "noncritical"])
    @pytest.mark.parametrize("nu, nv", [(40, 40), (41, 41), (201, 201),
                                        (801, 801), (101, 161), (161, 201)])
    def test_bit_identical_to_meshgrid_formulas(self, name, nu, nv):
        gal, want = gallery(name, nu, nv), meshgrid_gallery(name, nu, nv)
        got = {"X": gal.net.grid.values, "F": gal.net.F,
               "net grid": grid_axes(gal.net.grid),
               **{k if k != "F" else "oracle F": v
                  for k, v in gal.oracles.items()}}
        if name == "noncritical":
            got["Y"] = gal.ts_grid.values
            got["ts grid"] = grid_axes(gal.ts_grid)
            got.update(zip(("E_ts", "F_ts", "G_ts"), gal.ts_forms))
        assert got.keys() == want.keys()
        for key, value in want.items():
            assert got[key].shape == value.shape, key
            assert np.array_equal(got[key], value), key

    def test_critical_peak_at_801(self):
        # the kept arrays plus at most two (801, 801) grids of temporaries:
        # sin and cos are 1-D, and only the root grid is made and reused
        tracemalloc.start()
        try:
            gal = gallery("critical", 801, 801)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert gal.net.F.shape == (801, 801)
        assert peak - kept <= 2 * 801 * 801 * 8 + 256 * 1024

    def test_noncritical_peak_at_801(self):
        # the (t, s) first form is three broadcasts of 1-D arrays, so the
        # kept arrays are X, F and Y (7 grids) and the temporaries at most
        # the (u, v) immersion's three t, s, x(s) grids and one more
        _profile_y()
        tracemalloc.start()
        try:
            gal = gallery("noncritical", 801, 801)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        grid = 801 * 801 * 8
        assert all(f.shape == (801, 801) for f in gal.ts_forms)
        assert kept <= 7 * grid + 256 * 1024
        assert peak - kept <= 4 * grid + 256 * 1024

    @pytest.mark.parametrize("name", ["critical", "noncritical"])
    def test_oracles_cannot_move_the_net(self, name):
        # the F oracle is the net's own F, so both are read-only: writing
        # either raises, and so does writing any other oracle
        gal = gallery(name, 21, 21)
        F = gal.net.F.copy()
        for oracle in gal.oracles.values():
            with pytest.raises(ValueError, match="read-only"):
                oracle[0, 0] += 1.0
        with pytest.raises(ValueError, match="read-only"):
            gal.net.F[0, 0] += 1.0
        assert np.array_equal(gal.net.F, F)
        assert np.array_equal(gal.oracles["F"], F)


class TestCheckSumOne:
    def test_noncritical_passes(self):
        gal = gallery("noncritical", nu=151, nv=151)
        rep = check_sum_one(gal.ts_forms)
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
        net = NetSurface(grid=g, F=0 * U)
        shape = euclidean_shape(net)
        assert np.abs(shape.K_T).max() < 1e-9
        assert np.abs(shape.e).max() < 1e-9

    def test_degenerate_metric_raises(self):
        # X = (u + v, 0, 0) has X_u = X_v, so EG - F^2 = 0 everywhere
        us = np.linspace(0, 1, 21)
        U, V = np.meshgrid(us, us, indexing="ij")
        g = grid_from_ranges((0, 1), (0, 1),
                             np.stack([U + V, 0 * U, 0 * U], axis=-1))
        net = NetSurface(grid=g, F=np.ones_like(U))
        with pytest.raises(DegenerateMetric):
            euclidean_shape(net)

    @pytest.mark.parametrize("n", [51, 201, 401])
    def test_generators_no_farther_from_closed_form(self, n):
        # the exact route against the differenced one on the same points
        net = build_first_kind(*gallery_generators(n), np.zeros(3))
        g = net.grid
        exact = euclidean_shape(net)
        differenced = euclidean_shape(
            replace(net, grid=g.with_values(g.values.copy())))
        oracles = gallery("critical", nu=n, nv=n).oracles
        for name in ("K_T", "gauss_map"):
            err = lambda s: np.abs(getattr(s, name) - oracles[name]).max()
            assert err(exact) <= err(differenced), name

    def test_replaced_f_is_differenced(self):
        # the generators' e g over 1 - F^2 holds only for the F they
        # formed: a net with another F has the shape of its grid, as
        # without generators, within differencing error (1.3e-4) of the
        # net's own K_T, and its lift keeps none
        net = build_first_kind(*random_net_pair(np.random.default_rng(5),
                                                n=41), np.zeros(3))
        moved = replace(net, F=0.5 * net.F)
        want = euclidean_shape(replace(moved))
        got = euclidean_shape(moved)
        for name in ("gauss_map", "e", "f", "g", "K_T"):
            assert np.array_equal(getattr(got, name), getattr(want, name))
        assert np.abs(got.K_T - euclidean_shape(net).K_T).max() <= 1e-3
        assert lift_net(moved).generators is None
        assert lift_net(net).generators is not None

    @settings(derandomize=True, max_examples=20, deadline=None,
              database=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([41, 81, 201]),
           half=st.floats(0.2, 0.5))
    def test_generator_products_match_grid_formulas(self, seed, n, half):
        # N, e and g from products of the 1-D curves against the formulas
        # on (n, n, 3) grids: the cross product of the broadcast tangents,
        # its norm and the contractions of T1' and T2' with N
        T1, T2 = random_net_pair(np.random.default_rng(seed), n=n,
                                 t_range=(-half, half))
        assume(check_disjointness(T1, T2).passed)
        net = build_first_kind(T1, T2, np.zeros(3))
        shape = euclidean_shape(net)
        X1 = np.broadcast_to(T1.points[:, None, :], (n, n, 3))
        X2 = np.broadcast_to(T2.points[None, :, :], (n, n, 3))
        N = np.cross(X1, X2)
        N /= np.linalg.norm(N, axis=-1)[..., None]
        e = np.einsum("ik,ijk->ij", diff_samples(T1.points, T1.dt, 1), N)
        g = np.einsum("jk,ijk->ij", diff_samples(T2.points, T2.dt, 1), N)
        K_T = e * g / (1.0 - net.F * net.F)

        def rel(a, b):
            return (np.abs(a - b) / np.maximum(1.0, np.abs(b))).max()

        assert shape.gauss_map.shape == (n, n, 3)
        assert rel(shape.gauss_map, N) <= 1e-11
        assert rel(shape.e, e) <= 1e-11
        assert rel(shape.g, g) <= 1e-11
        assert rel(shape.K_T, K_T) <= 1e-11
        assert not shape.f.any()
        unit = np.linalg.norm(shape.gauss_map, axis=-1)
        assert np.abs(unit - 1.0).max() <= 4 * np.finfo(float).eps

    def test_generator_f_is_broadcast_zeros(self):
        # f = 0 by construction on the generator route: read-only broadcast
        # zeros, so the shape keeps the Gauss map (3 grids), e, g and K_T,
        # one (n, n) grid fewer than a stored f, and its peak drops too
        T1, T2 = random_net_pair(np.random.default_rng(8), n=401)
        net = build_first_kind(T1, T2, np.zeros(3))
        tracemalloc.start()
        try:
            shape = euclidean_shape(net)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        grid = 401 * 401 * 8
        assert kept <= 6 * grid + 64 * 1024
        assert peak <= 8 * grid + 64 * 1024
        f = shape.f
        assert f.shape == (401, 401) and f.strides == (0, 0)
        assert not f.flags.writeable and not f.any()
        # e g - f f with f = 0 is e g bit for bit
        assert np.array_equal(shape.K_T, (shape.e * shape.g - f * f)
                              / (1.0 - net.F * net.F))

    def test_computed_once_per_net(self, monkeypatch):
        T1, T2 = random_net_pair(np.random.default_rng(5), n=61)
        net = build_first_kind(T1, T2, np.zeros(3))
        shape = euclidean_shape(net)
        seen = record_diff_samples(monkeypatch)
        assert euclidean_shape(net) is shape
        assert seen == []

    def test_arrays_read_only(self):
        T1, T2 = random_net_pair(np.random.default_rng(5), n=61)
        shape = euclidean_shape(build_first_kind(T1, T2, np.zeros(3)))
        for a in (shape.gauss_map, shape.e, shape.f, shape.g, shape.K_T):
            with pytest.raises(ValueError):
                a[0, 0] = 0.0

    def test_rebuilt_net_recomputes(self):
        T1, T2 = random_net_pair(np.random.default_rng(5), n=61)
        net = build_first_kind(T1, T2, np.zeros(3))
        shape = euclidean_shape(net)
        # a replaced grid is differenced, so compare like with like: the
        # same points on a new grid against the doubled points
        plain = replace(net, grid=net.grid.with_values(net.grid.values.copy()))
        scaled = replace(net, grid=net.grid.with_values(2.0 * net.grid.values))
        # doubling the points doubles the second form and multiplies
        # EG - F^2 by 16, so K_T drops to a quarter
        assert np.allclose(euclidean_shape(scaled).K_T,
                           euclidean_shape(plain).K_T / 4.0,
                           rtol=1e-12, atol=0.0)
        assert euclidean_shape(net) is shape


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


#: the Dini family's parameters a, node counts, centre x and half-width of
#: its (u, v) square: x = a u + v / a stays in [0.49, 2.71], off the
#: cuspidal edge x = 0 where X_u and X_v are parallel
DINI_AS = (0.7, 1.0, 1.6)
DINI_NS = (101, 201, 401)
DINI_CENTRE, DINI_HALF = 1.6, 0.5


def dini_net(a: float, n: int) -> tuple:
    """The K = -1 Chebyshev net of Dini's surface (the pseudosphere at
    a = 1) on n x n nodes, built from its points alone, so every shape
    quantity is differenced, and its closed forms.

    With x = a u + v / a and k = 2a / (1 + a^2), X = (k sech x cos(u - v),
    k sech x sin(u - v), u + v - k tanh x) has E = G = 1 and F = 2 tanh^2 x
    - 1 = cos theta, theta = 4 arctan e^x, the one-soliton of theta_uv =
    sin theta.  u and v are asymptotic, so e = g = 0, |f| = sin theta =
    2 sech x tanh x and K_T = -1; X_uv is normal, X_uv = f N.  Returns the
    net and a dict of the exact sin theta, X_u, X_v, N and X_uv on its
    nodes."""
    c = DINI_CENTRE / (a + 1.0 / a)
    us = np.linspace(c - DINI_HALF, c + DINI_HALF, n)
    u, v = us[:, None], us[None, :]
    x, k = a * u + v / a, 2.0 * a / (1.0 + a * a)
    S, T = 1.0 / np.cosh(x), np.tanh(x)
    cp, sp = np.cos(u - v), np.sin(u - v)
    vec = lambda *xyz: np.stack(np.broadcast_arrays(*xyz), axis=-1)
    X = vec(k * S * cp, k * S * sp, u + v - k * T)
    Xu = vec(-k * a * S * T * cp - k * S * sp,
             -k * a * S * T * sp + k * S * cp, 1.0 - k * a * S * S)
    Xv = vec(-k / a * S * T * cp + k * S * sp,
             -k / a * S * T * sp - k * S * cp, 1.0 - k / a * S * S)
    # d(sech x tanh x)/dx = sech x (sech^2 x - tanh^2 x)
    Xuv = vec(k * S * (cp - (S * S - T * T) * cp + (1.0 / a - a) * T * sp),
              k * S * (sp - (S * S - T * T) * sp - (1.0 / a - a) * T * cp),
              2.0 * k * S * S * T)
    N = np.cross(Xu, Xv)
    N /= np.linalg.norm(N, axis=-1, keepdims=True)
    grid = grid_from_ranges((us[0], us[-1]), (us[0], us[-1]), X)
    net = NetSurface(grid=grid, F=2.0 * T * T - 1.0)
    return net, {"sin_theta": 2.0 * S * T, "Xu": Xu, "Xv": Xv, "N": N,
                 "Xuv": Xuv}


#: order p of the differenced shape error of the Dini nets, and twice the
#: largest err / h^p measured at n = 101 and 201 over ``DINI_AS``, the
#: truncation constant.  The 5-node stencils are of order 4 for first
#: derivatives and centred second derivatives, so f (of X_uv) and K_T are
#: of order 4; e and g take X_uu and X_vv from the one-sided boundary
#: stencil of second derivatives, of order 3.  Measured err / h^p: K_T
#: 15.3-25.7, f 14.9-43.5, e 3.25-31.0, g 2.74-20.6
DINI_TRUNCATION = {"K_T": (4, 52.0), "f": (4, 88.0), "e": (3, 62.0),
                   "g": (3, 62.0)}
#: sum of |weights| of the one-sided 5-node stencils at an edge (times
#: h^order): first derivative (25 + 48 + 36 + 16 + 3) / 12, second
#: derivative (35 + 104 + 114 + 56 + 11) / 12
EDGE_WEIGHTS = {1: 128.0 / 12.0, 2: 320.0 / 12.0}


def stencil_roundoff(s, weight: float) -> float:
    """The most a stencil whose |weights| sum to ``weight`` / h^2 moves a
    component, from a rounding of eps max|x| in each sampled component x
    of the net or lift ``s``: weight eps max|x| / h^2."""
    return weight * EPS * np.abs(s.grid.values).max() / s.grid.du**2


def dini_shape_errors(a: float, n: int) -> tuple:
    """The sup errors of the Dini net's differenced K_T, |f|, e and g
    against their closed forms, and their bounds: the truncation term
    C h^p of ``DINI_TRUNCATION`` plus the roundoff the stencils amplify.
    f = <X_uv, N> moves by at most sqrt 3 times a component of X_uv,
    whose mixed stencil is two one-sided first-derivative stencils at a
    corner.  K_T = (e g - f^2) / (E G - F^2) with e, g near 0, |f| = sin
    theta and E G - F^2 = sin^2 theta moves by 2 / sin theta times f.  e
    and g move by sqrt 3 times a component of X_uu or X_vv."""
    net, exact = dini_net(a, n)
    shape = euclidean_shape(net)
    sin_theta = exact["sin_theta"]
    mixed = np.sqrt(3.0) * stencil_roundoff(net, EDGE_WEIGHTS[1] ** 2)
    second = np.sqrt(3.0) * stencil_roundoff(net, EDGE_WEIGHTS[2])
    errs = {"K_T": np.abs(shape.K_T + 1.0).max(),
            "f": np.abs(np.abs(shape.f) - sin_theta).max(),
            "e": np.abs(shape.e).max(), "g": np.abs(shape.g).max()}
    roundoff = {"K_T": 2.0 * mixed / sin_theta.min(), "f": mixed,
                "e": second, "g": second}
    h = net.grid.du
    bounds = {k: c * h**p + roundoff[k]
              for k, (p, c) in DINI_TRUNCATION.items()}
    return errs, bounds


class TestDiniNet:
    """The differenced shape of the one general K = -1 net family with a
    closed form (``dini_net``): no builder gives it generators."""

    @pytest.mark.parametrize("a", DINI_AS)
    def test_shape_within_its_discretization_bound(self, a):
        for n in DINI_NS:
            errs, bounds = dini_shape_errors(a, n)
            for key, err in errs.items():
                assert err <= bounds[key], (n, key, err, bounds[key])

    @pytest.mark.parametrize("a", DINI_AS)
    def test_observed_orders(self, a):
        # log2 of the errors' ratio from n = 101 to 201, where the
        # truncation error is over 10 times the roundoff: measured 3.97 to
        # 4.00 (K_T, f) and 2.93 to 2.99 (e, g).  At n = 401 roundoff
        # reaches K_T at a = 0.7 (3.1e-9 where 1.3e-8 / 16 is due), within
        # its bound above
        (e1, _), (e2, _) = (dini_shape_errors(a, n) for n in DINI_NS[:2])
        for key, (p, _) in DINI_TRUNCATION.items():
            order = np.log2(e1[key] / e2[key])
            assert p - 0.2 <= order <= p + 0.2, (key, order)

    def test_closed_form(self):
        # the closed forms themselves, to roundoff: the exact partials
        # have E = G = 1 and the net's F, and X_uv = f N with |f| =
        # sin theta
        net, exact = dini_net(1.6, 41)
        dot = lambda a, b: np.einsum("ijk,ijk->ij", a, b)
        Xu, Xv, Xuv, N = (exact[k] for k in ("Xu", "Xv", "Xuv", "N"))
        for got, want in ((dot(Xu, Xu), 1.0), (dot(Xv, Xv), 1.0),
                          (dot(Xu, Xv), net.F),
                          (np.abs(dot(Xuv, N)), exact["sin_theta"])):
            assert np.abs(got - want).max() <= 8 * EPS
        assert np.abs(Xuv - dot(Xuv, N)[..., None] * N).max() <= 8 * EPS
