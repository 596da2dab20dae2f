import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.interpolate import RectBivariateSpline

from chebylift import chebnet, numerics
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


def check_sum_one(forms: tuple) -> Report:
    """Check E(t,s) + G(t,s) = 1, the Chebyshev condition in (t, s) form,
    on a first-form triple (E, F, G): check sup_sum, held to
    ``SUM_ONE_TOL``; sup_f of |F| is reported, not required to vanish."""
    E, F, G = (np.asarray(x, dtype=float) for x in forms)
    return Report((sup_check("sup_sum", E + G - 1.0, SUM_ONE_TOL),
                   sup_check("sup_f", F)))


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
        # the two parity sub-grids hold every target, bit for bit
        gal = gallery("noncritical", nu=n, nv=n)
        g = gal.net.grid if direction == "uv_to_ts" else gal.ts_grid
        out = equivalent_immersion(g, direction)
        ud, vd, iu, iv = diagonal_axes(out.us, out.vs, direction)
        read = _diagonal_reader(out.us, out.vs, direction)
        for k in range(3):
            sp = RectBivariateSpline(g.us, g.vs, g.values[..., k], kx=3,
                                     ky=3, s=0)
            assert np.array_equal(read(sp), sp(ud, vd)[iu, iv])

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


class TestSplineSeam:
    def test_round_trip_fits_through_the_module_name(self, monkeypatch):
        # each direction of the coordinate change of a square lift without
        # live generators fits one spline per component of f and one for
        # theta; every fit calls chebnet.RectBivariateSpline, the name a
        # tracer rebinds to count it.  A lift with live generators is
        # resampled through its 1-D curves and fits none.
        fits, fit = [], chebnet.RectBivariateSpline

        def counted(*args, **kwargs):
            fits.append(args)
            return fit(*args, **kwargs)

        monkeypatch.setattr(chebnet, "RectBivariateSpline", counted)
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
