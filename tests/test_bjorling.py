import numpy as np
import pytest

from chebylift import minkowski as mk
from chebylift.bjorling import (
    BjorlingData, ExtensionChoice, SpecialCaseKind, check_necessary,
    classify_special, compatibility_residual, decompose, default_extension,
    reduce_from_l3, ruled_solution, solve, solve_pq,
)
from chebylift.chebnet import gallery
from chebylift.errors import (
    BadData, DegenerateFrenet, DisjointnessViolated, DivisionDegenerate,
    ExtensionMismatch, IncompatibleData, InconsistentSeed,
)
from chebylift.lift import lift_net, mean_curvature, normal_frame, gaussian_curvature
from chebylift.numerics import Grid2D, SampledCurve, SphereCurve, sample_curve

from test_chebnet import normalized_trig_curve


def make_curve(fn, t_range, n):
    ts = np.linspace(*t_range, n)
    return SampledCurve(t_min=float(ts[0]), dt=float(ts[1] - ts[0]),
                        points=np.asarray(fn(ts), dtype=float))


def data_from_lift(surf, j: int = None) -> BjorlingData:
    """Extract (c, D) along the row v = vs[j] of a null-coordinate lift."""
    g = surf.grid
    if j is None:
        j = int(np.argmin(np.abs(g.vs)))
    fr = normal_frame(surf)
    mkc = lambda pts: SampledCurve(t_min=g.u_min, dt=g.du, points=pts)
    return BjorlingData(c=mkc(g.values[:, j, :].copy()),
                        a=mkc(fr.etilde[:, j, :].copy()),
                        b=mkc(fr.e2[:, j, :].copy()))


def critical_lift_data():
    surf = lift_net(gallery("critical").net)
    return surf, data_from_lift(surf)


def line_data(n=201, t_range=(-1.0, 1.0)):
    # c(t) = t (d0 + d1), D = span{d3, d2}: the orientation-sensitive example
    c = make_curve(lambda t: np.stack([t, t, 0 * t, 0 * t], axis=1), t_range, n)
    a = make_curve(lambda t: np.tile(mk.D3, (t.size, 1)), t_range, n)
    b = make_curve(lambda t: np.tile(mk.D2, (t.size, 1)), t_range, n)
    return BjorlingData(c=c, a=a, b=b)


def data_from_null_pair(alpha_prime, n3_of_u, t_range=(-1.0, 1.0), n=401,
                        seed=mk.D2):
    """Data with c' = d0 + n0(u) and prescribed transversal null normal
    field l3(u) = d0 + n3(u); D(u) is the orthogonal complement of
    span{l0(u), l3(u)} computed through the triple wedge."""
    ts = np.linspace(*t_range, n)
    dt = ts[1] - ts[0]
    n0 = np.asarray(alpha_prime(ts), dtype=float)
    n3 = np.asarray(n3_of_u(ts), dtype=float)
    from chebylift.numerics import cumulative_samples
    alpha = cumulative_samples(n0, dt)
    base = int(np.argmin(np.abs(ts)))
    alpha -= alpha[base]
    c_pts = np.concatenate([ts[:, None], alpha], axis=1)
    l0 = np.concatenate([np.ones((n, 1)), n0], axis=1)
    l3 = np.concatenate([np.ones((n, 1)), n3], axis=1)
    a_raw = mk.wedge3(l0, l3, np.tile(seed, (n, 1)))
    a_pts = a_raw / np.sqrt(mk.inner(a_raw, a_raw))[:, None]
    b_raw = mk.wedge3(l0, l3, a_pts)
    b_pts = b_raw / np.sqrt(mk.inner(b_raw, b_raw))[:, None]
    mkc = lambda pts: SampledCurve(t_min=float(ts[0]), dt=float(dt), points=pts)
    return BjorlingData(c=mkc(c_pts), a=mkc(a_pts), b=mkc(b_pts))


def helix_data(n=801, t_range=(-2.0, 2.0)):
    # alpha is the unit-speed helix with kappa = tor = 1/2; the compatible
    # transversal normal is n3 = cos(pi/4) T + sin(pi/4) B, constant in u.
    r2 = np.sqrt(2.0)

    def T(ts):
        return np.stack([-np.sin(ts / r2) / r2, np.cos(ts / r2) / r2,
                         np.ones_like(ts) / r2], axis=1)

    def B(ts):
        # B = T x N for the helix (cos(u/r2), sin(u/r2), u/r2)
        return np.stack([np.sin(ts / r2) / r2, -np.cos(ts / r2) / r2,
                         np.ones_like(ts) / r2], axis=1)

    th = np.pi / 4
    return data_from_null_pair(
        T, lambda ts: np.cos(th) * T(ts) + np.sin(th) * B(ts),
        t_range=t_range, n=n), th


class TestCheckNecessary:
    def test_line_orientation_sensitivity(self):
        d = line_data()
        rep = check_necessary(d)
        assert rep.passed and rep.orientation == "ab"
        assert rep.residual_ab <= 1e-10
        assert rep.residual_ba > 1.0
        swapped = BjorlingData(c=d.c, a=d.b, b=d.a)
        rep2 = check_necessary(swapped)
        assert rep2.passed and rep2.orientation == "ba"

    def test_lift_data_accepted(self):
        _, d = critical_lift_data()
        rep = check_necessary(d)
        assert rep.passed
        assert rep.residual <= 1e-6

    def test_perturbed_normals_rejected(self):
        surf, d = critical_lift_data()
        fr = normal_frame(surf)
        j0 = int(np.argmin(np.abs(surf.grid.vs)))
        # rotate a toward the transversal null normal l3 = f_v direction:
        # stays orthonormal spacelike but leaves the normal space of c'
        from chebylift.numerics import partials
        l3 = partials(surf.grid, "v").values[:, j0, :]
        a_pert = d.a.points + np.tan(0.1) * l3
        d_pert = BjorlingData(
            c=d.c, a=SampledCurve(d.a.t_min, d.a.dt, a_pert), b=d.b)
        rep = check_necessary(d_pert)
        assert not rep.passed
        assert rep.residual >= 1e-2

    def test_scale_robust(self):
        # smooth increasing reparametrization of the same line
        n = 201
        ts = np.linspace(-1.0, 1.0, n)
        phi = ts + 0.2 * np.sin(ts)
        c = SampledCurve(-1.0, ts[1] - ts[0],
                         np.stack([phi, phi, 0 * phi, 0 * phi], axis=1))
        a = SampledCurve(-1.0, ts[1] - ts[0], np.tile(mk.D3, (n, 1)))
        b = SampledCurve(-1.0, ts[1] - ts[0], np.tile(mk.D2, (n, 1)))
        rep = check_necessary(BjorlingData(c=c, a=a, b=b))
        assert rep.passed and rep.orientation == "ab"

    def test_bad_structure(self):
        d = line_data()
        bad_a = SampledCurve(d.a.t_min, d.a.dt, 2.0 * d.a.points)
        with pytest.raises(BadData):
            check_necessary(BjorlingData(c=d.c, a=bad_a, b=d.b))


class TestDecompose:
    def test_circle_arc(self):
        _, d = critical_lift_data()
        dec = decompose(d)
        # alpha is the unit-speed circle arc with kappa = 1, tor = 0
        assert np.abs(dec.frenet.kappa - 1.0).max() < 1e-5
        assert np.abs(dec.frenet.tor).max() < 1e-3
        assert dec.frenet.arclength
        exp = np.stack([np.sin(dec.us), 1 - np.cos(dec.us),
                        np.zeros_like(dec.us)], axis=1)
        assert np.abs(dec.alpha.points - exp).max() < 1e-6

    def test_line_degenerate(self):
        with pytest.raises(DegenerateFrenet):
            decompose(line_data())

    def test_pq_identity(self):
        d, _ = helix_data()
        dec = decompose(d)
        res = dec.p0fn**2 + dec.q0fn**2 - np.sin(dec.theta0)**2
        assert np.abs(res).max() <= 1e-8

    def test_n3_reconstruction(self):
        d, th = helix_data()
        dec = decompose(d)
        recon = (np.cos(dec.theta0)[:, None] * dec.frenet.T
                 + dec.p0fn[:, None] * dec.frenet.N
                 + dec.q0fn[:, None] * dec.frenet.B)
        assert np.abs(recon - dec.n3curve.points).max() <= 1e-6
        assert np.abs(dec.theta0 - th).max() <= 1e-6


class TestCompatibility:
    def test_minimal_surface_data(self):
        rng = np.random.default_rng(31)
        n0 = normalized_trig_curve(rng, n=401, t_range=(-0.2, 0.2),
                                   center=np.array([1.0, 0, 0]))
        n3 = normalized_trig_curve(rng, n=401, t_range=(-0.2, 0.2),
                                   center=np.array([0.0, 0, 1.0]))
        from chebylift.lift import build_minimal
        surf = build_minimal(n0, n3, np.zeros(4))
        d = data_from_lift(surf)
        dec = decompose(d)
        rep = compatibility_residual(dec)
        assert rep.passed
        assert max(rep.sup_r1, rep.sup_r2, rep.sup_r3) <= 1e-5
        assert rep.sup_dn3 <= 1e-5

    def test_rotating_n3_flagged(self):
        d = data_from_null_pair(
            lambda ts: np.stack([np.cos(ts), np.sin(ts), 0 * ts], axis=1),
            lambda ts: np.stack([0 * ts, np.sin(0.3 * ts),
                                 np.cos(0.3 * ts)], axis=1))
        dec = decompose(d)
        rep = compatibility_residual(dec)
        assert not rep.passed
        assert rep.sup_dn3 >= 0.1

    def test_constant_frame_data(self):
        _, d = critical_lift_data()
        dec = decompose(d)
        rep = compatibility_residual(dec)
        assert rep.passed
        assert rep.sup_dn3 <= 1e-6


class TestSolvePQ:
    @staticmethod
    def theta_grid(dec, theta_of_v, vs):
        th = np.tile(theta_of_v(vs), (dec.alpha.n, 1))
        return Grid2D(u_min=dec.alpha.t_min, v_min=float(vs[0]),
                      du=dec.alpha.dt, dv=float(vs[1] - vs[0]), values=th)

    def test_u_independent_theta(self):
        d, th0 = helix_data()
        dec = decompose(d)
        vs = np.linspace(-0.5, 0.5, 101)
        theta = self.theta_grid(dec, lambda v: np.full_like(v, th0), vs)
        p, q, res = solve_pq(theta, dec.frenet.kappa, dec.frenet.tor)
        assert np.abs(p.values).max() <= 1e-6
        expect_q = (dec.frenet.kappa[:, None] * np.cos(theta.values)
                    / dec.frenet.tor[:, None])
        assert np.abs(q.values - expect_q).max() <= 1e-12
        assert np.abs(res.values).max() <= 1e-5

    def test_invalid_extension_reports_residual(self):
        d, th0 = helix_data()
        dec = decompose(d)
        vs = np.linspace(-0.5, 0.5, 101)
        theta = self.theta_grid(dec, lambda v: th0 + 0.3 * v, vs)
        _, _, res = solve_pq(theta, dec.frenet.kappa, dec.frenet.tor)
        assert np.abs(res.values).max() > 1e-2

    def test_division_degenerate(self):
        _, d = critical_lift_data()
        dec = decompose(d)   # tor = 0 for the circle
        vs = np.linspace(-0.5, 0.5, 51)
        theta = self.theta_grid(dec, lambda v: np.full_like(v, np.pi / 2), vs)
        with pytest.raises(DivisionDegenerate):
            solve_pq(theta, dec.frenet.kappa, dec.frenet.tor)


class TestClassify:
    def test_lightlike_line(self):
        case = classify_special(line_data())
        assert case.kind is SpecialCaseKind.LIGHTLIKE_LINE

    def test_helix(self):
        d, _ = helix_data()
        case = classify_special(d)
        assert case.kind is SpecialCaseKind.HELIX

    def test_planar_alpha(self):
        _, d = critical_lift_data()
        case = classify_special(d)
        assert case.kind is SpecialCaseKind.PLANAR_ALPHA

    def test_generic(self):
        d = data_from_null_pair(
            lambda ts: np.stack(
                [np.cos(ts), np.sin(ts) * np.cos(0.3 * ts),
                 np.sin(ts) * np.sin(0.3 * ts)], axis=1),
            lambda ts: np.stack([0 * ts, np.sin(0.2 * ts),
                                 np.cos(0.2 * ts)], axis=1))
        # alpha' must be unit for a lightlike c; renormalize first
        pts = d.c.points.copy()
        case = classify_special(d)
        assert case.kind in (SpecialCaseKind.GENERIC,)

    def test_stability_under_perturbation(self):
        rng = np.random.default_rng(32)
        d, _ = helix_data(n=101, t_range=(-2.0, 2.0))
        noise = 1e-8 * rng.standard_normal(d.c.points.shape)
        d2 = BjorlingData(
            c=SampledCurve(d.c.t_min, d.c.dt, d.c.points + noise),
            a=d.a, b=d.b)
        assert classify_special(d2).kind is SpecialCaseKind.HELIX
        dl = line_data(n=101)
        dl2 = BjorlingData(
            c=SampledCurve(dl.c.t_min, dl.c.dt,
                           dl.c.points + 1e-8 * rng.standard_normal(
                               dl.c.points.shape)),
            a=dl.a, b=dl.b)
        assert classify_special(dl2).kind is SpecialCaseKind.LIGHTLIKE_LINE


class TestRuledSolution:
    @staticmethod
    def line_with_n3(n3_fn, n=201, t_range=(-1.0, 1.0), J=(-1.0, 1.0), nJ=201):
        d = data_from_null_pair(
            lambda ts: np.stack([np.ones_like(ts), 0 * ts, 0 * ts], axis=1),
            lambda ts: np.tile([0.0, 0.0, 1.0], (ts.size, 1)),
            t_range=t_range, n=n)
        n3 = sample_curve(n3_fn, J, nJ, cls=SphereCurve)
        return d, n3

    def test_ruled_minimal(self):
        d, n3 = self.line_with_n3(
            lambda v: np.stack([0 * v, np.sin(v), np.cos(v)], axis=-1))
        surf = ruled_solution(d, n3)
        assert mean_curvature(surf).sup() <= 1e-5
        j0 = int(np.argmin(np.abs(surf.grid.vs)))
        c_exp = d.c.points
        assert np.abs(surf.grid.values[:, j0, :] - c_exp).max() <= 1e-6

    def test_constant_n3_plane(self):
        d, n3 = self.line_with_n3(
            lambda v: np.tile([0.0, 0.0, 1.0], (np.atleast_1d(v).size, 1)))
        surf = ruled_solution(d, n3)
        assert mean_curvature(surf).sup() <= 1e-10
        assert np.abs(np.diff(surf.grid.values, 2, axis=0)).max() <= 1e-10

    def test_crossing_n3_rejected(self):
        d, n3 = self.line_with_n3(
            lambda v: np.stack([np.sin(v), 0 * v, np.cos(v)], axis=-1),
            J=(-2.0, 2.0))
        with pytest.raises(DisjointnessViolated):
            ruled_solution(d, n3)

    def test_bad_seed(self):
        d, n3 = self.line_with_n3(
            lambda v: np.stack([0 * v, np.cos(v), np.sin(v)], axis=-1))
        with pytest.raises(InconsistentSeed):
            ruled_solution(d, n3)

    def test_not_a_line(self):
        _, d = critical_lift_data()
        n3 = sample_curve(
            lambda v: np.stack([0 * v, np.sin(v), np.cos(v)], axis=-1),
            (-1, 1), 101, cls=SphereCurve)
        with pytest.raises(BadData):
            ruled_solution(d, n3)


class TestSolve:
    def test_round_trip(self):
        surf, d = critical_lift_data()
        ext = ExtensionChoice.from_curve(sample_curve(
            lambda v: np.stack([0 * v, np.sin(v), np.cos(v)], axis=-1),
            (surf.grid.v_min, surf.grid.v_min + surf.grid.dv * (surf.grid.nv - 1)),
            surf.grid.nv, cls=SphereCurve))
        sol, rep = solve(d, ext)
        assert rep.passed
        assert rep.curve_sup <= 1e-6
        assert rep.projector_sup <= 1e-5
        assert rep.h_sup <= 1e-5
        assert np.abs(sol.grid.values - surf.grid.values).max() <= 1e-6

    def test_nonuniqueness(self):
        _, d = critical_lift_data()
        extA = ExtensionChoice.from_curve(sample_curve(
            lambda v: np.stack([0 * v, np.sin(v), np.cos(v)], axis=-1),
            (-1.0, 1.0), 201, cls=SphereCurve))
        extB = ExtensionChoice.from_curve(sample_curve(
            lambda v: np.stack([np.sin(v), 0 * v, np.cos(v)], axis=-1),
            (-1.0, 1.0), 201, cls=SphereCurve))
        solA, repA = solve(d, extA)
        solB, repB = solve(d, extB)
        assert repA.passed and repB.passed
        j0 = int(np.argmin(np.abs(solA.grid.vs)))
        on_curve = np.linalg.norm(
            solA.grid.values[:, j0] - solB.grid.values[:, j0], axis=-1).max()
        assert on_curve <= 1e-6
        dist = np.linalg.norm(solA.grid.values - solB.grid.values, axis=-1)
        far = np.abs(solA.grid.vs) >= 0.5
        assert dist[:, far].min() >= 0.1

    def test_default_extension(self):
        _, d = critical_lift_data()
        sol, rep = solve(d)
        assert rep.passed
        assert rep.extension_kind == "default"

    def test_incompatible_data(self):
        d = data_from_null_pair(
            lambda ts: np.stack([np.cos(ts), np.sin(ts), 0 * ts], axis=1),
            lambda ts: np.stack([0 * ts, np.sin(0.3 * ts),
                                 np.cos(0.3 * ts)], axis=1))
        with pytest.raises(IncompatibleData):
            solve(d)

    def test_helix_theta_profile_flat(self):
        d, th0 = helix_data()
        dec = decompose(d)
        vs = np.linspace(-0.6, 0.6, 121)
        theta = Grid2D(u_min=dec.alpha.t_min, v_min=float(vs[0]),
                       du=dec.alpha.dt, dv=float(vs[1] - vs[0]),
                       values=np.full((dec.alpha.n, vs.size), th0))
        sol, rep = solve(d, ExtensionChoice.from_theta(theta))
        assert rep.passed
        K = gaussian_curvature(sol)
        assert K.sup() <= 1e-4

    def test_normal_plane_checked_at_every_node(self, monkeypatch):
        # tilt e~ out of the solution's normal plane at node 1 of the v = 0
        # row only: the postcondition must see it wherever it sits
        from chebylift import bjorling
        from chebylift.lift import NormalFrame

        def tilted(s):
            fr = normal_frame(s)
            etilde = fr.etilde.copy()
            etilde[1, int(np.argmin(np.abs(s.grid.vs)))] += 0.1 * mk.D1
            return NormalFrame(etilde=etilde, e2=fr.e2,
                               degenerate=fr.degenerate)

        monkeypatch.setattr(bjorling, "normal_frame", tilted)
        d, _ = helix_data(n=201)
        _, rep = solve(d)
        assert not rep.passed
        assert rep.projector_sup > rep.tols["projector"]

    def test_extension_seed_mismatch(self):
        _, d = critical_lift_data()
        ext = ExtensionChoice.from_curve(sample_curve(
            lambda v: np.stack([0 * v, np.cos(v), np.sin(v)], axis=-1),
            (-1.0, 1.0), 101, cls=SphereCurve))
        with pytest.raises(ExtensionMismatch):
            solve(d, ext)


class TestReduceFromL3:
    def test_line_embedding(self):
        g = make_curve(lambda t: np.stack([t, t, 0 * t], axis=1), (-1, 1), 101)
        nrm = make_curve(lambda t: np.tile([0.0, 0.0, 1.0], (t.size, 1)),
                         (-1, 1), 101)
        d = reduce_from_l3(g, nrm)
        assert np.allclose(d.c.points[:, 3], 0.0)
        assert np.allclose(d.a.points, np.tile(mk.D2, (101, 1)))
        assert np.allclose(d.b.points, np.tile(mk.D3, (101, 1)))
        d.validate_structure()
        assert check_necessary(d).passed

    def test_normality_automatic(self):
        # 4th coordinate of c' vanishes, so <c', b> = 0 by construction
        g = make_curve(lambda t: np.stack([t, np.sin(t), 1 - np.cos(t)],
                                          axis=1), (-0.8, 0.8), 201)
        nhat = make_curve(lambda t: np.stack([0 * t, -np.sin(t), np.cos(t)],
                                             axis=1), (-0.8, 0.8), 201)
        d = reduce_from_l3(g, nhat)
        cp = np.gradient(d.c.points, d.c.dt, axis=0)
        assert np.abs(mk.inner(cp, d.b.points)).max() <= 1e-12

    def test_bad_data(self):
        g = make_curve(lambda t: np.stack([t, 2 * t, 0 * t], axis=1),
                       (-1, 1), 101)
        nrm = make_curve(lambda t: np.tile([0.0, 0.0, 1.0], (t.size, 1)),
                         (-1, 1), 101)
        with pytest.raises(BadData):
            reduce_from_l3(g, nrm)

    def test_end_to_end(self):
        # in-slice data extracted from a genuine minimal surface of L^3:
        # generators on the equator circle of S^2 keep e2 = +-d3 constant
        from chebylift.lift import build_minimal
        from chebylift.numerics import sample_curve as sc
        n0 = sc(lambda u: np.stack([np.cos(u), np.sin(u), 0 * u], axis=-1),
                (-0.5, 0.5), 401, cls=SphereCurve)
        psi = lambda v: np.pi / 2 + 0.3 * v
        n3 = sc(lambda v: np.stack([np.cos(psi(v)), np.sin(psi(v)), 0 * v],
                                   axis=-1), (-0.5, 0.5), 401, cls=SphereCurve)
        surf = build_minimal(n0, n3, np.zeros(4))
        fr = normal_frame(surf)
        j0 = int(np.argmin(np.abs(surf.grid.vs)))
        gamma = SampledCurve(surf.grid.u_min, surf.grid.du,
                             surf.grid.values[:, j0, :3].copy())
        nfield = SampledCurve(surf.grid.u_min, surf.grid.du,
                              fr.etilde[:, j0, :3].copy())
        d = reduce_from_l3(gamma, nfield)
        d.validate_structure()
        sol, rep = solve(d)
        assert rep.passed
        assert mean_curvature(sol).sup() <= 1e-5
