import copy
import math
import pickle

import numpy as np
import pytest

from chebylift.bjorling import (ExtensionChoice, reduce_from_l3, solve,
                                solve_pq)
from chebylift.chebnet import (NetSurface, build_first_kind,
                               check_disjointness, equivalent_immersion,
                               euclidean_shape, gallery, is_chebyshev)
from chebylift.errors import (BadData, BadGrid, BadInput, BadSphereCurve,
                              Check, ChebyliftError, EmptyOverlap,
                              ExtensionMismatch, IncompatibleData, NotMinimal,
                              Report)
from chebylift.lift import (LiftSurface, build_minimal, gaussian_curvature,
                            lift_net)
from chebylift.numerics import (Grid2D, SampledCurve, SphereCurve, frenet,
                                sup_check)


class TestCheck:
    def test_passes_at_its_tolerance(self):
        assert Check("x", 1e-6, 1e-6).passed
        assert not Check("x", 1.5e-6, 1e-6).passed

    def test_nan_fails(self):
        assert not Check("x", math.nan, 1.0).passed
        assert not Check("x", math.nan).passed

    def test_inf_fails_even_an_unbounded_check(self):
        assert math.isinf(Check("x", 1.0).tol)
        assert Check("x", 1e300).passed
        assert not Check("x", math.inf).passed

    def test_sup_check_of_nan_fails_at_the_nan(self):
        vals = np.zeros((4, 5))
        vals[2, 3] = np.nan
        chk = sup_check("s", vals, axes=(np.arange(4.0), 10 + np.arange(5.0)))
        assert math.isnan(chk.value) and not chk.passed
        assert chk.where == ((2, 3), (2.0, 13.0))

    def test_message_names_value_tolerance_node_and_mask(self):
        chk = Check("h_sup", 2e-3, 1e-5, ((4, 7), (0.25, -0.5)), 3)
        s = str(chk)
        for part in ("h_sup", "2.000e-03", "1e-05", "(4, 7)", "0.25", "-0.5",
                     "3 nodes masked"):
            assert part in s


class TestReport:
    rep = Report((Check("a", 1.0, 2.0), Check("b", 3.0)), {"orientation": "ab"})

    def test_lookup(self):
        assert self.rep.a == 1.0 and self.rep.b == 3.0
        assert self.rep["a"] == Check("a", 1.0, 2.0)
        assert self.rep.orientation == "ab"
        assert self.rep.passed
        assert not Report((Check("a", 3.0, 2.0),)).passed

    def test_unknown_name(self):
        with pytest.raises(AttributeError):
            self.rep.missing
        with pytest.raises(KeyError):
            self.rep["missing"]
        assert not hasattr(self.rep, "missing")
        assert not hasattr(self.rep, "__missing_dunder__")

    def test_copy_and_pickle(self):
        assert copy.copy(self.rep) == self.rep
        assert copy.deepcopy(self.rep) == self.rep
        assert pickle.loads(pickle.dumps(self.rep)) == self.rep


class TestErrorCarriesCheck:
    def test_check_kept_and_printed(self):
        chk = Check("sup_dn3", 0.2, 1e-5, ((3,), (0.1,)))
        err = IncompatibleData("n3 varies along the curve", chk)
        assert err.check is chk
        assert str(err) == f"n3 varies along the curve: {chk}"
        assert isinstance(err, ChebyliftError)

    def test_without_check(self):
        err = NotMinimal("plain message")
        assert err.check is None and str(err) == "plain message"


def curve(fn, n=21):
    ts = np.linspace(-1.0, 1.0, n)
    return SampledCurve(t_min=-1.0, dt=float(ts[1] - ts[0]),
                        points=np.asarray(fn(ts), dtype=float))


def grid(values, u_min=0.0):
    return Grid2D(u_min=u_min, v_min=0.0, du=1.0, dv=1.0, values=values)


LINE = lambda t: np.stack([t, t, 0 * t], axis=1)         # lightlike in L^3
UP = lambda t: np.tile([0.0, 0.0, 1.0], (t.size, 1))   # unit normal to it


def axis(k, n=11):
    """The constant sphere curve at the k-th unit vector of E."""
    return SphereCurve(-1.0, 0.2, np.tile(np.eye(3)[k], (n, 1)))


def unknown_extension_kind():
    from test_bjorling import helix_data
    solve(helix_data(n=101)[0], ExtensionChoice(curve="bogus"))


def extension_not_a_choice():
    from test_bjorling import helix_data
    solve(helix_data(n=101)[0], axis(2))


def off_sphere(vec, n=11):
    """The constant curve at ``vec``, a SampledCurve off the unit sphere."""
    return SampledCurve(-1.0, 0.2, np.tile(vec, (n, 1)))


def theta_profile(values):
    return Grid2D(u_min=-1.0, v_min=-1.0, du=0.2, dv=0.2, values=values)


#: (call, error type, message) of guards that no other test raises
GUARDS = {
    "grid_ndim": (lambda: grid(np.zeros(5)), BadGrid,
                  "grid payload must be"),
    "grid_nan": (lambda: grid(np.full((4, 4), np.nan)), BadGrid,
                 "grid values must be finite"),
    "grid_nan_u_min": (lambda: grid(np.zeros((4, 4)), np.nan), BadGrid,
                       "grid nodes must be finite"),
    "grid_inf_v_min": (lambda: Grid2D(0.0, -np.inf, 1.0, 1.0,
                                      np.zeros((4, 4))),
                       BadGrid, "grid nodes must be finite"),
    # the last u node, 1e308 + 3e308, overflows
    "grid_axis_overflow": (lambda: Grid2D(1e308, 0.0, 1e308, 1.0,
                                          np.zeros((4, 4))),
                           BadGrid, "grid nodes must be finite"),
    "curve_inf_t_min": (lambda: SampledCurve(np.inf, 0.1, np.zeros((5, 3))),
                        BadGrid, "curve nodes must be finite"),
    "sphere_curve_inf_t_min": (lambda: SphereCurve(
        -np.inf, 0.1, np.tile([1.0, 0.0, 0.0], (5, 1))),
        BadGrid, "curve nodes must be finite"),
    "curve_axis_overflow": (lambda: SampledCurve(
        1e308, 1e308, np.zeros((5, 3))), BadGrid,
        "curve nodes must be finite"),
    "curve_ndim": (lambda: SampledCurve(0.0, 0.1, np.zeros(9)), BadGrid,
                   "curve points must be a (n, k) array"),
    "curve_inf": (lambda: curve(lambda t: np.stack(
        [t, np.where(t > 0.5, np.inf, t)], axis=1)),
        BadGrid, "curve points must be finite"),
    "frenet_4d": (lambda: frenet(curve(lambda t: np.stack([t] * 4, axis=1))),
                  BadGrid, "frenet expects a curve in E"),
    "shape_4d": (lambda: euclidean_shape(NetSurface(
        grid(np.zeros((5, 5, 4))), np.zeros((5, 5)))), BadGrid,
        "euclidean_shape expects a grid of E-points"),
    "is_chebyshev_4d": (lambda: is_chebyshev(grid(np.zeros((5, 5, 4)))),
                        BadGrid, "is_chebyshev expects a grid of E-points"),
    "direction": (lambda: equivalent_immersion(grid(np.zeros((5, 5))), "up"),
                  BadGrid, "unknown direction 'up'"),
    "route": (lambda: gaussian_curvature(
        lift_net(gallery("critical", 11, 11).net), route="other"),
        BadGrid, "unknown route 'other'"),
    "gallery": (lambda: gallery("torus"), BadGrid,
                "unknown gallery entry 'torus'"),
    "l3_components": (lambda: reduce_from_l3(
        curve(lambda t: np.stack([t, t, 0 * t, 0 * t], axis=1)), curve(UP)),
        BadData, "curves in R^3_1 (3 components)"),
    "l3_grid": (lambda: reduce_from_l3(curve(LINE), curve(UP, n=31)),
                BadData, "share their sample grid"),
    "l3_time": (lambda: reduce_from_l3(
        curve(lambda t: np.stack([-t, t, 0 * t], axis=1)), curve(UP)),
        BadData, "gamma0'(t) must be positive"),
    "l3_unit": (lambda: reduce_from_l3(curve(LINE),
                                       curve(lambda t: 2.0 * UP(t))),
                BadData, "n is not unit spacelike"),
    "l3_normal": (lambda: reduce_from_l3(curve(LINE), curve(
        lambda t: np.tile([0.0, 1.0, 0.0], (t.size, 1)))),
        BadData, "n is not normal to gamma'"),
    "extension_kind": (unknown_extension_kind, ExtensionMismatch,
                       "an extension is one SphereCurve or one scalar"),
    "extension_no_curve": (lambda: ExtensionChoice("sphere_curve"),
                           ExtensionMismatch, "an extension is one"),
    "extension_empty": (lambda: ExtensionChoice(), ExtensionMismatch,
                        "an extension is one"),
    "extension_both": (lambda: ExtensionChoice(
        axis(2), theta_profile(np.zeros((11, 11)))), ExtensionMismatch,
        "an extension is one"),
    "extension_4d_curve": (lambda: ExtensionChoice.from_curve(
        off_sphere([0.0, 0.0, 0.0, 1.0])), ExtensionMismatch,
        "an extension is one"),
    "extension_vector_theta": (lambda: ExtensionChoice.from_theta(
        theta_profile(np.zeros((11, 11, 3)))), ExtensionMismatch,
        "scalar Grid2D theta profile"),
    "extension_not_a_choice": (extension_not_a_choice, ExtensionMismatch,
                               "ExtensionChoice or None, not SphereCurve"),
    "disjointness_off_sphere": (lambda: check_disjointness(
        off_sphere([0.5, 0.0, 0.0]), off_sphere([0.5, 0.0, 0.0])),
        BadSphereCurve, "check_disjointness needs two SphereCurves"),
    "disjointness_4d": (lambda: check_disjointness(
        off_sphere(np.zeros(4)), off_sphere(np.zeros(4))),
        BadSphereCurve, "check_disjointness needs two SphereCurves"),
    "first_kind_off_sphere": (lambda: build_first_kind(
        off_sphere([2.0, 0.0, 0.0]), off_sphere([0.0, 3.0, 0.0]),
        np.zeros(3)), BadSphereCurve, "needs two SphereCurves"),
    "minimal_off_sphere": (lambda: build_minimal(
        axis(0), off_sphere([0.0, 0.0, 3.0]), np.zeros(4)),
        BadSphereCurve, "needs two SphereCurves"),
    "net_F_shape": (lambda: NetSurface(grid(np.zeros((5, 5, 3))),
                                       np.zeros((4, 4))),
                    BadGrid, "F must have the grid's shape"),
    "lift_g12_shape": (lambda: LiftSurface(
        grid(np.zeros((9, 9, 4))), np.ones((9, 9)), np.zeros((8, 8))),
        BadGrid, "theta and g12 must have the grid's shape"),
    "lift_theta_shape": (lambda: LiftSurface(
        grid(np.zeros((9, 9, 4))), np.ones(9), np.zeros((9, 9))),
        BadGrid, "theta and g12 must have the grid's shape"),
    "pq_lengths": (lambda: solve_pq(theta_profile(np.ones((10, 5))),
                                    np.ones(9), np.ones(9)),
                   BadInput, "kappa and tor need one entry per u-node"),
    "pq_vector_theta": (lambda: solve_pq(theta_profile(np.ones((10, 5, 3))),
                                         np.ones(10), np.ones(10)),
                        BadInput, "kappa and tor need one entry per u-node"),
    "margin_nan": (lambda: check_disjointness(axis(0), axis(0), np.nan),
                   BadInput, "margin must be finite and >= 0"),
    "margin_inf": (lambda: check_disjointness(axis(0), axis(1), np.inf),
                   BadInput, "margin must be finite and >= 0"),
    "margin_negative": (lambda: check_disjointness(axis(0), axis(0), -1e-3),
                        BadInput, "margin must be finite and >= 0"),
    "p0_4d": (lambda: build_first_kind(axis(0), axis(1), np.zeros(4)),
              BadInput, "p0 must be a finite 3-vector"),
    "p0_scalar": (lambda: build_first_kind(axis(0), axis(1), 0.0),
                  BadInput, "p0 must be a finite 3-vector"),
    "p0_row": (lambda: build_first_kind(axis(0), axis(1), np.zeros((1, 3))),
               BadInput, "p0 must be a finite 3-vector"),
    "p0_nan": (lambda: build_first_kind(axis(0), axis(1),
                                        [0.0, np.nan, 0.0]),
               BadInput, "p0 must be a finite 3-vector"),
    # us[-1] - us[0] rounds to 0 at u_min = 1e20, du = 1
    "overlap": (lambda: equivalent_immersion(grid(np.zeros((4, 4)), 1e20)),
                EmptyOverlap, "inscribed rectangle degenerates"),
}


@pytest.mark.parametrize("name", GUARDS)
def test_guard_raises(name):
    call, error, message = GUARDS[name]
    with pytest.raises(error) as err:
        call()
    assert message in str(err.value)
