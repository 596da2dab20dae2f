import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from chebylift import minkowski as mk, numerics
from chebylift.errors import (
    BadGrid, BadSphereCurve, DegenerateAngle, NotRegular,
)
from chebylift.numerics import (
    STENCIL_WIDTH, Grid2D, SampledCurve, SphereCurve, _window_weights, cross,
    cumulative_integral, cumulative_samples, diff_samples, frenet,
    grid_from_ranges, partials, sample_curve, sup_check,
)


def scalar_grid(fn, u_range=(0.0, 1.0), v_range=(0.0, 1.0), n=121):
    us = np.linspace(*u_range, n)
    vs = np.linspace(*v_range, n)
    U, V = np.meshgrid(us, vs, indexing="ij")
    return grid_from_ranges(u_range, v_range, fn(U, V))


class TestTypes:
    def test_grid_validation(self):
        with pytest.raises(BadGrid):
            Grid2D(0, 0, 0.1, 0.1, np.zeros((2, 5)))
        with pytest.raises(BadGrid):
            Grid2D(0, 0, -0.1, 0.1, np.zeros((5, 5)))
        with pytest.raises(BadGrid):
            SampledCurve(0, 0.1, np.zeros((4, 3)))

    @pytest.mark.parametrize("h", [0.0, -0.1, np.inf, np.nan])
    def test_spacing_must_be_finite_positive(self, h):
        with pytest.raises(BadGrid):
            Grid2D(0, 0, h, 0.1, np.zeros((5, 5)))
        with pytest.raises(BadGrid):
            Grid2D(0, 0, 0.1, h, np.zeros((5, 5)))
        with pytest.raises(BadGrid):
            SampledCurve(0, h, np.zeros((5, 3)))

    def test_sphere_curve_validation(self):
        ts = np.linspace(0, 1, 11)
        good = np.stack([np.cos(ts), np.sin(ts), 0 * ts], axis=1)
        SphereCurve(0.0, 0.1, good)
        with pytest.raises(BadSphereCurve):
            SphereCurve(0.0, 0.1, 1.001 * good)
        with pytest.raises(BadSphereCurve):
            SphereCurve(0.0, 0.1, np.zeros((11, 4)))

    def test_base_index(self):
        c = SampledCurve(-0.5, 0.1, np.zeros((11, 3)))
        assert c.base_index() == 5
        g = Grid2D(-0.2, 0.3, 0.1, 0.1, np.zeros((5, 5)))
        assert g.base_index() == (2, 0)


class TestCumulativeIntegral:
    def test_constant_integrand(self):
        c = SampledCurve(0.0, 0.1, np.tile([0.0, 1.0, 0.0, 0.0], (11, 1)))
        I = cumulative_integral(c)
        assert np.allclose(I.points[-1], [0.0, 1.0, 0.0, 0.0])
        assert np.allclose(I.points[0], 0.0)

    def test_trig_antiderivative(self):
        c = sample_curve(
            lambda t: np.stack([np.cos(t), np.sin(t), 0 * t], axis=1),
            (0.0, np.pi / 2), 201)
        I = cumulative_integral(c)
        assert np.allclose(I.points[-1], [1.0, 1.0, 0.0], atol=1e-10)

    def test_integrate_then_differentiate(self):
        # exact on quadratics for both rules, so the identity is to rounding
        ts = np.linspace(0, 2, 21)
        c = SampledCurve(0.0, ts[1] - ts[0],
                         np.stack([3 * ts**2, ts + 1, 0 * ts], axis=1))
        I = cumulative_integral(c)
        back = diff_samples(I.points, c.dt, 1)
        assert np.abs(back - c.points).max() < 1e-8

    def test_fourth_order_decay(self):
        errs = []
        for n in (51, 101, 201):
            c = sample_curve(lambda t: np.stack([np.sin(3 * t)], axis=1),
                             (0.0, 1.0), n)
            I = cumulative_integral(c)
            exact = (1 - np.cos(3 * c.ts)) / 3.0
            errs.append(np.abs(I.points[:, 0] - exact).max())
        assert errs[0] / errs[1] > 12
        assert errs[1] / errs[2] > 12

    def test_four_nodes_at_least(self):
        # the 4-point rules are exact on cubics; fewer nodes have no rule
        t = np.arange(4.0)
        assert np.array_equal(cumulative_samples(t**3, 1.0), t**4 / 4.0)
        for n in (2, 3):
            with pytest.raises(BadGrid):
                cumulative_samples(np.ones(n), 0.1)

    def test_base_shift(self):
        c = sample_curve(lambda t: np.stack([np.exp(t)], axis=1), (-1.0, 1.0), 201)
        I = cumulative_integral(c)
        mid = c.base_index()
        assert abs(c.ts[mid]) < 1e-12
        assert np.allclose(I.points[mid], 0.0)
        exact = np.exp(c.ts) - 1.0
        assert np.abs(I.points[:, 0] - exact).max() < 1e-8


class TestPartials:
    def test_sin_field(self):
        g = scalar_grid(lambda u, v: np.sin(u), n=1001, u_range=(0, 1))
        got = partials(g, "u")
        U = np.tile(g.us[:, None], (1, g.nv))
        assert np.abs(got - np.cos(U)).max() < 1e-6

    def test_mixed_partial_bilinear(self):
        g = scalar_grid(lambda u, v: u * v)
        assert np.abs(partials(g, "uv") - 1.0).max() < 1e-9

    def test_constant_field(self):
        g = scalar_grid(lambda u, v: 0 * u + 3.0)
        # second-derivative stencils leave eps/h^2 rounding residue
        for which in ("u", "v", "uu", "vv", "uv"):
            assert np.abs(partials(g, which)).max() < 1e-10

    def test_quadratics_exact(self):
        g = scalar_grid(lambda u, v: 2 * u**2 - u * v + 3 * v**2 + u - 7)
        U, V = np.meshgrid(g.us, g.vs, indexing="ij")
        for which, exact in [("u", 4 * U - V + 1), ("v", -U + 6 * V),
                             ("uu", 4.0 + 0 * U), ("vv", 6.0 + 0 * U),
                             ("uv", -1.0 + 0 * U)]:
            assert np.abs(partials(g, which) - exact).max() < 1e-9

    def test_vector_payload(self):
        us = np.linspace(0, 1, 31)
        U, V = np.meshgrid(us, us, indexing="ij")
        vals = np.stack([U * V, U**2, V**2], axis=-1)
        g = grid_from_ranges((0, 1), (0, 1), vals)
        gu = partials(g, "u")
        assert np.abs(gu[..., 0] - V).max() < 1e-9
        assert np.abs(gu[..., 1] - 2 * U).max() < 1e-9

    def test_unknown_kind(self):
        with pytest.raises(BadGrid):
            partials(scalar_grid(lambda u, v: u), "w")


class TestDiffSamples:
    def test_constant_exact(self):
        # stencils are applied to differences of samples, so the derivative
        # of constant data is 0.0, with no rounding residue to amplify
        for n in (4, 5, 6, 9, 101):
            y = np.full((n, 7, 2), np.pi / 4)
            for order in (1, 2, 3):
                for axis in (0, 1):
                    d = diff_samples(y, 0.013, order, axis=axis)
                    assert d.shape == y.shape
                    assert np.all(d == 0.0)

    @pytest.mark.parametrize("h, order", [(0.0, 1), (-0.1, 1), (np.nan, 1),
                                          (np.inf, 1), (0.1, 0), (0.1, -1)])
    def test_bad_spacing_or_order_raises(self, h, order):
        with pytest.raises(BadGrid):
            diff_samples(np.arange(9.0) ** 2, h, order)


def _reference_apply_at(y, width, at, order, h, start, count):
    """The unblocked stencil kernel: one pass over all rows at once."""
    wts = _window_weights(width, at, order)
    scale = h ** -order
    rows = lambda j: y[start + j:start + j + count]
    ref = rows(at)
    if 2 * at + 1 != width:
        terms = ((wts[j], np.subtract(rows(j), ref))
                 for j in range(width) if j != at)
    elif order % 2:
        terms = ((0.5 * (wts[at + k] - wts[at - k]),
                  np.subtract(rows(at + k), rows(at - k)))
                 for k in range(1, at + 1))
    else:
        def pair(k):
            t = np.subtract(rows(at + k), ref)
            t += rows(at - k)
            t -= ref
            return t
        terms = ((0.5 * (wts[at + k] + wts[at - k]), pair(k))
                 for k in range(1, at + 1))
    acc = None
    for wt, diff in terms:
        diff *= wt * scale
        if acc is None:
            acc = diff
        else:
            acc += diff
    return acc


def reference_diff_samples(values, h, order, axis=0):
    """``diff_samples`` with the differenced axis moved to the front and
    full-size temporaries: the oracle the blocked kernel must equal."""
    y = np.moveaxis(np.asarray(values, dtype=float), axis, 0)
    n = y.shape[0]
    w = min(STENCIL_WIDTH, n)
    if w <= order:
        raise BadGrid(f"need more than {order} nodes for order-{order} derivatives")
    c = (w - 1) // 2
    s = n - w
    out = np.empty_like(y)
    out[c:s + c + 1] = _reference_apply_at(y, w, c, order, h, 0, s + 1)
    wb = min(max(w, order + 3), n)
    sb = n - wb
    for i in range(c):
        out[i] = _reference_apply_at(y, wb, i, order, h, 0, 1)[0]
    for i in range(s + c + 1, n):
        out[i] = _reference_apply_at(y, wb, i - sb, order, h, sb, 1)[0]
    return np.moveaxis(out, 0, axis)


ORACLE_SHAPES = {
    "n": lambda n: (n,), "n-3": lambda n: (n, 3), "n-n": lambda n: (n, n),
    "n-n-3": lambda n: (n, n, 3), "n-n-4": lambda n: (n, n, 4),
    "n-5-4": lambda n: (n, 5, 4), "5-n-4": lambda n: (5, n, 4),
    # slabs larger than a block: runs of rows within each of several slabs
    "3-n-n": lambda n: (3, n, n),
}


def assert_matches_reference(shape, seed):
    """Every axis in (0, 1, -1), order 1-3, on the contiguous array, its
    transpose and its ``[..., 1:]`` view: the blocked kernel equals the
    reference bit for bit, or both raise ``BadGrid``."""
    base = np.random.default_rng(seed).standard_normal(shape)
    views = [base] + ([base.T, base[..., 1:]] if base.ndim > 1 else [])
    for y in views:
        for axis in (0, 1, -1):
            if axis >= y.ndim:
                continue
            for order in (1, 2, 3):
                try:
                    want = reference_diff_samples(y, 0.013, order, axis)
                except BadGrid:
                    with pytest.raises(BadGrid):
                        diff_samples(y, 0.013, order, axis)
                    continue
                got = diff_samples(y, 0.013, order, axis)
                assert got.shape == y.shape
                assert np.array_equal(got, want), (y.shape, axis, order)


class TestBlockedKernel:
    @pytest.mark.parametrize("n", [5, 6, 8, 201])
    @pytest.mark.parametrize("shape", list(ORACLE_SHAPES))
    def test_matches_unblocked_reference(self, shape, n):
        assert_matches_reference(ORACLE_SHAPES[shape](n), seed=n)

    @pytest.mark.parametrize("n", [5, 6, 8, 13])
    def test_small_blocks_match_reference(self, n, monkeypatch):
        # blocks of 96 bytes: many runs of rows and of slabs, and short
        # last runs, on every shape
        monkeypatch.setattr(numerics, "_BLOCK_BYTES", 96)
        for make in ORACLE_SHAPES.values():
            assert_matches_reference(make(n), seed=n)

    def test_axis_out_of_range_raises(self):
        y = np.zeros((9, 9))
        for axis in (2, -3):
            with pytest.raises(BadGrid):
                diff_samples(y, 0.1, 1, axis=axis)
        assert np.array_equal(diff_samples(y, 0.1, 1, axis=-2),
                              diff_samples(y, 0.1, 1, axis=0))

    @pytest.mark.parametrize("axis", [0, 1])
    def test_transient_memory_is_one_output(self, axis):
        # the unblocked kernel peaks at about three outputs
        y = np.random.default_rng(4).standard_normal((401, 401, 4))
        diff_samples(y, 0.01, 1, axis)          # window weights cached
        tracemalloc.start()
        try:
            diff_samples(y, 0.01, 1, axis)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= y.nbytes + 4 * numerics._BLOCK_BYTES

    def test_cross_equals_np_cross(self):
        rng = np.random.default_rng(5)
        for n in (7, 201, 401):
            a, b = rng.standard_normal((2, n, n, 4))
            for x, y in [(a[..., :3].copy(), b[..., :3].copy()),
                         (a[..., 1:], b[..., 1:]),
                         (a[::2, :, 1:], b[::2, :, 1:]),
                         (a[..., 1:].transpose(1, 0, 2), b[..., 1:])]:
                assert np.array_equal(cross(x, y), np.cross(x, y))
        with pytest.raises(BadGrid):
            cross(np.zeros((5, 3)), np.zeros((4, 3)))


class TestFrenet:
    def test_straight_line_degenerate(self):
        c = sample_curve(lambda t: np.stack([t, 0 * t, 0 * t], axis=1),
                         (0.0, 1.0), 21)
        fr = frenet(c)
        assert np.all(fr.degenerate)
        assert np.abs(fr.kappa).max() < 1e-10

    def test_unit_circle(self):
        c = sample_curve(
            lambda t: np.stack([np.cos(t), np.sin(t), 0 * t], axis=1),
            (0.0, np.pi), 201)
        fr = frenet(c)
        speed = np.linalg.norm(diff_samples(c.points, c.dt, 1), axis=1)
        assert np.abs(speed - 1.0).max() < 1e-6
        assert np.abs(fr.kappa - 1.0).max() < 1e-6
        assert np.abs(fr.tor).max() < 1e-6

    def test_helix(self):
        r2 = np.sqrt(2.0)
        c = sample_curve(
            lambda t: np.stack([np.cos(t / r2), np.sin(t / r2), t / r2], axis=1),
            (-1.0, 1.0), 2001)
        fr = frenet(c)
        assert np.abs(fr.kappa - 0.5).max() < 1e-5
        assert np.abs(fr.tor - 0.5).max() < 1e-5

    def test_frame_orthonormal(self):
        c = sample_curve(
            lambda t: np.stack([np.cos(t), np.sin(t), np.sin(2 * t) / 4],
                               axis=1), (0.0, 2.0), 401)
        fr = frenet(c)
        assert np.abs(np.linalg.norm(fr.T, axis=1) - 1).max() < 1e-8
        for x, y in [(fr.T, fr.N), (fr.T, fr.B), (fr.N, fr.B)]:
            assert np.abs(np.einsum("ij,ij->i", x, y)).max() < 1e-6
        handed = np.einsum("ij,ij->i", np.cross(fr.T, fr.N), fr.B)
        assert np.abs(handed - 1.0).max() < 1e-6

    def test_not_regular(self):
        with pytest.raises(NotRegular):
            frenet(sample_curve(
                lambda t: np.stack([t**3, 0 * t, 0 * t], axis=1), (-1, 1), 21))


class TestNorms:
    def test_sup_check_of_vectors(self):
        vals = np.zeros((3, 4, 2))
        vals[1, 2] = [-3.0, 4.0]
        vals[0, 0] = [0.0, -7.0]
        keep = np.ones((3, 4), dtype=bool)
        assert sup_check("s", vals, np.inf).value == 7.0
        keep[0, 0] = False
        assert sup_check("s", vals, np.inf, keep=keep).value == 5.0
        assert sup_check("s", -vals[..., 0], np.inf, keep=keep).value == 3.0
        chk = sup_check("s", vals, np.inf, keep=keep)
        assert chk.where[0] == (1, 2)
        assert chk.masked == 1

    @pytest.mark.parametrize("k", [3, 4])
    def test_vector_norm_equals_linalg_norm(self, k):
        # the component squares summed in index order are what
        # np.linalg.norm(x, axis=-1) sums, so the two agree bit for bit,
        # on C-contiguous and on component-major layouts
        rng = np.random.default_rng(k)
        x = rng.standard_normal((201, 201, k)) * 10.0 ** rng.integers(
            -140, 140, (201, 201, 1))
        x[0, 0] = 0.0
        x[0, 1] = -0.0
        x[0, 2, 0] = np.finfo(float).tiny
        want = np.linalg.norm(x, axis=-1)
        assert np.array_equal(numerics._vector_norm(x), want)
        major = np.ascontiguousarray(np.moveaxis(x, -1, 0))
        assert np.array_equal(
            numerics._vector_norm(np.moveaxis(major, 0, -1)), want)

    def test_sup_check_over_no_node_raises(self):
        # a sup over an empty set is no evidence of a small residual
        with pytest.raises(DegenerateAngle, match="no node is left"):
            sup_check("s", np.ones((5, 5)), np.inf,
                      keep=np.zeros((5, 5), dtype=bool))


def reference_form_sups(g, names, targets, tols, band=0):
    """The checks of ``_form_sups`` by the full-grid formula: whole-grid
    partials, their einsum (k = 3) or ``mk.inner`` (k = 4), then
    ``sup_check`` over the nodes ``band`` rows in from each edge."""
    fu, fv = partials(g, "u"), partials(g, "v")
    inner = (mk.inner if g.values.shape[2] == 4
             else lambda a, b: np.einsum("ijk,ijk->ij", a, b))
    keep = None
    if band:
        keep = np.zeros((g.nu, g.nv), dtype=bool)
        keep[band:-band, band:-band] = True
    return tuple(sup_check(name, inner(a, b) - t, tol, keep=keep,
                           axes=(g.us, g.vs))
                 for name, (a, b), t, tol in zip(
                     names, ((fu, fu), (fv, fv), (fu, fv)), targets, tols))


def check_bits(checks) -> list:
    """The checks with each value as its bytes, so that NaNs compare."""
    return [(c.name, np.float64(c.value).tobytes(), c.tol, c.where, c.masked)
            for c in checks]


def assert_form_sups_match(g, targets, band, slab_rows):
    """``_form_sups`` in slabs of ``slab_rows`` rows against the full-grid
    reference: the same checks bit for bit, or the same error."""
    names, tols = ("a", "b", "c"), (1e-6, 2.0, np.inf)
    k = g.values.shape[2]
    with pytest.MonkeyPatch.context() as mp, np.errstate(all="ignore"):
        mp.setattr(numerics, "_BLOCK_BYTES",
                   8 * max(g.nv - 2 * band, 1) * k * slab_rows)
        try:
            want = reference_form_sups(g, names, targets, tols, band)
        except DegenerateAngle:
            with pytest.raises(DegenerateAngle, match="no node is left"):
                numerics._form_sups(g, names, targets, tols, band)
            return None
        got = numerics._form_sups(g, names, targets, tols, band)
    assert check_bits(got) == check_bits(want)
    return want


class TestFormSups:
    """The one-pass metric checks against whole-grid partials."""

    @settings(derandomize=True, database=None, max_examples=80,
              deadline=None)
    @given(nu=st.integers(3, 40), nv=st.integers(3, 40),
           k=st.sampled_from([3, 4]), band=st.sampled_from([0, 2]),
           nodewise=st.booleans(), slab_rows=st.integers(1, 9),
           seed=st.integers(0, 2**32 - 1))
    # 11 band rows in slabs of 2: a last slab of one row
    @example(nu=15, nv=9, k=4, band=2, nodewise=True, slab_rows=2, seed=0)
    @example(nu=11, nv=23, k=3, band=0, nodewise=False, slab_rows=2, seed=1)
    def test_matches_full_grid_reference(self, nu, nv, k, band, nodewise,
                                         slab_rows, seed):
        rng = np.random.default_rng(seed)
        g = Grid2D(0.3, -1.2, 0.05, 0.07, rng.standard_normal((nu, nv, k)))
        t = rng.standard_normal((nu, nv)) if nodewise else rng.normal()
        assert_form_sups_match(g, (t, 1.0, t), band, slab_rows)

    @pytest.mark.parametrize("k", [3, 4])
    @pytest.mark.parametrize("band", [0, 2])
    def test_ties_resolve_to_the_first_node(self, k, band):
        # constant samples: f_u = f_v = 0 exactly, so every residual is
        # the constant target and every node of every slab ties
        g = Grid2D(0.0, 0.0, 0.1, 0.1, np.full((13, 8, k), 0.7))
        for targets in ((1.0, -2.0, 0.5), (np.full((13, 8), 3.0),) * 3):
            want = assert_form_sups_match(g, targets, band, 3)
            assert all(c.where[0] == (band, band) for c in want)

    @pytest.mark.parametrize("k", [3, 4])
    @pytest.mark.parametrize("band", [0, 2])
    def test_overflow_is_located_where_sup_check_locates_it(self, k, band):
        # samples near the float limit overflow the stencils and products:
        # inf residuals that tie, and for k = 4 NaNs (-inf + inf) in
        # several slabs
        vals = np.random.default_rng(k).standard_normal((17, 12, k))
        vals[6, 5, 1] = 1.7e308
        vals[11, 3, 0] = -1.7e308
        vals[12, 8] = 1e200
        g = Grid2D(0.0, 0.0, 0.1, 0.1, vals)
        for slab_rows in (1, 4, 17):
            want = assert_form_sups_match(g, (0.0, 0.0, 0.0), band,
                                          slab_rows)
            assert not all(np.isfinite(c.value) for c in want)

    def test_band_that_keeps_no_node_raises(self):
        g = Grid2D(0.0, 0.0, 0.1, 0.1, np.ones((4, 30, 4)))
        with pytest.raises(DegenerateAngle, match="no node is left"):
            numerics._form_sups(g, ("a", "b", "c"), (0.0,) * 3, (np.inf,) * 3,
                                band=2)

    def test_payloads_other_than_3_or_4_vectors_raise(self):
        for vals in (np.ones((6, 6)), np.ones((6, 6, 2))):
            with pytest.raises(BadGrid, match="3- or 4-vectors"):
                numerics._form_sups(Grid2D(0.0, 0.0, 0.1, 0.1, vals),
                                    ("a", "b", "c"), (0.0,) * 3,
                                    (np.inf,) * 3)


class TestRowFormSups:
    """The metric checks of a grid that is the outer sum of two rows, read
    off the rows, against the same grid differenced."""

    @settings(derandomize=True, database=None, max_examples=60,
              deadline=None)
    @given(nu=st.integers(5, 40), nv=st.integers(5, 40),
           k=st.sampled_from([3, 4]), band=st.sampled_from([0, 2]),
           nodewise=st.booleans(), slab_rows=st.integers(1, 9),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_the_differenced_grid(self, nu, nv, k, band, nodewise,
                                          slab_rows, seed):
        rng = np.random.default_rng(seed)
        a, b = rng.standard_normal((nu, k)), rng.standard_normal((nv, k))
        h = 0.05
        g = Grid2D(0.3, -1.2, h, h, a[:, None, :] + b[None, :, :])
        t = rng.standard_normal((nu, nv)) if nodewise else rng.normal()
        names, targets, tols = ("a", "b", "c"), (0.5, -1.0, t), (1.0,) * 3
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(numerics, "_BLOCK_BYTES",
                       8 * max(nv - 2 * band, 1) * slab_rows)
            got = numerics._form_sups(g, names, targets, tols, band,
                                      rows=(a, b))
        want = numerics._form_sups(g, names, targets, tols, band)
        # each grid value is rounded once, by at most eps/2 max|f|; the
        # stencils amplify that by W / h per component (W = 128/12, the
        # one-sided sum of |weights|), an inner product by 2 max|f_u|,
        # and the products round at eps k (max|f_u|^2 + max|t|) each
        eps = np.finfo(float).eps
        fmax = max(np.linalg.norm(diff_samples(r, h, 1), axis=1).max()
                   for r in (a, b))
        tol = (2.0 * fmax * np.sqrt(k) * (128.0 / 12.0) * 0.5 * eps
               * np.abs(g.values).max() / h
               + 8.0 * k * eps * (fmax**2 + np.abs(t).max() + 1.0))
        for c, w in zip(got, want):
            assert (c.name, c.tol, c.masked) == (w.name, w.tol, w.masked)
            assert abs(c.value - w.value) <= tol
        # f_u depends on u alone and f_v on v: the first maximum in
        # row-major order sits in the band's first column, or first row
        assert got[0].where[0][1] == band and got[1].where[0][0] == band

    @pytest.mark.parametrize("k", [3, 4])
    @pytest.mark.parametrize("band", [0, 2])
    def test_ties_resolve_to_the_first_node(self, k, band):
        # constant rows: f_u = f_v = 0 exactly, so every residual is the
        # constant target, as on the differenced grid
        rows = (np.full((13, k), 0.3), np.full((8, k), 0.4))
        g = Grid2D(0.0, 0.0, 0.1, 0.1, rows[0][:, None] + rows[1][None])
        for targets in ((1.0, -2.0, 0.5), (1.0, -2.0, np.full((13, 8), 3.0))):
            got = numerics._form_sups(g, ("a", "b", "c"), targets,
                                      (1.0,) * 3, band, rows=rows)
            want = numerics._form_sups(g, ("a", "b", "c"), targets,
                                       (1.0,) * 3, band)
            assert check_bits(got) == check_bits(want)
            assert all(c.where[0] == (band, band) for c in got)
