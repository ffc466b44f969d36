"""Charts, stencils, quadrature, partitions of unity, overlap sampling."""

import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ncym.errors import GluingError, ShapeError, SingularMetric
from ncym.geometry import (
    BaseMetric,
    adjoint_partial_derivative,
    build_sphere_two_charts,
    build_torus,
    derivatives,
    flat_metric,
    grid_points,
    integrate,
    interp_chart,
    overlap_round_trip,
    partial_derivative,
    round_sphere_metric,
    row_slabs,
    sampling_operator,
)
from ncym.geometry import _apply_along_axis, _radial_profile, _spd_inverse
from ncym.geometry import diff_matrix
import ncym.geometry as geometry


def test_torus_volume_exact():
    man = build_torus(2, 16)
    g = flat_metric(man)
    vol = integrate(man, g.sqrt_det)
    assert abs(vol - (2 * np.pi) ** 2) < 1e-12


def test_torus_sin_integrates_to_zero():
    man = build_torus(2, 16)
    g = flat_metric(man)
    x = grid_points(man.charts[0])
    assert abs(integrate(man, {"t0": np.sin(x[..., 0]) * g.sqrt_det["t0"]})) < 1e-12


def test_sphere4_volume_within_2_percent():
    man = build_sphere_two_charts(4, 16, 1.0)
    g = round_sphere_metric(man)
    vol = integrate(man, g.sqrt_det)
    exact = 8.0 * np.pi**2 / 3.0
    assert abs(vol - exact) / exact < 0.02


def test_sphere2_volume_converges():
    exact = 4.0 * np.pi
    errs = []
    for n in (16, 32):
        man = build_sphere_two_charts(2, n, 1.0)
        g = round_sphere_metric(man)
        errs.append(abs(integrate(man, g.sqrt_det) - exact))
    assert errs[1] < errs[0]
    assert errs[1] / exact < 1e-4


def test_sphere_metric_at_origin():
    # conformal factor 4 r^4 / (r^2 + |x|^2)^2 at every grid point
    r = np.sqrt(2.0)
    man = build_sphere_two_charts(4, 8, radius=r)
    g = round_sphere_metric(man)
    for ch in man.charts:
        rho2 = np.sum(grid_points(ch) ** 2, axis=-1)
        conf = 4.0 * r**4 / (r**2 + rho2) ** 2
        assert np.max(np.abs(g.dense(ch.name) - conf[..., None, None] * np.eye(4))) < 1e-12
        assert np.max(np.abs(g.dense_inverse(ch.name) - np.eye(4) / conf[..., None, None])) < 1e-12


def test_non_spd_base_metric_names_its_chart():
    """A conformal factor that is not positive, or not finite, at one point
    is refused, naming the chart and the grid index; so is a dense block."""
    man = build_sphere_two_charts(2, 8, 1.0)
    conf = round_sphere_metric(man).conf
    bad = dict(conf, south=conf["south"].copy())
    for value in (-1.0, 0.0, -0.0):
        bad["south"][3, 5] = value
        with pytest.raises(SingularMetric,
                           match=r"base metric on south not positive definite at \(3, 5\)"):
            BaseMetric(man, bad)
    for value in (np.nan, np.inf, -np.inf):
        bad["south"][3, 5] = value
        with pytest.raises(SingularMetric, match=r"base metric on south not finite at \(3, 5\)"):
            BaseMetric(man, bad)
    with pytest.raises(ShapeError, match="conformal factor on south"):
        BaseMetric(man, dict(conf, south=conf["south"][..., None, None] * np.eye(2)))


def test_derivative_second_order_ratio():
    errs = []
    for n in (16, 32):
        man = build_torus(2, n)
        ch = man.charts[0]
        x = grid_points(ch)
        f = np.sin(x[..., 0]) * np.cos(2 * x[..., 1])
        df = partial_derivative(f, ch, 0)
        errs.append(np.max(np.abs(df - np.cos(x[..., 0]) * np.cos(2 * x[..., 1]))))
    ratio = errs[0] / errs[1]
    assert 3.2 < ratio < 4.8


def test_derivative_bounded_chart_second_order():
    errs = []
    for n in (16, 32):
        man = build_sphere_two_charts(2, n, 1.0)
        ch = man.chart("north")
        x = grid_points(ch)
        f = np.sin(x[..., 0]) * np.cos(x[..., 1])
        df = partial_derivative(f, ch, 0)
        errs.append(np.max(np.abs(df - np.cos(x[..., 0]) * np.cos(x[..., 1]))))
    ratio = errs[0] / errs[1]
    assert 3.2 < ratio < 4.8


def test_derivative_fourth_order_flag():
    errs = []
    for n in (16, 32):
        man = build_torus(2, n)
        ch = man.charts[0]
        x = grid_points(ch)
        df = partial_derivative(np.sin(x[..., 0]), ch, 0, order=4)
        errs.append(np.max(np.abs(df - np.cos(x[..., 0]))))
    assert errs[0] / errs[1] > 10.0


def test_derivative_exact_on_linear_bounded():
    man = build_sphere_two_charts(2, 8, 1.0)
    ch = man.chart("north")
    x = grid_points(ch)
    f = 2.0 * x[..., 0] - 0.7 * x[..., 1]
    assert np.max(np.abs(partial_derivative(f, ch, 0) - 2.0)) < 1e-12
    assert np.max(np.abs(partial_derivative(f, ch, 1) + 0.7)) < 1e-12


def test_mixed_partials_commute():
    man = build_sphere_two_charts(2, 16, 1.0)
    ch = man.chart("north")
    x = grid_points(ch)
    f = np.exp(np.sin(x[..., 0]) + x[..., 1] ** 2 / 3.0)
    c1 = partial_derivative(partial_derivative(f, ch, 0), ch, 1)
    c2 = partial_derivative(partial_derivative(f, ch, 1), ch, 0)
    assert np.max(np.abs(c1 - c2)) < 1e-12


@given(st.integers(0, 10**6))
@settings(max_examples=10, deadline=None)
def test_adjoint_stencil_is_exact(seed):
    rng = np.random.default_rng(seed)
    man = build_sphere_two_charts(2, 8, 1.0)
    ch = man.chart("north")
    u = rng.normal(size=ch.shape)
    v = rng.normal(size=ch.shape)
    for ax in range(2):
        lhs = np.sum(partial_derivative(u, ch, ax) * v)
        rhs = np.sum(u * adjoint_partial_derivative(v, ch, ax))
        assert abs(lhs - rhs) < 1e-10


def test_weights_sum_to_one_across_charts():
    man = build_sphere_two_charts(2, 16, 1.0)
    ov = man.overlap("north", "south")
    mask, y = ov.mask, ov.y
    r, margin = man.params["radius"], man.params["margin"]
    rho_s = np.sqrt(np.sum(y * y, axis=-1))
    own = _radial_profile(rho_s, r, margin)
    oth = _radial_profile(r * r / rho_s, r, margin)
    w_south = own / (own + oth)
    assert np.max(np.abs(man.weights["north"][mask] + w_south - 1.0)) < 1e-12


def test_point_map_round_trip():
    man = build_sphere_two_charts(2, 16, 1.5)
    ov = man.overlap("north", "south")
    assert np.array_equal(ov.x, grid_points(man.chart("north"))[ov.mask])
    assert np.array_equal(ov.y, ov.point_map(ov.x))
    back = ov.point_map(ov.y)
    assert np.max(np.abs(back - ov.x)) < 1e-12


@pytest.mark.parametrize(
    "dim,npts,radius", [(2, 8, 1.0), (2, 9, 1.0), (2, 16, 1.5), (4, 8, 1.0), (4, 12, 1.0)]
)
def test_sample_set_lies_inside_destination_hull(dim, npts, radius):
    man = build_sphere_two_charts(dim, npts, radius)
    r, margin = man.params["radius"], man.params["margin"]
    for ov in man.overlaps:
        coords = man.chart(ov.dst).coords
        lo = np.array([c[0] for c in coords])
        hi = np.array([c[-1] for c in coords])
        assert np.all((ov.y >= lo) & (ov.y <= hi))
        rho = np.sqrt(np.sum(ov.x**2, axis=-1))
        assert np.all((rho > r / margin) & (rho < r * margin))
        # jac[i, j] = d y^i / d x^j, against central differences of the map
        step = 1e-6 * np.eye(dim)
        fd = np.stack(
            [(ov.point_map(ov.x + e) - ov.point_map(ov.x - e)) / 2e-6 for e in step], axis=-1
        )
        assert np.max(np.abs(fd - ov.jac)) < 1e-6
        interp_chart(man.chart(ov.dst), np.zeros(man.chart(ov.dst).shape), ov.y)


def test_both_directions_share_one_sample_set():
    man = build_sphere_two_charts(2, 8, 1.0)
    fwd, back = man.overlap("north", "south"), man.overlap("south", "north")
    assert fwd.mask is back.mask and fwd.y is back.y and fwd.jac is back.jac
    assert not fwd.mask.flags.writeable


def test_both_charts_share_one_read_only_weight():
    man = build_sphere_two_charts(4, 8, 1.0)
    assert man.weights["north"] is man.weights["south"]
    with pytest.raises(ValueError, match="read-only"):
        man.weights["south"][...] = 0.5


def test_small_two_sphere_drops_images_outside_the_hull():
    # at N=8 the 2-sphere annulus holds 48 points, 8 of which map outside
    man = build_sphere_two_charts(2, 8, 1.0)
    ov = man.overlaps[0]
    rho = np.sqrt(np.sum(grid_points(man.chart("north")) ** 2, axis=-1))
    annulus = (rho > 1.0 / 1.6) & (rho < 1.6)
    assert (int(annulus.sum()), int(ov.mask.sum())) == (48, 40)


def test_instanton_sample_set_is_the_annulus():
    """At N=12 on the 4-sphere every annulus point maps inside the hull, so
    the benchmark's overlap inputs are the whole annulus."""
    man = build_sphere_two_charts(4, 12, 1.0, 1.6)
    rho = np.sqrt(np.sum(grid_points(man.chart("north")) ** 2, axis=-1))
    annulus = (rho > 1.0 / 1.6) & (rho < 1.0 * 1.6)
    for ov in man.overlaps:
        assert np.array_equal(ov.mask, annulus)
        assert len(ov.y) == int(annulus.sum())


def test_overlap_round_trip_both_directions():
    assert overlap_round_trip(build_torus(2, 8)) == 0.0
    man = build_sphere_two_charts(2, 16, 1.5)
    assert {(ov.src, ov.dst) for ov in man.overlaps} == {("north", "south"), ("south", "north")}
    assert overlap_round_trip(man) < 1e-12


def test_overlap_round_trip_propagates_nan():
    man = build_sphere_two_charts(2, 8, 1.5)
    bad = replace(man.overlaps[0], point_map=lambda p: p + np.nan)
    assert np.isnan(overlap_round_trip(replace(man, overlaps=(bad,) + man.overlaps[1:])))


def test_pou_small_perturbation_insensitivity():
    # a smooth perturbation of the weights (still summing to one) moves the
    # integral by at most the perturbation size times the quadrature error
    man = build_sphere_two_charts(2, 32, 1.0)
    g = round_sphere_metric(man)
    r, margin = man.params["radius"], man.params["margin"]
    eps = 1e-6
    new_w = {}
    for ch in man.charts:
        x = grid_points(ch)
        rho = np.sqrt(np.sum(x * x, axis=-1))
        own = _radial_profile(rho, r, margin)
        oth = _radial_profile(r * r / np.maximum(rho, 1e-300), r, margin)
        bump = own * oth  # smooth, supported exactly in the overlap annulus
        sign = 1.0 if ch.name == "north" else -1.0
        new_w[ch.name] = man.weights[ch.name] + sign * eps * bump
    man2 = replace(man, weights=new_w)
    f = {}
    for ch in man.charts:
        x = grid_points(ch)
        rho2 = np.sum(x * x, axis=-1)
        z = (1.0 - rho2) / (1.0 + rho2)
        if ch.name == "south":
            z = -z
        f[ch.name] = 1.0 + z + z * z
    fg = {name: f[name] * g.sqrt_det[name] for name in f}
    assert abs(integrate(man, fg) - integrate(man2, fg)) < 1e-10


def test_pou_change_exact_for_localized_integrand():
    # f supported where every admissible weight is identically 1 on one chart
    man = build_sphere_two_charts(2, 32, 1.0)
    g = round_sphere_metric(man)
    r, margin = man.params["radius"], man.params["margin"]

    def alt(man, p):
        out = {}
        for ch in man.charts:
            x = grid_points(ch)
            rho = np.sqrt(np.sum(x * x, axis=-1))
            own = _radial_profile(rho, r, margin) ** p
            oth = _radial_profile(r * r / np.maximum(rho, 1e-300), r, margin) ** p
            tot = own + oth
            out[ch.name] = np.where(tot > 0, own / np.where(tot > 0, tot, 1.0), 0.0)
        return out

    man2 = replace(man, weights=alt(man, 2.0))
    f = {}
    for ch in man.charts:
        x = grid_points(ch)
        rho = np.sqrt(np.sum(x * x, axis=-1))
        f[ch.name] = np.where(rho < 0.5, np.cos(3.0 * x[..., 0]), 0.0)
        if ch.name == "south":
            f[ch.name] = np.zeros(ch.shape)
    fg = {name: f[name] * g.sqrt_det[name] for name in f}
    assert abs(integrate(man, fg) - integrate(man2, fg)) < 1e-12


def test_grid_size_guards():
    with pytest.raises(ShapeError):
        build_torus(2, 4)
    with pytest.raises(ShapeError):
        build_sphere_two_charts(2, 6, 1.0)
    with pytest.raises(ShapeError):
        build_sphere_two_charts(3, 16, 1.0)


def test_interp_chart_matches_smooth_field():
    man = build_sphere_two_charts(2, 32, 1.0)
    ch = man.chart("north")
    x = grid_points(ch)
    f = np.sin(x[..., 0]) + np.cos(x[..., 1])
    pts = np.array([[0.3, -0.2], [0.11, 0.47]])
    vals = interp_chart(ch, f, pts)
    exact = np.sin(pts[:, 0]) + np.cos(pts[:, 1])
    assert np.max(np.abs(vals - exact)) < 5e-3


def test_interp_chart_interpolates_trailing_axes_together():
    """One interpolator over the value axes equals one per component."""
    from scipy.interpolate import RegularGridInterpolator

    man = build_sphere_two_charts(4, 8, 1.0)
    ch = man.chart("south")
    rng = np.random.default_rng(5)
    extra = (4, 2, 2)
    arr = rng.normal(size=ch.shape + extra) + 1j * rng.normal(size=ch.shape + extra)
    pts = rng.uniform(-1.4, 1.4, size=(3, 7, 4))
    vals = interp_chart(ch, arr, pts)
    assert vals.shape == (3, 7) + extra
    assert vals.dtype == arr.dtype

    flat = arr.reshape(ch.shape + (-1,))
    oracle = np.stack(
        [RegularGridInterpolator(ch.coords, flat[..., j])(pts) for j in range(flat.shape[-1])],
        axis=-1,
    ).reshape(vals.shape)
    assert np.max(np.abs(vals - oracle)) <= 1e-15

    outside = np.array([[0.0, 0.0, 0.0, 1.59]])  # beyond the last cell centre
    with pytest.raises(ValueError):
        interp_chart(ch, arr, outside)


@pytest.mark.parametrize("dim,npts", [(2, 8), (4, 8)])
def test_interp_chart_returns_node_values_at_nodes(dim, npts):
    man = build_sphere_two_charts(dim, npts, 1.0)
    ch = man.chart("north")
    rng = np.random.default_rng(dim)
    arr = rng.normal(size=ch.shape + (3,))
    # random nodes, and every corner of the grid (the last node on an axis
    # lies at the far end of the last cell)
    idx = rng.integers(0, npts, size=(50, dim))
    idx = np.concatenate([idx, np.array(np.meshgrid(*[[0, npts - 1]] * dim)).reshape(dim, -1).T])
    pts = np.stack([ch.coords[a][idx[:, a]] for a in range(dim)], axis=-1)
    vals = interp_chart(ch, arr, pts)
    assert np.array_equal(vals, arr[tuple(idx.T)])


@pytest.mark.parametrize(
    "bad", [np.nan, np.inf, -np.inf, 1.59, -1.59], ids=["nan", "inf", "-inf", "above", "below"]
)
def test_interp_chart_refuses_points_off_the_grid(bad):
    ch = build_sphere_two_charts(4, 8, 1.0).chart("north")
    pts = np.zeros((5, 4))
    pts[3, 2] = bad
    with pytest.raises(ValueError, match="dimension 2"):
        interp_chart(ch, np.ones(ch.shape + (2,)), pts)


@pytest.mark.parametrize("bundle", ["instanton8", "monopole8"])
def test_sampling_operator_is_bitwise_a_csr_matrix(bundle):
    """The operator applied to real and complex fields, whole and by row
    slices, gives the bits of the CSR matrix holding the same corners and
    weights, each row's entries in corner order; a field of negative zeros
    samples to positive zeros, as sums started at zero do."""
    from scipy.sparse import csr_matrix

    from ncym.connections import (
        bpst_connection, instanton_bundle, monopole_bundle, monopole_connection)

    if bundle == "instanton8":
        man, lb, rep = instanton_bundle(8)
        conn = bpst_connection(man, lb, rep)
    else:
        man, lb, rep = monopole_bundle(8, charge=2)
        conn = monopole_connection(man, lb, rep, charge=2)
    rng = np.random.default_rng(3)
    for ov in man.overlaps:
        dst = man.chart(ov.dst)
        sample = sampling_operator(dst, ov.y)
        corners, points = sample.cols.shape
        assert corners == 2**dst.dim and sample.shape == (points, int(np.prod(dst.shape)))
        assert not (sample.cols.flags.writeable or sample.weights.flags.writeable)
        csr = csr_matrix((sample.weights.T.ravel(), sample.cols.T.ravel(),
                          np.arange(0, corners * points + 1, corners)), shape=sample.shape)
        for field in (conn.A[ov.dst], conn.curvature()[ov.dst]):
            flat = field.reshape(sample.shape[1], -1)
            noisy = flat + 1j * rng.normal(size=flat.shape)
            noisy[::5] = -0.0
            for f in (flat, noisy, flat[:, 0], np.full(flat.shape, -0.0)):
                for rows in (slice(0, points), slice(5, 6), slice(points // 3, 2 * points // 3),
                             slice(0, 0)):
                    got, want = sample[rows] @ f, csr[rows] @ f
                    assert got.shape == want.shape and got.dtype == want.dtype
                    assert got.tobytes() == want.tobytes()
        with pytest.raises(ValueError):
            sample @ np.ones((sample.shape[1] - 1, 2))


def test_interpolation_commutes_with_contraction():
    """Sampling the real components and then contracting them with the basis
    equals sampling the contracted matrices, to rounding."""
    from ncym.connections import bpst_connection, instanton_bundle

    man, lb, rep = instanton_bundle(8)
    conn = bpst_connection(man, lb, rep)
    for ov in man.overlaps:
        dst = man.chart(ov.dst)
        for field in (conn.A[ov.dst], conn.curvature()[ov.dst]):
            first = lb.contract(interp_chart(dst, field, ov.y))
            second = interp_chart(dst, lb.contract(field), ov.y)
            assert np.max(np.abs(first - second)) <= 1e-15 * np.max(np.abs(second))


def test_spd_inverse_matches_lapack():
    rng = np.random.default_rng(8)
    for k in (1, 3, 4):
        a = rng.normal(size=(6, 5, k, k))
        block = a @ np.swapaxes(a, -1, -2) + 0.5 * np.eye(k)
        inv, sqrt_det = _spd_inverse("c", block, "test metric")
        want = np.linalg.inv(block)
        assert np.max(np.abs(inv - want)) <= 1e-13 * np.max(np.abs(want))
        assert np.max(np.abs(sqrt_det / np.sqrt(np.linalg.det(block)) - 1.0)) <= 1e-13


def test_spd_inverse_of_scaled_identity_is_exact():
    c = np.random.default_rng(2).uniform(0.05, 20.0, size=(7, 9))
    for k in (1, 2, 4):
        inv, _ = _spd_inverse("c", c[..., None, None] * np.eye(k), "test metric")
        assert np.array_equal(inv, np.eye(k) / c[..., None, None])


def _eigh_reference(block):
    """The general path of _spd_inverse, inline: one eigendecomposition."""
    ev, vec = np.linalg.eigh(block)
    return (vec / ev[..., None, :]) @ np.swapaxes(vec, -1, -2), np.sqrt(np.prod(ev, axis=-1))


def test_spd_inverse_closed_form_is_bitwise_the_eigh_path():
    rng = np.random.default_rng(5)
    c = rng.uniform(0.05, 20.0, size=(7, 9))
    for k in range(1, 9):
        diag = rng.uniform(0.05, 20.0, size=(7, 9, k))
        for block in (c[..., None, None] * np.eye(k), diag[..., None] * np.eye(k)):
            inv, sqrt_det = _spd_inverse("c", block, "test metric")
            want_inv, want_sqrt_det = _eigh_reference(block)
            assert inv.tobytes() == want_inv.tobytes()
            assert sqrt_det.tobytes() == want_sqrt_det.tobytes()


def test_spd_inverse_closed_form_names_the_grid_index():
    block = np.broadcast_to(np.eye(2), (5, 6, 2, 2)).copy()
    block[2, 4] = np.diag([1.0, -1.0])
    with pytest.raises(SingularMetric, match=r"test metric on c not positive definite at \(2, 4\)"):
        _spd_inverse("c", block, "test metric")
    # the smallest eigenvalue sits in the first slot of the diagonal too
    block[2, 4] = np.diag([-1.0, 1.0])
    with pytest.raises(SingularMetric, match=r"at \(2, 4\)"):
        _spd_inverse("c", block, "test metric")


@pytest.mark.parametrize("path", ["diagonal", "general"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_spd_inverse_refuses_non_finite_blocks(path, bad):
    block = np.broadcast_to(2.0 * np.eye(3), (4, 5, 3, 3)).copy()
    if path == "general":
        block[...] += 0.1 * (1.0 - np.eye(3))
    block[3, 1, 0, 0] = bad  # a diagonal entry
    with pytest.raises(SingularMetric, match=r"test metric on c not finite at \(3, 1\)"):
        _spd_inverse("c", block, "test metric")
    block[3, 1, 0, 0] = block[0, 0, 0, 0]
    block[3, 1, 0, 2] = block[3, 1, 2, 0] = bad  # an off-diagonal pair
    with pytest.raises(SingularMetric, match=r"not finite at \(3, 1\)"):
        _spd_inverse("c", block, "test metric")


def test_round_sphere_metric_refuses_an_overflowing_radius():
    """The builder accepts a radius of 1e100; 4 r^4 of the metric overflows."""
    man = build_sphere_two_charts(4, 8, 1e100)
    with pytest.raises(SingularMetric, match="radius 1e[+]100"):
        round_sphere_metric(man)


@pytest.mark.parametrize("radius, margin", [(1e308, 1.6), (1e200, 1.6), (1e-200, 1.6),
                                            (1.0, 1e300)])
def test_sphere_builder_refuses_an_extent_beyond_floats(radius, margin):
    """A chart extent whose squares overflow or underflow would leave the
    overlap empty; the builder refuses it and names the radius and margin."""
    named = re.escape(f"radius {radius!r} with chart margin {margin!r}")
    with pytest.raises(ShapeError, match=named):
        build_sphere_two_charts(4, 8, radius, margin)


def test_sphere_builder_refuses_an_overlap_without_grid_points():
    """At margin 1.01 the N=8 charts share no grid point: no cross-chart
    quantity could be compared, so the builder refuses, naming the margin."""
    with pytest.raises(GluingError, match=re.escape("chart margin 1.01 at npts 8")):
        build_sphere_two_charts(4, 8, margin=1.01)
    man = build_sphere_two_charts(2, 8, margin=1.6)
    assert [len(ov.x) for ov in man.overlaps] == [40, 40]


@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("extra", [(), (2, 2)], ids=["scalar", "matrix"])
@pytest.mark.parametrize("bundle", ["torus", "sphere"])
def test_derivatives_stack_the_partial_derivatives_bitwise(bundle, extra, order):
    man = build_torus(3, 8) if bundle == "torus" else build_sphere_two_charts(4, 8)
    ch = man.charts[0]
    rng = np.random.default_rng(order)
    arr = rng.normal(size=ch.shape + extra)
    if extra:
        arr = arr + 1j * rng.normal(size=ch.shape + extra)
    got = derivatives(arr, ch, order)
    assert got.shape == ch.shape + (ch.dim,) + extra
    for mu in range(ch.dim):
        assert np.array_equal(got[(slice(None),) * ch.dim + (mu,)],
                              partial_derivative(arr, ch, mu, order=order))


def _stencil_oracle(mat, arr, axis):
    """The stencil as it was applied before the batched product: ``mat``
    contracted with ``arr`` moved to put ``axis`` first, and moved back."""
    moved = np.moveaxis(arr, axis, 0)
    return np.moveaxis(np.tensordot(mat, moved, axes=([1], [0])), 0, axis)


@pytest.mark.parametrize("adjoint", [False, True], ids=["d", "d.T"])
@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize(
    "shape, dim, periodic, dtype",
    [((8, 8, 2, 2, 2), 2, True, complex), ((12,) * 4 + (4, 3), 4, False, float)],
    ids=["torus-complex", "instanton-real"],
)
def test_stencil_product_is_bitwise_the_tensordot_form(shape, dim, periodic, dtype,
                                                       order, adjoint):
    """The batched product gives the bits of the transposed tensordot on the
    torus solve's and the instanton's field shapes, along every grid axis."""
    rng = np.random.default_rng(order)
    arr = rng.normal(size=shape).astype(dtype)
    if dtype is complex:
        arr += 1j * rng.normal(size=shape)
    d = diff_matrix(shape[0], 0.37, periodic, order)
    mat = d.T if adjoint else d
    for axis in range(dim):
        got = _apply_along_axis(mat, arr, axis)
        want = _stencil_oracle(mat, arr, axis)
        assert got.shape == want.shape
        assert got.tobytes() == np.ascontiguousarray(want).tobytes(), axis


def _slab_derivative(arr, ch, order):
    """The slabs' derivative of ``arr``, joined along the points and
    returned grid first."""
    slabs = [slab["f", order] for _, slab in row_slabs(ch, {"f": arr}, [("f", order)])]
    joined = np.concatenate(slabs, axis=-1)
    joined = joined.reshape(joined.shape[:-1] + ch.shape)
    return np.moveaxis(joined, tuple(range(joined.ndim - ch.dim)),
                       tuple(range(ch.dim, joined.ndim)))


def _written_out_stencil(npts, h, periodic, order):
    """The first-derivative matrix with each stencil written out by hand."""
    d = np.zeros((npts, npts))
    taps = {2: {-1: -1.0, 1: 1.0}, 4: {-2: 1.0, -1: -8.0, 1: 8.0, 2: -1.0}}[order]
    for i in range(npts):
        for off, w in taps.items():
            d[i, (i + off) % npts] += w
    d /= (2.0 if order == 2 else 12.0) * h
    if not periodic:
        edges = ([[-3.0, 4.0, -1.0]] if order == 2 else
                 [[-25.0, 48.0, -36.0, 16.0, -3.0], [-3.0, -10.0, 18.0, -6.0, 1.0]])
        for k, row in enumerate(edges):
            row = np.array(row) / ((2.0 if order == 2 else 12.0) * h)
            d[k, :], d[-1 - k, :] = 0.0, 0.0
            d[k, : len(row)] = row
            d[-1 - k, -len(row):] = -row[::-1]
    return d


@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("periodic", [True, False], ids=["periodic", "bounded"])
def test_stencil_table_and_its_row_operator_are_bitwise_the_written_out_stencil(order,
                                                                               periodic):
    """``diff_matrix`` from the stencil table has the bits of the stencils
    written out by hand, and its cached row operator, applied to the
    identity, has the bits of ``diff_matrix``; both are read-only."""
    for npts in range(4, 41, 3):
        h = 2.0 * np.pi / npts
        if order == 4 and npts < 6:
            with pytest.raises(ShapeError, match="at least 6 points"):
                diff_matrix(npts, h, periodic, order)
            continue
        d = diff_matrix(npts, h, periodic, order)
        assert d.tobytes() == _written_out_stencil(npts, h, periodic, order).tobytes(), npts
        dense, stencil = geometry._stencil(npts, h, periodic, order)
        assert dense is d and stencil.shape == (npts, npts)
        assert not (d.flags.writeable or stencil.cols.flags.writeable
                    or stencil.weights.flags.writeable)
        assert np.all(np.diff(stencil.cols, axis=0)[stencil.weights[1:] != 0] > 0)
        assert (stencil @ np.eye(npts)).tobytes() == d.tobytes(), npts


def test_row_operator_gathers_a_broadcast_field_without_copying_it():
    """A broadcast field, zero-stride along its grid axis or along the
    others, is gathered row by row: the peak stays far below the 72 MB its
    full copy would take."""
    import tracemalloc

    n, rows = 10**6, np.arange(1000)
    # rows 1..1000 of a periodic order-2 stencil at spacing 1
    gather = geometry.SamplingOperator(np.stack([rows, rows + 2]),
                                       np.stack([np.full(1000, -0.5), np.full(1000, 0.5)]), n)
    for field, slope in ((np.broadcast_to(np.eye(3), (n, 3, 3)), 0.0),
                         (np.broadcast_to(np.arange(float(n))[:, None, None], (n, 3, 3)), 1.0)):
        tracemalloc.start()
        try:
            got = gather @ field
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.shape == (1000, 3, 3) and np.all(got == slope)
        assert peak < 2**20


@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("bundle", ["torus", "sphere"])
def test_slab_derivative_is_bitwise_across_block_widths(bundle, order, monkeypatch):
    """For SLAB_POINTS of half a row, of a width that does not divide a row,
    of 1, 2, 3 and 5 rows and of the whole chart: every slab holds at most
    SLAB_POINTS points, the slabs tile the chart in order and hold the field
    at their points, and the stencil derivative has the same bits at every
    width and agrees with ``derivatives`` to 1e-14 relative."""
    man = build_torus(3, 9) if bundle == "torus" else build_sphere_two_charts(4, 12)
    ch = man.charts[0]
    arr = np.random.default_rng(order).normal(size=ch.shape + (4, 3))
    flat = np.moveaxis(arr.reshape(-1, 4, 3), 0, -1)
    row, size = int(np.prod(ch.shape[1:])), int(np.prod(ch.shape))
    ragged = row // 2 + 1
    assert row % ragged
    got = {}
    for width in (row // 2, ragged, row, 2 * row, 3 * row, 5 * row, size):
        monkeypatch.setattr(geometry, "SLAB_POINTS", width)
        end = 0
        for pts, slab in row_slabs(ch, {"f": arr}, [("f", order)]):
            assert pts.start == end and 0 < pts.stop - pts.start <= width
            end = pts.stop
            assert slab["f"].tobytes() == flat[..., pts].tobytes()
            assert slab["f", order].shape == (ch.dim, 4, 3, pts.stop - pts.start)
        assert end == size
        got[width] = _slab_derivative(arr, ch, order)
    for width, deriv in got.items():
        assert deriv.tobytes() == got[row].tobytes(), width
    want = derivatives(arr, ch, order)
    assert np.max(np.abs(got[row] - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("width", [1, 2, 5])
@pytest.mark.parametrize("bundle", ["torus", "sphere"])
def test_function_field_slabs_are_bitwise_the_array_slabs(bundle, width, monkeypatch):
    """A field given as a function of first-axis rows gives, block by block,
    the bits of the same field given as an array, at both stencil orders at
    once.  The function is called on no more than a block and its halo at a
    time: on a bounded chart once per row, on a periodic one again for the
    halo rows that wrap around."""
    man = build_torus(3, 9) if bundle == "torus" else build_sphere_two_charts(4, 12)
    ch = man.charts[0]
    arr = np.random.default_rng(width).normal(size=ch.shape + (2, 2)) * (1 + 1j)
    calls = []

    def rows_of(rows):
        calls.append(list(rows))
        return arr[rows]

    monkeypatch.setattr(geometry, "SLAB_POINTS", width * int(np.prod(ch.shape[1:])))
    diff = [("f", 2), ("f", 4)]
    for (rows, want), (same, got) in zip(row_slabs(ch, {"f": arr}, diff),
                                         row_slabs(ch, {"f": rows_of}, diff)):
        assert rows == same and set(got) == set(want)
        for key in want:
            assert got[key].tobytes() == want[key].tobytes(), (rows, key)
    called = [r for rows in calls for r in rows]
    n = ch.shape[0]
    assert set(called) == set(range(n))
    again = {r for r in called if called.count(r) > 1}
    assert again <= ({0, 1, n - 2, n - 1} if all(ch.periodic) else set())
    assert all(called.count(r) <= 2 for r in again)
    assert max(len(rows) for rows in calls) <= width + 4  # a block and its halo


def test_sampling_operator_refuses_a_field_of_the_wrong_length():
    """``S @ field`` refuses a field whose first axis is not the operator's
    grid, for an array field and for the held rows of a function field."""
    ch = build_torus(2, 8).charts[0]
    sample = sampling_operator(ch, grid_points(ch)[1:3, 2:4])
    with pytest.raises(ShapeError, match="a field on 63 grid points, want 64"):
        sample @ np.zeros((63, 2))
    first = geometry._stencil(8, ch.spacing[0], True, 2)[1]
    held = geometry._HeldRows(lambda rows: np.ones((len(rows), 8, 2)), 9)
    held.read({0, 1, 7})
    assert held.shape == (9, 8, 2) and held.dtype == np.float64
    with pytest.raises(ShapeError, match="a field on 9 grid points, want 8"):
        first[0:1] @ held


@pytest.mark.parametrize("bundle", ["instanton8", "monopole8"])
def test_interp_chart_in_runs_is_bitwise_one_operator(bundle, monkeypatch):
    """Sampling in runs of SLAB_POINTS points gives the bits of one
    operator over all of them."""
    from ncym.connections import (
        bpst_connection, instanton_bundle, monopole_bundle, monopole_connection)

    if bundle == "instanton8":
        man, lb, rep = instanton_bundle(8)
        conn = bpst_connection(man, lb, rep)
    else:
        man, lb, rep = monopole_bundle(8, charge=2)
        conn = monopole_connection(man, lb, rep, charge=2)
    monkeypatch.setattr(geometry, "SLAB_POINTS", 7)
    for ov in man.overlaps:
        dst = man.chart(ov.dst)
        field = conn.A[ov.dst]
        assert len(ov.y) > 7
        want = sampling_operator(dst, ov.y) @ field.reshape((-1,) + field.shape[dst.dim:])
        got = interp_chart(dst, field, ov.y)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("man", [build_torus(dim, 8) for dim in (1, 2, 3, 4)] + [
    build_sphere_two_charts(dim, 9) for dim in (2, 4)],
    ids=["torus1", "torus2", "torus3", "torus4", "sphere2", "sphere4"])
def test_grid_points_are_bitwise_the_meshgrid(man):
    """The coordinates, of the whole chart and of first-axis rows given as
    a slice or as index arrays, are the bits of the stacked meshgrid."""
    from test_analytic_potentials import _row_sets

    for ch in man.charts:
        whole = np.stack(np.meshgrid(*ch.coords, indexing="ij"), axis=-1)
        assert grid_points(ch).tobytes() == whole.tobytes()
        for rows in [slice(None), slice(2, 5), slice(3, 4)] + _row_sets(ch.shape[0]):
            got = grid_points(ch, rows)
            want = np.stack(np.meshgrid(ch.coords[0][rows], *ch.coords[1:], indexing="ij"),
                            axis=-1)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes(), rows
