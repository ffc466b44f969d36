"""Charts, stencils, quadrature, partitions of unity, transition action."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ncym.errors import ShapeError, SingularMetric
from ncym.geometry import (
    BaseMetric,
    adjoint_partial_derivative,
    build_sphere_two_charts,
    build_torus,
    expm_antihermitian,
    flat_metric,
    grid_points,
    integrate,
    interp_chart,
    overlap_round_trip,
    partial_derivative,
    rep_of_group,
    round_sphere_metric,
    su_log,
    transition_conjugate,
)
from ncym.geometry import _radial_profile, _spd_inverse
from ncym.lie_core import build_representation, build_su


def test_torus_volume_exact():
    man = build_torus(2, 16)
    g = flat_metric(man)
    vol = integrate(man, g, {"t0": np.ones(man.charts[0].shape)})
    assert abs(vol - (2 * np.pi) ** 2) < 1e-12


def test_torus_sin_integrates_to_zero():
    man = build_torus(2, 16)
    g = flat_metric(man)
    x = grid_points(man.charts[0])
    assert abs(integrate(man, g, {"t0": np.sin(x[..., 0])})) < 1e-12


def test_sphere4_volume_within_2_percent():
    man = build_sphere_two_charts(4, 16, 1.0)
    g = round_sphere_metric(man)
    one = {c.name: np.ones(c.shape) for c in man.charts}
    vol = integrate(man, g, one)
    exact = 8.0 * np.pi**2 / 3.0
    assert abs(vol - exact) / exact < 0.02


def test_sphere2_volume_converges():
    exact = 4.0 * np.pi
    errs = []
    for n in (16, 32):
        man = build_sphere_two_charts(2, n, 1.0)
        g = round_sphere_metric(man)
        one = {c.name: np.ones(c.shape) for c in man.charts}
        errs.append(abs(integrate(man, g, one) - exact))
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
        assert np.max(np.abs(g.g[ch.name] - conf[..., None, None] * np.eye(4))) < 1e-12


def test_non_spd_base_metric_names_its_chart():
    man = build_sphere_two_charts(2, 8, 1.0)
    g = round_sphere_metric(man).g
    bad = dict(g, south=g["south"].copy())
    bad["south"][3, 5] = -np.eye(2)
    with pytest.raises(SingularMetric, match=r"on south not positive definite at \(3, 5\)"):
        BaseMetric(man, bad)
    bad["south"][3, 5] = [[1.0, 0.5], [0.0, 1.0]]
    with pytest.raises(SingularMetric, match="base metric on south must be symmetric"):
        BaseMetric(man, bad)


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
    assert abs(integrate(man, g, f) - integrate(man2, g, f)) < 1e-10


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
    assert abs(integrate(man, g, f) - integrate(man2, g, f)) < 1e-12


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


def test_su_log_round_trip_and_tracelessness():
    lb = build_su(2)
    rng = np.random.default_rng(3)
    xi = 2.5 * rng.normal(size=(200, 3))
    t = expm_antihermitian(lb.contract(xi))
    lg = su_log(t)
    assert np.max(np.abs(np.trace(lg, axis1=-2, axis2=-1))) < 1e-10
    assert np.max(np.abs(expm_antihermitian(lg) - t)) < 1e-10


def test_rep_of_group_is_homomorphism():
    lb = build_su(2)
    rep = build_representation(lb, "adjoint")
    rng = np.random.default_rng(5)
    t1 = expm_antihermitian(lb.contract(rng.normal(size=(40, 3))))
    t2 = expm_antihermitian(lb.contract(rng.normal(size=(40, 3))))
    lhs = rep_of_group(lb, rep, t1 @ t2)
    rhs = rep_of_group(lb, rep, t1) @ rep_of_group(lb, rep, t2)
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_transition_conjugate_inverts():
    lb = build_su(2)
    rep = build_representation(lb, "fundamental")
    rng = np.random.default_rng(11)
    t = expm_antihermitian(lb.contract(rng.normal(size=(30, 3))))
    s = rng.normal(size=(30, 2, 2)) + 1j * rng.normal(size=(30, 2, 2))
    out = transition_conjugate(lb, rep, t, s)
    back = transition_conjugate(lb, rep, t, out, inverse=True)
    assert np.max(np.abs(back - s)) < 1e-12
