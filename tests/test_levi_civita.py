"""Metric connection table: symbol families, torsion/metricity/Koszul checks."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ncym.connections as connections
import ncym.levi_civita as lc
from ncym.cli import main
from ncym.connections import OrdinaryConnection, constant_connection, zero_connection
from ncym.geometry import (
    BaseMetric,
    build_sphere_two_charts,
    build_torus,
    flat_metric,
    grid_points,
    round_sphere_metric,
)
from ncym.lie_core import build_representation, build_su
from ncym.levi_civita import (
    christoffel,
    koszul_residual,
    metricity_residual,
    residual_table,
    torsion_residual,
)
from ncym.metric import assemble

FAMILIES = ("hh_h", "hh_v", "hv_h", "hv_v", "vh_h", "vh_v", "vv_h", "vv_v")


@pytest.fixture(scope="module")
def su2():
    lb = build_su(2)
    return lb, build_representation(lb, "fundamental")


def _xdep_riem(npts, su2_pair):
    """Smooth position-dependent conformal base metric, fiber metric and
    potential."""
    lb, rep = su2_pair
    man = build_torus(2, npts)
    ch = man.charts[0]
    x = grid_points(ch)
    base = BaseMetric(man, {ch.name: 1.1 + 0.3 * np.cos(x[..., 0] + 0.2) - 0.2 * np.cos(x[..., 1])})
    gI = np.broadcast_to(np.eye(3), ch.shape + (3, 3)).copy()
    gI[..., 0, 0] += 0.3 * np.cos(x[..., 1] + 0.4)
    gI[..., 1, 2] = gI[..., 2, 1] = 0.2 * np.sin(x[..., 0])
    A = np.zeros(ch.shape + (2, 3))
    A[..., 0, 0] = 0.4 * np.cos(x[..., 1])
    A[..., 1, 2] = 0.3 * np.sin(x[..., 0] + 0.7)
    A[..., 0, 1] = 0.25 * np.cos(x[..., 0] - x[..., 1])
    conn = OrdinaryConnection(man, lb, rep, {ch.name: A})
    return assemble(base, {ch.name: gI}, conn)


# ------------------------------------------------------------------ table


def test_flat_delta_all_symbols_zero(su2):
    lb, rep = su2
    man = build_torus(2, 8)
    riem = assemble(flat_metric(man), np.eye(3), zero_connection(man, lb, rep))
    table = christoffel(riem)
    for fam in FAMILIES:
        assert np.max(np.abs(getattr(table, fam)["t0"])) == 0.0
    assert np.max(np.abs(table.half_curvature["t0"])) == 0.0
    assert np.max(np.abs(table.mixed_rotation["t0"])) == 0.0


def test_vertical_lift_lift_symbol_identically_zero(su2):
    riem = _xdep_riem(16, su2)
    table = christoffel(riem)
    assert np.all(table.hh_v["t0"] == 0.0)
    assert residual_table(riem)["vertical_lift_lift_symbol"] == 0.0


def test_lift_lift_symbol_symmetric(su2):
    table = christoffel(_xdep_riem(16, su2))
    g = table.hh_h["t0"]
    assert np.max(np.abs(g - np.swapaxes(g, -3, -2))) < 1e-12


def test_mixed_families_pair_as_transposes(su2):
    table = christoffel(_xdep_riem(16, su2))
    assert np.array_equal(table.vh_h["t0"], np.swapaxes(table.hv_h["t0"], -3, -2))
    assert np.array_equal(table.vh_v["t0"], np.swapaxes(table.hv_v["t0"], -3, -2))


def test_bi_invariant_fiber_metric_kills_vertical_symbols(su2):
    lb, rep = su2
    man = build_torus(2, 8)
    conn = constant_connection(man, lb, rep, 0.4 * np.arange(6.0).reshape(2, 3))
    riem = assemble(flat_metric(man), 2.5 * np.eye(3), conn)
    table = christoffel(riem)
    assert np.max(np.abs(table.vv_v["t0"])) < 1e-14
    assert np.max(np.abs(table.vv_h["t0"])) < 1e-14
    # a non-bi-invariant fiber metric must excite the same family
    riem2 = assemble(flat_metric(man), np.diag([1.0, 2.0, 3.0]), conn)
    assert np.max(np.abs(christoffel(riem2).vv_v["t0"])) > 0.1


# ------------------------------------------------------------ diagnostics


def test_constant_regime_residuals(su2):
    lb, rep = su2
    rng = np.random.default_rng(4)
    B = rng.normal(size=(3, 3))
    man = build_torus(2, 8)
    conn = constant_connection(man, lb, rep, 0.4 * rng.normal(size=(2, 3)))
    riem = assemble(flat_metric(man), B @ B.T + 3.0 * np.eye(3), conn)
    assert torsion_residual(riem) < 1e-12
    assert metricity_residual(riem) < 1e-12
    assert koszul_residual(riem) < 1e-12


@settings(deadline=None, max_examples=20)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_koszul_identity_constant_regime_property(su2, seed):
    lb, rep = su2
    rng = np.random.default_rng(seed)
    B = rng.normal(size=(3, 3))
    man = build_torus(2, 8)
    conn = constant_connection(man, lb, rep, 0.5 * rng.normal(size=(2, 3)))
    riem = assemble(flat_metric(man), B @ B.T + 3.0 * np.eye(3), conn)
    assert koszul_residual(riem) < 1e-12


def test_position_dependent_residuals_second_order(su2):
    tables = {}
    for npts in (16, 32):
        tables[npts] = residual_table(_xdep_riem(npts, su2))
    for key in ("torsion", "metricity", "koszul"):
        coarse, fine = tables[16][key], tables[32][key]
        assert 1e-4 < fine < 1e-2
        assert 3.2 < coarse / fine < 4.8


# ----------------------------------------------------------- sphere oracle


def _conformal_christoffels(x, r=1.0):
    """Closed-form symbols of the stereographic round metric g = conf * delta."""
    rho2 = np.sum(x * x, axis=-1)
    w = -2.0 * x / (r * r + rho2)[..., None]  # half the log-derivative of conf
    d = x.shape[-1]
    G = np.zeros(x.shape[:-1] + (d, d, d))
    for mu in range(d):
        for nu in range(d):
            for s in range(d):
                G[..., mu, nu, s] = (
                    (s == nu) * w[..., mu]
                    + (s == mu) * w[..., nu]
                    - (mu == nu) * w[..., s]
                )
    return G


def test_sphere_christoffels_match_closed_form(su2):
    lb, rep = su2
    errs = []
    for npts in (16, 32):
        man = build_sphere_two_charts(2, npts)
        riem = assemble(
            round_sphere_metric(man), np.eye(3), zero_connection(man, lb, rep)
        )
        table = christoffel(riem)
        worst = 0.0
        for ch in man.charts:
            G = _conformal_christoffels(grid_points(ch))
            worst = max(worst, float(np.max(np.abs(table.hh_h[ch.name] - G))))
        errs.append(worst)
    assert errs[1] < 0.03
    assert 3.5 < errs[0] / errs[1] < 5.5


def test_residual_table_contract(su2):
    out = residual_table(_xdep_riem(16, su2))
    assert set(out) == {"torsion", "metricity", "koszul", "vertical_lift_lift_symbol"}
    for v in out.values():
        assert isinstance(v, float) and v >= 0.0


def test_residuals_propagate_nan(su2):
    """A NaN in the reference potential makes every residual NaN, not the
    largest finite piece."""
    lb, rep = su2
    man = build_torus(2, 8)
    conn = zero_connection(man, lb, rep)
    conn.A["t0"][2, 6, 0, 1] = np.nan
    out = residual_table(assemble(flat_metric(man), np.eye(3), conn))
    assert all(np.isnan(out[key]) for key in ("torsion", "metricity", "koszul"))


def test_one_check_order_field_strength_per_lc_check(monkeypatch, tmp_path):
    """Each slab forms its field strength once at the table order and
    once at the check order, which the three residuals share; no whole-chart
    field strength is formed."""
    orders, slabs, strengths = [], [], []

    def counted_slabs(chart, fields, diff=()):
        orders.append(sorted({order for _, order in diff}))
        for pts, slab in row_slabs(chart, fields, diff):
            slabs.append(pts)
            yield pts, slab

    def counted(A, dA, C):
        strengths.append(len(slabs))
        return field_strength(A, dA, C)

    def whole_chart(conn, order=2):
        raise AssertionError("lc-check formed a whole-chart field strength")

    row_slabs, field_strength = lc.geometry.row_slabs, lc._field_strength
    monkeypatch.setattr(lc.geometry, "row_slabs", counted_slabs)
    monkeypatch.setattr(lc, "_field_strength", counted)
    monkeypatch.setattr(connections, "curvature_F", whole_chart)
    doc = {"task": "lc-check", "bundle": {"kind": "instanton", "npts": 8}}
    path = tmp_path / "lc.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path), "--output-dir", str(tmp_path / "out")]) == 0
    assert orders == [[lc.TABLE_ORDER, lc.CHECK_ORDER]] * 2  # one pass per chart
    assert len(slabs) > 2
    assert strengths == [n for n in range(1, len(slabs) + 1) for _ in range(2)]
