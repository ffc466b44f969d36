"""Characteristic forms and numbers: instanton charge, monopole charge,
closedness, gluing consistency, and gauge invariance."""

import json

import numpy as np
import pytest

import ncym.chern_weil as cw
import ncym.connections as connections
from ncym.chern_weil import ChernForm, chern_form, chern_number, closedness_residual
from ncym.connections import (
    OrdinaryConnection,
    bpst_connection,
    gauge_transform_ordinary,
    instanton_bundle,
    monopole_bundle,
    monopole_connection,
)
from ncym.errors import InvalidRank
from ncym.geometry import build_torus, grid_points
from ncym.cli import main
from ncym.lie_core import Representation, build_u1


TOP4 = (0, 1, 2, 3)


@pytest.fixture(scope="module")
def bpst16():
    man, lb, rep = instanton_bundle(16)
    conn = bpst_connection(man, lb, rep, rho=1.0)
    return man, lb, rep, conn


@pytest.fixture(scope="module")
def bpst16_form(bpst16):
    _, _, _, conn = bpst16
    return chern_form(conn, 2)


@pytest.fixture(scope="module")
def torus_u1():
    man = build_torus(2, 16)
    lb = build_u1()
    rep = Representation(lb.basis.copy())
    ch = man.charts[0]
    x = grid_points(ch)
    A = np.zeros(ch.shape + (2, 1))
    A[..., 0, 0] = 0.3 * np.sin(x[..., 1])
    A[..., 1, 0] = 0.2 * np.cos(x[..., 0])
    conn = OrdinaryConnection(man, lb, rep, {ch.name: A})
    return man, lb, rep, conn


def test_instanton_charge_near_one(bpst16):
    _, _, _, conn = bpst16
    c2 = chern_number(conn, 2)
    assert abs(c2 - 1.0) < 0.005
    assert np.isclose(c2, 0.998489101, atol=1e-6)


def test_instanton_charge_converges(bpst16):
    man, lb, rep = instanton_bundle(12)
    conn12 = bpst_connection(man, lb, rep, rho=1.0)
    err12 = abs(chern_number(conn12, 2) - 1.0)
    err16 = abs(chern_number(bpst16[3], 2) - 1.0)
    assert np.isclose(err12, 4.621e-3, rtol=1e-3)
    assert err16 < err12
    # fourth-order stencil: refining 12 -> 16 should shrink the error by
    # roughly (16/12)^4 = 3.16
    assert 2.2 < err12 / err16 < 4.2


def test_class_independent_of_profile_scale(bpst16):
    man, lb, rep, conn = bpst16
    c2_narrow = chern_number(conn, 2)
    c2_wide = chern_number(bpst_connection(man, lb, rep, rho=1.5), 2)
    assert np.isclose(c2_wide, 0.996376558, atol=1e-6)
    # both discretizations miss the integer by their own grid error; the
    # difference between them must be inside the combined budget
    assert abs(c2_narrow - c2_wide) < abs(c2_narrow - 1.0) + abs(c2_wide - 1.0)


def test_first_class_vanishes_for_traceless_algebra(bpst16):
    _, _, _, conn = bpst16
    cf = chern_form(conn, 1)
    for comp in cf.comps.values():
        for arr in comp.values():
            assert np.max(np.abs(arr)) == 0.0


def test_top_degree_gluing(bpst16_form):
    res = closedness_residual(bpst16_form)
    assert res < 0.02
    assert np.isclose(res, 0.007587698, atol=1e-6)


def test_density_matches_closed_profile(bpst16, bpst16_form):
    man, _, _, _ = bpst16
    ch = man.chart("north")
    x = grid_points(ch)
    r2 = np.sum(x * x, axis=-1)
    profile = 6.0 / np.pi**2 / (r2 + 1.0) ** 4
    comp = ch.orientation * bpst16_form.comps["north"][TOP4]
    inner = r2 < 1.0
    ratio = comp[inner] / profile[inner]
    assert np.max(ratio) / np.min(ratio) < 1.02
    assert abs(np.mean(ratio) - 1.0) < 0.01
    # the density peaks at the grid point nearest the origin
    assert r2.flat[np.argmax(comp)] < 0.05


def test_form_invariant_under_rigid_gauge(bpst16, bpst16_form):
    man, _, _, conn = bpst16
    rng = np.random.default_rng(3)
    H = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    H = H + H.conj().T
    H = H - 0.5 * np.trace(H) * np.eye(2)
    w, V = np.linalg.eigh(H)
    U0 = V @ np.diag(np.exp(1j * w)) @ V.conj().T
    U = {c.name: np.broadcast_to(U0, c.shape + (2, 2)).copy() for c in man.charts}
    cfg = chern_form(gauge_transform_ordinary(conn, U), 2)
    scale = np.max(np.abs(bpst16_form.comps["north"][TOP4]))
    for name in ("north", "south"):
        diff = np.max(np.abs(cfg.comps[name][TOP4] - bpst16_form.comps[name][TOP4]))
        assert diff < 1e-12 * scale


@pytest.mark.parametrize("charge", [1, 2])
def test_monopole_charge(charge):
    man, lb, rep = monopole_bundle(24, charge)
    conn = monopole_connection(man, lb, rep, charge)
    c1 = chern_number(conn, 1)
    assert abs(c1 - charge) / charge < 1e-4
    assert np.isclose(c1, charge * 1.000058771, atol=1e-6)
    assert closedness_residual(chern_form(conn, 1)) < 0.01


def test_closedness_telescopes_below_top_degree():
    man = build_torus(4, 12)
    lb = build_u1()
    rep = Representation(lb.basis.copy())
    ch = man.charts[0]
    x = grid_points(ch)
    A = np.zeros(ch.shape + (4, 1))
    A[..., 0, 0] = 0.3 * np.sin(x[..., 1]) + 0.1 * np.cos(x[..., 2])
    A[..., 1, 0] = 0.2 * np.cos(x[..., 0] + x[..., 3])
    A[..., 2, 0] = 0.15 * np.sin(x[..., 3])
    conn = OrdinaryConnection(man, lb, rep, {ch.name: A})
    cf = chern_form(conn, 1)
    peak = max(np.max(np.abs(a)) for c in cf.comps.values() for a in c.values())
    assert peak > 1e-2  # the field strength is genuinely nonzero
    # d(dA) telescopes through the matched stencils down to rounding noise
    assert closedness_residual(cf) < 1e-14


def test_closedness_residual_propagates_nan():
    # below top degree: the exterior derivative of a 2-form on the 3-torus
    man = build_torus(3, 8)
    x = grid_points(man.charts[0])
    keys = ((0, 1), (0, 2), (1, 2))
    comps = {key: np.sin(x[..., key[0]] + 2.0 * x[..., key[1]]) for key in keys}
    comps[(1, 2)][4, 1, 6] = np.nan
    assert np.isnan(closedness_residual(ChernForm(man, 1, {"t0": comps})))
    # top degree on a glued base: the overlap mismatch
    man, _, _ = monopole_bundle(12, 1)
    comps = {ch.name: {(0, 1): np.ones(ch.shape)} for ch in man.charts}
    comps["south"][(0, 1)][:] = np.nan
    assert np.isnan(closedness_residual(ChernForm(man, 1, comps)))


def test_trivial_torus_bundle(torus_u1):
    _, _, _, conn = torus_u1
    # the potential is periodic, so the total flux is a lattice total
    # derivative and cancels exactly
    assert abs(chern_number(conn, 1)) < 1e-13
    cf = chern_form(conn, 1)
    assert closedness_residual(cf) == 0.0  # single chart, top degree


def test_degree_guards(bpst16, torus_u1):
    _, _, _, conn4 = bpst16
    _, _, _, conn2 = torus_u1
    with pytest.raises(InvalidRank):
        chern_form(conn4, 0)
    with pytest.raises(InvalidRank):
        chern_form(conn4, 3)
    with pytest.raises(InvalidRank):
        chern_form(conn2, 2)  # degree 4 on a 2-dimensional base
    with pytest.raises(InvalidRank):
        chern_number(conn4, 1)  # degree 2 cannot saturate 4 dimensions
    with pytest.raises(InvalidRank):
        chern_number(conn2, 2)


def test_form_degree_and_keys(bpst16_form):
    assert isinstance(bpst16_form, ChernForm)
    assert bpst16_form.degree == 4
    for comp in bpst16_form.comps.values():
        assert set(comp.keys()) == {TOP4}
        assert comp[TOP4].dtype == np.float64


def test_one_field_strength_per_slab_and_one_form_per_chern_task(monkeypatch, tmp_path):
    """Each slab forms its field strength once, at the Chern-Weil stencil
    order, and the task forms one Chern form; no whole-chart field strength
    is formed."""
    orders, slabs, strengths, forms = [], [], [], []

    def counted_slabs(chart, fields, diff=()):
        orders.append(sorted({order for _, order in diff}))
        for pts, slab in row_slabs(chart, fields, diff):
            slabs.append(pts)
            yield pts, slab

    def counted(A, dA, C):
        strengths.append(len(slabs))
        return field_strength(A, dA, C)

    def counted_form(conn, q):
        forms.append(q)
        return form(conn, q)

    def whole_chart(conn):
        raise AssertionError("chern formed a whole-chart field strength")

    row_slabs, field_strength, form = cw.row_slabs, cw._field_strength, cw.chern_form
    monkeypatch.setattr(cw, "row_slabs", counted_slabs)
    monkeypatch.setattr(cw, "_field_strength", counted)
    monkeypatch.setattr(cw, "chern_form", counted_form)
    monkeypatch.setattr(connections, "curvature_F", whole_chart)
    doc = {"task": "chern", "bundle": {"kind": "instanton", "npts": 8}}
    path = tmp_path / "chern.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path), "--output-dir", str(tmp_path / "out")]) == 0
    assert orders == [[cw.STENCIL_ORDER]] * 2  # one pass per chart
    assert len(slabs) > 2
    assert strengths == list(range(1, len(slabs) + 1))
    assert forms == [2]
