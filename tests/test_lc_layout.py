"""The points-last Levi-Civita table against the grid-first formulas.

The oracle below is the earlier evaluation kept verbatim in its layout:
grid axes first, index axes last, each chart as a whole, contractions along
einsum's optimized path, and the base metric as the dense blocks c delta and
delta / c that it contracts with.  The package raises and lowers horizontal
indices by the scalars 1 / c and c instead.  Its table and residuals must
agree with the oracle to 1e-12 relative, and what the oracle gives as
exactly zero must stay exactly zero.  The cases cover position-dependent
conformal base and fiber metrics on the su(2) and su(3) tori, and the round
spheres with the identity fiber metric and with a non-diagonal one.
"""

import numpy as np
import pytest

from ncym.config import build_problem, resolve
from ncym.geometry import BaseMetric, derivatives, grid_points, sup
from ncym.levi_civita import CHECK_ORDER, TABLE_ORDER, christoffel, residual_table
from ncym.lie_core import build_representation, build_su
from ncym.metric import assemble

from test_levi_civita import FAMILIES, _xdep_riem

RTOL = 1e-12
PIECES = FAMILIES + ("half_curvature", "mixed_rotation")


def _einsum(subscripts, *operands):
    return np.einsum(subscripts, *operands, optimize=True)


def _rotation(N, gI):
    return _einsum("...maf,...fb->...mab", N, gI)


def _nabla_g_int(dgI, rot):
    return dgI - rot - np.swapaxes(rot, -1, -2)


def _field_strength(conn, order):
    """F = dA - dA^T + C A A per chart, grid-first, each chart as a whole."""
    out = {}
    for ch in conn.man.charts:
        A = conn.A[ch.name]
        dA = derivatives(A, ch, order)  # shape + (mu, nu, a)
        F = dA - np.swapaxes(dA, -3, -2)
        out[ch.name] = F + _einsum("...mb,...nc,bca->...mna", A, A, conn.basis.structure)
    return out


def _fields(riem, ch, F, order):
    gM, gI = riem.base.dense(ch.name), riem.internal[ch.name]
    return {"gM": gM, "hM": riem.base.dense_inverse(ch.name), "dgM": derivatives(gM, ch, order),
            "gI": gI, "hI": riem.hint[ch.name], "dgI": derivatives(gI, ch, order),
            "A": riem.conn.A[ch.name], "F": F}


def _symbols(f, C):
    hM, gI, hI, dgM = f["hM"], f["gI"], f["hI"], f["dgM"]
    out = {"hh_v": np.broadcast_to(0.0, f["F"].shape), "half_curvature": 0.5 * f["F"]}
    sym = dgM + np.swapaxes(dgM, -3, -2) - np.moveaxis(dgM, -3, -1)
    out["hh_h"] = 0.5 * _einsum("...sr,...mnr->...mns", hM, sym)

    lowered = _einsum("...mre,...eb->...mbr", f["F"], gI)
    out["hv_h"] = -0.5 * _einsum("...sr,...mbr->...mbs", hM, lowered)
    out["vh_h"] = np.swapaxes(out["hv_h"], -3, -2)

    N = out["mixed_rotation"] = _einsum("...me,ebf->...mbf", f["A"], C)
    nab = _nabla_g_int(f["dgI"], _rotation(N, gI))
    out["hv_v"] = 0.5 * _einsum("...dc,...mbc->...mbd", hI, nab)
    out["vh_v"] = np.swapaxes(out["hv_v"], -3, -2)
    out["vv_h"] = -0.5 * _einsum("...sr,...rab->...abs", hM, nab)

    lie = -_einsum("cae,...eb->...cab", C, gI)
    lie = lie + np.swapaxes(lie, -1, -2)
    out["vv_v"] = -0.5 * _einsum("...dc,...cab->...abd", hI, lie)
    return out


def _chart_residuals(sym, chk, C):
    gM, gI, Ft = chk["gM"], chk["gI"], chk["F"]
    N = sym["mixed_rotation"]
    hh_h, hv_h, hv_v = sym["hh_h"], sym["hv_h"], sym["hv_v"]
    vh_h, vh_v, half_F = sym["vh_h"], sym["vh_v"], sym["half_curvature"]
    vv_h, vv_v = sym["vv_h"], sym["vv_v"]

    yield "torsion", sup(2.0 * half_F - Ft)
    pairs = ((hh_h, hh_h), (hv_h, vh_h), (hv_v, vh_v), (vv_h, vv_h), (vv_v, vv_v))
    for fam, mirror in pairs:
        yield "torsion", sup(fam - np.swapaxes(mirror, -3, -2))

    dgM, dgI = chk["dgM"], chk["dgI"]
    rot = _rotation(N, gI)
    F_low = _einsum("...mne,...ec->...mnc", Ft, gI)

    low = _einsum("...mns,...sr->...mnr", hh_h, gM)
    yield "metricity", sup(dgM - low - np.swapaxes(low, -1, -2))
    yield "koszul", sup(
        2.0 * low - (dgM + np.swapaxes(dgM, -3, -2) - np.moveaxis(dgM, -3, -1)))

    low = _einsum("...mne,...ec->...mnc", half_F, gI)
    cross = _einsum("...mcs,...sn->...mcn", hv_h, gM)
    yield "metricity", sup(low + np.swapaxes(cross, -1, -2))
    yield "koszul", sup(2.0 * low - F_low)
    yield "koszul", sup(2.0 * cross + np.swapaxes(F_low, -1, -2))

    low = _einsum("...mbf,...fc->...mbc", N + hv_v, gI)
    yield "metricity", sup(dgI - low - np.swapaxes(low, -1, -2))
    yield "koszul", sup(2.0 * low - (dgI + rot - np.swapaxes(rot, -1, -2)))

    low = _einsum("...ans,...sr->...anr", vh_h, gM)
    yield "metricity", sup(low + np.swapaxes(low, -1, -2))
    yield "koszul", sup(2.0 * low + np.moveaxis(F_low, -1, -3))

    low = _einsum("...and,...dc->...anc", vh_v, gI)
    cross = _einsum("...acs,...sn->...acn", vv_h, gM)
    yield "metricity", sup(low + np.swapaxes(cross, -1, -2))
    rhs = np.moveaxis(dgI, -3, -2) - np.moveaxis(rot, -3, -2) - np.moveaxis(rot, -1, -3)
    yield "koszul", sup(2.0 * low - rhs)
    yield "koszul", sup(2.0 * cross + np.moveaxis(_nabla_g_int(dgI, rot), -3, -1))

    low = _einsum("...abe,...ec->...abc", 0.5 * C + vv_v, gI)
    yield "metricity", sup(low + np.swapaxes(low, -1, -2))
    C_low = _einsum("abe,...ec->...abc", C, gI)
    rhs = C_low - np.swapaxes(C_low, -1, -2) - np.moveaxis(C_low, -1, -3)
    yield "koszul", sup(2.0 * low - rhs)


def _oracle_table(riem):
    C = riem.conn.basis.structure
    Fd = _field_strength(riem.conn, TABLE_ORDER)
    return {ch.name: _symbols(_fields(riem, ch, Fd[ch.name], TABLE_ORDER), C)
            for ch in riem.man.charts}


def _oracle_residuals(riem):
    C = riem.conn.basis.structure
    table_F = _field_strength(riem.conn, TABLE_ORDER)
    bracket_F = _field_strength(riem.conn, CHECK_ORDER)
    pieces = []
    for ch in riem.man.charts:
        sym = _symbols(_fields(riem, ch, table_F[ch.name], TABLE_ORDER), C)
        pieces.append(("vertical_lift_lift_symbol", sup(sym["hh_v"])))
        chk = _fields(riem, ch, bracket_F[ch.name], CHECK_ORDER)
        pieces.extend(_chart_residuals(sym, chk, C))
    return {key: sup(value for name, value in pieces if name == key)
            for key in ("torsion", "metricity", "koszul", "vertical_lift_lift_symbol")}


def _riem(bundle, **blocks):
    return build_problem(resolve({"task": "lc-check", "bundle": bundle, **blocks})).riem


def _su3_torus():
    """su(3) over the 2-torus, a random potential and position-dependent
    conformal base and fiber metrics, so that every residual is a
    discretization error and none is rounding noise."""
    su3 = {"kind": "torus", "npts": 8, "algebra": {"kind": "su", "n": 3}}
    conn = _riem(su3, connection={"kind": "random", "amplitude": 0.3}).conn
    ch = conn.man.charts[0]
    x = grid_points(ch)
    c = 1.05 + 0.2 * np.sin(x[..., 1]) + 0.3 * np.cos(x[..., 0] - 0.5)
    B = np.random.default_rng(3).standard_normal((8, 8))
    gI = np.broadcast_to(B @ B.T + 3.0 * np.eye(8), ch.shape + (8, 8)).copy()
    gI[..., 2, 2] += 0.5 * np.cos(x[..., 0])
    gI[..., 3, 6] = gI[..., 6, 3] = gI[..., 3, 6] + 0.3 * np.sin(x[..., 1] + 0.3)
    return assemble(BaseMetric(conn.man, {ch.name: c}), {ch.name: gI}, conn)


CASES = {
    "instanton8": lambda: _riem({"kind": "instanton", "npts": 8}),
    "instanton8-fiber": lambda: _riem({"kind": "instanton", "npts": 8}, metric={"internal": [
        [2.0, 0.3, 0.0], [0.3, 1.0, 0.1], [0.0, 0.1, 1.5]]}),
    "monopole16": lambda: _riem({"kind": "monopole", "npts": 16}),
    "xdep-torus": lambda: _xdep_riem(16, (su2 := build_su(2),
                                          build_representation(su2, "fundamental"))),
    "su3-torus": _su3_torus,
}


@pytest.fixture(scope="module", params=sorted(CASES))
def riem(request):
    return CASES[request.param]()


def _agree(new, old):
    """Within RTOL of the oracle's sup norm; exactly zero where it is."""
    if sup(old) == 0.0:
        return sup(new) == 0.0
    return sup(np.asarray(new) - old) <= RTOL * sup(old)


def test_residual_table_matches_grid_first_formulas(riem):
    new, old = residual_table(riem), _oracle_residuals(riem)
    assert set(new) == set(old)
    assert new["vertical_lift_lift_symbol"] == 0.0
    for key in old:
        assert _agree(new[key], old[key]), (key, new[key], old[key])


def test_christoffel_matches_grid_first_formulas(riem):
    table, oracle = christoffel(riem), _oracle_table(riem)
    for name, old in oracle.items():
        for key in PIECES:
            new = getattr(table, key)[name]
            assert new.shape == old[key].shape, key
            assert _agree(new, old[key]), (name, key)
        assert np.all(table.hh_v[name] == 0.0)
