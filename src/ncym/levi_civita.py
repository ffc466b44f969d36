"""Linear metric connection on the derivation basis: Christoffel symbols,
torsion, metricity and Koszul diagnostics.

The covariant derivative is represented on the frame {horizontal lifts,
inner derivations} only, as a table of coefficient fields: eight Christoffel
families plus three structure pieces (half the curvature, the potential
rotation of the fiber generators, half the structure constants) that the
derivative table references separately.

The diagnostics re-evaluate the defining relations with their own
derivative stencils (one order higher than the table's), so that on smooth
position-dependent data they measure a genuine discretization error instead
of cancelling the table's stencil identically.  All three are evaluated in
one pass that shares the check-order fields between them.  The symbols are
pointwise, so `residual_table` builds them one slab of grid points at a time.
"""

from dataclasses import dataclass, fields

import numpy as np

from .connections import curvature_F
from .geometry import derivatives, sup

__all__ = [
    "ChristoffelTable",
    "christoffel",
    "torsion_residual",
    "metricity_residual",
    "koszul_residual",
    "residual_table",
]

TABLE_ORDER = 2
CHECK_ORDER = 4
SLAB_POINTS = 2048  # per slab of `residual_table`, in whole rows of the first grid axis


def _einsum(subscripts, *operands):
    """einsum along an optimized path: ~10x faster here, equal up to rounding."""
    return np.einsum(subscripts, *operands, optimize=True)


@dataclass(frozen=True)
class ChristoffelTable:
    """Coefficients of the metric connection in the adapted frame.

    Per-chart layouts (grid axes first, direction index before argument):
      hh_h[..., mu, nu, sigma]   horizontal output of D along two lifts
      hh_v[..., mu, nu, d]       identically zero (a read-only zero-strided
                                 view); the vertical output is carried by
                                 ``half_curvature`` instead
      hv_h[..., mu, b, sigma], hv_v[..., mu, b, d]
      vh_h[..., a, nu, sigma], vh_v[..., a, nu, d]
      vv_h[..., a, b, sigma],  vv_v[..., a, b, d]
    Structure pieces:
      half_curvature[..., mu, nu, d]  = F^d_{mu nu} / 2
      mixed_rotation[..., mu, b, f]   = A^e_mu C_eb^f
      half_structure[a, b, c]         = C_ab^c / 2
    """

    hh_h: dict
    hh_v: dict
    hv_h: dict
    hv_v: dict
    vh_h: dict
    vh_v: dict
    vv_h: dict
    vv_v: dict
    half_curvature: dict
    mixed_rotation: dict
    half_structure: np.ndarray


def _rotation(N, gI):
    """N_mu_a^f g_fb: the potential's rotation of the fiber metric."""
    return _einsum("...maf,...fb->...mab", N, gI)


def _nabla_g_int(dgI, rot):
    """nabla_mu g_ab = del_mu g_ab - N_mu_a^f g_fb - N_mu_b^f g_af."""
    return dgI - rot - np.swapaxes(rot, -1, -2)


def _fields(riem, ch, F, order: int) -> dict:
    """A chart's fields the symbols are built from, derivatives at ``order``."""
    gM, gI = riem.base.g[ch.name], riem.internal[ch.name]
    return {"gM": gM, "hM": riem.base.inv[ch.name], "dgM": derivatives(gM, ch, order),
            "gI": gI, "hI": riem.hint[ch.name], "dgI": derivatives(gI, ch, order),
            "A": riem.conn.A[ch.name], "F": F}


def _symbols(f: dict, C) -> dict:
    """The table's per-chart entries at the points of the fields ``f``."""
    hM, gI, hI, dgM = f["hM"], f["gI"], f["hI"], f["dgM"]
    out = {"hh_v": np.broadcast_to(0.0, f["F"].shape), "half_curvature": 0.5 * f["F"]}
    sym = dgM + np.swapaxes(dgM, -3, -2) - np.moveaxis(dgM, -3, -1)
    out["hh_h"] = 0.5 * _einsum("...sr,...mnr->...mns", hM, sym)

    lowered = _einsum("...mre,...eb->...mbr", f["F"], gI)  # F^e_{mu rho} g_eb
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


_PER_CHART = [f.name for f in fields(ChristoffelTable) if f.name != "half_structure"]


def christoffel(riem) -> ChristoffelTable:
    """All eight symbol families of the metric connection, plus the pieces."""
    C = riem.conn.basis.structure
    Fd = curvature_F(riem.conn)
    charts = {ch.name: _symbols(_fields(riem, ch, Fd[ch.name], TABLE_ORDER), C)
              for ch in riem.man.charts}
    out = {key: {name: sym[key] for name, sym in charts.items()} for key in _PER_CHART}
    return ChristoffelTable(half_structure=0.5 * C, **out)


def residual_table(riem) -> dict:
    """Torsion, metricity, Koszul and vertical lift-lift sup norms, the
    diagnostic summary of the command-line `lc check`, in one pass over the
    charts (NaN if a piece is NaN); the symbols are built and checked one
    slab of about SLAB_POINTS grid points at a time."""
    pieces = []
    C = riem.conn.basis.structure
    table_F = curvature_F(riem.conn)
    bracket_F = curvature_F(riem.conn, order=CHECK_ORDER)
    for ch in riem.man.charts:
        chk = _fields(riem, ch, bracket_F.pop(ch.name), CHECK_ORDER)
        tab = _fields(riem, ch, table_F.pop(ch.name), TABLE_ORDER)
        rows = max(1, SLAB_POINTS * ch.shape[0] // int(np.prod(ch.shape)))
        for i in range(0, ch.shape[0], rows):
            sl = slice(i, i + rows)
            sym = _symbols({k: v[sl] for k, v in tab.items()}, C)
            pieces.append(("vertical_lift_lift_symbol", sup(sym["hh_v"])))
            pieces.extend(_chart_residuals(sym, {k: v[sl] for k, v in chk.items()}, C))
        del chk, tab  # a chart's fields are released before the next chart's
    return {key: sup(value for name, value in pieces if name == key)
            for key in ("torsion", "metricity", "koszul", "vertical_lift_lift_symbol")}


def _chart_residuals(sym: dict, chk: dict, C):
    """(identity, sup norm) of each mismatch piece on a chart or a slab of one.

    ``sym`` holds the table's entries there, ``chk`` the check-order fields
    at the same points.  Each lowered symbol g(D_X Y, Z) is formed once:
    metricity uses it as it is, the Koszul formula doubled.  Each piece is
    reduced as soon as it is formed.
    """
    gM, gI, Ft = chk["gM"], chk["gI"], chk["F"]
    N = sym["mixed_rotation"]
    hh_h, hv_h, hv_v = sym["hh_h"], sym["hv_h"], sym["hv_v"]
    vh_h, vh_v, half_F = sym["vh_h"], sym["vh_v"], sym["half_curvature"]
    vv_h, vv_v = sym["vv_h"], sym["vv_v"]

    # torsion, D_X Y - D_Y X - [X, Y] over frame pairs: the lift-lift
    # bracket is the field strength, the lift-inner rotation piece drops
    # from both sides, the inner-inner antisymmetric halves give C_ab^c
    yield "torsion", sup(2.0 * half_F - Ft)
    pairs = ((hh_h, hh_h), (hv_h, vh_h), (hv_v, vh_v), (vv_h, vv_h), (vv_v, vv_v))
    for fam, mirror in pairs:
        yield "torsion", sup(fam - np.swapaxes(mirror, -3, -2))

    # metricity, X g(Y,Z) - g(D_X Y, Z) - g(Y, D_X Z), and the Koszul
    # identity 2 g(D_X Y, Z) = X g(Y,Z) + Y g(X,Z) - Z g(X,Y)
    #   + g([X,Y],Z) - g([X,Z],Y) - g([Y,Z],X), over frame triples.
    # Inner derivations annihilate the (central) metric coefficients.
    dgM, dgI = chk["dgM"], chk["dgI"]
    rot = _rotation(N, gI)
    F_low = _einsum("...mne,...ec->...mnc", Ft, gI)

    # lift, lift; lift
    low = _einsum("...mns,...sr->...mnr", hh_h, gM)
    yield "metricity", sup(dgM - low - np.swapaxes(low, -1, -2))
    yield "koszul", sup(
        2.0 * low - (dgM + np.swapaxes(dgM, -3, -2) - np.moveaxis(dgM, -3, -1)))

    # lift, lift; inner and lift, inner; lift
    low = _einsum("...mne,...ec->...mnc", half_F, gI)
    cross = _einsum("...mcs,...sn->...mcn", hv_h, gM)
    yield "metricity", sup(low + np.swapaxes(cross, -1, -2))
    yield "koszul", sup(2.0 * low - F_low)
    yield "koszul", sup(2.0 * cross + np.swapaxes(F_low, -1, -2))

    # lift, inner; inner
    low = _einsum("...mbf,...fc->...mbc", N + hv_v, gI)
    yield "metricity", sup(dgI - low - np.swapaxes(low, -1, -2))
    yield "koszul", sup(2.0 * low - (dgI + rot - np.swapaxes(rot, -1, -2)))

    # inner, lift; lift
    low = _einsum("...ans,...sr->...anr", vh_h, gM)
    yield "metricity", sup(low + np.swapaxes(low, -1, -2))
    yield "koszul", sup(2.0 * low + np.moveaxis(F_low, -1, -3))

    # inner, lift; inner and inner, inner; lift
    low = _einsum("...and,...dc->...anc", vh_v, gI)
    cross = _einsum("...acs,...sn->...acn", vv_h, gM)
    yield "metricity", sup(low + np.swapaxes(cross, -1, -2))
    rhs = np.moveaxis(dgI, -3, -2) - np.moveaxis(rot, -3, -2) - np.moveaxis(rot, -1, -3)
    yield "koszul", sup(2.0 * low - rhs)
    yield "koszul", sup(2.0 * cross + np.moveaxis(_nabla_g_int(dgI, rot), -3, -1))

    # inner, inner; inner
    low = _einsum("...abe,...ec->...abc", 0.5 * C + vv_v, gI)
    yield "metricity", sup(low + np.swapaxes(low, -1, -2))
    C_low = _einsum("abe,...ec->...abc", C, gI)
    rhs = C_low - np.swapaxes(C_low, -1, -2) - np.moveaxis(C_low, -1, -3)
    yield "koszul", sup(2.0 * low - rhs)


def torsion_residual(riem) -> float:
    """max |D_X Y - D_Y X - [X, Y]| over frame pairs, componentwise."""
    return residual_table(riem)["torsion"]


def metricity_residual(riem) -> float:
    """max |X g(Y,Z) - g(D_X Y, Z) - g(Y, D_X Z)| over frame triples."""
    return residual_table(riem)["metricity"]


def koszul_residual(riem) -> float:
    """max mismatch of the Koszul formula for 2 g(D_X Y, Z) over frame triples."""
    return residual_table(riem)["koszul"]
