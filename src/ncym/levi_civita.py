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
one pass that shares the check-order fields between them.
"""

from dataclasses import dataclass, fields

import numpy as np

from .connections import curvature_F
from .geometry import derivatives

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


def _einsum(subscripts, *operands):
    """einsum along an optimized path: ~10x faster here, equal up to rounding."""
    return np.einsum(subscripts, *operands, optimize=True)


def _sup(arr) -> float:
    return float(np.max(np.abs(arr)))


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


def christoffel(riem) -> ChristoffelTable:
    """All eight symbol families of the metric connection, plus the pieces."""
    man = riem.man
    C = riem.conn.basis.structure
    m = riem.conn.basis.dim
    Fd = curvature_F(riem.conn)
    out = {f.name: {} for f in fields(ChristoffelTable) if f.name != "half_structure"}
    for ch in man.charts:
        name = ch.name
        d = ch.dim
        gM = riem.base.g[name]
        hM = riem.base.inv[name]
        gI = riem.internal[name]
        hI = riem.hint[name]
        A = riem.conn.A[name]
        F = Fd[name]

        dgM = derivatives(gM, ch, TABLE_ORDER)  # [..., mu, nu, rho]
        sym = dgM + np.swapaxes(dgM, -3, -2) - np.moveaxis(dgM, -3, -1)
        out["hh_h"][name] = 0.5 * _einsum("...sr,...mnr->...mns", hM, sym)
        out["hh_v"][name] = np.broadcast_to(0.0, ch.shape + (d, d, m))
        out["half_curvature"][name] = 0.5 * F

        lowered = _einsum("...mre,...eb->...mbr", F, gI)  # F^e_{mu rho} g_eb
        out["hv_h"][name] = -0.5 * _einsum("...sr,...mbr->...mbs", hM, lowered)
        out["vh_h"][name] = np.swapaxes(out["hv_h"][name], -3, -2)

        N = _einsum("...me,ebf->...mbf", A, C)
        out["mixed_rotation"][name] = N
        dgI = derivatives(gI, ch, TABLE_ORDER)
        nab = _nabla_g_int(dgI, _rotation(N, gI))
        out["hv_v"][name] = 0.5 * _einsum("...dc,...mbc->...mbd", hI, nab)
        out["vh_v"][name] = np.swapaxes(out["hv_v"][name], -3, -2)
        out["vv_h"][name] = -0.5 * _einsum("...sr,...rab->...abs", hM, nab)

        lie = -_einsum("cae,...eb->...cab", C, gI)
        lie = lie + np.swapaxes(lie, -1, -2)
        out["vv_v"][name] = -0.5 * _einsum("...dc,...cab->...abd", hI, lie)
    return ChristoffelTable(half_structure=0.5 * C, **out)


def _residuals(riem, table: ChristoffelTable) -> dict:
    """Torsion, metricity and Koszul mismatches in one pass over the charts;
    a NaN piece makes its mismatch NaN."""
    worst = {"torsion": 0.0, "metricity": 0.0, "koszul": 0.0}
    bracket_F = curvature_F(riem.conn, order=CHECK_ORDER)
    for ch in riem.man.charts:
        for key, value in _chart_residuals(riem, table, ch, bracket_F[ch.name]):
            worst[key] = float(np.maximum(worst[key], value))
    return worst


def _chart_residuals(riem, table: ChristoffelTable, ch, Ft):
    """(identity, sup norm) of each mismatch piece on one chart.

    Each check-order field (the field strength Ft, the derivatives of both
    metric blocks) is formed once, and so is each lowered symbol g(D_X Y, Z),
    which metricity uses as it is and the Koszul formula doubled.  Each piece
    is reduced as soon as it is formed, and the chart's fields are released
    before the next chart: this pass sets the memory peak of `lc-check`.
    """
    name = ch.name
    gM = riem.base.g[name]
    gI = riem.internal[name]
    N = table.mixed_rotation[name]
    hh_h, hv_h, hv_v = table.hh_h[name], table.hv_h[name], table.hv_v[name]
    vh_h, vh_v, half_F = table.vh_h[name], table.vh_v[name], table.half_curvature[name]
    vv_h, vv_v = table.vv_h[name], table.vv_v[name]

    # torsion, D_X Y - D_Y X - [X, Y] over frame pairs: the lift-lift
    # bracket is the field strength, the lift-inner rotation piece drops
    # from both sides, the inner-inner antisymmetric halves give C_ab^c
    yield "torsion", _sup(2.0 * half_F - Ft)
    pairs = ((hh_h, hh_h), (hv_h, vh_h), (hv_v, vh_v), (vv_h, vv_h), (vv_v, vv_v))
    for fam, mirror in pairs:
        yield "torsion", _sup(fam - np.swapaxes(mirror, -3, -2))

    # metricity, X g(Y,Z) - g(D_X Y, Z) - g(Y, D_X Z), and the Koszul
    # identity 2 g(D_X Y, Z) = X g(Y,Z) + Y g(X,Z) - Z g(X,Y)
    #   + g([X,Y],Z) - g([X,Z],Y) - g([Y,Z],X), over frame triples.
    # Inner derivations annihilate the (central) metric coefficients.
    dgM = derivatives(gM, ch, CHECK_ORDER)
    dgI = derivatives(gI, ch, CHECK_ORDER)
    rot = _rotation(N, gI)
    F_low = _einsum("...mne,...ec->...mnc", Ft, gI)

    # lift, lift; lift
    low = _einsum("...mns,...sr->...mnr", hh_h, gM)
    yield "metricity", _sup(dgM - low - np.swapaxes(low, -1, -2))
    yield "koszul", _sup(
        2.0 * low - (dgM + np.swapaxes(dgM, -3, -2) - np.moveaxis(dgM, -3, -1)))

    # lift, lift; inner and lift, inner; lift
    low = _einsum("...mne,...ec->...mnc", half_F, gI)
    cross = _einsum("...mcs,...sn->...mcn", hv_h, gM)
    yield "metricity", _sup(low + np.swapaxes(cross, -1, -2))
    yield "koszul", _sup(2.0 * low - F_low)
    yield "koszul", _sup(2.0 * cross + np.swapaxes(F_low, -1, -2))

    # lift, inner; inner
    low = _einsum("...mbf,...fc->...mbc", N + hv_v, gI)
    yield "metricity", _sup(dgI - low - np.swapaxes(low, -1, -2))
    yield "koszul", _sup(2.0 * low - (dgI + rot - np.swapaxes(rot, -1, -2)))

    # inner, lift; lift
    low = _einsum("...ans,...sr->...anr", vh_h, gM)
    yield "metricity", _sup(low + np.swapaxes(low, -1, -2))
    yield "koszul", _sup(2.0 * low + np.moveaxis(F_low, -1, -3))

    # inner, lift; inner and inner, inner; lift
    low = _einsum("...and,...dc->...anc", vh_v, gI)
    cross = _einsum("...acs,...sn->...acn", vv_h, gM)
    yield "metricity", _sup(low + np.swapaxes(cross, -1, -2))
    rhs = np.moveaxis(dgI, -3, -2) - np.moveaxis(rot, -3, -2) - np.moveaxis(rot, -1, -3)
    yield "koszul", _sup(2.0 * low - rhs)
    yield "koszul", _sup(2.0 * cross + np.moveaxis(_nabla_g_int(dgI, rot), -3, -1))

    # inner, inner; inner
    low = _einsum("...abe,...ec->...abc", table.half_structure + vv_v, gI)
    yield "metricity", _sup(low + np.swapaxes(low, -1, -2))
    C_low = _einsum("abe,...ec->...abc", riem.conn.basis.structure, gI)
    rhs = C_low - np.swapaxes(C_low, -1, -2) - np.moveaxis(C_low, -1, -3)
    yield "koszul", _sup(2.0 * low - rhs)


def torsion_residual(riem, table: ChristoffelTable | None = None) -> float:
    """max |D_X Y - D_Y X - [X, Y]| over frame pairs, componentwise."""
    return _residuals(riem, table or christoffel(riem))["torsion"]


def metricity_residual(riem, table: ChristoffelTable | None = None) -> float:
    """max |X g(Y,Z) - g(D_X Y, Z) - g(Y, D_X Z)| over frame triples."""
    return _residuals(riem, table or christoffel(riem))["metricity"]


def koszul_residual(riem, table: ChristoffelTable | None = None) -> float:
    """max mismatch of the Koszul formula for 2 g(D_X Y, Z) over frame triples."""
    return _residuals(riem, table or christoffel(riem))["koszul"]


def residual_table(riem) -> dict:
    """The diagnostic summary used by the command-line `lc check`."""
    table = christoffel(riem)
    gamma_hh_v = max(_sup(table.hh_v[ch.name]) for ch in riem.man.charts)
    return {**_residuals(riem, table), "vertical_lift_lift_symbol": gamma_hh_v}
