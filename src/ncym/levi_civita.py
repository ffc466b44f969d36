"""Linear metric connection on the derivation basis: Christoffel symbols,
torsion and metricity diagnostics.

The covariant derivative is represented on the frame {horizontal lifts,
inner derivations} only, as a table of coefficient fields: eight Christoffel
families plus three structure pieces (half the curvature, the potential
rotation of the fiber generators, half the structure constants) that the
derivative table references separately.

The diagnostics re-evaluate the defining relations with their own
derivative stencils (one order higher than the table's), so that on smooth
position-dependent data they measure a genuine discretization error instead
of cancelling the table's stencil identically.
"""

from dataclasses import dataclass

import numpy as np

from .connections import curvature_F
from .geometry import partial_derivative

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
      hh_v[..., mu, nu, d]       identically zero; the vertical output is
                                 carried by ``half_curvature`` instead
      hv_h[..., mu, b, sigma], hv_v[..., mu, b, d]
      vh_h[..., a, nu, sigma], vh_v[..., a, nu, d]
      vv_h[..., a, b, sigma],  vv_v[..., a, b, d]
    Structure pieces:
      half_curvature[..., mu, nu, d]  = F^d_{mu nu} / 2
      mixed_rotation[..., mu, b, f]   = A^e_mu C_eb^f
      half_structure[a, b, c]         = C_ab^c / 2
    Caches: nabla_g_int[..., mu, a, b] and lie_g_int[..., c, a, b].
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
    nabla_g_int: dict
    lie_g_int: dict


def _grad_field(arr, ch, order):
    """Stack the coordinate derivatives on a new axis ahead of the value axes."""
    return np.stack(
        [partial_derivative(arr, ch, axis=mu, order=order) for mu in range(ch.dim)],
        axis=ch.dim if arr.ndim > ch.dim else -1,
    )


def _nabla_g_int(gI, dgI, N):
    """nabla_mu g_ab = del_mu g_ab - N_mu_a^f g_fb - N_mu_b^f g_af."""
    rot = _einsum("...maf,...fb->...mab", N, gI)
    return dgI - rot - np.swapaxes(rot, -1, -2)


def christoffel(riem) -> ChristoffelTable:
    """All eight symbol families of the metric connection, plus the pieces."""
    man = riem.man
    C = riem.conn.basis.structure
    m = riem.conn.basis.dim
    Fd = curvature_F(riem.conn)
    out = {
        key: {}
        for key in (
            "hh_h", "hh_v", "hv_h", "hv_v", "vh_h", "vh_v", "vv_h", "vv_v",
            "half_curvature", "mixed_rotation", "nabla_g_int", "lie_g_int",
        )
    }
    for ch in man.charts:
        name = ch.name
        d = ch.dim
        gM = riem.base.g[name]
        hM = riem.base.inv[name]
        gI = riem.internal[name]
        hI = riem.hint[name]
        A = riem.conn.A[name]
        F = Fd[name]

        dgM = _grad_field(gM, ch, TABLE_ORDER)  # [..., mu, nu, rho]
        sym = dgM + np.swapaxes(dgM, -3, -2) - np.moveaxis(dgM, -3, -1)
        out["hh_h"][name] = 0.5 * _einsum("...sr,...mnr->...mns", hM, sym)
        out["hh_v"][name] = np.zeros(ch.shape + (d, d, m))
        out["half_curvature"][name] = 0.5 * F

        lowered = _einsum("...mre,...eb->...mbr", F, gI)  # F^e_{mu rho} g_eb
        out["hv_h"][name] = -0.5 * _einsum("...sr,...mbr->...mbs", hM, lowered)
        out["vh_h"][name] = np.swapaxes(out["hv_h"][name], -3, -2)

        N = _einsum("...me,ebf->...mbf", A, C)
        out["mixed_rotation"][name] = N
        dgI = _grad_field(gI, ch, TABLE_ORDER)
        nab = _nabla_g_int(gI, dgI, N)
        out["nabla_g_int"][name] = nab
        out["hv_v"][name] = 0.5 * _einsum("...dc,...mbc->...mbd", hI, nab)
        out["vh_v"][name] = np.swapaxes(out["hv_v"][name], -3, -2)
        out["vv_h"][name] = -0.5 * _einsum("...sr,...rab->...abs", hM, nab)

        lie = -_einsum("cae,...eb->...cab", C, gI)
        lie = lie + np.swapaxes(lie, -1, -2)
        out["lie_g_int"][name] = lie
        out["vv_v"][name] = -0.5 * _einsum("...dc,...cab->...abd", hI, lie)
    return ChristoffelTable(half_structure=0.5 * C, **out)


def torsion_residual(riem, table: ChristoffelTable | None = None,
                     check_order: int = CHECK_ORDER) -> float:
    """max |D_X Y - D_Y X - [X, Y]| over frame pairs, componentwise.

    Brackets are evaluated with the diagnostic stencil; the lift-lift bracket
    is the field strength, the mixed bracket the potential rotation, the
    inner bracket the structure constants.
    """
    table = table or christoffel(riem)
    worst = 0.0
    bracket_F = curvature_F(riem.conn, order=check_order)
    for ch in riem.man.charts:
        name = ch.name
        pieces = [
            # lift-lift: horizontal part and vertical part
            table.hh_h[name] - np.swapaxes(table.hh_h[name], -3, -2),
            2.0 * table.half_curvature[name] - bracket_F[name],
            # lift-inner: the rotation piece appears on both sides and drops
            table.hv_h[name] - np.swapaxes(table.vh_h[name], -3, -2),
            table.hv_v[name] - np.swapaxes(table.vh_v[name], -3, -2),
            # inner-inner: the antisymmetric halves reproduce the bracket
            table.vv_h[name] - np.swapaxes(table.vv_h[name], -3, -2),
            table.vv_v[name] - np.swapaxes(table.vv_v[name], -3, -2),
        ]
        worst = max([worst] + [_sup(p) for p in pieces])
    return worst


def metricity_residual(riem, table: ChristoffelTable | None = None,
                       check_order: int = CHECK_ORDER) -> float:
    """max |X g(Y,Z) - g(D_X Y, Z) - g(Y, D_X Z)| over frame triples.

    The first term's coordinate derivatives use the diagnostic stencil; inner
    derivations annihilate the (central) metric coefficients.
    """
    table = table or christoffel(riem)
    worst = 0.0
    for ch in riem.man.charts:
        name = ch.name
        gM = riem.base.g[name]
        gI = riem.internal[name]
        dgM = _grad_field(gM, ch, check_order)
        dgI = _grad_field(gI, ch, check_order)
        N = table.mixed_rotation[name]
        # each piece is reduced as soon as it is formed, so that few arrays
        # are alive at once: this check sets the memory peak of `lc-check`
        low = _einsum("...mns,...sr->...mnr", table.hh_h[name], gM)
        worst = max(worst, _sup(dgM - low - np.swapaxes(low, -1, -2)))

        low = _einsum("...mne,...ec->...mnc", table.half_curvature[name], gI)
        cross = _einsum("...mcs,...sn->...mcn", table.hv_h[name], gM)
        worst = max(worst, _sup(low + np.swapaxes(cross, -1, -2)))

        low = _einsum("...mbf,...fc->...mbc", N + table.hv_v[name], gI)
        worst = max(worst, _sup(dgI - low - np.swapaxes(low, -1, -2)))

        low = _einsum("...ans,...sr->...anr", table.vh_h[name], gM)
        worst = max(worst, _sup(low + np.swapaxes(low, -1, -2)))

        low = _einsum("...and,...dc->...anc", table.vh_v[name], gI)
        cross = _einsum("...acs,...sn->...acn", table.vv_h[name], gM)
        worst = max(worst, _sup(low + np.swapaxes(cross, -1, -2)))

        half_vv = table.half_structure + table.vv_v[name]
        low = _einsum("...abe,...ec->...abc", half_vv, gI)
        worst = max(worst, _sup(low + np.swapaxes(low, -1, -2)))
    return worst


def koszul_residual(riem, table: ChristoffelTable | None = None,
                    check_order: int = CHECK_ORDER) -> float:
    """Direct evaluation of the defining identity
    2 g(D_X Y, Z) = X g(Y,Z) + Y g(X,Z) - Z g(X,Y)
                    + g([X,Y],Z) - g([X,Z],Y) - g([Y,Z],X)
    over all frame triples, as a max componentwise mismatch."""
    table = table or christoffel(riem)
    worst = 0.0
    bracket_F = curvature_F(riem.conn, order=check_order)
    for ch in riem.man.charts:
        name = ch.name
        gM = riem.base.g[name]
        gI = riem.internal[name]
        dgM = _grad_field(gM, ch, check_order)
        dgI = _grad_field(gI, ch, check_order)
        Ft = bracket_F[name]
        N = table.mixed_rotation[name]
        C = riem.conn.basis.structure

        # lift, lift; lift
        lhs = 2.0 * _einsum("...mns,...sr->...mnr", table.hh_h[name], gM)
        rhs = dgM + np.swapaxes(dgM, -3, -2) - np.moveaxis(dgM, -3, -1)
        worst = max(worst, _sup(lhs - rhs))

        # lift, lift; inner
        lhs = 2.0 * _einsum("...mne,...ec->...mnc", table.half_curvature[name], gI)
        rhs = _einsum("...mne,...ec->...mnc", Ft, gI)
        worst = max(worst, _sup(lhs - rhs))

        # lift, inner; lift
        lhs = 2.0 * _einsum("...mbs,...sn->...mbn", table.hv_h[name], gM)
        rhs = -_einsum("...mne,...eb->...mbn", Ft, gI)
        worst = max(worst, _sup(lhs - rhs))

        # lift, inner; inner
        lhs = 2.0 * _einsum("...mbf,...fc->...mbc", N + table.hv_v[name], gI)
        rot = _einsum("...mbf,...fc->...mbc", N, gI)
        rhs = dgI + rot - np.swapaxes(rot, -1, -2)
        worst = max(worst, _sup(lhs - rhs))

        # inner, lift; lift
        lhs = 2.0 * _einsum("...ans,...sr->...anr", table.vh_h[name], gM)
        rhs = -_einsum("...nre,...ea->...anr", Ft, gI)
        worst = max(worst, _sup(lhs - rhs))

        # inner, lift; inner
        lhs = 2.0 * _einsum("...and,...dc->...anc", table.vh_v[name], gI)
        rot = _einsum("...naf,...fc->...nac", N, gI)
        rhs = np.moveaxis(dgI, -3, -2) - np.moveaxis(rot, -3, -2)
        rhs = rhs - _einsum("...ncf,...fa->...anc", N, gI)
        worst = max(worst, _sup(lhs - rhs))

        # inner, inner; lift
        lhs = 2.0 * _einsum("...abs,...sr->...abr", table.vv_h[name], gM)
        rhs = -np.moveaxis(_nabla_g_int(gI, dgI, N), -3, -1)
        worst = max(worst, _sup(lhs - rhs))

        # inner, inner; inner
        half_vv = table.half_structure + table.vv_v[name]
        lhs = 2.0 * _einsum("...abe,...ec->...abc", half_vv, gI)
        rhs = (
            _einsum("abe,...ec->...abc", C, gI)
            - _einsum("ace,...eb->...abc", C, gI)
            - _einsum("bce,...ea->...abc", C, gI)
        )
        worst = max(worst, _sup(lhs - rhs))
    return worst


def residual_table(riem) -> dict:
    """The diagnostic summary used by the command-line `lc check`."""
    table = christoffel(riem)
    gamma_hh_v = max(_sup(table.hh_v[ch.name]) for ch in riem.man.charts)
    return {
        "torsion": torsion_residual(riem, table),
        "metricity": metricity_residual(riem, table),
        "koszul": koszul_residual(riem, table),
        "vertical_lift_lift_symbol": gamma_hh_v,
    }
