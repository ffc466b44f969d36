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

The symbols are pointwise, built and checked slab by slab: their fields
come from `geometry.row_slabs`, index axes first and the slab's grid points
last, so that every einsum's inner loop runs over the points, and no field
is formed for a whole chart.  `christoffel` joins the slabs into grid-first
views.  The base metric c delta lowers by c and raises by h = 1 / c.
"""

from dataclasses import dataclass, fields

import numpy as np

from . import geometry
from .connections import _field_strength
from .geometry import sup

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


def _slabs(riem, ch, orders):
    """Per slab of chart ``ch`` (:func:`geometry.row_slabs`), the fields
    the symbols are built from, one points-last dict per stencil order in
    ``orders``: c and h = 1 / c, the fiber block and its inverse, the
    potential (shared between the orders), and dc delta, dg_I and the field
    strength at that order."""
    name, C = ch.name, riem.conn.basis.structure
    fields = {"c": riem.base.conf[name], "gI": riem.internal[name], "hI": riem.hint[name],
              "A": riem.conn.slab_field(name)}
    diff = [(key, order) for key in ("c", "gI", "A") for order in orders]
    delta = np.eye(ch.dim)[..., None]
    for _, slab in geometry.row_slabs(ch, fields, diff):
        shared = {key: slab[key] for key in ("c", "gI", "hI", "A")} | {"h": 1.0 / slab["c"]}
        yield [shared | {"dgM": slab["c", order][:, None, None] * delta, "dgI": slab["gI", order],
                         "F": _field_strength(slab["A"], slab["A", order], C)}
               for order in orders]


def _symbols(f: dict, C) -> dict:
    """The table's per-chart entries at the points of the points-last fields
    ``f``, plus the rotation N g_I and the lowered structure C g_I, which the
    residuals reuse."""
    h, gI, hI, dgM = f["h"], f["gI"], f["hI"], f["dgM"]
    out = {"hh_v": np.broadcast_to(0.0, f["F"].shape), "half_curvature": 0.5 * f["F"]}
    sym = dgM + dgM.swapaxes(0, 1) - np.moveaxis(dgM, 0, 2)
    out["hh_h"] = 0.5 * (h * sym)

    lowered = np.einsum("mrep,ebp->mbrp", f["F"], gI)  # F^e_{mu rho} g_eb
    out["hv_h"] = -0.5 * (h * lowered)
    out["vh_h"] = out["hv_h"].swapaxes(0, 1)

    N = out["mixed_rotation"] = np.einsum("mep,ebf->mbfp", f["A"], C)
    rot = out["rotation"] = np.einsum("mafp,fbp->mabp", N, gI)  # N_mu_a^f g_fb
    nab = f["dgI"] - rot - rot.swapaxes(1, 2)  # nabla_mu g_ab
    out["hv_v"] = 0.5 * np.einsum("dcp,mbcp->mbdp", hI, nab)
    out["vh_v"] = out["hv_v"].swapaxes(0, 1)
    out["vv_h"] = -0.5 * (h * np.moveaxis(nab, 0, 2))

    C_low = out["C_low"] = np.einsum("abe,ecp->abcp", C, gI)
    out["vv_v"] = 0.5 * np.einsum("dcp,cabp->abdp", hI, C_low + C_low.swapaxes(1, 2))
    return out


_PER_CHART = [f.name for f in fields(ChristoffelTable) if f.name != "half_structure"]


def christoffel(riem) -> ChristoffelTable:
    """All eight symbol families of the metric connection, plus the pieces,
    as grid-first views of the points-last symbols."""
    C = riem.conn.basis.structure
    out = {key: {} for key in _PER_CHART}
    for ch in riem.man.charts:
        blocks = [_symbols(tab, C) for tab, in _slabs(riem, ch, (TABLE_ORDER,))]
        for key in _PER_CHART:  # three index axes each
            arr = np.concatenate([sym[key] for sym in blocks], axis=-1)
            arr = arr.reshape(arr.shape[:-1] + ch.shape)
            out[key][ch.name] = np.moveaxis(arr, (0, 1, 2), (-3, -2, -1))
        out["hh_v"][ch.name] = np.broadcast_to(0.0, out["hh_v"][ch.name].shape)
    return ChristoffelTable(half_structure=0.5 * C, **out)


def residual_table(riem) -> dict:
    """Torsion, metricity, Koszul and vertical lift-lift sup norms, the
    diagnostic summary of the command-line `lc check`, in one pass over the
    charts, slab by slab (NaN if a piece is NaN)."""
    C = riem.conn.basis.structure
    pieces = [piece for ch in riem.man.charts
              for tab, chk in _slabs(riem, ch, (TABLE_ORDER, CHECK_ORDER))
              for piece in _chart_residuals(tab, chk, C)]
    return {key: sup(value for name, value in pieces if name == key)
            for key in ("torsion", "metricity", "koszul", "vertical_lift_lift_symbol")}


def _chart_residuals(tab: dict, chk: dict, C):
    """(identity, sup norm) of each mismatch piece on a slab with points-last
    fields ``tab`` (table order) and ``chk`` (check order).  Each lowered
    symbol g(D_X Y, Z) is formed once: metricity uses it as it is, the
    Koszul formula doubled; each piece is reduced as soon as it is formed."""
    sym = _symbols(tab, C)
    yield "vertical_lift_lift_symbol", sup(sym["hh_v"])
    c, gI, Ft = chk["c"], chk["gI"], chk["F"]
    hh_h, _, hv_h, hv_v, vh_h, vh_v, vv_h, vv_v, half_F, N = (sym[k] for k in _PER_CHART)
    rot, C_low = sym["rotation"], sym["C_low"]

    # torsion, D_X Y - D_Y X - [X, Y] over frame pairs: the lift-lift
    # bracket is the field strength, the lift-inner rotation piece drops
    # from both sides, the inner-inner antisymmetric halves give C_ab^c
    yield "torsion", sup(2.0 * half_F - Ft)
    pairs = ((hh_h, hh_h), (hv_h, vh_h), (hv_v, vh_v), (vv_h, vv_h), (vv_v, vv_v))
    for fam, mirror in pairs:
        yield "torsion", sup(fam - mirror.swapaxes(0, 1))

    # metricity, X g(Y,Z) - g(D_X Y, Z) - g(Y, D_X Z), and the Koszul
    # identity 2 g(D_X Y, Z) = X g(Y,Z) + Y g(X,Z) - Z g(X,Y)
    #   + g([X,Y],Z) - g([X,Z],Y) - g([Y,Z],X), over frame triples.
    # Inner derivations annihilate the (central) metric coefficients.
    dgM, dgI = chk["dgM"], chk["dgI"]
    F_low = np.einsum("mnep,ecp->mncp", Ft, gI)

    # lift, lift; lift
    low = hh_h * c
    yield "metricity", sup(dgM - low - low.swapaxes(1, 2))
    yield "koszul", sup(2.0 * low - (dgM + dgM.swapaxes(0, 1) - np.moveaxis(dgM, 0, 2)))

    # lift, lift; inner and lift, inner; lift
    low = np.einsum("mnep,ecp->mncp", half_F, gI)
    cross = hv_h * c
    yield "metricity", sup(low + cross.swapaxes(1, 2))
    yield "koszul", sup(2.0 * low - F_low)
    yield "koszul", sup(2.0 * cross + F_low.swapaxes(1, 2))

    # lift, inner; inner
    low = np.einsum("mbfp,fcp->mbcp", N + hv_v, gI)
    yield "metricity", sup(dgI - low - low.swapaxes(1, 2))
    yield "koszul", sup(2.0 * low - (dgI + rot - rot.swapaxes(1, 2)))

    # inner, lift; lift
    low = vh_h * c
    yield "metricity", sup(low + low.swapaxes(1, 2))
    yield "koszul", sup(2.0 * low + np.moveaxis(F_low, 2, 0))

    # inner, lift; inner and inner, inner; lift
    low = np.einsum("andp,dcp->ancp", vh_v, gI)
    cross = vv_h * c
    yield "metricity", sup(low + cross.swapaxes(1, 2))
    rhs = dgI.swapaxes(0, 1) - rot.swapaxes(0, 1) - np.moveaxis(rot, 2, 0)
    yield "koszul", sup(2.0 * low - rhs)
    yield "koszul", sup(2.0 * cross + np.moveaxis(dgI - rot - rot.swapaxes(1, 2), 0, 2))

    # inner, inner; inner
    low = np.einsum("abep,ecp->abcp", 0.5 * C[..., None] + vv_v, gI)
    yield "metricity", sup(low + low.swapaxes(1, 2))
    rhs = C_low - C_low.swapaxes(1, 2) - np.moveaxis(C_low, 2, 0)
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
