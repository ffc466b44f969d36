"""Characteristic forms and numbers of ordinary connections.

Builds the degree-2q characteristic form of a bundle connection by feeding
the field strength into an invariant symmetric polynomial (the same
symmetrized trace as :func:`ncym.lie_core.invariant_polynomial`),
antisymmetrizing over base indices, and normalizing with powers of i/(2 pi)
so that top-degree integrals are integer bundle invariants.  The degree-2
class uses the determinant expansion, c2 = (c1 ^ c1 - s2) / 2, which for a
traceless field strength is minus the quadratic trace form; with this
convention the shipped self-dual instanton bundle has charge +1.

Closedness is measured by a finite-difference exterior derivative below top
degree and by cross-chart gluing consistency at top degree, where the form
on one chart must pull back to the other through the transition Jacobian.
"""

import itertools
import math

import numpy as np

from .connections import OrdinaryConnection, curvature_F
from .errors import InvalidRank
from .geometry import interp_chart, partial_derivative
from .nc_forms import _perm_sign

__all__ = ["ChernForm", "chern_form", "closedness_residual", "chern_number"]

TWO_PI = 2.0 * np.pi

# Stencil width used for every derivative taken in this module, both for the
# field strength entering the invariant polynomial and for the closedness
# check.  The wider stencil roughly squares the relative accuracy of the
# integrated invariants at the shipped grid sizes, and using one order
# everywhere keeps d(dA) telescoping to rounding noise on abelian bundles.
STENCIL_ORDER = 4

# The pairings of the 2q slots of a degree-2q key, one ordering each, written
# flat as (a0, b0, a1, b1, ...) with a_i < b_i and a0 < a1 < ...
PAIRINGS = {1: ((0, 1),), 2: ((0, 1, 2, 3), (0, 2, 1, 3), (0, 3, 1, 2))}


class ChernForm:
    """Real scalar components of a degree-2q form on the base, per chart.

    ``comps[name][key]`` is the evaluation on the coordinate derivations
    named by the sorted index tuple ``key``.
    """

    def __init__(self, man, q: int, comps: dict):
        self.man = man
        self.q = q
        self.comps = comps

    @property
    def degree(self) -> int:
        return 2 * self.q

    def integral(self) -> float:
        """Integral of the top-degree form over the base.  It is topological:
        no metric enters, only the partition of unity, the chart orientations
        and the cell volumes."""
        man = self.man
        if self.degree != man.dim:
            raise InvalidRank(
                f"degree-{self.degree} form cannot saturate a {man.dim}-dimensional base"
            )
        key = tuple(range(man.dim))
        total = 0.0
        for ch in man.charts:
            comp = man.weights[ch.name] * self.comps[ch.name][key]
            total += ch.orientation * float(np.sum(comp)) * ch.cell_volume
        return total


def chern_form(conn: OrdinaryConnection, q: int) -> ChernForm:
    """Degree-2q characteristic class form of the connection.

    q = 1: (i / 2 pi) tr F.
    q = 2: the determinant-expansion class ((i/2pi)^2 / 2) (tr F tr F
    - tr(F F)), antisymmetrized over the four base slots: the permutation
    sum divided by 2^q, the shuffle sum defining the wedge of q two-forms.
    The summand is antisymmetric within each slot pair and symmetric under
    exchanging pairs, so that sum is q! times the signed sum over the
    pairings of the slots, which is what is evaluated.
    """
    d = conn.man.dim
    if q < 1:
        raise InvalidRank("polynomial degree must be at least 1")
    if 2 * q > d:
        raise InvalidRank(f"degree-{2 * q} form on a {d}-dimensional base")
    if q > 2:
        raise InvalidRank("characteristic classes shipped through degree 4")
    comps = {}
    F = curvature_F(conn, order=STENCIL_ORDER)
    for ch in conn.man.charts:
        # pair-major: Fm[mu, nu] is the (..., k, k) matrix field of F_mu_nu
        Fm = np.moveaxis(conn.rep.contract(F[ch.name]), (-4, -3), (0, 1))
        trF = np.einsum("...aa->...", Fm)
        here = {}
        for key in itertools.combinations(range(d), 2 * q):
            acc = 0.0
            for pairing in PAIRINGS[q]:
                idx = [key[p] for p in pairing]
                sign = _perm_sign(idx)
                if q == 1:
                    acc = acc + sign * trF[idx[0], idx[1]]
                else:
                    i, j, k, l = idx
                    pair = np.einsum("...ab,...ba->...", Fm[i, j], Fm[k, l])
                    acc = acc + sign * (trF[i, j] * trF[k, l] - pair)
            # q! turns the pairing sum into the shuffle sum of the wedge; the
            # extra 1/2 below is the determinant-expansion factor.
            acc = acc * math.factorial(q) * (1j / TWO_PI) ** q
            if q == 2:
                acc = acc * 0.5
            if np.max(np.abs(acc.imag)) > 1e-10 * max(np.max(np.abs(acc.real)), 1.0):
                raise InvalidRank("characteristic component failed to be real")
            here[key] = np.ascontiguousarray(acc.real)
        comps[ch.name] = here
    return ChernForm(conn.man, q, comps)


def closedness_residual(cf: ChernForm) -> float:
    """How far the form is from closed, at the grid's resolution.

    Below top degree: max component of the finite-difference exterior
    derivative.  At top degree on a one-chart base: exactly zero.  At top
    degree on a glued base: the worst mismatch, over overlap points, between
    a chart's component and the neighbor's component pulled back through the
    transition Jacobian, relative to the peak magnitude of the source
    component (the same normalization as the potential-gluing diagnostic).
    A NaN anywhere makes the residual NaN.
    """
    man = cf.man
    d = man.dim
    r = cf.degree
    if r < d:
        worst = 0.0
        for ch in man.charts:
            here = cf.comps[ch.name]
            for key in itertools.combinations(range(d), r + 1):
                val = 0.0
                for j, mu in enumerate(key):
                    rest = key[:j] + key[j + 1 :]
                    val = val + (-1.0) ** j * partial_derivative(
                        here[rest], ch, axis=mu, order=STENCIL_ORDER
                    )
                worst = float(np.maximum(worst, np.max(np.abs(val))))
        return worst
    if len(man.charts) == 1:
        return 0.0
    key = tuple(range(d))
    worst = 0.0
    for ov in man.overlaps:
        det = np.linalg.det(ov.jac)
        c_src = cf.comps[ov.src][key][ov.mask]
        c_dst = interp_chart(man.chart(ov.dst), cf.comps[ov.dst][key], ov.y)
        scale = max(float(np.max(np.abs(cf.comps[ov.src][key]))), 1e-30)
        err = np.max(np.abs(c_src - c_dst * det)) / scale
        worst = float(np.maximum(worst, err))
    return worst


def chern_number(conn: OrdinaryConnection, q: int) -> float:
    """Integral of the top characteristic form over the base; metric-free,
    see :meth:`ChernForm.integral`."""
    return chern_form(conn, q).integral()
