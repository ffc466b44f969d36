"""Connections: ordinary gauge potentials and noncommutative connections.

An ordinary connection is per-chart data A^a_mu together with the Lie basis
and the representation its values act in; it fixes the covariant frame
nabla_mu = partial_mu + ad(A_mu) and therefore the coframe in which
:mod:`ncym.nc_forms` stores components.  A noncommutative connection on top
of a reference A is the field pair (a_mu, phi_a): its 1-form has horizontal
components a_mu and vertical components phi_b - R(E_b), and its curvature is
computed both from closed component formulas and as d omega + omega wedge
omega; the two routes agreeing is the module's central self-check.

Shipped bundles: the basic SU(2) instanton on the 4-sphere (self-dual,
second Chern number one) and abelian monopoles on the 2-sphere, both with
explicit transition functions so cross-chart gluing is testable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from .errors import GluingError, ShapeError
from .geometry import (
    Manifold,
    build_sphere_two_charts,
    grid_points,
    interp_chart,
    partial_derivative,
)
from .lie_core import (
    LieBasis,
    Representation,
    build_representation,
    build_su,
    build_u1,
    component_in_basis,
)
from .nc_forms import (
    MixedForm,
    differential,
    form_from_components,
    interior_vertical,
    wedge,
    zero_form,
)

__all__ = [
    "OrdinaryConnection",
    "zero_connection",
    "constant_connection",
    "random_connection",
    "bpst_connection",
    "instanton_bundle",
    "monopole_connection",
    "monopole_bundle",
    "thooft_symbols",
    "quaternionic_transition",
    "curvature_F",
    "gluing_residuals",
    "gauge_transform_ordinary",
    "NCConnection",
    "canonical_ncc",
    "zero_ncc",
    "random_ncc",
    "to_omega",
    "from_omega",
    "nc_curvature",
    "nc_curvature_via_forms",
    "curvature_form",
    "gauge_transform",
    "infinitesimal_gauge",
    "geometric_gauge_action",
]


# ---------------------------------------------------------------------------
# ordinary connections
# ---------------------------------------------------------------------------


@dataclass
class OrdinaryConnection:
    """Per-chart gauge potential A^a_mu with its Lie basis and representation.

    ``A[name]`` has shape chart.shape + (d, m), real components in the basis
    E_a.  Caches the field strength, the representation image R(A_mu) and
    whether a chart's potential is exactly zero.
    """

    man: Manifold
    basis: LieBasis
    rep: Representation
    A: dict
    _F: dict = field(default_factory=dict, repr=False)
    _repA: dict = field(default_factory=dict, repr=False)
    _zero: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        for ch in self.man.charts:
            a = self.A[ch.name]
            want = ch.shape + (ch.dim, self.basis.dim)
            if a.shape != want:
                raise ShapeError(f"A[{ch.name}] has shape {a.shape}, want {want}")
            if np.iscomplexobj(a) and np.max(np.abs(a.imag)) > 1e-12:
                raise ShapeError("gauge potential components must be real")

    def curvature(self) -> dict:
        """F^a_mu_nu per chart, shape + (d, d, m)."""
        if not self._F:
            self._F = curvature_F(self)
        return self._F

    def rep_potential(self, name: str) -> np.ndarray:
        """R(A_mu) per chart, shape + (d, k, k)."""
        if name not in self._repA:
            self._repA[name] = self.rep.contract(self.A[name])
        return self._repA[name]

    def zero_potential(self, name: str) -> bool:
        """Whether A has no non-zero entry on the chart, so that R(A), F and
        every term linear in A vanish there identically."""
        if name not in self._zero:
            self._zero[name] = not self.A[name].any()
        return self._zero[name]

    def fund_potential(self, name: str) -> np.ndarray:
        """A_mu contracted with the defining basis matrices, shape + (d, n, n)."""
        return self.basis.contract(self.A[name])


def curvature_F(conn: OrdinaryConnection, order: int = 2) -> dict:
    """Field strength F^a = dA^a + C_bc^a A^b A^c, antisymmetric in (mu, nu).

    ``order`` selects the stencil width of the derivative; evaluators that
    integrate the field strength pass 4 for a faster approach to the
    continuum.
    """
    out = {}
    C = conn.basis.structure
    for ch in conn.man.charts:
        A = conn.A[ch.name]
        d = ch.dim
        dA = np.stack(
            [partial_derivative(A, ch, mu, order=order) for mu in range(d)],
            axis=-3,
        )  # shape + (mu, nu, a)
        F = dA - np.swapaxes(dA, -3, -2)
        F = F + np.einsum("...mb,...nc,bca->...mna", A, A, C, optimize=True)
        out[ch.name] = F
    return out


def zero_connection(man: Manifold, basis: LieBasis, rep: Representation) -> OrdinaryConnection:
    A = {
        ch.name: np.zeros(ch.shape + (ch.dim, basis.dim))
        for ch in man.charts
    }
    return OrdinaryConnection(man, basis, rep, A)


def constant_connection(
    man: Manifold, basis: LieBasis, rep: Representation, coeffs: np.ndarray
) -> OrdinaryConnection:
    """Constant potential A^a_mu = coeffs[mu, a] on every chart."""
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (man.dim, basis.dim):
        raise ShapeError("constant coefficients must have shape (d, m)")
    A = {
        ch.name: np.broadcast_to(coeffs, ch.shape + coeffs.shape).copy()
        for ch in man.charts
    }
    return OrdinaryConnection(man, basis, rep, A)


def random_connection(
    man: Manifold,
    basis: LieBasis,
    rep: Representation,
    seed: int,
    amplitude: float = 0.3,
) -> OrdinaryConnection:
    """Smooth random potential: low-frequency cosines on periodic charts, a
    decaying polynomial profile on bounded ones.  Per-chart data only — no
    gluing is arranged, so use it on single-chart manifolds or for local
    experiments."""
    rng = np.random.default_rng(seed)
    A = {}
    for ch in man.charts:
        x = grid_points(ch)
        arr = np.zeros(ch.shape + (ch.dim, basis.dim))
        for mu in range(ch.dim):
            for a in range(basis.dim):
                if all(ch.periodic):
                    acc = np.zeros(ch.shape)
                    for _ in range(2):
                        kvec = rng.integers(-2, 3, size=ch.dim)
                        phase = rng.uniform(0, 2 * np.pi)
                        acc += rng.normal() * np.cos(
                            np.tensordot(x, kvec, axes=([-1], [0])) + phase
                        )
                    arr[..., mu, a] = amplitude * acc
                else:
                    scale = 0.5 * ch.spacing[0] * ch.shape[0]
                    rho2 = np.sum(x * x, axis=-1) / scale**2
                    lin = np.tensordot(x / scale, rng.normal(size=ch.dim), axes=([-1], [0]))
                    arr[..., mu, a] = amplitude * (rng.normal() + lin) * np.exp(-rho2)
        A[ch.name] = arr
    return OrdinaryConnection(man, basis, rep, A)


# ---------------------------------------------------------------------------
# the instanton bundle on the 4-sphere
# ---------------------------------------------------------------------------


def thooft_symbols(anti: bool = False) -> np.ndarray:
    """Self-dual (or anti-self-dual) eta symbols, shape (3, 4, 4).

    eta[a, b, c] = epsilon_abc on the first three slots; the fourth
    coordinate row/column carries -delta/+delta, with both signs flipped for
    the anti symbols.
    """
    eta = np.zeros((3, 4, 4))
    for a in range(3):
        for b in range(3):
            for c in range(3):
                eta[a, b, c] = (a - b) * (b - c) * (c - a) / 2.0
    s = -1.0 if anti else 1.0
    for a in range(3):
        eta[a, 3, a] = -s
        eta[a, a, 3] = s
    return eta


def quaternionic_transition(x: np.ndarray) -> np.ndarray:
    """SU(2) transition of the instanton bundle: the unit quaternion
    (x4 - i x.sigma)/|x| in the defining representation."""
    x = np.asarray(x, dtype=float)
    norm = np.sqrt(np.sum(x * x, axis=-1))
    sig = [
        np.array([[0, 1], [1, 0]], dtype=complex),
        np.array([[0, -1j], [1j, 0]], dtype=complex),
        np.array([[1, 0], [0, -1]], dtype=complex),
    ]
    t = x[..., 3, None, None] * np.eye(2) - 1j * sum(
        x[..., a, None, None] * sig[a] for a in range(3)
    )
    return t / norm[..., None, None]


def instanton_bundle(
    npts: int, radius: float = 1.0, margin: float = 1.6
) -> tuple[Manifold, LieBasis, Representation]:
    """4-sphere with the SU(2) bundle of the basic instanton wired in."""
    man = build_sphere_two_charts(
        4, npts, radius, margin, transition=quaternionic_transition
    )
    lb = build_su(2)
    rep = build_representation(lb, "fundamental")
    return man, lb, rep


def bpst_connection(
    man: Manifold, basis: LieBasis, rep: Representation, rho: float = 1.0
) -> OrdinaryConnection:
    """The basic instanton of size rho, in regular gauge on the north chart.

    North: A^a_mu = 2 eta_{a mu nu} x^nu / (|x|^2 + rho^2); the south chart
    carries the size r^2/rho potential built on the anti symbols, which is
    the north form transported by the quaternionic transition.
    """
    if man.kind != "sphere" or man.dim != 4:
        raise ShapeError("the instanton potential lives on the 4-sphere charts")
    if basis.n != 2:
        raise ShapeError("the instanton potential is su(2)-valued")
    r = man.params["radius"]
    out = {}
    for ch, eta, size in (
        (man.chart("north"), thooft_symbols(), rho),
        (man.chart("south"), thooft_symbols(anti=True), r * r / rho),
    ):
        x = grid_points(ch)
        den = np.sum(x * x, axis=-1) + size * size
        A = 2.0 * np.einsum("amn,...n->...ma", eta, x) / den[..., None, None]
        out[ch.name] = A
    return OrdinaryConnection(man, basis, rep, out)


# ---------------------------------------------------------------------------
# abelian monopoles on the 2-sphere
# ---------------------------------------------------------------------------


def monopole_bundle(
    npts: int, charge: int, radius: float = 1.0, margin: float = 1.6
) -> tuple[Manifold, LieBasis, Representation]:
    """2-sphere with the degree-``charge`` circle bundle wired in."""

    def transition(x):
        x = np.asarray(x, dtype=float)
        z = x[..., 0] + 1j * x[..., 1]
        phase = (z / np.abs(z)) ** charge
        return phase[..., None, None]

    man = build_sphere_two_charts(2, npts, radius, margin, transition=transition)
    lb = build_u1()
    rep = Representation(k=1, matrices=lb.basis.copy(), kind="defining", pieces=())
    return man, lb, rep


def monopole_connection(
    man: Manifold, basis: LieBasis, rep: Representation, charge: int
) -> OrdinaryConnection:
    """Rotationally symmetric potential of the degree-``charge`` bundle.

    In matrix form A = i q (x1 dx2 - x2 dx1)/(r^2 + |x|^2) on the north
    chart and the charge-reversed expression on the south chart; the pair
    glues exactly through the phase transition (z/|z|)^q.
    """
    if man.kind != "sphere" or man.dim != 2:
        raise ShapeError("the monopole potential lives on the 2-sphere charts")
    r = man.params["radius"]
    scale = float(np.sqrt(2.0))  # E_1 = i/sqrt(2), so matrix iq needs sqrt(2) q
    out = {}
    for ch, q in ((man.chart("north"), charge), (man.chart("south"), -charge)):
        x = grid_points(ch)
        den = np.sum(x * x, axis=-1) + r * r
        A = np.zeros(ch.shape + (2, 1))
        A[..., 0, 0] = -scale * q * x[..., 1] / den
        A[..., 1, 0] = scale * q * x[..., 0] / den
        out[ch.name] = A
    return OrdinaryConnection(man, basis, rep, out)


# ---------------------------------------------------------------------------
# gluing diagnostics and ordinary gauge transformations
# ---------------------------------------------------------------------------


def gluing_residuals(conn: OrdinaryConnection) -> dict:
    """Cross-chart consistency of the potential and field strength.

    For every directed overlap with a transition t: compares the pullback of
    the destination potential with t A t^-1 + t d(t^-1), and the pulled-back
    field strength with t F t^-1, in the defining matrices.  Returns relative
    sup-norm residuals per overlap; interpolation and stencils limit the
    attainable residual to second order in the grid spacing.
    """
    out = {}
    for ov in conn.man.overlaps:
        if ov.transition is None:
            continue
        src = conn.man.chart(ov.src)
        dst = conn.man.chart(ov.dst)
        mask, jac = ov.mask, ov.jac  # J[i, j] = d y^i / d x^j

        # destination fields are sampled as real components, then contracted
        A_src = conn.basis.contract(conn.A[ov.src])  # shape + (d, n, n)
        A_dst_at = conn.basis.contract(interp_chart(dst, conn.A[ov.dst], ov.y))
        lhs_A = np.einsum("pmij,pmn->pnij", A_dst_at, jac, optimize=True)

        t_grid = ov.transition(grid_points(src))
        tinv_grid = np.conj(np.swapaxes(t_grid, -1, -2))
        dtinv = np.stack(
            [partial_derivative(tinv_grid, src, mu) for mu in range(src.dim)],
            axis=-3,
        )
        t = t_grid[mask]
        tinv = tinv_grid[mask]
        inhom = np.einsum("pij,pmjk->pmik", t, dtinv[mask], optimize=True)
        rhs_A = np.einsum("pij,pmjk,pkl->pmil", t, A_src[mask], tinv, optimize=True) + inhom
        scale_A = max(np.max(np.abs(A_src)), 1e-30)
        res_A = float(np.max(np.abs(lhs_A - rhs_A)) / scale_A)

        F_src = conn.basis.contract(conn.curvature()[ov.src])
        F_dst_at = conn.basis.contract(interp_chart(dst, conn.curvature()[ov.dst], ov.y))
        lhs_F = np.einsum("pmnij,pmr,pns->prsij", F_dst_at, jac, jac, optimize=True)
        rhs_F = np.einsum("pij,pmnjk,pkl->pmnil", t, F_src[mask], tinv, optimize=True)
        scale_F = max(np.max(np.abs(F_src)), 1e-30)
        res_F = float(np.max(np.abs(lhs_F - rhs_F)) / scale_F)

        out[(ov.src, ov.dst)] = {"potential": res_A, "field_strength": res_F}
    if not out:
        raise GluingError("no overlap carries a transition function")
    return out


def _check_unitary_field(k: int, U: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Validate a pointwise k x k unitary field; re-project small drift."""
    if U.shape[-2:] != (k, k):
        raise ShapeError(f"gauge field must be {k} x {k} valued")
    eye = np.eye(k)
    drift = np.max(np.abs(np.swapaxes(np.conj(U), -1, -2) @ U - eye))
    if drift > tol:
        raise ShapeError(f"gauge field is not unitary (drift {drift:.2e})")
    if drift > 1e-14:
        uu, _, vh = np.linalg.svd(U)
        U = uu @ vh
    return U


def _check_group_valued(basis: LieBasis, U: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Validate a pointwise structure-group field: unitary, unit determinant."""
    U = _check_unitary_field(basis.n, U, tol)
    det = np.linalg.det(U)
    if np.max(np.abs(det - 1.0)) > 1e-8:
        raise ShapeError("group field must have unit determinant")
    return U


def gauge_transform_ordinary(conn: OrdinaryConnection, U: dict) -> OrdinaryConnection:
    """A -> U^-1 A U + U^-1 dU pointwise in the defining matrices."""
    newA = {}
    for ch in conn.man.charts:
        u = _check_group_valued(conn.basis, np.asarray(U[ch.name], dtype=complex))
        uinv = np.conj(np.swapaxes(u, -1, -2))
        Amat = conn.fund_potential(ch.name)
        du = np.stack(
            [partial_derivative(u, ch, mu) for mu in range(ch.dim)], axis=-3
        )
        transformed = np.einsum("...ij,...mjk,...kl->...mil", uinv, Amat, u)
        transformed = transformed + np.einsum("...ij,...mjk->...mik", uinv, du)
        newA[ch.name] = np.stack(
            [
                component_in_basis(conn.basis, transformed[..., mu, :, :])
                for mu in range(ch.dim)
            ],
            axis=-2,
        )
    return OrdinaryConnection(conn.man, conn.basis, conn.rep, newA)


# ---------------------------------------------------------------------------
# noncommutative connections
# ---------------------------------------------------------------------------


@dataclass
class NCConnection:
    """Field pair (a_mu, phi_a) over a reference ordinary connection.

    ``a[name]`` has shape chart.shape + (d, k, k) and ``phi[name]`` shape
    chart.shape + (m, k, k); both are anti-hermitian valued.
    """

    ref: OrdinaryConnection
    a: dict
    phi: dict

    def __post_init__(self):
        for ch in self.ref.man.charts:
            k = self.ref.rep.k
            wa = ch.shape + (ch.dim, k, k)
            wp = ch.shape + (self.ref.basis.dim, k, k)
            if self.a[ch.name].shape != wa:
                raise ShapeError(f"a[{ch.name}] has shape {self.a[ch.name].shape}, want {wa}")
            if self.phi[ch.name].shape != wp:
                raise ShapeError(
                    f"phi[{ch.name}] has shape {self.phi[ch.name].shape}, want {wp}"
                )

    def copy(self) -> "NCConnection":
        return NCConnection(
            self.ref,
            {k: v.copy() for k, v in self.a.items()},
            {k: v.copy() for k, v in self.phi.items()},
        )


def zero_ncc(ref: OrdinaryConnection) -> NCConnection:
    k = ref.rep.k
    a = {
        ch.name: np.zeros(ch.shape + (ch.dim, k, k), dtype=complex)
        for ch in ref.man.charts
    }
    phi = {
        ch.name: np.zeros(ch.shape + (ref.basis.dim, k, k), dtype=complex)
        for ch in ref.man.charts
    }
    return NCConnection(ref, a, phi)


def canonical_ncc(ref: OrdinaryConnection) -> NCConnection:
    """The distinguished flat-fiber point: a = 0, phi_a = R(E_a)."""
    out = zero_ncc(ref)
    for ch in ref.man.charts:
        out.phi[ch.name] = out.phi[ch.name] + ref.rep.matrices
    return out


def _random_antiherm(rng, shape, k, amplitude):
    z = rng.normal(size=shape + (k, k)) + 1j * rng.normal(size=shape + (k, k))
    return amplitude * 0.5 * (z - np.conj(np.swapaxes(z, -1, -2)))


def random_ncc(
    ref: OrdinaryConnection,
    seed: int,
    amplitude: float = 0.5,
    x_dependent: bool = False,
) -> NCConnection:
    """Random anti-hermitian (a, phi); constant unless x_dependent, in which
    case a smooth cosine profile multiplies each component."""
    rng = np.random.default_rng(seed)
    out = zero_ncc(ref)
    k = ref.rep.k
    for ch in ref.man.charts:
        x = grid_points(ch)
        for store, count in ((out.a, ch.dim), (out.phi, ref.basis.dim)):
            vals = _random_antiherm(rng, (count,), k, amplitude)
            vals = np.broadcast_to(vals, ch.shape + (count, k, k)).copy()
            if x_dependent:
                for j in range(count):
                    kvec = rng.integers(1, 3, size=ch.dim)
                    phase = rng.uniform(0, 2 * np.pi)
                    prof = np.cos(np.tensordot(x, kvec, axes=([-1], [0])) + phase)
                    vals[..., j, :, :] *= prof[..., None, None]
            store[ch.name] = vals
    return out


# ---------------------------------------------------------------------------
# the connection 1-form and the two curvature routes
# ---------------------------------------------------------------------------


def to_omega(ncc: NCConnection, name: str) -> MixedForm:
    """Connection 1-form on a chart: horizontal components a_mu, vertical
    components phi_b - R(E_b)."""
    ch = ncc.ref.man.chart(name)
    d, m = ch.dim, ncc.ref.basis.dim
    comps = {}
    for mu in range(d):
        comps[(mu,)] = ncc.a[name][..., mu, :, :]
    for b in range(m):
        comps[(d + b,)] = ncc.phi[name][..., b, :, :] - ncc.ref.rep.matrices[b]
    return form_from_components(ncc.ref, ch, 1, comps)


def from_omega(omega: MixedForm) -> tuple[np.ndarray, np.ndarray]:
    """Invert to_omega on one chart: returns (a, phi) arrays."""
    if omega.degree != 1:
        raise ShapeError("connection forms have degree 1")
    d, m, k = omega.d, omega.m, omega.k
    a = np.stack([omega.get((mu,)) for mu in range(d)], axis=-3)
    phi = np.stack(
        [omega.get((d + b,)) + omega.rep.matrices[b] for b in range(m)], axis=-3
    )
    return a, phi


def ncc_from_omegas(ref: OrdinaryConnection, omegas: dict) -> NCConnection:
    a, phi = {}, {}
    for name, w in omegas.items():
        a[name], phi[name] = from_omega(w)
    return NCConnection(ref, a, phi)


def _comm(x, y):
    return x @ y - y @ x


def _comm_pairs(x):
    """[x_i, x_j] for every ordered pair of a stack x of shape (..., n, k, k).

    One product P_ij = x_i x_j per ordered pair, and the commutator is
    P - P^T in (i, j): each block is the same product on the same data as in
    ``_comm(x[..., :, None, :, :], x[..., None, :, :, :])``, so the result is
    bitwise equal to it, at half the block products.
    """
    P = x[..., :, None, :, :] @ x[..., None, :, :, :]
    return P - np.swapaxes(P, -4, -3)


def nc_curvature(ncc: NCConnection) -> dict:
    """Curvature components per chart from the closed formulas.

    Returns {name: {"hh": shape+(d,d,k,k), "hv": shape+(d,m,k,k),
    "vv": shape+(m,m,k,k)}} with hh and vv antisymmetric.

    On a chart whose reference potential is exactly zero (the trivial
    bundle's reference, ``OrdinaryConnection.zero_potential``) the terms in
    R(A), A and F vanish identically and are not formed; every other chart
    evaluates them in the same order, so both give the same bits.  The
    self-commutators [a_mu, a_nu] and [phi_a, phi_b] take one block product
    per ordered pair (``_comm_pairs``).
    """
    ref = ncc.ref
    C = ref.basis.structure
    out = {}
    for ch in ref.man.charts:
        name = ch.name
        d = ch.dim
        a = ncc.a[name]
        phi = ncc.phi[name]

        # covariant derivatives of a and phi along the frame
        da = np.stack([partial_derivative(a, ch, mu) for mu in range(d)], axis=-4)
        dphi = np.stack([partial_derivative(phi, ch, mu) for mu in range(d)], axis=-4)
        if ref.zero_potential(name):
            hh = da - np.swapaxes(da, -4, -3)
            cov_phi = dphi
        else:
            A = ref.A[name]
            F = ref.curvature()[name]
            RA = ref.rep_potential(name)
            cov_a = da + _comm(RA[..., :, None, :, :], a[..., None, :, :, :])
            cov_phi = dphi + _comm(RA[..., :, None, :, :], phi[..., None, :, :, :])
            cov_phi = cov_phi - np.einsum(
                "...ma,abc,...cij->...mbij", A, C, phi
            )
            RF = ref.rep.contract(F)
            phiF = np.einsum("...mna,...aij->...mnij", F, phi)
            hh = RF - phiF + cov_a - np.swapaxes(cov_a, -4, -3)
        hh = hh + _comm_pairs(a)

        hv = cov_phi + _comm(a[..., :, None, :, :], phi[..., None, :, :, :])

        vv = _comm_pairs(phi)
        vv = vv - np.einsum("abc,...cij->...abij", C, phi)

        out[name] = {"hh": hh, "hv": hv, "vv": vv}
    return out


def curvature_form(ncc: NCConnection, name: str, comps: dict | None = None) -> MixedForm:
    """Package nc_curvature components as a degree-2 form on a chart."""
    ch = ncc.ref.man.chart(name)
    d, m = ch.dim, ncc.ref.basis.dim
    if comps is None:
        comps = nc_curvature(ncc)[name]
    w = zero_form(ncc.ref, ch, 2)
    for mu in range(d):
        for nu in range(mu + 1, d):
            w.set((mu, nu), comps["hh"][..., mu, nu, :, :])
    for mu in range(d):
        for b in range(m):
            w.set((mu, d + b), comps["hv"][..., mu, b, :, :])
    for a_ in range(m):
        for b in range(a_ + 1, m):
            w.set((d + a_, d + b), comps["vv"][..., a_, b, :, :])
    return w.prune()


def nc_curvature_via_forms(ncc: NCConnection, name: str) -> MixedForm:
    """The independent route: d omega + omega wedge omega."""
    w = to_omega(ncc, name)
    return differential(w) + wedge(w, w)


# ---------------------------------------------------------------------------
# gauge actions
# ---------------------------------------------------------------------------


def gauge_transform(ncc: NCConnection, U: dict) -> NCConnection:
    """Unitary transformation implemented at the 1-form level:
    omega -> U^-1 omega U + U^-1 d omega-argument U, then re-split."""
    ref = ncc.ref
    k = ref.rep.k
    omegas = {}
    for ch in ref.man.charts:
        u = _check_unitary_field(k, np.asarray(U[ch.name], dtype=complex))
        uinv = np.conj(np.swapaxes(u, -1, -2))
        w = to_omega(ncc, ch.name)
        uform = MixedForm(0, ch, ref, {(): u})
        du = differential(uform)
        new = zero_form(ref, ch, 1)
        for key, val in w.comps.items():
            new.add_to(key, uinv @ val @ u)
        for key, val in du.comps.items():
            new.add_to(key, uinv @ val)
        omegas[ch.name] = new
    return ncc_from_omegas(ref, omegas)


def infinitesimal_gauge(ncc: NCConnection, gamma: dict) -> dict:
    """Tangent of the gauge action at gamma: d gamma + [omega, gamma],
    split into {"a": {name: delta a}, "phi": {name: delta phi}}."""
    ref = ncc.ref
    da, dphi = {}, {}
    for ch in ref.man.charts:
        g = np.asarray(gamma[ch.name], dtype=complex)
        RA = ref.rep_potential(ch.name)
        grad = np.stack(
            [partial_derivative(g, ch, mu) for mu in range(ch.dim)], axis=-3
        )
        grad = grad + _comm(RA, g[..., None, :, :])
        da[ch.name] = grad + _comm(ncc.a[ch.name], g[..., None, :, :])
        dphi[ch.name] = _comm(ncc.phi[ch.name], g[..., None, :, :])
    return {"a": da, "phi": dphi}


def geometric_gauge_action(w: MixedForm, gamma: np.ndarray) -> MixedForm:
    """Minus the Lie derivative along the inner derivation of gamma (an
    n x n anti-hermitian field on the chart), by the Cartan formula."""
    comps = component_in_basis(w.ref.basis, np.asarray(gamma, dtype=complex))
    return (-1.0) * (
        interior_vertical(differential(w), comps)
        + differential(interior_vertical(w, comps))
    )
