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
explicit transition functions so cross-chart gluing is testable; both
potentials are the rational form of :func:`_rational_potential`, by rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import GluingError, ShapeError
from .geometry import (
    Manifold,
    SamplingOperator,
    build_sphere_two_charts,
    derivatives,
    grid_points,
    relative,
    row_slabs,
    sampling_operator,
    sup,
)
from .lie_core import (
    LieBasis,
    Representation,
    _comm,
    _comm_pairs,
    build_representation,
    build_su,
    build_u1,
    closure_defect,
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

    The potential is stored, per-chart arrays of shape chart.shape + (d, m)
    (real components in the basis E_a), or analytic: a function of (chart,
    first-axis rows) that returns the grid-first potential on those rows, as
    :func:`bpst_connection` and :func:`monopole_connection` give it.  The
    slab readers (``chern_form``, ``gluing_residuals``, ``residual_table``)
    take a chart's potential from :meth:`slab_field`, so an analytic one is
    evaluated by rows and never formed on a whole chart.  ``A[name]`` is the
    whole-chart array: an analytic potential is formed on every chart at the
    first read of ``A`` and cached in ``_A``, as :meth:`curvature` caches F.
    Its readers are the Yang-Mills path, ``nc_forms``, ``metric``,
    :func:`gauge_transform_ordinary` and the self-check.  Also caches the
    representation image R(A_mu) and whether a chart's potential is exactly
    zero.
    """

    man: Manifold
    basis: LieBasis
    rep: Representation
    potential: dict | Callable
    _A: dict = field(default_factory=dict, repr=False)
    _F: dict = field(default_factory=dict, repr=False)
    _repA: dict = field(default_factory=dict, repr=False)
    _zero: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if not callable(self.potential):
            for ch in self.man.charts:
                self._checked(ch, self.potential[ch.name], ch.shape)

    def _checked(self, ch, a: np.ndarray, shape: tuple) -> np.ndarray:
        """``a``, refused unless it is a real, finite potential on grid points
        of ``shape`` on chart ``ch``."""
        want = shape + (ch.dim, self.basis.dim)
        if a.shape != want:
            raise ShapeError(f"A[{ch.name}] has shape {a.shape}, want {want}")
        if not np.isfinite(a).all():
            raise ShapeError("gauge potential components must be finite")
        if np.iscomplexobj(a) and not sup(a.imag) <= 1e-12:
            raise ShapeError("gauge potential components must be real")
        return a

    def slab_field(self, name: str):
        """The potential of chart ``name`` as a :func:`row_slabs` field: the
        stored array, or a function of first-axis rows that evaluates the
        analytic potential there and checks each block it forms."""
        if not callable(self.potential):
            return self.potential[name]
        ch = self.man.chart(name)
        return lambda rows: self._checked(ch, self.potential(ch, rows),
                                          (len(rows),) + ch.shape[1:])

    @property
    def A(self) -> dict:
        """The whole-chart potential per chart (see the class docstring)."""
        if not callable(self.potential):
            return self.potential
        if not self._A:
            self._A = {ch.name: self.slab_field(ch.name)(np.arange(ch.shape[0]))
                       for ch in self.man.charts}
        return self._A

    def curvature(self) -> dict:
        """F^a_mu_nu per chart, shape + (d, d, m), formed on the whole charts
        by :func:`curvature_F` at the first call and cached.  Its readers are
        the Yang-Mills path (:func:`nc_curvature` and the action's
        evaluation in ``yang_mills``) and the ``nc_forms`` oracle; the
        topology checks (``chern_form``, ``gluing_residuals``,
        ``residual_table``) form F one slab at a time from
        :meth:`slab_field`, and leave this cache and ``A``'s empty."""
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


def curvature_F(conn: OrdinaryConnection) -> dict:
    """Field strength F^a = dA^a + C_bc^a A^b A^c, antisymmetric in (mu, nu),
    from the order-2 stencil, filled one slab at a time."""
    out = {}
    C = conn.basis.structure
    for ch in conn.man.charts:
        A = conn.A[ch.name]
        F = out[ch.name] = np.empty(ch.shape + (ch.dim, ch.dim, conn.basis.dim),
                                    np.result_type(A, float))
        for pts, slab in row_slabs(ch, {"A": A}, [("A", 2)]):
            F.reshape((-1,) + F.shape[ch.dim:])[pts] = np.moveaxis(
                _field_strength(slab["A"], slab["A", 2], C), -1, 0)
    return out


def _field_strength(A: np.ndarray, dA: np.ndarray, C: np.ndarray) -> np.ndarray:
    """F^a_mu_nu = d_mu A^a_nu - d_nu A^a_mu + C_bc^a A^b_mu A^c_nu from a
    points-last potential (mu, a, p) and its derivatives (mu, nu, a, p)."""
    F = dA - dA.swapaxes(0, 1)
    F += np.einsum("mbp,nbap->mnap", A, np.einsum("ncp,bca->nbap", A, C))
    return F


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
        raise ShapeError(f"coeffs of shape {coeffs.shape}, want {(man.dim, basis.dim)}")
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
    """Smooth random potential: each component the sum of two cosines with
    random integer wave vectors in [-2, 2]^d, phases and normal amplitudes,
    on every chart.  Periodic on the torus, the one bundle whose config
    admits it; no gluing is arranged, so it is per-chart data elsewhere."""
    rng = np.random.default_rng(seed)
    A = {}
    for ch in man.charts:
        x = grid_points(ch)
        arr = np.zeros(ch.shape + (ch.dim, basis.dim))
        for mu in range(ch.dim):
            for a in range(basis.dim):
                acc = np.zeros(ch.shape)
                for _ in range(2):
                    kvec = rng.integers(-2, 3, size=ch.dim)
                    phase = rng.uniform(0, 2 * np.pi)
                    acc += rng.normal() * np.cos(np.tensordot(x, kvec, axes=([-1], [0])) + phase)
                arr[..., mu, a] = amplitude * acc
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


def _rational_potential(man: Manifold, basis, rep, table: dict, what: str) -> OrdinaryConnection:
    """The analytic potential A^a_mu = x^nu M[nu, mu m + a] / (|x|^2 + s^2),
    ``table[chart] = (s, M)`` with M a (d, d m) matrix, by rows (see
    :class:`OrdinaryConnection`); refused, naming ``what``, unless its bound
    max|M| max|x| / min(|x|^2 + s^2) over the charts is finite."""
    with np.errstate(all="ignore"):
        bound = sup(sup(M) * sup(man.chart(name).coords[0]) / (man.rho2[name].min() + s * s)
                    for name, (s, M) in table.items())
    if not np.isfinite(bound):
        raise ShapeError(f"gauge potential components must be finite ({what})")

    def on_rows(ch, rows):
        s, M = table[ch.name]
        den = man.rho2[ch.name][rows] + s * s
        A = (grid_points(ch, rows).reshape(-1, ch.dim) @ M).reshape(den.shape + (ch.dim, -1))
        return np.divide(A, den[..., None, None], out=A)

    return OrdinaryConnection(man, basis, rep, on_rows)


def bpst_connection(
    man: Manifold, basis: LieBasis, rep: Representation, rho: float = 1.0
) -> OrdinaryConnection:
    """The basic instanton of size rho, in regular gauge on the north chart.

    North: A^a_mu = 2 eta_{a mu nu} x^nu / (|x|^2 + rho^2); the south chart
    carries the size r^2/rho potential built on the anti symbols, which is
    the north form transported by the quaternionic transition.  Both are
    :func:`_rational_potential` with M = 2 eta as a (4, 4 * 3) matrix, each
    column a single +-2, so every product is exact in any order.
    """
    if man.kind != "sphere" or man.dim != 4:
        raise ShapeError("the instanton potential lives on the 4-sphere charts")
    if basis.n != 2:
        raise ShapeError("the instanton potential is su(2)-valued")
    r = man.params["radius"]
    table = {name: (size, 2.0 * eta.transpose(2, 1, 0).reshape(4, -1)) for name, size, eta in (
        ("north", rho, thooft_symbols()), ("south", r * r / rho, thooft_symbols(anti=True)))}
    return _rational_potential(man, basis, rep, table, f"instanton of size {rho!r}")


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
    rep = Representation(lb.basis.copy())
    return man, lb, rep


def monopole_connection(
    man: Manifold, basis: LieBasis, rep: Representation, charge: int
) -> OrdinaryConnection:
    """Rotationally symmetric potential of the degree-``charge`` bundle.

    In matrix form A = i q (x1 dx2 - x2 dx1)/(r^2 + |x|^2) on the north
    chart and the charge-reversed expression on the south chart; the pair
    glues exactly through the phase transition (z/|z|)^q.  Both are
    :func:`_rational_potential` with s = r and M = sqrt(2) q [[0, 1],
    [-1, 0]] (E_1 = i/sqrt(2), so matrix iq needs sqrt(2) q).
    """
    if man.kind != "sphere" or man.dim != 2:
        raise ShapeError("the monopole potential lives on the 2-sphere charts")
    r = man.params["radius"]
    table = {name: (r, np.array([[0.0, q], [-q, 0.0]])) for name, q in (
        ("north", float(np.sqrt(2.0)) * charge), ("south", float(np.sqrt(2.0)) * -charge))}
    return _rational_potential(man, basis, rep, table, f"monopole of charge {charge!r}")


# ---------------------------------------------------------------------------
# gluing diagnostics and ordinary gauge transformations
# ---------------------------------------------------------------------------


def _einsum_on_path(paths: dict, spec: str, *operands) -> np.ndarray:
    """``np.einsum(spec, *operands, optimize=True)``, its contraction path
    searched on the first call with ``paths`` and read from there after."""
    if spec not in paths:
        paths[spec] = np.einsum_path(spec, *operands, optimize=True)[0]
    return np.einsum(spec, *operands, optimize=paths[spec])


def _sampled_fields(conn: OrdinaryConnection, chart, sample) -> tuple:
    """The potential and the field strength on only the grid points of
    ``chart`` that the sampling operator ``sample`` reads, side by side in
    one compact (points, d m + d d m) array, and ``sample`` with its columns
    re-indexed into it.  Both are taken at those points from one walk of
    the chart's potential (:meth:`OrdinaryConnection.slab_field`), the field
    strength formed slab by slab as :func:`curvature_F` forms it, so the
    sampled values carry the bits of sampling whole-chart fields.
    :func:`_split_fields` takes them apart."""
    read = np.zeros(chart.shape, bool)
    read.reshape(-1)[sample.cols] = True
    # a read grid point's place in the compact array; int32, as a chart
    # holds far fewer than 2^31 points, halves the re-indexed operator
    place = np.cumsum(read, dtype=np.int32) - 1
    fields = np.empty((place[-1] + 1, chart.dim * (chart.dim + 1) * conn.basis.dim))
    A, F = _split_fields(fields, chart.dim)
    for pts, slab in row_slabs(chart, {"A": conn.slab_field(chart.name)}, [("A", 2)]):
        at = np.flatnonzero(read.reshape(-1)[pts])
        if len(at):
            here = place[pts][at]
            A[here] = np.moveaxis(slab["A"].take(at, -1), -1, 0)
            F[here] = np.moveaxis(
                _field_strength(slab["A"].take(at, -1), slab["A", 2].take(at, -1),
                                conn.basis.structure), -1, 0)
    return SamplingOperator(place[sample.cols], sample.weights, len(fields)), fields


def _split_fields(fields: np.ndarray, dim: int) -> tuple:
    """Views of the potential (points, d, m) and the field strength
    (points, d, d, m) in an array of :func:`_sampled_fields`."""
    m = fields.shape[1] // (dim * (dim + 1))
    return (fields[:, :dim * m].reshape(-1, dim, m),
            fields[:, dim * m:].reshape(-1, dim, dim, m))


def _gluing_at(basis, paths: dict, tinv: np.ndarray, dtinv: np.ndarray, src: dict,
               sampled: dict, jac: np.ndarray) -> tuple:
    """The potential and field-strength gluing residuals at a run of sample
    points, points first: t^-1 and its derivatives, the source potential and
    field strength as matrices (``src``), the destination's as sampled real
    components (``sampled``), and the Jacobians J[i, j] = d y^i / d x^j."""
    t = np.conj(np.swapaxes(tinv, -1, -2))
    inhom = _einsum_on_path(paths, "pij,pmjk->pmik", t, dtinv)
    lhs = _einsum_on_path(paths, "pmij,pmn->pnij", basis.contract(sampled["A"]), jac)
    rhs = _einsum_on_path(paths, "pij,pmjk,pkl->pmil", t, src["A"], tinv) + inhom
    res_A = sup(np.subtract(lhs, rhs, out=lhs))
    del lhs, rhs, inhom
    lhs = _einsum_on_path(paths, "pmnij,pmr,pns->prsij", basis.contract(sampled["F"]), jac, jac)
    rhs = _einsum_on_path(paths, "pij,pmnjk,pkl->pmnil", t, src["F"], tinv)
    return res_A, sup(np.subtract(lhs, rhs, out=lhs))


def _overlap_gluing(conn: OrdinaryConnection, ov) -> dict:
    """:func:`gluing_residuals` of one overlap.  A slab's arrays are freed
    before the next slab's are formed, and the overlap's on return."""
    basis = conn.basis
    src, dst = conn.man.chart(ov.src), conn.man.chart(ov.dst)

    def tinv_on(rows):
        # t is singular at the origin, a grid point at odd npts that no sample
        # point's stencil reads (the sphere builder checks): 1.0 keeps 0 * NaN out
        x = grid_points(src, rows)
        x[~np.any(x, axis=-1)] = 1.0
        return np.conj(np.swapaxes(ov.transition(x), -1, -2))

    sample, dst_fields = _sampled_fields(conn, dst, sampling_operator(dst, ov.y))
    start, paths, mask = 0, {}, ov.mask.reshape(-1)
    res, scale = {"A": [], "F": []}, {"A": [], "F": []}
    for pts, slab in row_slabs(src, {"A": conn.slab_field(ov.src), "tinv": tinv_on},
                               [("A", 2), ("tinv", 2)]):
        F = _field_strength(slab["A"], slab["A", 2], basis.structure)
        matrices = {key: basis.contract(np.moveaxis(coeff, -1, 0))
                    for key, coeff in (("A", slab["A"]), ("F", F))}
        for key in res:
            scale[key].append(sup(matrices[key]))
        # the slab's sample points, a contiguous run of the sample set
        at = np.flatnonzero(mask[pts])
        p = slice(start, start + at.size)
        start = p.stop
        if at.size:
            tinv, dtinv = (np.moveaxis(slab[k][..., at], -1, 0) for k in ("tinv", ("tinv", 2)))
            sampled = _split_fields(sample[p] @ dst_fields, src.dim)
            run = _gluing_at(basis, paths, tinv, dtinv,
                             {key: m[at] for key, m in matrices.items()},
                             dict(zip(res, sampled)), ov.jac[p])
            for key, value in zip(res, run):
                res[key].append(value)
        del slab, F, matrices  # before the next slab is formed
    res_A, res_F = (relative(sup(res[k]), sup(scale[k])) for k in res)
    return {"potential": res_A, "field_strength": res_F}


def gluing_residuals(conn: OrdinaryConnection) -> dict:
    """Cross-chart consistency of the potential and field strength.

    For every directed overlap with a transition t: compares the pullback of
    the destination potential with t A t^-1 + t d(t^-1), and the pulled-back
    field strength with t F t^-1, in the defining matrices, at the overlap's
    (never empty) sample set.  Returns relative sup-norm residuals per
    overlap; interpolation and stencil error limit the attainable residual
    (its measured orders: ROADMAP item 6).

    No field is formed on a whole chart, and the connection's cached
    whole-chart potential and field strength are neither read nor filled.
    Per overlap, the source chart is walked slab by slab (:func:`row_slabs`,
    with t^-1 and an analytic potential evaluated on each block's rows and
    stencil halo only): A and its field strength are contracted to
    matrices there, for the scale (the source's chart peak) and at the
    slab's sample points, a contiguous run of the sample set as the mask is
    in grid order.  A row slice of one ``sampling_operator`` per overlap
    samples the destination fields at each run, from a compact array of
    only the points it reads (:func:`_sampled_fields`), where A and F are
    taken from the same walk of the destination chart.  Each contraction's
    path is searched at the overlap's first run and reused by the others.
    """
    out = {(ov.src, ov.dst): _overlap_gluing(conn, ov)
           for ov in conn.man.overlaps if ov.transition is not None}
    if not out:
        raise GluingError("no overlap carries a transition function")
    return out


# largest departure from unitarity accepted of a gauge field; a smaller one
# above 1e-14 is projected away
_UNITARY_TOL = 1e-10


def _check_unitary_field(k: int, U: np.ndarray) -> np.ndarray:
    """Validate a pointwise k x k unitary field; re-project small drift."""
    if U.shape[-2:] != (k, k):
        raise ShapeError(f"gauge field must be {k} x {k} valued")
    eye = np.eye(k)
    drift = sup(np.swapaxes(np.conj(U), -1, -2) @ U - eye)
    if not drift <= _UNITARY_TOL:
        raise ShapeError(f"gauge field is not unitary (drift {drift:.2e})")
    if drift > 1e-14:
        uu, _, vh = np.linalg.svd(U)
        U = uu @ vh
    return U


def _check_group_valued(basis: LieBasis, U: np.ndarray) -> np.ndarray:
    """Validate a pointwise structure-group field: unitary, and of unit
    determinant for SU(n); any phase is a U(1) element."""
    U = _check_unitary_field(basis.n, U)
    if basis.n > 1 and not sup(np.linalg.det(U) - 1.0) <= 1e-8:
        raise ShapeError("group field must have unit determinant")
    return U


def gauge_transform_ordinary(conn: OrdinaryConnection, U: dict) -> OrdinaryConnection:
    """A -> U^-1 A U + U^-1 dU pointwise in the defining matrices."""
    newA = {}
    for ch in conn.man.charts:
        u = _check_group_valued(conn.basis, np.asarray(U[ch.name], dtype=complex))
        uinv = np.conj(np.swapaxes(u, -1, -2))
        Amat = conn.basis.contract(conn.A[ch.name])
        du = derivatives(u, ch)
        transformed = np.einsum("...ij,...mjk,...kl->...mil", uinv, Amat, u)
        transformed = transformed + np.einsum("...ij,...mjk->...mik", uinv, du)
        newA[ch.name] = component_in_basis(conn.basis, transformed)
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


def nc_curvature(ncc: NCConnection) -> dict:
    """Curvature components per chart from the closed formulas.

    Returns {name: {"hh": shape+(d,d,k,k), "hv": shape+(d,m,k,k),
    "vv": shape+(m,m,k,k)}} with hh and vv antisymmetric.  a and phi are
    stacked on one slot axis, where D_mu = partial_mu + [R(A_mu), .] acts on
    both in one ``geometry.derivatives`` call and one block product; ``vv``
    is the closure defect [phi_a, phi_b] - C_ab^c phi_c
    (``lie_core.closure_defect``), which also decides vacuum classification.

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
        a, phi = ncc.a[name], ncc.phi[name]
        X = np.concatenate([a, phi], axis=-3)
        cov = derivatives(X, ch)
        if ref.zero_potential(name):
            cov_a, cov_phi = np.split(cov, [ch.dim], axis=-3)
            hh = cov_a - np.swapaxes(cov_a, -4, -3)
        else:
            A, F, RA = ref.A[name], ref.curvature()[name], ref.rep_potential(name)
            cov = cov + _comm(RA[..., :, None, :, :], X[..., None, :, :, :])
            cov_a, cov_phi = np.split(cov, [ch.dim], axis=-3)
            cov_phi = cov_phi - np.einsum("...ma,abc,...cij->...mbij", A, C, phi)
            phiF = np.einsum("...mna,...aij->...mnij", F, phi)
            hh = ref.rep.contract(F) - phiF + cov_a - np.swapaxes(cov_a, -4, -3)
        hh = hh + _comm_pairs(a)

        hv = cov_phi + _comm(a[..., :, None, :, :], phi[..., None, :, :, :])
        out[name] = {"hh": hh, "hv": hv, "vv": closure_defect(phi, C)}
    return out


def curvature_form(ncc: NCConnection, name: str) -> MixedForm:
    """Package nc_curvature components as a degree-2 form on a chart."""
    ch = ncc.ref.man.chart(name)
    d, m = ch.dim, ncc.ref.basis.dim
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
    a, phi = {}, {}
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
        a[ch.name], phi[ch.name] = from_omega(new)
    return NCConnection(ref, a, phi)


def infinitesimal_gauge(ncc: NCConnection, gamma: dict) -> dict:
    """Tangent of the gauge action at gamma: d gamma + [omega, gamma],
    split into {"a": {name: delta a}, "phi": {name: delta phi}}."""
    ref = ncc.ref
    da, dphi = {}, {}
    for ch in ref.man.charts:
        g = np.asarray(gamma[ch.name], dtype=complex)
        RA = ref.rep_potential(ch.name)
        grad = derivatives(g, ch) + _comm(RA, g[..., None, :, :])
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
