"""su(n) bases, structure constants and finite-dimensional representations.

Conventions used throughout the package:

* generators ``E_a`` are anti-hermitian traceless n x n matrices with
  ``tr(E_a E_b) = -delta_ab / 2`` (for n = 2 this is ``E_a = -i sigma_a / 2``),
* structure constants are real, ``[E_a, E_b] = C_ab^c E_c``,
* the hermitian dictionary is ``E_a^herm = i E_a`` when comparing with
  physics-convention formulas.

The Killing form is returned un-normalized (``-2 delta`` for su(2)).

One contraction, :func:`closure_defect` ``[x_a, x_b] - C_ab^c x_c``, checks
that a basis closes and that matrices represent the algebra, decides whether
scalar fields are a vacuum, and is the ``vv`` curvature block.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidRank, ShapeError, UnsupportedRepresentation
from .geometry import sup

__all__ = [
    "LieBasis",
    "Representation",
    "build_su",
    "build_u1",
    "killing_metric",
    "build_representation",
    "invariant_polynomial",
    "component_in_basis",
    "closure_defect",
]

_ATOL = 1e-12
_REP_ATOL = 1e-10  # closure defect and hermitian part of representation matrices


@dataclass(frozen=True)
class LieBasis:
    """Anti-hermitian basis of su(n) with its structure data.

    Attributes
    ----------
    n : matrix size of the defining representation.
    basis : complex array (m, n, n), m = n^2 - 1, anti-hermitian traceless.
    structure : real array (m, m, m); ``structure[a, b, c]`` is ``C_ab^c``.
    """

    n: int
    basis: np.ndarray
    structure: np.ndarray

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def contract(self, coeff: np.ndarray) -> np.ndarray:
        """Map real coefficient arrays (..., m) to matrices (..., n, n)."""
        if coeff.shape[-1] != self.dim:
            raise ShapeError(f"expected trailing axis {self.dim}, got {coeff.shape}")
        return np.tensordot(coeff, self.basis, axes=([-1], [0]))


@dataclass(frozen=True)
class Representation:
    """Images ``R_a`` of the basis generators on a k-dimensional fiber."""

    matrices: np.ndarray  # (m, k, k) complex, anti-hermitian

    @property
    def k(self) -> int:
        return self.matrices.shape[-1]

    @property
    def dim(self) -> int:
        return self.matrices.shape[0]

    def contract(self, coeff: np.ndarray) -> np.ndarray:
        """Map real coefficient arrays (..., m) to fiber matrices (..., k, k)."""
        if coeff.shape[-1] != self.dim:
            raise ShapeError(f"expected trailing axis {self.dim}, got {coeff.shape}")
        return np.tensordot(coeff, self.matrices, axes=([-1], [0]))


def _gell_mann_like(n: int) -> np.ndarray:
    """Hermitian traceless basis lambda_i of sl(n, C), tr(l_i l_j) = 2 d_ij."""
    mats = []
    # off-diagonal symmetric and antisymmetric pairs
    for j in range(n):
        for kk in range(j + 1, n):
            s = np.zeros((n, n), dtype=complex)
            s[j, kk] = s[kk, j] = 1.0
            mats.append(s)
            a = np.zeros((n, n), dtype=complex)
            a[j, kk] = -1j
            a[kk, j] = 1j
            mats.append(a)
    # diagonal ladder
    for l in range(1, n):
        d = np.zeros((n, n), dtype=complex)
        for j in range(l):
            d[j, j] = 1.0
        d[l, l] = -l
        d *= np.sqrt(2.0 / (l * (l + 1)))
        mats.append(d)
    return np.asarray(mats)


def _comm(x, y):
    """[x, y] of broadcast block stacks."""
    return x @ y - y @ x


def _comm_pairs(x):
    """[x_i, x_j] for every ordered pair of a stack x of shape (..., n, k, k):
    one product P_ij = x_i x_j per pair, then P - P^T in (i, j), bitwise the
    per-pair commutator at half the block products."""
    P = x[..., :, None, :, :] @ x[..., None, :, :, :]
    return P - np.swapaxes(P, -4, -3)


def closure_defect(x: np.ndarray, C: np.ndarray) -> np.ndarray:
    """[x_a, x_b] - C_ab^c x_c, shape (..., m, m, k, k), of a stack x of shape
    (..., m, k, k): zero exactly when the x_a close on the structure constants."""
    return _comm_pairs(x) - np.einsum("abc,...cij->...abij", C, x)


def structure_constants(basis: np.ndarray) -> np.ndarray:
    """Real C_ab^c with [E_a, E_b] = C_ab^c E_c, via trace projection.

    Uses tr(E_c E_d) = -delta_cd / 2, so C_ab^c = -2 tr(E_c [E_a, E_b]).
    """
    c = -2.0 * np.einsum("cji,abij->abc", basis, _comm_pairs(basis))
    if not sup(c.imag) <= 1e-10:
        raise ShapeError("structure constants acquired an imaginary part")
    c = c.real.copy()
    # verify the projection reproduces the commutators exactly
    if not sup(closure_defect(basis, c)) <= 1e-10:
        raise ShapeError("basis does not close under commutators")
    return c


def _check_jacobi(c: np.ndarray) -> float:
    jac = (
        np.einsum("abe,ecd->abcd", c, c)
        + np.einsum("bce,ead->abcd", c, c)
        + np.einsum("cae,ebd->abcd", c, c)
    )
    return sup(jac)


def build_su(n: int) -> LieBasis:
    """Anti-hermitian su(n) basis with real structure constants.

    For n = 2 the basis is exactly E_a = -(i/2) sigma_a and C_ab^c = eps_abc.

    Raises
    ------
    InvalidRank : if n < 2.
    """
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise InvalidRank(f"need integer n >= 2, got {n!r}")
    basis = -0.5j * _gell_mann_like(n)
    m = n * n - 1
    c = structure_constants(basis)

    # construction-time sanity (the cheap invariants, all exact-regime)
    assert sup(basis + np.conj(np.transpose(basis, (0, 2, 1)))) < _ATOL
    assert sup(np.trace(basis, axis1=1, axis2=2)) < _ATOL
    gram = np.einsum("aij,bji->ab", basis, basis)
    assert sup(gram + 0.5 * np.eye(m)) < _ATOL
    assert sup(c + np.transpose(c, (1, 0, 2))) < _ATOL
    assert _check_jacobi(c) < 1e-10
    return LieBasis(n=int(n), basis=basis, structure=c)


def build_u1() -> LieBasis:
    """The abelian structure algebra of line bundles: one generator i/sqrt(2).

    The normalization keeps the trace pairing tr(E_1 E_1) = -1/2 shared with
    the su(n) bases, so component extraction and the internal metric default
    work unchanged.  Structure constants vanish.
    """
    basis = np.array([[[1j / np.sqrt(2.0)]]])
    return LieBasis(n=1, basis=basis, structure=np.zeros((1, 1, 1)))


def killing_metric(lb: LieBasis) -> np.ndarray:
    """K_ab = C_ac^d C_bd^c, the trace of ad_a ad_b. No re-normalization."""
    return np.einsum("acd,bdc->ab", lb.structure, lb.structure)


def component_in_basis(lb: LieBasis, mat: np.ndarray) -> np.ndarray:
    """Coefficients x^a of a (stack of) su(n) matrices: x = x^a E_a.

    Uses the trace pairing; imaginary residue beyond 1e-8 raises.
    """
    comp = -2.0 * np.einsum("aji,...ij->...a", lb.basis, mat)
    if not sup(comp.imag) <= 1e-8:
        raise ShapeError("matrix is not in the real span of the basis")
    return comp.real


def _spin_matrices(j2: int) -> np.ndarray:
    """Anti-hermitian spin-(j2/2) images of the su(2) basis, C = eps."""
    j = j2 / 2.0
    k = j2 + 1
    mvals = j - np.arange(k)
    jz = np.diag(mvals)
    jp = np.zeros((k, k))
    for i in range(1, k):
        mm = mvals[i]
        jp[i - 1, i] = np.sqrt(j * (j + 1) - mm * (mm + 1))
    jm = jp.T
    jx = 0.5 * (jp + jm)
    jy = -0.5j * (jp - jm)
    return np.asarray([-1j * jx, -1j * jy, -1j * jz])


def build_representation(lb: LieBasis, kind: str, **params) -> Representation:
    """Representation of the basis on a k-dimensional fiber.

    Kinds
    -----
    trivial : k from ``dim`` (default 1), all R_a = 0.
    fundamental : R_a = E_a, k = n.
    adjoint : (R_a)^c_b = C_ab^c, k = n^2 - 1.
    spin : n = 2 only, ``j`` integer or half-integer, k = 2j + 1.
    sum : ``parts`` is a list of Representation objects, block diagonal.
    """
    m = lb.dim
    if kind == "trivial":
        k = int(params.get("dim", 1))
        if k < 1:
            raise UnsupportedRepresentation("trivial rep needs dim >= 1")
        mats = np.zeros((m, k, k), dtype=complex)
        return Representation(mats)
    if kind == "fundamental":
        return Representation(lb.basis.copy())
    if kind == "adjoint":
        rep = Representation(np.transpose(lb.structure, (0, 2, 1)).astype(complex))
        _validate_rep(lb, rep)
        return rep
    if kind == "spin":
        if lb.n != 2:
            raise UnsupportedRepresentation("spin-j representations need n = 2")
        j = params["j"]
        j2 = int(round(2 * j))
        if abs(2 * j - j2) > 1e-12 or j2 < 0:
            raise UnsupportedRepresentation(f"j must be a non-negative (half-)integer, got {j}")
        rep = Representation(_spin_matrices(j2))
        _validate_rep(lb, rep)
        return rep
    if kind == "sum":
        parts = tuple(params["parts"])
        if not parts:
            raise UnsupportedRepresentation("sum needs at least one part")
        k = sum(p.k for p in parts)
        mats = np.zeros((m, k, k), dtype=complex)
        off = 0
        for p in parts:
            mats[:, off : off + p.k, off : off + p.k] = p.matrices
            off += p.k
        return Representation(mats)
    raise UnsupportedRepresentation(f"unknown representation kind {kind!r}")


def _validate_rep(lb: LieBasis, rep: Representation) -> None:
    """Check [R_a, R_b] = C_ab^c R_c and anti-hermiticity."""
    r = rep.matrices
    if not sup(closure_defect(r, lb.structure)) <= _REP_ATOL:
        raise UnsupportedRepresentation("candidate matrices do not represent the algebra")
    if not sup(r + np.conj(np.transpose(r, (0, 2, 1)))) <= _REP_ATOL:
        raise UnsupportedRepresentation("representation matrices must be anti-hermitian")


def invariant_polynomial(lb: LieBasis, *args: np.ndarray) -> complex:
    """Symmetrized trace Str(X_1, ..., X_q) = (1/q!) sum_s tr(X_s1 ... X_sq).

    Arguments are n x n matrices (stacks allowed with matching leading shape,
    in which case the result is an array over the leading shape).
    """
    q = len(args)
    if q == 0:
        raise ShapeError("need at least one argument")
    for x in args:
        if x.shape[-2:] != (lb.n, lb.n):
            raise ShapeError(f"arguments must be (..., {lb.n}, {lb.n})")
    total = None
    for perm in itertools.permutations(range(q)):
        prod = args[perm[0]]
        for i in perm[1:]:
            prod = prod @ args[i]
        t = np.trace(prod, axis1=-2, axis2=-1)
        total = t if total is None else total + t
    return total / float(math.factorial(q))
