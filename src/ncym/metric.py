"""Riemannian structures on the derivation algebra: block assembly and
connection extraction.

A structure is the triple (base metric g^M, fiber metric g_ab, ordinary
connection A).  In the frame (partial_mu, ad(E_a)) the metric has blocks

    g_mu_nu = g^M_mu_nu + A^a_mu A^b_nu g_ab      g_mu_b = -A^a_mu g_ab
    g_a_nu  = -g_ab A^b_nu                        g_a_b  = g_ab

while in the covariant frame (nabla_mu, ad(E_a)) it is block diagonal
(g^M, g_ab).  The inverse carries blocks (h^mu_nu = (g^M)^-1,
h^mu_b = h^mu_nu A^b_nu, h^a_b = h_Int^ab + h^mu_nu A^a_mu A^b_nu) with
h_Int = (g_ab)^-1.  The connection is recoverable from the assembled blocks
alone — A^a_mu = -h_Int^ab g_b_mu — and is the unique one making the two
frames orthogonal, which is what ``extract_connection`` implements.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .connections import OrdinaryConnection
from .errors import ShapeError
from .geometry import BaseMetric, Manifold, _spd_inverse, sup
from .lie_core import LieBasis, Representation

__all__ = [
    "RiemannianStructure",
    "assemble",
    "extract_connection",
    "decompose_metric",
    "identity_residuals",
    "orthogonality_residual",
]


@dataclass
class RiemannianStructure:
    """Assembled metric data: base metric, fiber blocks, inverses, densities."""

    man: Manifold
    base: BaseMetric
    internal: dict
    conn: OrdinaryConnection
    hint: dict = field(default_factory=dict, repr=False)
    sqrt_det_int: dict = field(default_factory=dict, repr=False)
    sqrtg: dict = field(default_factory=dict, repr=False)

    @property
    def d(self) -> int:
        return self.man.dim

    @property
    def m(self) -> int:
        return self.conn.basis.dim

    def full_metric(self, name: str) -> np.ndarray:
        """Blocks in the coordinate frame, shape + (d+m, d+m)."""
        d, m = self.d, self.m
        gM = self.base.dense(name)
        gI = self.internal[name]
        A = self.conn.A[name]
        G = np.zeros(gM.shape[:-2] + (d + m, d + m))
        Ag = np.einsum("...ma,...ab->...mb", A, gI)
        G[..., :d, :d] = gM + np.einsum("...ma,...na->...mn", Ag, A)
        G[..., :d, d:] = -Ag
        G[..., d:, :d] = -np.swapaxes(Ag, -1, -2)
        G[..., d:, d:] = gI
        return G

    def full_inverse(self, name: str) -> np.ndarray:
        """Inverse blocks from the closed formulas, shape + (d+m, d+m)."""
        d, m = self.d, self.m
        h = self.base.dense_inverse(name)
        hI = self.hint[name]
        A = self.conn.A[name]
        H = np.zeros(h.shape[:-2] + (d + m, d + m))
        hA = np.einsum("...mn,...na->...ma", h, A)
        H[..., :d, :d] = h
        H[..., :d, d:] = hA
        H[..., d:, :d] = np.swapaxes(hA, -1, -2)
        H[..., d:, d:] = hI + np.einsum("...ma,...mb->...ab", A, hA)
        return H


def assemble(base: BaseMetric, internal, conn: OrdinaryConnection) -> RiemannianStructure:
    """Build the Riemannian structure from (g^M, g_ab, A).

    The fiber metric ``internal`` is one (m, m) block for every chart or a
    dict of per-chart (m, m) blocks or pointwise ``shape + (m, m)`` fields.
    Each chart's value is checked and inverted as given, then it, its
    inverse and its density are broadcast over the grid as read-only views:
    a constant block is inverted once and stored once, and the results are
    the bits the pointwise field of the same block gives.  Each distinct
    value (by identity) is inverted once, and charts whose base and fiber
    densities are the same arrays share one read-only ``sqrtg``.
    """
    man = conn.man
    if base.man is not man:
        raise ShapeError("base metric and connection live on different manifolds")
    m = conn.basis.dim
    riem = RiemannianStructure(man, base, {}, conn)
    inverted, sqrtg = {}, {}
    for ch in man.charts:
        value = internal[ch.name] if isinstance(internal, dict) else internal
        gI = np.asarray(value, dtype=float)
        if gI.shape not in ((m, m), ch.shape + (m, m)):
            raise ShapeError(
                f"fiber metric on {ch.name}: shape {gI.shape}, want {(m, m)} "
                f"or {ch.shape + (m, m)}"
            )
        if id(value) not in inverted:
            inverted[id(value)] = _spd_inverse(ch.name, gI, "fiber metric")
        hint, sqrt_det = inverted[id(value)]
        riem.internal[ch.name] = np.broadcast_to(gI.copy(), ch.shape + (m, m))
        riem.hint[ch.name] = np.broadcast_to(hint, ch.shape + (m, m))
        riem.sqrt_det_int[ch.name] = np.broadcast_to(sqrt_det, ch.shape)
        key = (id(base.sqrt_det[ch.name]), id(sqrt_det))
        if key not in sqrtg:
            sqrtg[key] = base.sqrt_det[ch.name] * riem.sqrt_det_int[ch.name]
            sqrtg[key].setflags(write=False)
        riem.sqrtg[ch.name] = sqrtg[key]
    return riem


def extract_connection(
    man: Manifold,
    basis: LieBasis,
    rep: Representation,
    g_full: dict,
) -> OrdinaryConnection:
    """Recover the unique connection orthogonalizing the two frames.

    ``g_full[name]`` are coordinate-frame blocks, shape + (d+m, d+m); the
    potential is A^a_mu = -h_Int^ab g_b_mu from the inverse of the fiber
    block, which must be symmetric positive definite (SingularMetric otherwise).
    """
    d, m = man.dim, basis.dim
    A = {}
    for ch in man.charts:
        G = np.asarray(g_full[ch.name], dtype=float)
        if G.shape != ch.shape + (d + m, d + m):
            raise ShapeError(f"full metric on {ch.name}: bad shape {G.shape}")
        hint, _ = _spd_inverse(ch.name, G[..., d:, d:], "fiber block")
        A[ch.name] = -np.einsum("...ab,...bm->...ma", hint, G[..., d:, :d])
    return OrdinaryConnection(man, basis, rep, A)


def decompose_metric(
    man: Manifold,
    basis: LieBasis,
    rep: Representation,
    g_full: dict,
) -> tuple[dict, dict, OrdinaryConnection]:
    """Split full coordinate-frame blocks into per-chart (g^M, g_ab) blocks and A."""
    d = man.dim
    conn = extract_connection(man, basis, rep, g_full)
    internal = {}
    gM = {}
    for ch in man.charts:
        G = np.asarray(g_full[ch.name], dtype=float)
        gI = G[..., d:, d:]
        internal[ch.name] = gI
        A = conn.A[ch.name]
        Ag = np.einsum("...ma,...ab->...mb", A, gI)
        gM[ch.name] = G[..., :d, :d] - np.einsum("...ma,...na->...mn", Ag, A)
    return gM, internal, conn


def identity_residuals(riem: RiemannianStructure) -> dict:
    """Residuals of the closed-form inverse identities against brute force.

    The oracle is the dense (d+m) x (d+m) pointwise inverse of the assembled
    blocks; returned residuals are sup norms of:
      base_inverse:  h^mu_nu vs the oracle's horizontal block
      potential:     A^a_mu vs g^M_mu_nu h^a_nu (oracle blocks)
      fiber_inverse: h_Int^ab vs h^ab - h^mu_nu A^a_mu A^b_nu (oracle blocks)
      product:       (g)(h) - Id with both from the closed formulas
    """
    d = riem.d
    per_chart = []
    for ch in riem.man.charts:
        name = ch.name
        G = riem.full_metric(name)
        H = riem.full_inverse(name)
        Hbrute = np.linalg.inv(G)
        A = riem.conn.A[name]
        gM, hM = riem.base.dense(name), riem.base.dense_inverse(name)

        A_from_h = np.einsum("...mn,...an->...ma", gM, Hbrute[..., d:, :d])
        hint_from_h = Hbrute[..., d:, d:] - np.einsum("...ma,...mn,...nb->...ab", A, hM, A)
        prod = np.einsum("...ij,...jk->...ik", G, H)
        per_chart.append({
            "base_inverse": sup(Hbrute[..., :d, :d] - hM),
            "potential": sup(A_from_h - A),
            "fiber_inverse": sup(hint_from_h - riem.hint[name]),
            "product": sup(prod - np.eye(d + riem.m)),
        })
    return {key: sup(c[key] for c in per_chart) for key in per_chart[0]}


def orthogonality_residual(riem: RiemannianStructure) -> float:
    """Max over charts and points of |g(nabla_mu, ad(E_b))| of the assembled
    structure: zero up to rounding, NaN if a NaN enters anywhere."""
    d = riem.d

    def resid(name):
        G = riem.full_metric(name)
        mixed = np.swapaxes(G[..., :d, d:], -1, -2)  # g_b_mu
        return mixed + np.einsum("...ba,...ma->...bm", G[..., d:, d:], riem.conn.A[name])

    return sup(resid(ch.name) for ch in riem.man.charts)
