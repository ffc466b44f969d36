"""Block metrics on the derivation bundle: assembly, extraction, inversion."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ncym.errors import ShapeError, SingularMetric
from ncym.geometry import BaseMetric, build_torus, flat_metric, grid_points, round_sphere_metric
from ncym.lie_core import build_su, build_representation
from ncym.connections import (
    constant_connection,
    instanton_bundle,
    random_connection,
    zero_connection,
)
from ncym.metric import (
    assemble,
    decompose_metric,
    extract_connection,
    identity_residuals,
    orthogonality_residual,
)

D, M = 2, 3


@pytest.fixture(scope="module")
def stage():
    man = build_torus(2, 8)
    lb = build_su(2)
    rep = build_representation(lb, "fundamental")
    return man, lb, rep


def _conformal_base(man, scale=1.3, phase=0.2):
    """g^M = c delta with a position-dependent c = scale (1 + 0.3 cos(x + phase) sin(y))."""
    x = grid_points(man.charts[0])
    return BaseMetric(man, {"t0": scale * (1.0 + 0.3 * np.cos(x[..., 0] + phase) * np.sin(x[..., 1]))})


# ---------------------------------------------------------------- assembly


def test_zero_potential_blocks_diagonal(stage):
    man, lb, rep = stage
    riem = assemble(flat_metric(man), np.eye(M), zero_connection(man, lb, rep))
    G = riem.full_metric("t0")
    assert np.max(np.abs(G[..., :D, D:])) == 0.0
    assert np.allclose(G[..., :D, :D], np.eye(D))
    assert np.allclose(G[..., D:, D:], np.eye(M))


def test_single_component_potential_shifts_base_block(stage):
    man, lb, rep = stage
    c = 0.8
    coeffs = np.zeros((D, M))
    coeffs[0, 0] = c
    conn = constant_connection(man, lb, rep, coeffs)
    riem = assemble(flat_metric(man), np.eye(M), conn)
    G = riem.full_metric("t0")
    assert np.allclose(G[..., 0, 0], 1.0 + c * c)
    assert np.allclose(G[..., 1, 1], 1.0)
    assert np.allclose(G[..., 0, D], -c)


def test_mixed_block_formula(stage):
    man, lb, rep = stage
    conn = random_connection(man, lb, rep, seed=3, amplitude=0.5)
    gi = np.array([[2.0, 0.3, 0.1], [0.3, 1.5, 0.0], [0.1, 0.0, 1.0]])
    riem = assemble(flat_metric(man), gi, conn)
    G = riem.full_metric("t0")
    A = conn.A["t0"]
    expect = -np.einsum("...ma,ab->...mb", A, gi)
    assert np.max(np.abs(G[..., :D, D:] - expect)) < 1e-12


def test_determinant_factorizes(stage):
    man, lb, rep = stage
    conn = random_connection(man, lb, rep, seed=4, amplitude=0.6)
    base = _conformal_base(man)
    gi = np.array([[2.0, 0.3, 0.1], [0.3, 1.5, 0.0], [0.1, 0.0, 1.0]])
    riem = assemble(base, gi, conn)
    G = riem.full_metric("t0")
    det = np.linalg.det(G)
    expect = base.conf["t0"] ** D * np.linalg.det(gi)
    assert np.max(np.abs(det - expect)) < 1e-10


def test_assemble_rejects_non_spd_fiber(stage):
    man, lb, rep = stage
    bad = np.diag([1.0, 1.0, -1.0])
    with pytest.raises((ShapeError, SingularMetric, ValueError)):
        assemble(flat_metric(man), bad, zero_connection(man, lb, rep))


def test_condition_number_warning(stage):
    man, lb, rep = stage
    skew = np.diag([1.0, 1.0, 1e-9])
    with pytest.warns(UserWarning):
        assemble(flat_metric(man), skew, zero_connection(man, lb, rep))


# --------------------------------------------------------------- extraction


def test_extract_round_trip_many_instances(stage):
    man, lb, rep = stage
    rng = np.random.default_rng(0)
    worst = 0.0
    for i in range(200):
        base = _conformal_base(man, rng.uniform(0.5, 3.0), rng.uniform(0.0, 2.0 * np.pi))
        Mi = rng.normal(size=(M, M))
        gi = Mi @ Mi.T + M * np.eye(M)
        conn = random_connection(man, lb, rep, seed=1000 + i, amplitude=0.6)
        riem = assemble(base, gi, conn)
        gM2, gi2, conn2 = decompose_metric(man, lb, rep, {"t0": riem.full_metric("t0")})
        worst = max(
            worst,
            np.max(np.abs(gM2["t0"] - riem.base.dense("t0"))),
            np.max(np.abs(gi2["t0"] - riem.internal["t0"])),
            np.max(np.abs(conn2.A["t0"] - conn.A["t0"])),
        )
    assert worst < 1e-12


def test_extract_block_diagonal_gives_zero_potential(stage):
    man, lb, rep = stage
    riem = assemble(flat_metric(man), np.eye(M), zero_connection(man, lb, rep))
    conn = extract_connection(man, lb, rep, {"t0": riem.full_metric("t0")})
    assert np.max(np.abs(conn.A["t0"])) == 0.0


def test_extracted_potential_restores_orthogonality(stage):
    man, lb, rep = stage
    conn = random_connection(man, lb, rep, seed=8, amplitude=0.7)
    gi = np.array([[2.0, 0.3, 0.1], [0.3, 1.5, 0.0], [0.1, 0.0, 1.0]])
    riem = assemble(flat_metric(man), gi, conn)
    assert orthogonality_residual(riem) < 1e-12


def test_extract_rejects_degenerate_fiber(stage):
    man, lb, rep = stage
    riem = assemble(flat_metric(man), np.eye(M), zero_connection(man, lb, rep))
    G = riem.full_metric("t0").copy()
    G[..., D:, D:] = 0.0
    with pytest.raises(SingularMetric):
        extract_connection(man, lb, rep, {"t0": G})


def test_extract_rejects_indefinite_fiber(stage):
    """A fiber block with |det| = 1 that is not positive definite is refused,
    as assemble refuses it."""
    man, lb, rep = stage
    riem = assemble(flat_metric(man), np.eye(M), random_connection(man, lb, rep, seed=2))
    G = riem.full_metric("t0").copy()
    G[..., D:, D:] = np.diag([1.0, -1.0, 1.0])
    with pytest.raises(SingularMetric, match="fiber block on t0 not positive definite"):
        extract_connection(man, lb, rep, {"t0": G})


# ---------------------------------------------------------------- inversion


def test_invert_zero_potential_trivial(stage):
    man, lb, rep = stage
    gi = np.diag([2.0, 3.0, 4.0])
    riem = assemble(flat_metric(man), gi, zero_connection(man, lb, rep))
    assert np.allclose(riem.hint["t0"], np.linalg.inv(gi))


def test_identity_residuals_tiny(stage):
    man, lb, rep = stage
    conn = random_connection(man, lb, rep, seed=77, amplitude=0.5)
    riem = assemble(flat_metric(man), np.diag([1.0, 2.0, 3.0]), conn)
    res = identity_residuals(riem)
    assert set(res) == {"base_inverse", "potential", "fiber_inverse", "product"}
    assert all(v < 1e-10 for v in res.values())


def test_two_potential_formulas_agree(stage):
    man, lb, rep = stage
    conn = random_connection(man, lb, rep, seed=5, amplitude=0.6)
    gi = np.array([[2.0, 0.3, 0.1], [0.3, 1.5, 0.0], [0.1, 0.0, 1.0]])
    riem = assemble(_conformal_base(man), gi, conn)
    G = riem.full_metric("t0")
    H = riem.full_inverse("t0")
    A1 = -np.einsum("...ab,...bm->...ma", np.linalg.inv(G[..., D:, D:]), G[..., D:, :D])
    # second route contracts the bare base block with the mixed inverse block
    A2 = np.einsum("...mn,...an->...ma", riem.base.dense("t0"), H[..., D:, :D])
    assert np.max(np.abs(A1 - conn.A["t0"])) < 1e-12
    assert np.max(np.abs(A2 - conn.A["t0"])) < 1e-10


def test_brute_force_inverse_oracle(stage):
    man, lb, rep = stage
    conn = random_connection(man, lb, rep, seed=6, amplitude=0.5)
    gi = np.array([[2.0, 0.3, 0.1], [0.3, 1.5, 0.0], [0.1, 0.0, 1.0]])
    riem = assemble(flat_metric(man), gi, conn)
    H = riem.full_inverse("t0")
    brute = np.linalg.inv(riem.full_metric("t0"))
    assert np.max(np.abs(H - brute)) < 1e-10


def test_product_is_identity_pointwise(stage):
    man, lb, rep = stage
    conn = random_connection(man, lb, rep, seed=7, amplitude=0.6)
    riem = assemble(flat_metric(man), np.eye(M), conn)
    G = riem.full_metric("t0")
    H = riem.full_inverse("t0")
    prod = np.einsum("...ij,...jk->...ik", G, H)
    assert np.max(np.abs(prod - np.eye(D + M))) < 1e-12


# ------------------------------------------------------------- orthogonality


@given(mu=st.integers(0, D - 1), data=st.data())
@settings(max_examples=30, deadline=None)
def test_dual_covector_orthogonality(mu, data):
    """A base covector pulled back through the horizontal lift pairs to zero
    with any vertical-type covector under the inverse metric."""
    man = build_torus(2, 8)
    lb = build_su(2)
    rep = build_representation(lb, "fundamental")
    conn = random_connection(man, lb, rep, seed=17, amplitude=0.6)
    gi = np.array([[2.0, 0.3, 0.1], [0.3, 1.5, 0.0], [0.1, 0.0, 1.0]])
    riem = assemble(flat_metric(man), gi, conn)
    H = riem.full_inverse("t0")
    A = conn.A["t0"]
    eta = np.array([data.draw(st.floats(-2, 2)) for _ in range(M)])
    u = np.zeros(man.charts[0].shape + (D + M,))
    u[..., mu] = 1.0
    v = np.zeros(man.charts[0].shape + (D + M,))
    v[..., :D] = -np.einsum("a,...ma->...m", eta, A)
    v[..., D:] = eta
    pair = np.einsum("...i,...ij,...j->...", u, H, v)
    assert np.max(np.abs(pair)) < 1e-10


def test_x_dependent_internal_metric(stage):
    man, lb, rep = stage
    conn = random_connection(man, lb, rep, seed=9, amplitude=0.4)
    x = np.stack(np.meshgrid(*man.charts[0].coords, indexing="ij"), axis=-1)
    field = np.zeros(man.charts[0].shape + (M, M))
    field[:] = np.eye(M)
    field[..., 0, 0] = 1.5 + 0.3 * np.cos(x[..., 0])
    riem = assemble(flat_metric(man), {"t0": field}, conn)
    res = identity_residuals(riem)
    assert all(v < 1e-10 for v in res.values())
    assert orthogonality_residual(riem) < 1e-12


def test_orthogonality_residual_propagates_nan(stage):
    man, lb, rep = stage
    conn = zero_connection(man, lb, rep)
    conn.A["t0"][3, 5, 1, 2] = np.nan
    assert np.isnan(orthogonality_residual(assemble(flat_metric(man), np.eye(M), conn)))


def test_identity_residuals_propagate_nan(stage):
    man, lb, rep = stage
    conn = zero_connection(man, lb, rep)
    conn.A["t0"][3, 5, 1, 2] = np.nan
    with np.errstate(invalid="ignore"):
        res = identity_residuals(assemble(flat_metric(man), np.eye(M), conn))
    assert set(res) == {"base_inverse", "potential", "fiber_inverse", "product"}
    assert all(np.isnan(v) for v in res.values())


@pytest.mark.parametrize(
    "internal", [np.eye(M), [[2.0, 0.3, 0.0], [0.3, 1.0, 0.1], [0.0, 0.1, 1.5]]]
)
def test_constant_fiber_metric_matches_per_point_path(stage, internal):
    """One (m, m) block is checked and inverted once; the broadcast results
    are the bits the per-point path computes."""
    man, lb, rep = stage
    conn = random_connection(man, lb, rep, seed=2)
    once = assemble(flat_metric(man), internal, conn)
    full = np.broadcast_to(np.asarray(internal, dtype=float), man.charts[0].shape + (M, M))
    per_point = assemble(flat_metric(man), {"t0": full.copy()}, conn)
    for field in ("internal", "hint", "sqrt_det_int", "sqrtg"):
        got, want = getattr(once, field)["t0"], getattr(per_point, field)["t0"]
        assert got.shape == want.shape and np.array_equal(got, want), field


def test_charts_share_sqrtg_only_where_their_densities_are_shared():
    """Charts with the same base and fiber densities hold one read-only
    sqrtg; a chart with its own fiber block gets its own.  Either way each
    is bitwise the chart's base density times its fiber density."""
    man, lb, rep = instanton_bundle(8)
    conn = zero_connection(man, lb, rep)
    base = round_sphere_metric(man)
    shared = assemble(base, np.eye(M), conn)
    apart = assemble(base, {"north": np.eye(M), "south": 2.0 * np.eye(M)}, conn)
    assert shared.sqrtg["north"] is shared.sqrtg["south"]
    with pytest.raises(ValueError, match="read-only"):
        shared.sqrtg["north"][...] = 1.0
    assert apart.sqrtg["north"] is not apart.sqrtg["south"]
    for riem in (shared, apart):
        for ch in man.charts:
            want = base.sqrt_det[ch.name] * riem.sqrt_det_int[ch.name]
            assert riem.sqrtg[ch.name].tobytes() == want.tobytes()
    assert not np.array_equal(apart.sqrtg["north"], apart.sqrtg["south"])


def test_constant_fiber_metric_still_checked(stage):
    man, lb, rep = stage
    conn = zero_connection(man, lb, rep)
    with pytest.raises(SingularMetric, match="not positive definite$"):
        assemble(flat_metric(man), -np.eye(M), conn)
    with pytest.raises(SingularMetric, match="symmetric"):
        assemble(flat_metric(man), np.eye(M) + np.triu(np.ones((M, M)), 1), conn)
