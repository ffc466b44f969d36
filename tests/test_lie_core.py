"""Algebra basis, structure constants, Killing form, representations."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ncym.errors import InvalidRank, ShapeError, UnsupportedRepresentation
from ncym.lie_core import (
    build_representation,
    build_su,
    closure_defect,
    component_in_basis,
    invariant_polynomial,
    killing_metric,
)


def levi_civita3():
    eps = np.zeros((3, 3, 3))
    for a, b, c in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
        eps[a, b, c] = 1.0
        eps[a, c, b] = -1.0
    return eps


def test_su2_is_half_pauli():
    # oracle: explicit Pauli matrices written out by hand
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    lb = build_su(2)
    assert np.max(np.abs(lb.basis - np.array([-0.5j * sx, -0.5j * sy, -0.5j * sz]))) == 0.0


def test_su2_structure_constants_are_epsilon():
    lb = build_su(2)
    assert np.max(np.abs(lb.structure - levi_civita3())) < 1e-14


def test_trace_normalization():
    for n in (2, 3, 4):
        lb = build_su(n)
        gram = np.einsum("aij,bji->ab", lb.basis, lb.basis)
        assert np.max(np.abs(gram + 0.5 * np.eye(lb.dim))) < 1e-12


def test_commutators_close_with_real_constants():
    for n in (2, 3):
        lb = build_su(n)
        for a in range(lb.dim):
            for b in range(lb.dim):
                lhs = lb.basis[a] @ lb.basis[b] - lb.basis[b] @ lb.basis[a]
                rhs = np.einsum("c,cij->ij", lb.structure[a, b], lb.basis)
                assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_structure_antisymmetry_and_jacobi():
    for n in (2, 3, 4):
        c = build_su(n).structure
        assert np.max(np.abs(c + np.transpose(c, (1, 0, 2)))) < 1e-12
        jac = (
            np.einsum("abe,ecd->abcd", c, c)
            + np.einsum("bce,ead->abcd", c, c)
            + np.einsum("cae,ebd->abcd", c, c)
        )
        assert np.max(np.abs(jac)) < 1e-12


def test_killing_su2_frozen():
    # frozen from the double-loop oracle: K_ab = sum_cd C_ac^d C_bd^c = -2 delta
    lb = build_su(2)
    assert np.max(np.abs(killing_metric(lb) + 2.0 * np.eye(3))) < 1e-12


def test_killing_su3_frozen():
    lb = build_su(3)
    assert np.max(np.abs(killing_metric(lb) + 3.0 * np.eye(8))) < 1e-12


def test_killing_matches_double_loop():
    lb = build_su(3)
    c = lb.structure
    m = lb.dim
    loop = np.zeros((m, m))
    for a in range(m):
        for b in range(m):
            loop[a, b] = sum(c[a, cc, d] * c[b, d, cc] for cc in range(m) for d in range(m))
    assert np.max(np.abs(killing_metric(lb) - loop)) < 1e-12


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_killing_ad_invariance(seed):
    # K([x,y],z) + K(y,[x,z]) = 0 for random coefficient vectors
    lb = build_su(3)
    rng = np.random.default_rng(seed)
    x, y, z = rng.normal(size=(3, lb.dim))
    k = killing_metric(lb)
    c = lb.structure
    xy = np.einsum("abc,a,b->c", c, x, y)
    xz = np.einsum("abc,a,b->c", c, x, z)
    val = xy @ k @ z + y @ k @ xz
    assert abs(val) < 1e-10


def test_trivial_rep():
    lb = build_su(2)
    rep = build_representation(lb, "trivial", dim=2)
    assert rep.k == 2 and np.max(np.abs(rep.matrices)) == 0.0


def test_fundamental_rep_is_basis():
    lb = build_su(3)
    rep = build_representation(lb, "fundamental")
    assert rep.k == 3
    assert np.max(np.abs(rep.matrices - lb.basis)) == 0.0


def test_adjoint_rep_commutators():
    lb = build_su(2)
    rep = build_representation(lb, "adjoint")
    assert rep.k == 3
    for a in range(3):
        for b in range(3):
            lhs = rep.matrices[a] @ rep.matrices[b] - rep.matrices[b] @ rep.matrices[a]
            rhs = np.einsum("c,cij->ij", lb.structure[a, b], rep.matrices)
            assert np.max(np.abs(lhs - rhs)) < 1e-12
    # (R_a)^c_b = C_ab^c layout
    assert np.max(np.abs(rep.matrices[0][2, 1] - lb.structure[0, 1, 2])) < 1e-14


def test_spin_reps_su2():
    lb = build_su(2)
    # frozen Casimir values: spin-j quadratic Casimir is -j(j+1) Id
    half = build_representation(lb, "spin", j=0.5)
    assert half.k == 2
    one = build_representation(lb, "spin", j=1)
    cas = np.einsum("aij,ajk->ik", one.matrices, one.matrices)
    assert np.max(np.abs(cas + 2.0 * np.eye(3))) < 1e-12
    casf = np.einsum("aij,ajk->ik", half.matrices, half.matrices)
    assert np.max(np.abs(casf + 0.75 * np.eye(2))) < 1e-12


def test_spin_rep_rejected_for_su3():
    with pytest.raises(UnsupportedRepresentation):
        build_representation(build_su(3), "spin", j=1)


def test_direct_sum_blocks():
    lb = build_su(2)
    f = build_representation(lb, "fundamental")
    t = build_representation(lb, "trivial")
    s = build_representation(lb, "sum", parts=[f, t])
    assert s.k == 3
    assert np.max(np.abs(s.matrices[:, :2, :2] - f.matrices)) == 0.0
    assert np.max(np.abs(s.matrices[:, 2:, :2])) == 0.0


def test_invalid_rank():
    with pytest.raises(InvalidRank):
        build_su(1)
    with pytest.raises(InvalidRank):
        build_su(0)


def test_str_frozen_values():
    # frozen: Str(E1, E1) = tr(E1 E1) = -1/2; Str(E1, E2) = 0
    lb = build_su(2)
    assert abs(invariant_polynomial(lb, lb.basis[0], lb.basis[0]) + 0.5) < 1e-14
    assert abs(invariant_polynomial(lb, lb.basis[0], lb.basis[1])) < 1e-14


def test_str_shape_error():
    lb = build_su(2)
    with pytest.raises(ShapeError):
        invariant_polynomial(lb, np.eye(3))


@given(st.integers(0, 10**6))
@settings(max_examples=20, deadline=None)
def test_str_symmetry_and_ad_invariance(seed):
    lb = build_su(2)
    rng = np.random.default_rng(seed)
    xs = [lb.contract(rng.normal(size=3)) for _ in range(3)]
    y = lb.contract(rng.normal(size=3))
    s0 = invariant_polynomial(lb, xs[0], xs[1], xs[2])
    s1 = invariant_polynomial(lb, xs[2], xs[0], xs[1])
    assert abs(s0 - s1) < 1e-10
    # sum over slots of Str(..., [y, x_i], ...) = 0
    total = 0.0
    for i in range(3):
        args = list(xs)
        args[i] = y @ xs[i] - xs[i] @ y
        total += invariant_polynomial(lb, *args)
    assert abs(total) < 1e-10


@given(st.integers(0, 10**6))
@settings(max_examples=20, deadline=None)
def test_str_multilinearity(seed):
    lb = build_su(2)
    rng = np.random.default_rng(seed)
    x1, x2, y = (lb.contract(rng.normal(size=3)) for _ in range(3))
    lam = rng.normal()
    lhs = invariant_polynomial(lb, x1 + lam * x2, y)
    rhs = invariant_polynomial(lb, x1, y) + lam * invariant_polynomial(lb, x2, y)
    assert abs(lhs - rhs) < 1e-10


def test_component_round_trip():
    lb = build_su(3)
    rng = np.random.default_rng(7)
    coeff = rng.normal(size=(5, lb.dim))
    mats = lb.contract(coeff)
    back = component_in_basis(lb, mats)
    assert np.max(np.abs(back - coeff)) < 1e-12


@pytest.mark.parametrize("kind", ["fundamental", "adjoint"])
def test_closure_defect_exactly_zero_on_su2_reps(kind):
    lb = build_su(2)
    rep = build_representation(lb, kind)
    assert np.max(np.abs(closure_defect(rep.matrices, lb.structure))) == 0.0


@pytest.mark.parametrize(
    "n, build",
    [
        (2, lambda lb: build_representation(lb, "spin", j=1)),
        (2, lambda lb: build_representation(lb, "spin", j=1.5)),
        (2, lambda lb: build_representation(
            lb, "sum", parts=[build_representation(lb, "spin", j=j) for j in (0.5, 1)])),
        (3, lambda lb: build_representation(lb, "fundamental")),
        (3, lambda lb: build_representation(lb, "adjoint")),
    ],
    ids=["su2-spin1", "su2-spin3/2", "su2-sum", "su3-fundamental", "su3-adjoint"],
)
def test_closure_defect_vanishes_on_representations(n, build):
    lb = build_su(n)
    rep = build(lb)
    assert np.max(np.abs(closure_defect(rep.matrices, lb.structure))) <= 1e-15


def test_closure_defect_of_scaled_rep_is_the_double_well():
    """[t R_a, t R_b] - C_ab^c t R_c = (t^2 - t) C_ab^c R_c."""
    lb = build_su(2)
    rep = build_representation(lb, "fundamental")
    got = closure_defect(0.5 * rep.matrices, lb.structure)
    want = -0.25 * np.einsum("abc,cij->abij", lb.structure, rep.matrices)
    assert np.max(np.abs(got)) > 0.1
    assert np.max(np.abs(got - want)) < 1e-15
