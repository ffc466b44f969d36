"""Mixed forms: storage, wedge, Koszul differential, Hodge star, integration."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ncym.errors import ShapeError
from ncym.geometry import build_torus, flat_metric, partial_derivative
from ncym.lie_core import build_su, build_representation
from ncym.connections import (
    constant_connection,
    random_connection,
    zero_connection,
)
from ncym.metric import assemble
from ncym.nc_forms import (
    covariant_differential,
    dagger_form,
    differential,
    fiber_integrate,
    form_norm,
    hodge_star,
    metric_pairing,
    random_form,
    scalar_product,
    total_integral,
    wedge,
    zero_form,
)

D, M, K = 2, 3, 2  # torus dimension, su(2) fiber dimension, fundamental rep


@pytest.fixture(scope="module")
def setup():
    man = build_torus(2, 10)
    lb = build_su(2)
    rep = build_representation(lb, "fundamental")
    ref = zero_connection(man, lb, rep)
    riem = assemble(flat_metric(man), np.eye(3), ref)
    return man, lb, rep, ref, riem


def _const(ch, mat):
    mat = np.asarray(mat, dtype=complex)
    return np.broadcast_to(mat, ch.shape + mat.shape).copy()


def _id_field(ch, k=K):
    return _const(ch, np.eye(k))


# ---------------------------------------------------------------- storage


def test_set_sorts_key_with_sign(setup):
    man, lb, rep, ref, riem = setup
    ch = man.charts[0]
    w = zero_form(ref, ch, 2)
    w.set((3, 0), _id_field(ch))
    assert np.allclose(w.get((0, 3)), -np.eye(2))


def test_repeated_letter_is_zero(setup):
    man, lb, rep, ref, riem = setup
    ch = man.charts[0]
    w = zero_form(ref, ch, 2)
    w.set((1, 1), _id_field(ch))
    assert form_norm(w) == 0.0


def test_bad_letter_rejected(setup):
    man, lb, rep, ref, riem = setup
    ch = man.charts[0]
    w = zero_form(ref, ch, 1)
    with pytest.raises(ShapeError):
        w.set((D + M,), _id_field(ch))
    with pytest.raises(ShapeError):
        w.set((0, 1), _id_field(ch))  # wrong key length for degree 1


def test_split_reassembles_bitwise(setup):
    from ncym.nc_forms import horizontal_part, vertical_part

    man, lb, rep, ref, riem = setup
    w = random_form(ref, man.charts[0], 2, seed=3)
    back = horizontal_part(w) + vertical_part(w)
    assert set(back.comps) == set(w.comps)
    for key in w.comps:
        assert np.array_equal(back.comps[key], w.comps[key])


def test_form_norm_propagates_nan(setup):
    """A NaN in the last of the stored components is the norm, not dropped."""
    man, lb, rep, ref, riem = setup
    w = random_form(ref, man.charts[0], 1, seed=4)
    assert len(w.comps) == D + M
    w.comps[max(w.comps)][1, 2, 0, 1] = np.nan
    assert np.isnan(form_norm(w))


def test_prune_keeps_nan_components(setup):
    """A component holding a NaN survives the zero-component pruning of the
    differential, so d(w) of a NaN form reports NaN instead of zero."""
    man, lb, rep, ref, riem = setup
    w = random_form(ref, man.charts[0], 1, seed=4, x_dependent=True)
    w.comps[max(w.comps)][3, 3, 0, 0] = np.nan
    dw = differential(w)
    assert dw.comps
    assert np.isnan(form_norm(dw))
    assert np.isnan(form_norm(differential(dw)))


# ---------------------------------------------------------------- wedge


def test_wedge_degree_zero_is_module_action(setup):
    man, lb, rep, ref, riem = setup
    ch = man.charts[0]
    rng = np.random.default_rng(0)
    mat = rng.normal(size=(K, K)) + 1j * rng.normal(size=(K, K))
    f = zero_form(ref, ch, 0)
    f.set((), _const(ch, mat))
    e = random_form(ref, ch, 1, seed=5)
    w = wedge(f, e)
    for key in e.comps:
        assert np.allclose(w.get(key), _const(ch, mat) @ e.comps[key])


def test_wedge_repeated_covector_vanishes(setup):
    man, lb, rep, ref, riem = setup
    ch = man.charts[0]
    dx1 = zero_form(ref, ch, 1)
    dx1.set((0,), _id_field(ch))
    assert form_norm(wedge(dx1, dx1)) == 0.0


def test_wedge_scalar_values_anticommute(setup):
    man, lb, rep, ref, riem = setup
    lb1 = build_su(2)
    rep1 = build_representation(lb1, "trivial")
    ref1 = zero_connection(man, lb1, rep1)
    ch = man.charts[0]
    w = random_form(ref1, ch, 1, seed=8)
    e = random_form(ref1, ch, 1, seed=9)
    assert form_norm(wedge(w, e) + wedge(e, w)) < 1e-12


def test_wedge_associative(setup):
    man, lb, rep, ref, riem = setup
    ch = man.charts[0]
    w = random_form(ref, ch, 1, seed=11)
    e = random_form(ref, ch, 1, seed=12)
    f = random_form(ref, ch, 1, seed=13)
    lhs = wedge(wedge(w, e), f)
    rhs = wedge(w, wedge(e, f))
    assert form_norm(lhs - rhs) < 1e-12


# ---------------------------------------------------------------- differential


def test_constant_central_scalar_is_killed(setup):
    man, lb, rep, ref, riem = setup
    ch = man.charts[0]
    f = zero_form(ref, ch, 0)
    f.set((), 3.7 * _id_field(ch))
    assert form_norm(differential(f)) < 1e-14


def test_nilpotent_on_x_independent_forms(setup):
    man, lb, rep, ref, riem = setup
    ch = man.charts[0]
    for deg in (0, 1, 2):
        w = random_form(ref, ch, deg, seed=20 + deg)
        assert form_norm(differential(differential(w))) < 1e-12


def test_nilpotent_with_constant_potential():
    man = build_torus(2, 10)
    lb = build_su(2)
    rep = build_representation(lb, "fundamental")
    rng = np.random.default_rng(1)
    ref = constant_connection(man, lb, rep, rng.normal(size=(D, M)) * 0.4)
    w = random_form(ref, man.charts[0], 1, seed=2)
    assert form_norm(differential(differential(w))) < 1e-12


def test_nilpotent_x_dependent_without_potential():
    man = build_torus(2, 10)
    lb = build_su(2)
    rep = build_representation(lb, "fundamental")
    ref = zero_connection(man, lb, rep)
    w = random_form(ref, man.charts[0], 1, seed=2, x_dependent=True)
    assert form_norm(differential(differential(w))) < 1e-12


def test_nilpotency_defect_shrinks_at_second_order():
    lb = build_su(2)
    rep = build_representation(lb, "fundamental")
    res = []
    for npts in (16, 32):
        man = build_torus(2, npts)
        ref = random_connection(man, lb, rep, seed=5, amplitude=0.4)
        w = random_form(ref, man.charts[0], 1, seed=2, x_dependent=True)
        res.append(form_norm(differential(differential(w))))
    ratio = res[0] / res[1]
    assert res[1] < 0.3
    assert 3.0 < ratio < 4.8


# ------------------------------------------------- covariant differential


def _alpha_form(ref, ch, rep):
    """The reference connection one-form represented on the module: the
    horizontal basis derivations are annihilated, the vertical ones read
    back minus their generator."""
    al = zero_form(ref, ch, 1)
    for b in range(M):
        al.set((D + b,), _const(ch, -rep.matrices[b]))
    return al


def test_covariant_differential_of_alpha_is_curvature():
    man = build_torus(2, 10)
    lb = build_su(2)
    rep = build_representation(lb, "fundamental")
    ref = random_connection(man, lb, rep, seed=6, amplitude=0.5)
    ch = man.charts[0]
    Dal = covariant_differential(_alpha_form(ref, ch, rep))
    F = ref.curvature()["t0"]
    expected = zero_form(ref, ch, 2)
    expected.set((0, 1), np.einsum("...a,aij->...ij", F[..., 0, 1, :], rep.matrices))
    assert form_norm(Dal - expected) < 1e-12


def test_covariant_differential_output_is_horizontal(setup):
    man, lb, rep, ref, riem = setup
    w = random_form(ref, man.charts[0], 1, seed=31)
    Dw = covariant_differential(w)
    for key in Dw.comps:
        assert all(letter < D for letter in key)


def test_covariant_differential_matches_base_covariant_derivative():
    man = build_torus(2, 10)
    lb = build_su(2)
    rep = build_representation(lb, "fundamental")
    ref = random_connection(man, lb, rep, seed=6, amplitude=0.5)
    ch = man.charts[0]
    w = random_form(ref, ch, 1, seed=13, x_dependent=True)
    for b in range(M):
        w.comps.pop((D + b,), None)  # purely horizontal input
    Dw = covariant_differential(w)
    A = ref.A["t0"]
    expected = zero_form(ref, ch, 2)
    a0, a1 = w.get((0,)), w.get((1,))
    t = partial_derivative(a1, ch, 0) - partial_derivative(a0, ch, 1)
    for mu, val in ((0, a1), (1, -a0)):
        ra = np.einsum("...a,aij->...ij", A[..., mu, :], rep.matrices)
        t = t + ra @ val - val @ ra
    expected.set((0, 1), t)
    assert form_norm(Dw - expected) < 1e-10


def test_differential_decomposes_against_covariant_one():
    """The full differential of a degree-one form equals its covariant
    differential minus bracket and scalar-slice correction terms, each
    assembled here from raw components."""
    man = build_torus(2, 10)
    lb = build_su(2)
    rep = build_representation(lb, "fundamental")
    rng = np.random.default_rng(44)
    for ref in (
        zero_connection(man, lb, rep),
        constant_connection(man, lb, rep, rng.normal(size=(D, M)) * 0.4),
    ):
        ch = man.charts[0]
        a = rng.normal(size=(D, K, K)) + 1j * rng.normal(size=(D, K, K))
        ph = rng.normal(size=(M, K, K)) + 1j * rng.normal(size=(M, K, K))
        w = zero_form(ref, ch, 1)
        for mu in range(D):
            w.set((mu,), _const(ch, a[mu]))
        for b in range(M):
            w.set((D + b,), _const(ch, ph[b]))

        al = _alpha_form(ref, ch, rep)
        bracket = wedge(al, w) + wedge(w, al)

        vv = zero_form(ref, ch, 2)  # structure-constant contraction of the scalars
        for i in range(M):
            for j in range(i + 1, M):
                vv.set((D + i, D + j), _const(ch, np.einsum("c,cij->ij", lb.structure[i, j], ph)))

        hv = zero_form(ref, ch, 2)  # base covariant derivative of the scalars
        A = ref.A["t0"]
        for mu in range(D):
            ra = np.einsum("...a,aij->...ij", A[..., mu, :], rep.matrices)
            for b in range(M):
                pb = _const(ch, ph[b])
                dphi = ra @ pb - pb @ ra - np.einsum(
                    "...a,ac,cij->...ij", A[..., mu, :], lb.structure[:, b, :], ph
                )
                hv.add_to((mu, D + b), dphi)

        rhs = covariant_differential(w) + (-1.0) * bracket + (-1.0) * vv + hv
        assert form_norm(differential(w) - rhs) < 1e-10


def test_bianchi_residual_second_order():
    lb = build_su(2)
    rep = build_representation(lb, "fundamental")
    res = []
    for npts in (16, 32):
        man = build_torus(3, npts)
        ref = random_connection(man, lb, rep, seed=8, amplitude=0.4)
        F = ref.curvature()["t0"]
        ch = man.charts[0]
        rF = zero_form(ref, ch, 2)
        for mu in range(3):
            for nu in range(mu + 1, 3):
                rF.set((mu, nu), np.einsum("...a,aij->...ij", F[..., mu, nu, :], rep.matrices))
        res.append(np.max(np.abs(covariant_differential(rF).get((0, 1, 2)))))
    assert res[0] < 0.6
    assert res[0] / res[1] > 2.5


# ---------------------------------------------------------------- hodge


def test_star_of_unit_is_volume_form(setup):
    man, lb, rep, ref, riem = setup
    ch = man.charts[0]
    one = zero_form(ref, ch, 0)
    one.set((), _id_field(ch))
    top = hodge_star(one, riem)
    assert list(top.comps) == [tuple(range(D + M))]
    assert np.allclose(top.get(tuple(range(D + M))), np.eye(K))


def test_star_star_sign_law(setup):
    man, lb, rep, ref, riem = setup
    ch = man.charts[0]
    N = D + M
    for r in range(N + 1):
        w = random_form(ref, ch, r, seed=40 + r)
        back = hodge_star(hodge_star(w, riem), riem)
        sign = (-1) ** (r * (N - r))
        assert form_norm(back - sign * w) < 1e-12, f"degree {r}"


def test_star_star_nonflat_blocks():
    man = build_torus(2, 8)
    lb = build_su(2)
    rep = build_representation(lb, "fundamental")
    ref = random_connection(man, lb, rep, seed=3, amplitude=0.5)
    gi = np.array([[2.0, 0.3, 0.0], [0.3, 1.5, 0.2], [0.0, 0.2, 1.0]])
    riem = assemble(flat_metric(man), gi, ref)
    ch = man.charts[0]
    N = D + M
    for r in (1, 2, 3):
        w = random_form(ref, ch, r, seed=50 + r)
        back = hodge_star(hodge_star(w, riem), riem)
        sign = (-1) ** (r * (N - r))
        assert form_norm(back - sign * w) < 1e-10


def test_pairing_equals_star_route(setup):
    man, lb, rep, ref, riem = setup
    ch = man.charts[0]
    for r in (1, 2):
        w = random_form(ref, ch, r, seed=60 + r)
        e = random_form(ref, ch, r, seed=70 + r)
        lhs = metric_pairing(w, e, riem)
        rhs = hodge_star(wedge(w, hodge_star(e, riem)), riem).get(())
        assert np.max(np.abs(lhs - rhs)) < 1e-10


# ---------------------------------------------------------------- pairing


def test_pairing_unequal_degrees_is_zero(setup):
    man, lb, rep, ref, riem = setup
    ch = man.charts[0]
    w = random_form(ref, ch, 1, seed=1)
    e = random_form(ref, ch, 2, seed=2)
    assert np.max(np.abs(metric_pairing(w, e, riem))) == 0.0


def test_pairing_horizontal_unit(setup):
    man, lb, rep, ref, riem = setup
    ch = man.charts[0]
    dx1 = zero_form(ref, ch, 1)
    dx1.set((0,), _id_field(ch))
    assert np.allclose(metric_pairing(dx1, dx1, riem), np.eye(K))


def test_pairing_vertical_unit(setup):
    man, lb, rep, ref, riem = setup
    ch = man.charts[0]
    al1 = zero_form(ref, ch, 1)
    al1.set((D,), _id_field(ch))
    assert np.allclose(metric_pairing(al1, al1, riem), np.eye(K))


# ------------------------------------------------------------- integration


def test_fiber_integrate_needs_top_vertical(setup):
    man, lb, rep, ref, riem = setup
    ch = man.charts[0]
    w = zero_form(ref, ch, 2)
    w.set((D, D + 1), _id_field(ch))
    out = fiber_integrate(w, riem)
    assert all(np.max(np.abs(v)) == 0.0 for v in out.values()) or not out


def test_fiber_integrate_of_identity_top(setup):
    man, lb, rep, ref, riem = setup
    ch = man.charts[0]
    w = zero_form(ref, ch, M)
    w.set((D, D + 1, D + 2), _id_field(ch))
    out = fiber_integrate(w, riem)
    assert set(out) == {()}
    assert np.allclose(out[()], float(K))


@given(lam=st.floats(-3, 3))
@settings(max_examples=20, deadline=None)
def test_fiber_integrate_linear(lam):
    man = build_torus(2, 8)
    lb = build_su(2)
    rep = build_representation(lb, "fundamental")
    ref = zero_connection(man, lb, rep)
    riem = assemble(flat_metric(man), np.eye(3), ref)
    ch = man.charts[0]
    w = random_form(ref, ch, M, seed=4)
    e = random_form(ref, ch, M, seed=5)
    lhs = fiber_integrate(w + lam * e, riem)
    a = fiber_integrate(w, riem)
    b = fiber_integrate(e, riem)
    for key in lhs:
        assert np.allclose(lhs[key], a.get(key, 0) + lam * b.get(key, 0), atol=1e-10)


def test_total_integral_of_unit_volume(setup):
    man, lb, rep, ref, riem = setup
    ch = man.charts[0]
    one = zero_form(ref, ch, 0)
    one.set((), _id_field(ch))
    val = total_integral(hodge_star(one, riem), man, riem)
    assert abs(val - (2 * np.pi) ** 2 * K) < 1e-10


# ------------------------------------------------------------ scalar product


def test_scalar_product_zero(setup):
    man, lb, rep, ref, riem = setup
    ch = man.charts[0]
    z = zero_form(ref, ch, 1)
    assert scalar_product(z, z, man, riem) == 0.0


def test_scalar_product_hermitian(setup):
    man, lb, rep, ref, riem = setup
    ch = man.charts[0]
    w = random_form(ref, ch, 2, seed=31)
    e = random_form(ref, ch, 2, seed=32)
    swe = scalar_product(w, e, man, riem)
    sew = scalar_product(e, w, man, riem)
    assert abs(swe - np.conj(sew)) < 1e-10


def test_scalar_product_positive(setup):
    man, lb, rep, ref, riem = setup
    ch = man.charts[0]
    for r in (1, 2, 3):
        w = random_form(ref, ch, r, seed=80 + r)
        s = scalar_product(w, w, man, riem)
        assert s.real > 0 and abs(s.imag) < 1e-12


@given(lam=st.complex_numbers(max_magnitude=3, allow_nan=False, allow_infinity=False))
@settings(max_examples=20, deadline=None)
def test_scalar_product_sesquilinear(lam):
    man = build_torus(2, 8)
    lb = build_su(2)
    rep = build_representation(lb, "fundamental")
    ref = zero_connection(man, lb, rep)
    riem = assemble(flat_metric(man), np.eye(3), ref)
    ch = man.charts[0]
    w = random_form(ref, ch, 1, seed=7)
    e = random_form(ref, ch, 1, seed=8)
    left = scalar_product(lam * w, e, man, riem)
    right = scalar_product(w, lam * e, man, riem)
    base = scalar_product(w, e, man, riem)
    assert abs(left - np.conj(lam) * base) < 1e-8 * (1 + abs(lam))
    assert abs(right - lam * base) < 1e-8 * (1 + abs(lam))


def test_norm_of_coordinate_covector_scalar_module():
    """With one-dimensional module values the squared norm of dx^1 on the
    side-2pi torus is the base volume itself."""
    man = build_torus(2, 10)
    lb = build_su(2)
    rep = build_representation(lb, "trivial")
    ref = zero_connection(man, lb, rep)
    riem = assemble(flat_metric(man), np.eye(3), ref)
    ch = man.charts[0]
    dx1 = zero_form(ref, ch, 1)
    dx1.set((0,), np.ones(ch.shape + (1, 1), dtype=complex))
    val = scalar_product(dx1, dx1, man, riem)
    assert abs(val - (2 * np.pi) ** 2) < 1e-10


def test_norm_of_coordinate_covector_matrix_module(setup):
    man, lb, rep, ref, riem = setup
    ch = man.charts[0]
    dx1 = zero_form(ref, ch, 1)
    dx1.set((0,), _id_field(ch))
    val = scalar_product(dx1, dx1, man, riem)
    assert abs(val - (2 * np.pi) ** 2 * K) < 1e-10


def test_dagger_involution(setup):
    man, lb, rep, ref, riem = setup
    ch = man.charts[0]
    w = random_form(ref, ch, 2, seed=90)
    assert form_norm(dagger_form(dagger_form(w)) - w) < 1e-14
