"""Ordinary and module connections, curvature by two routes, gauge actions."""

from dataclasses import replace
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ncym.errors import GluingError, ShapeError
import ncym.connections as connections
import ncym.geometry as geometry
from ncym.geometry import (
    build_torus,
    derivatives,
    expm_antihermitian,
    grid_points,
    interp_chart,
    sampling_operator,
)
from ncym.lie_core import _comm, _comm_pairs, build_su, build_u1, build_representation, closure_defect
from ncym.connections import (
    bpst_connection,
    canonical_ncc,
    constant_connection,
    curvature_form,
    from_omega,
    gauge_transform,
    gauge_transform_ordinary,
    geometric_gauge_action,
    gluing_residuals,
    infinitesimal_gauge,
    instanton_bundle,
    monopole_bundle,
    monopole_connection,
    nc_curvature,
    nc_curvature_via_forms,
    quaternionic_transition,
    random_connection,
    random_ncc,
    thooft_symbols,
    to_omega,
    zero_connection,
    zero_ncc,
)
from ncym.nc_forms import form_norm, zero_form

D, M, K = 2, 3, 2


@pytest.fixture(scope="module")
def torus_su2():
    man = build_torus(2, 10)
    lb = build_su(2)
    rep = build_representation(lb, "fundamental")
    return man, lb, rep


def _const(ch, mat):
    mat = np.asarray(mat, dtype=complex)
    return np.broadcast_to(mat, ch.shape + mat.shape).copy()


# ------------------------------------------------------------ field strength


def test_zero_potential_zero_curvature(torus_su2):
    man, lb, rep = torus_su2
    conn = zero_connection(man, lb, rep)
    assert np.max(np.abs(conn.curvature()["t0"])) == 0.0


def test_zero_potential_flag_reads_the_data(torus_su2):
    man, lb, rep = torus_su2
    assert zero_connection(man, lb, rep).zero_potential("t0")
    tiny = np.zeros((D, M))
    tiny[1, 2] = 1e-300
    assert not constant_connection(man, lb, rep, tiny).zero_potential("t0")
    nan = zero_connection(man, lb, rep)
    nan.A["t0"][0, 0, 0, 0] = np.nan
    assert not nan.zero_potential("t0")
    man4, lb4, rep4 = instanton_bundle(8)
    bpst = bpst_connection(man4, lb4, rep4)
    assert not any(bpst.zero_potential(ch.name) for ch in man4.charts)


@pytest.mark.parametrize("shape", [(3, 2, 2), (8, 8, 3, 2, 2), (5, 4, 3, 3)])
def test_comm_pairs_is_per_pair_comm_bitwise(shape):
    rng = np.random.default_rng(len(shape))
    x = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    got = _comm_pairs(x)
    assert np.array_equal(got, _comm(x[..., :, None, :, :], x[..., None, :, :, :]))
    n = shape[-3]
    for i in range(n):
        for j in range(n):
            assert np.array_equal(got[..., i, j, :, :], _comm(x[..., i, :, :], x[..., j, :, :]))


@pytest.mark.parametrize("bundle", ["torus", "instanton"])
def test_vertical_curvature_is_the_closure_defect_bitwise(torus_su2, bundle):
    """nc_curvature's vv block is lie_core.closure_defect of phi, bit for bit,
    over a random torus reference and over the N=8 instanton."""
    if bundle == "torus":
        man, lb, rep = torus_su2
        ref = random_connection(man, lb, rep, seed=4)
    else:
        ref = bpst_connection(*instanton_bundle(8))
    ncc = random_ncc(ref, seed=6, amplitude=0.4, x_dependent=True)
    curv = nc_curvature(ncc)
    for ch in ref.man.charts:
        want = closure_defect(ncc.phi[ch.name], ref.basis.structure)
        assert np.array_equal(curv[ch.name]["vv"], want)


def test_constant_single_generator_is_flat(torus_su2):
    man, lb, rep = torus_su2
    coeffs = np.zeros((D, M))
    coeffs[0, 2] = 0.7
    coeffs[1, 2] = -0.3  # both legs along E_3: an abelian subalgebra
    conn = constant_connection(man, lb, rep, coeffs)
    assert np.max(np.abs(conn.curvature()["t0"])) < 1e-14


def test_curvature_antisymmetric(torus_su2):
    man, lb, rep = torus_su2
    conn = random_connection(man, lb, rep, seed=1, amplitude=0.5)
    F = conn.curvature()["t0"]
    assert np.max(np.abs(F + np.swapaxes(F, -3, -2))) < 1e-14


def test_random_connection_deterministic(torus_su2):
    man, lb, rep = torus_su2
    c1 = random_connection(man, lb, rep, seed=9)
    c2 = random_connection(man, lb, rep, seed=9)
    assert np.array_equal(c1.A["t0"], c2.A["t0"])


# ------------------------------------------------------------- 't Hooft data


def _eps4():
    eps = np.zeros((4, 4, 4, 4))
    for p in permutations(range(4)):
        eps[p] = np.linalg.det(np.eye(4)[list(p)])
    return eps


def test_thooft_symbols_duality():
    eps = _eps4()
    eta = thooft_symbols()
    etabar = thooft_symbols(anti=True)
    assert np.max(np.abs(eta - 0.5 * np.einsum("mnrs,ars->amn", eps, eta))) < 1e-14
    assert np.max(np.abs(etabar + 0.5 * np.einsum("mnrs,ars->amn", eps, etabar))) < 1e-14
    assert np.max(np.abs(eta + np.swapaxes(eta, 1, 2))) < 1e-14


def test_instanton_self_duality():
    man, lb, rep = instanton_bundle(16)
    conn = bpst_connection(man, lb, rep, rho=1.0)
    eps = _eps4()
    F = conn.curvature()["north"]
    Fd = 0.5 * np.einsum("mnrs,...rsa->...mna", eps, F)
    rel = np.sqrt(np.sum(np.abs(F - Fd) ** 2)) / np.sqrt(np.sum(np.abs(F) ** 2))
    assert rel < 0.05
    # the reverse-oriented chart sees the anti-self-dual combination
    Fs = conn.curvature()["south"]
    Fsd = 0.5 * np.einsum("mnrs,...rsa->...mna", eps, Fs)
    rel_s = np.sqrt(np.sum(np.abs(Fs + Fsd) ** 2)) / np.sqrt(np.sum(np.abs(Fs) ** 2))
    assert rel_s < 0.08


def test_quaternionic_transition_unitary():
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(40, 4))
    t = quaternionic_transition(pts)
    ident = t @ np.conj(np.swapaxes(t, -1, -2))
    assert np.max(np.abs(ident - np.eye(2))) < 1e-12
    assert np.max(np.abs(np.linalg.det(t) - 1.0)) < 1e-12


# ------------------------------------------------------------------- gluing


def test_instanton_gluing_residuals_converge():
    res = {}
    for npts in (12, 24):
        man, lb, rep = instanton_bundle(npts)
        conn = bpst_connection(man, lb, rep, rho=1.0)
        res[npts] = gluing_residuals(conn)[("north", "south")]
    assert res[12]["potential"] < 0.2
    assert res[12]["field_strength"] < 0.03
    assert res[24]["potential"] < res[12]["potential"] / 1.8
    assert res[24]["field_strength"] < res[12]["field_strength"] / 1.8


def test_monopole_gluing_residuals_converge():
    res = {}
    for npts in (16, 32):
        man, lb, rep = monopole_bundle(npts, charge=2)
        conn = monopole_connection(man, lb, rep, charge=2)
        res[npts] = gluing_residuals(conn)[("north", "south")]
    assert res[16]["potential"] < 0.25
    assert res[16]["field_strength"] < 0.025
    assert res[32]["potential"] < res[16]["potential"] / 1.8
    assert res[32]["field_strength"] < res[16]["field_strength"] / 1.8


def _gluing_oracle(conn):
    """The gluing residuals on the whole source grid, as formed before they
    were restricted to the sample points."""
    out = {}
    for ov in conn.man.overlaps:
        src, dst = conn.man.chart(ov.src), conn.man.chart(ov.dst)
        mask, jac = ov.mask, ov.jac
        A_src = conn.basis.contract(conn.A[ov.src])
        A_dst_at = conn.basis.contract(interp_chart(dst, conn.A[ov.dst], ov.y))
        lhs_A = np.einsum("pmij,pmn->pnij", A_dst_at, jac)
        t_grid = ov.transition(grid_points(src))
        tinv_grid = np.conj(np.swapaxes(t_grid, -1, -2))
        dtinv = derivatives(tinv_grid, src)
        t, tinv = t_grid[mask], tinv_grid[mask]
        inhom = np.einsum("pij,pmjk->pmik", t, dtinv[mask])
        rhs_A = np.einsum("pij,pmjk,pkl->pmil", t, A_src[mask], tinv) + inhom
        res_A = np.max(np.abs(lhs_A - rhs_A)) / max(np.max(np.abs(A_src)), 1e-30)
        F_src = conn.basis.contract(conn.curvature()[ov.src])
        F_dst_at = conn.basis.contract(interp_chart(dst, conn.curvature()[ov.dst], ov.y))
        lhs_F = np.einsum("pmnij,pmr,pns->prsij", F_dst_at, jac, jac)
        rhs_F = np.einsum("pij,pmnjk,pkl->pmnil", t, F_src[mask], tinv)
        res_F = np.max(np.abs(lhs_F - rhs_F)) / max(np.max(np.abs(F_src)), 1e-30)
        out[(ov.src, ov.dst)] = {"potential": res_A, "field_strength": res_F}
    return out


@pytest.mark.parametrize("bundle", ["instanton8", "monopole16"])
def test_gluing_on_the_sample_points_matches_the_whole_grid_formula(bundle):
    if bundle == "instanton8":
        man, lb, rep = instanton_bundle(8)
        conn = bpst_connection(man, lb, rep, rho=1.0)
    else:
        man, lb, rep = monopole_bundle(16, charge=2)
        conn = monopole_connection(man, lb, rep, charge=2)
    got, want = gluing_residuals(conn), _gluing_oracle(conn)
    assert set(got) == set(want)
    for pair, res in want.items():
        for key, value in res.items():
            assert abs(got[pair][key] - value) <= 1e-12 * value, (pair, key)


def _gluing_bundle(bundle):
    if bundle == "instanton8":
        man, lb, rep = instanton_bundle(8)
        return bpst_connection(man, lb, rep, rho=1.0)
    man, lb, rep = monopole_bundle(16, charge=2)
    return monopole_connection(man, lb, rep, charge=2)


@pytest.mark.parametrize("bundle", ["instanton8", "monopole16"])
def test_compact_destination_sample_is_bitwise_the_whole_chart_sample(bundle):
    """The destination fields sampled from their compact arrays are, byte for
    byte, the whole-chart fields sampled by the overlap's operator."""
    conn = _gluing_bundle(bundle)
    F = connections.curvature_F(conn)
    for ov in conn.man.overlaps:
        dst = conn.man.chart(ov.dst)
        sample = sampling_operator(dst, ov.y)
        compact, fields = connections._sampled_fields(conn, dst, sample)
        assert compact.shape == (sample.shape[0], len(np.unique(sample.cols)))
        assert compact.shape[1] < sample.shape[1]
        sampled = connections._split_fields(compact @ fields, dst.dim)
        for got, whole in zip(sampled, (conn.A[ov.dst], F[ov.dst])):
            want = sample @ whole.reshape((sample.shape[1],) + whole.shape[dst.dim:])
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert conn._F == {}


def test_gluing_builds_one_sampling_operator_per_overlap(monkeypatch):
    """The destination fields are sampled through one operator per overlap
    with a transition, sliced per slab; interp_chart is not called."""
    man, lb, rep = instanton_bundle(8)
    conn = bpst_connection(man, lb, rep, rho=1.0)
    want = gluing_residuals(conn)
    built = []

    def counted(chart, pts):
        built.append(chart.name)
        return sampling_operator(chart, pts)

    def refused(*args):
        raise AssertionError("interp_chart called")

    monkeypatch.setattr(connections, "sampling_operator", counted)
    monkeypatch.setattr(geometry, "interp_chart", refused)
    monkeypatch.setattr(connections, "interp_chart", refused, raising=False)
    assert gluing_residuals(conn) == want
    assert built == ["south", "north"]
    # an overlap without a transition is skipped, and builds nothing
    first, second = man.overlaps
    one_way = replace(man, overlaps=(first, replace(second, transition=None)))
    built.clear()
    assert set(gluing_residuals(bpst_connection(one_way, lb, rep, rho=1.0))) == {
        ("north", "south")}
    assert built == ["south"]


def test_sliced_sampling_operator_is_bitwise_interp_chart():
    man, lb, rep = instanton_bundle(8)
    conn = bpst_connection(man, lb, rep, rho=1.0)
    for ov in man.overlaps:
        dst = man.chart(ov.dst)
        sample = sampling_operator(dst, ov.y)
        n = sample.shape[0]
        for field in (conn.A[ov.dst], conn.curvature()[ov.dst]):
            flat = field.reshape(sample.shape[1], -1)
            for rows in (slice(0, n), slice(5, 6), slice(n // 3, 2 * n // 3)):
                got = (sample[rows] @ flat).reshape((-1,) + field.shape[dst.dim:])
                assert got.tobytes() == interp_chart(dst, field, ov.y[rows]).tobytes()


def test_gluing_requires_transitions(torus_su2):
    man, lb, rep = torus_su2
    conn = random_connection(man, lb, rep, seed=2)
    with pytest.raises(GluingError):
        gluing_residuals(conn)


def test_ordinary_gauge_transform_conjugates_curvature():
    man, lb, rep = instanton_bundle(8)
    conn = bpst_connection(man, lb, rep, rho=1.0)
    U = {}
    for ch in man.charts:
        x = grid_points(ch)
        ang = 0.3 * x[..., 0]
        u = np.zeros(ch.shape + (2, 2), dtype=complex)
        u[..., 0, 0] = np.cos(ang) + 1j * np.sin(ang)
        u[..., 1, 1] = np.cos(ang) - 1j * np.sin(ang)
        U[ch.name] = u
    out = gauge_transform_ordinary(conn, U)
    F0 = conn.curvature()["north"]
    F1 = out.curvature()["north"]
    m0 = np.einsum("...mna,aij->...mnij", F0, rep.matrices)
    m1 = np.einsum("...mna,aij->...mnij", F1, rep.matrices)
    u = U["north"]
    ui = np.conj(np.swapaxes(u, -1, -2))
    conj = np.einsum("...ij,...mnjl,...lp->...mnip", ui, m0, u)
    scale = np.max(np.abs(m0))
    assert np.max(np.abs(m1 - conj)) < 0.05 * scale  # stencil-level agreement


def test_ordinary_gauge_transform_rejects_non_group_fields(torus_su2):
    man, lb, rep = torus_su2
    conn = zero_connection(man, lb, rep)
    ch = man.charts[0]
    eye = np.broadcast_to(np.eye(2, dtype=complex), ch.shape + (2, 2))
    with pytest.raises(ShapeError, match="not unitary"):
        gauge_transform_ordinary(conn, {ch.name: 1.5 * eye})
    # unitary, but det = -1 lies outside SU(2)
    with pytest.raises(ShapeError, match="unit determinant"):
        gauge_transform_ordinary(conn, {ch.name: 1j * eye})


def test_ordinary_gauge_transform_accepts_a_u1_phase():
    """U(1) has no determinant condition: a constant phase on the charge-2
    monopole is a gauge transformation, and it leaves A and the charge."""
    from ncym.chern_weil import chern_number

    man, lb, rep = monopole_bundle(16, charge=2)
    conn = monopole_connection(man, lb, rep, charge=2)
    phase = {ch.name: np.full(ch.shape + (1, 1), np.exp(0.7j)) for ch in man.charts}
    out = gauge_transform_ordinary(conn, phase)
    for name in conn.A:
        assert np.max(np.abs(out.A[name] - conn.A[name])) <= 1e-14
    assert abs(chern_number(out, 1) - chern_number(conn, 1)) < 1e-12


@pytest.mark.parametrize("bundle, want", [("instanton", 1.169), ("monopole", 0.0)])
def test_zero_reference_gluing_is_unscaled(bundle, want):
    """A zero potential has peak 0, so its gluing residual is reported
    unscaled: the instanton transition's inhomogeneous term (about 1.169 at
    N=8), and exactly 0.0 for the trivial charge-0 monopole bundle."""
    man, lb, rep = instanton_bundle(8) if bundle == "instanton" else monopole_bundle(8, 0)
    res = gluing_residuals(zero_connection(man, lb, rep))
    for both in res.values():
        assert both["field_strength"] == 0.0
        assert both["potential"] == pytest.approx(want, rel=1e-3, abs=0.0)


# ------------------------------------------------------- omega bookkeeping


def test_omega_round_trip_bitwise(torus_su2):
    man, lb, rep = torus_su2
    ref = random_connection(man, lb, rep, seed=3, amplitude=0.4)
    ncc = random_ncc(ref, seed=11, x_dependent=True)
    a, phi = from_omega(to_omega(ncc, "t0"))
    assert np.array_equal(a, ncc.a["t0"])
    assert np.max(np.abs(phi - ncc.phi["t0"])) < 1e-14


def test_omega_vertical_readback(torus_su2):
    man, lb, rep = torus_su2
    ref = zero_connection(man, lb, rep)
    ncc = random_ncc(ref, seed=4)
    om = to_omega(ncc, "t0")
    for b in range(M):
        expect = ncc.phi["t0"][..., b, :, :] - rep.matrices[b]
        assert np.max(np.abs(om.get((D + b,)) - expect)) < 1e-14


def test_omega_vertical_condition_at_zero_fields(torus_su2):
    man, lb, rep = torus_su2
    ref = zero_connection(man, lb, rep)
    om = to_omega(zero_ncc(ref), "t0")
    for b in range(M):
        assert np.max(np.abs(om.get((D + b,)) + rep.matrices[b])) == 0.0


# ------------------------------------------------------------- curvature


def test_canonical_point_is_flat_on_any_reference(torus_su2):
    man, lb, rep = torus_su2
    for ref in (
        zero_connection(man, lb, rep),
        random_connection(man, lb, rep, seed=9, amplitude=0.5),
    ):
        O = nc_curvature(canonical_ncc(ref))["t0"]
        assert max(np.max(np.abs(O[k])) for k in ("hh", "hv", "vv")) == 0.0
        assert form_norm(nc_curvature_via_forms(canonical_ncc(ref), "t0")) == 0.0


def test_zero_fields_leave_reference_curvature(torus_su2):
    man, lb, rep = torus_su2
    ref = random_connection(man, lb, rep, seed=5, amplitude=0.5)
    O = nc_curvature(zero_ncc(ref))["t0"]
    F = ref.curvature()["t0"]
    expect = np.einsum("...mna,aij->...mnij", F, rep.matrices)
    assert np.max(np.abs(O["hh"] - expect)) < 1e-12
    assert np.max(np.abs(O["hv"])) < 1e-14
    assert np.max(np.abs(O["vv"])) < 1e-14


@given(t=st.floats(-2, 2))
@settings(max_examples=25, deadline=None)
def test_scalar_slice_vertical_curvature(t):
    man = build_torus(2, 8)
    lb = build_su(2)
    rep = build_representation(lb, "fundamental")
    ncc = zero_ncc(zero_connection(man, lb, rep))
    ncc.phi["t0"] = ncc.phi["t0"] + t * rep.matrices
    O = nc_curvature(ncc)["t0"]
    expect = (t * t - t) * np.einsum("abc,cij->abij", lb.structure, rep.matrices)
    assert np.max(np.abs(O["vv"] - expect)) < 1e-12
    assert np.max(np.abs(O["hh"])) < 1e-12


def test_curvature_index_antisymmetry(torus_su2):
    man, lb, rep = torus_su2
    ref = random_connection(man, lb, rep, seed=6, amplitude=0.4)
    O = nc_curvature(random_ncc(ref, seed=13, x_dependent=True))["t0"]
    assert np.max(np.abs(O["hh"] + np.swapaxes(O["hh"], -4, -3))) < 1e-14
    assert np.max(np.abs(O["vv"] + np.swapaxes(O["vv"], -4, -3))) < 1e-14


def test_two_curvature_routes_agree_constant(torus_su2):
    man, lb, rep = torus_su2
    ncc = random_ncc(zero_connection(man, lb, rep), seed=7)
    w1 = curvature_form(ncc, "t0")
    w2 = nc_curvature_via_forms(ncc, "t0")
    assert form_norm(w1 - w2) < 1e-10


def test_two_curvature_routes_agree_x_dependent():
    """Both routes share the same finite-difference stencils, so agreement
    survives x-dependence at float level rather than merely at O(h^2)."""
    lb = build_su(2)
    rep = build_representation(lb, "fundamental")
    for npts in (10, 20):
        man = build_torus(2, npts)
        ref = random_connection(man, lb, rep, seed=3, amplitude=0.4)
        ncc = random_ncc(ref, seed=11, x_dependent=True)
        diff = form_norm(curvature_form(ncc, "t0") - nc_curvature_via_forms(ncc, "t0"))
        assert diff < 1e-12


# ------------------------------------------------------------------ gauge


def _unitary_field(ch, seed=3, x_dependent=False):
    rng = np.random.default_rng(seed)
    h = rng.normal(size=(K, K)) + 1j * rng.normal(size=(K, K))
    h = 0.15 * (h + np.conj(h.T))
    base = np.broadcast_to(1j * h, ch.shape + (K, K)).copy()
    if x_dependent:
        x = np.stack(np.meshgrid(*ch.coords, indexing="ij"), axis=-1)
        base = base * np.cos(x[..., 0])[..., None, None]
        base = 0.5 * (base - np.conj(np.swapaxes(base, -1, -2)))
    return expm_antihermitian(base)


def test_gauge_transform_conjugates_curvature_constant(torus_su2):
    man, lb, rep = torus_su2
    ncc = random_ncc(zero_connection(man, lb, rep), seed=19)
    ch = man.charts[0]
    U = _unitary_field(ch)
    O0 = nc_curvature(ncc)["t0"]
    OU = nc_curvature(gauge_transform(ncc, {"t0": U}))["t0"]
    Ui = np.conj(np.swapaxes(U, -1, -2))
    for k in ("hh", "hv", "vv"):
        conj = np.einsum("...ij,...mnjl,...lp->...mnip", Ui, O0[k], U)
        assert np.max(np.abs(OU[k] - conj)) < 1e-10


def test_gauge_transform_conjugation_converges_x_dependent():
    lb = build_su(2)
    rep = build_representation(lb, "fundamental")
    errs = []
    for npts in (16, 32):
        man = build_torus(2, npts)
        ncc = random_ncc(zero_connection(man, lb, rep), seed=19)
        ch = man.charts[0]
        U = _unitary_field(ch, x_dependent=True)
        O0 = nc_curvature(ncc)["t0"]
        OU = nc_curvature(gauge_transform(ncc, {"t0": U}))["t0"]
        Ui = np.conj(np.swapaxes(U, -1, -2))
        errs.append(
            max(
                np.max(np.abs(OU[k] - np.einsum("...ij,...mnjl,...lp->...mnip", Ui, O0[k], U)))
                for k in ("hh", "hv", "vv")
            )
        )
    assert errs[0] < 0.05
    assert errs[0] / errs[1] > 2.5


def test_gauge_transform_rejects_non_unitary(torus_su2):
    man, lb, rep = torus_su2
    ncc = random_ncc(zero_connection(man, lb, rep), seed=2)
    ch = man.charts[0]
    bad = np.broadcast_to(np.diag([1.0, 2.0]).astype(complex), ch.shape + (K, K)).copy()
    with pytest.raises(ShapeError):
        gauge_transform(ncc, {"t0": bad})


def test_gauge_transform_accepts_drifted_unitary(torus_su2):
    man, lb, rep = torus_su2
    ncc = random_ncc(zero_connection(man, lb, rep), seed=2)
    ch = man.charts[0]
    U = _unitary_field(ch)
    drift = U + 1e-12 * np.ones((K, K))
    out = gauge_transform(ncc, {"t0": drift})
    assert np.all(np.isfinite(out.a["t0"]))


def test_infinitesimal_matches_finite_difference(torus_su2):
    man, lb, rep = torus_su2
    ref = random_connection(man, lb, rep, seed=5, amplitude=0.3)
    ncc = random_ncc(ref, seed=23)
    ch = man.charts[0]
    rng = np.random.default_rng(1)
    h = rng.normal(size=(K, K)) + 1j * rng.normal(size=(K, K))
    gam = 0.5 * (1j * (h + np.conj(h.T)))
    gam = gam - np.trace(gam) / K * np.eye(K)
    gfield = _const(ch, gam)
    delta = infinitesimal_gauge(ncc, {"t0": gfield})
    eps = 1e-6
    plus = gauge_transform(ncc, {"t0": expm_antihermitian(eps * gfield)})
    minus = gauge_transform(ncc, {"t0": expm_antihermitian(-eps * gfield)})
    fd_a = (plus.a["t0"] - minus.a["t0"]) / (2 * eps)
    fd_p = (plus.phi["t0"] - minus.phi["t0"]) / (2 * eps)
    assert np.max(np.abs(fd_a - delta["a"]["t0"])) < 1e-7
    assert np.max(np.abs(fd_p - delta["phi"]["t0"])) < 1e-7


def test_geometric_action_zero_parameter(torus_su2):
    man, lb, rep = torus_su2
    ref = zero_connection(man, lb, rep)
    ncc = random_ncc(ref, seed=4)
    ch = man.charts[0]
    out = geometric_gauge_action(to_omega(ncc, "t0"), _const(ch, np.zeros((2, 2))))
    assert form_norm(out) == 0.0


def test_geometric_action_on_horizontal_tensorial(torus_su2):
    man, lb, rep = torus_su2
    ref = random_connection(man, lb, rep, seed=6, amplitude=0.5)
    ch = man.charts[0]
    rng = np.random.default_rng(2)
    w = zero_form(ref, ch, 1)
    vals = rng.normal(size=(D, K, K)) + 1j * rng.normal(size=(D, K, K))
    for mu in range(D):
        w.set((mu,), _const(ch, vals[mu]))
    coeff = rng.normal(size=(M,))
    gam_n = np.einsum("a,aij->ij", coeff, lb.basis)
    gam_k = np.einsum("a,aij->ij", coeff, rep.matrices)
    out = geometric_gauge_action(w, _const(ch, gam_n))
    for mu in range(D):
        expect = vals[mu] @ gam_k - gam_k @ vals[mu]
        assert np.max(np.abs(out.get((mu,)) - expect)) < 1e-12
    for b in range(M):
        assert np.max(np.abs(out.get((D + b,)))) == 0.0


def test_geometric_action_coincides_with_connection_rule(torus_su2):
    """With module equal to the structure algebra and vanishing scalar part,
    the Cartan-formula action reproduces the connection transformation."""
    man, lb, rep = torus_su2
    ref = random_connection(man, lb, rep, seed=6, amplitude=0.5)
    ch = man.charts[0]
    rng = np.random.default_rng(3)
    ncc = zero_ncc(ref)
    ncc.a["t0"] = ncc.a["t0"] + (
        rng.normal(size=(D, K, K)) + 1j * rng.normal(size=(D, K, K))
    )
    coeff = rng.normal(size=(M,))
    gam = _const(ch, np.einsum("a,aij->ij", coeff, lb.basis))
    act = geometric_gauge_action(to_omega(ncc, "t0"), gam)
    delta = infinitesimal_gauge(ncc, {"t0": gam})
    for mu in range(D):
        assert np.max(np.abs(act.get((mu,)) - delta["a"]["t0"][..., mu, :, :])) < 1e-10
    for b in range(M):
        assert np.max(np.abs(act.get((D + b,)) - delta["phi"]["t0"][..., b, :, :])) < 1e-10


# ------------------------------------------------------------------- abelian


def test_monopole_bundle_shapes():
    man, lb, rep = monopole_bundle(8, charge=1)
    assert lb.dim == 1 and rep.k == 1
    conn = monopole_connection(man, lb, rep, charge=1)
    F = conn.curvature()["north"]
    assert F.shape == man.charts[0].shape + (2, 2, 1)
    assert np.max(np.abs(F)) > 0
