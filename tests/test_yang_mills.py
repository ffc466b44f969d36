"""Yang-Mills functional: action terms, gradient, vacuum solver, classification."""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import ncym.yang_mills as ym
from ncym.cli import main
from ncym.connections import (
    OrdinaryConnection,
    bpst_connection,
    canonical_ncc,
    gauge_transform,
    instanton_bundle,
    nc_curvature,
    random_connection,
    random_ncc,
    zero_connection,
    zero_ncc,
)
from ncym.errors import ClassificationRefused, ShapeError
from ncym.geometry import build_torus, flat_metric, grid_points, round_sphere_metric
from ncym.lie_core import build_representation, build_su
from ncym.metric import assemble
from ncym.yang_mills import (
    SolverOptions,
    action,
    action_via_cycle,
    classify_vacuum,
    criticality_probe,
    evaluate,
    gradient,
    grad_norm,
    pairing,
    solve_vacuum,
    vacuum_residuals,
)

VOL = (2.0 * np.pi) ** 2  # torus cell volumes sum to the full coordinate volume


@pytest.fixture(scope="module")
def torus():
    man = build_torus(2, 8)
    lb = build_su(2)
    rep = build_representation(lb, "fundamental")
    ref = zero_connection(man, lb, rep)
    riem = assemble(flat_metric(man), np.eye(3), ref)
    return man, lb, rep, ref, riem


@pytest.fixture(scope="module")
def torus_ref():
    """``torus`` over a non-zero reference, ``random_connection(seed=2)``, so
    that the gradient's terms in R(A), A and F are formed on the torus too."""
    man = build_torus(2, 8)
    lb = build_su(2)
    rep = build_representation(lb, "fundamental")
    ref = random_connection(man, lb, rep, seed=2)
    riem = assemble(flat_metric(man), np.eye(3), ref)
    return man, lb, rep, ref, riem


@pytest.fixture(scope="module")
def instanton8():
    """The two-chart instanton background at N=8, laid out like ``torus``."""
    man, lb, rep = instanton_bundle(8)
    ref = bpst_connection(man, lb, rep, rho=1.0)
    riem = assemble(round_sphere_metric(man), np.eye(3), ref)
    return man, lb, rep, ref, riem


@pytest.fixture(scope="module")
def bpst16():
    man, lb, rep = instanton_bundle(16)
    conn = bpst_connection(man, lb, rep, rho=1.0)
    riem = assemble(round_sphere_metric(man), np.eye(3), conn)
    ncc = zero_ncc(conn)
    bd = action(ncc, riem)
    return ncc, riem, bd


@pytest.fixture(scope="module")
def solved_torus(torus):
    """Deterministic solve from a constant perturbation of the flat-fiber point."""
    man, lb, rep, ref, riem = torus
    start = canonical_ncc(ref)
    pert = random_ncc(ref, seed=7, amplitude=0.2)
    for ch in man.charts:
        start.a[ch.name] = start.a[ch.name] + pert.a[ch.name]
        start.phi[ch.name] = start.phi[ch.name] + pert.phi[ch.name]
    opts = SolverOptions(max_iters=400, tol=1e-8, momentum=0.9)
    state, report, trace = solve_vacuum(start, riem, opts)
    return state, report, trace, riem


def _add(ncc, da=None, dphi=None):
    out = ncc.copy()
    for name in out.a:
        if da is not None:
            out.a[name] = out.a[name] + da[name]
        if dphi is not None:
            out.phi[name] = out.phi[name] + dphi[name]
    return out


# ------------------------------------------------------------------ action


def test_action_zero_at_flat_fiber_point(torus):
    _, _, _, ref, riem = torus
    bd = action(canonical_ncc(ref), riem)
    assert bd.s_horizontal == 0.0
    assert bd.s_mixed == 0.0
    assert bd.s_vertical == 0.0


def test_gradient_zero_at_flat_fiber_point(torus):
    _, _, _, ref, riem = torus
    assert grad_norm(gradient(canonical_ncc(ref), riem)) == 0.0


def test_action_terms_nonnegative(torus):
    _, _, _, ref, riem = torus
    ncc = random_ncc(ref, seed=3, amplitude=0.5, x_dependent=True)
    bd = action(ncc, riem)
    assert bd.s_horizontal >= 0.0
    assert bd.s_mixed >= 0.0
    assert bd.s_vertical >= 0.0
    assert bd.s_total == bd.s_horizontal + bd.s_mixed + bd.s_vertical


@settings(deadline=None, max_examples=25)
@given(t=st.floats(min_value=-0.5, max_value=1.5))
def test_double_well_profile(torus, t):
    """phi = t * R with a = 0 costs only the vertical term, a quartic double
    well (3/2) V (t^2 - t)^2 vanishing exactly at t = 0 and t = 1."""
    man, _, rep, ref, riem = torus
    ncc = zero_ncc(ref)
    for ch in man.charts:
        ncc.phi[ch.name] = ncc.phi[ch.name] + t * rep.matrices
    bd = action(ncc, riem)
    assert bd.s_horizontal == 0.0
    # the stencil is a dense matmul, so differentiating the constant field
    # leaves BLAS-order rounding noise instead of a bitwise zero
    assert bd.s_mixed <= 1e-28
    expected = 1.5 * VOL * (t * t - t) ** 2
    assert bd.s_vertical == pytest.approx(expected, rel=1e-9, abs=1e-12)


def test_double_well_symmetric(torus):
    man, _, rep, ref, riem = torus
    vals = []
    for t in (0.3, 0.7):
        ncc = zero_ncc(ref)
        for ch in man.charts:
            ncc.phi[ch.name] = ncc.phi[ch.name] + t * rep.matrices
        vals.append(action(ncc, riem).s_total)
    assert vals[0] == pytest.approx(vals[1], rel=1e-12)


def test_reference_mismatch_rejected(torus):
    man, lb, rep, ref, riem = torus
    other = zero_connection(man, lb, rep)
    ncc = zero_ncc(other)
    with pytest.raises(ShapeError):
        action(ncc, riem)
    with pytest.raises(ShapeError):
        gradient(ncc, riem)


# ---------------------------------------------------- the two action routes


def test_routes_agree_constant_fields(torus):
    _, _, _, ref, riem = torus
    ncc = random_ncc(ref, seed=9, amplitude=0.4)
    S = action(ncc, riem).s_total
    assert action_via_cycle(ncc, riem) == pytest.approx(S, rel=1e-10)


def test_routes_agree_x_dependent_fields(torus):
    _, _, _, ref, riem = torus
    ncc = random_ncc(ref, seed=9, amplitude=0.4, x_dependent=True)
    S = action(ncc, riem).s_total
    assert action_via_cycle(ncc, riem) == pytest.approx(S, rel=1e-10)


def test_routes_agree_on_instanton(bpst16):
    ncc, riem, bd = bpst16
    assert action_via_cycle(ncc, riem) == pytest.approx(bd.s_total, rel=1e-8)


def test_instanton_action_near_continuum(bpst16):
    # unit-charge self-dual field: the continuum value is 8 pi^2 under this
    # trace normalization; N = 16 sits 3.7% below (second-order cutoff).
    _, _, bd = bpst16
    assert bd.s_mixed == 0.0
    assert bd.s_vertical == 0.0
    assert abs(bd.s_total / (8.0 * np.pi**2) - 1.0) < 0.06


def test_instanton_residuals_split(bpst16):
    ncc, riem, bd = bpst16
    res = vacuum_residuals(ncc, riem)
    assert res[0] == 0.0
    assert res[1] == 0.0
    assert res[2] == pytest.approx(np.sqrt(bd.s_horizontal), rel=1e-12)
    assert res[2] > 1.0


# ------------------------------------------------------------- gradient


@pytest.mark.parametrize(
    "bundle, amplitude, directions",
    # the reference adds the terms in R(A), A and F; the instanton adds
    # partition-of-unity weights, sqrt(g) and two charts
    [("torus", 0.4, 20), ("torus_ref", 0.4, 5), ("instanton8", 0.2, 3)],
    ids=["torus", "torus_ref", "instanton8"],
)
def test_gradient_matches_finite_differences(request, bundle, amplitude, directions):
    man, lb, rep, ref, riem = request.getfixturevalue(bundle)
    ncc = random_ncc(ref, seed=3, amplitude=amplitude, x_dependent=True)
    g = gradient(ncc, riem)
    rng = np.random.default_rng(0)
    k = rep.k
    eps = 1e-5
    for _ in range(directions):
        da, dphi = {}, {}
        for ch in man.charts:
            za = rng.normal(size=ch.shape + (ch.dim, k, k)) + 1j * rng.normal(
                size=ch.shape + (ch.dim, k, k)
            )
            zp = rng.normal(size=ch.shape + (lb.dim, k, k)) + 1j * rng.normal(
                size=ch.shape + (lb.dim, k, k)
            )
            da[ch.name] = 0.5 * (za - np.conj(np.swapaxes(za, -1, -2)))
            dphi[ch.name] = 0.5 * (zp - np.conj(np.swapaxes(zp, -1, -2)))
        norm = np.sqrt(
            sum(float(np.sum(np.abs(v) ** 2)) for v in da.values())
            + sum(float(np.sum(np.abs(v) ** 2)) for v in dphi.values())
        )
        da = {n: v / norm for n, v in da.items()}
        dphi = {n: v / norm for n, v in dphi.items()}
        plus = action(_add(ncc, da={n: eps * v for n, v in da.items()},
                           dphi={n: eps * v for n, v in dphi.items()}), riem).s_total
        minus = action(_add(ncc, da={n: -eps * v for n, v in da.items()},
                            dphi={n: -eps * v for n, v in dphi.items()}), riem).s_total
        fd = (plus - minus) / (2.0 * eps)
        analytic = pairing(g, {"a": da, "phi": dphi})
        assert analytic == pytest.approx(fd, rel=1e-5, abs=1e-10)


@pytest.mark.parametrize(
    "bundle, kind", [("torus", "torus"), ("instanton8", "instanton")], ids=["torus", "instanton8"]
)
def test_one_curvature_evaluation_per_state(request, bundle, kind, monkeypatch, tmp_path):
    *_, ref, riem = request.getfixturevalue(bundle)
    calls = []
    curvature = ym.nc_curvature
    monkeypatch.setattr(ym, "nc_curvature", lambda ncc: calls.append(1) or curvature(ncc))
    ncc = random_ncc(ref, seed=3, amplitude=0.2, x_dependent=True)
    for fn in (evaluate, gradient, action, vacuum_residuals):
        calls.clear()
        fn(ncc, riem)
        assert len(calls) == 1, fn.__name__

    # an exactly flat start: one evaluation gives the action, the gradient
    # and the report
    calls.clear()
    _, report, _ = solve_vacuum(canonical_ncc(ref), riem)
    assert report.converged and report.iterations == 1
    assert len(calls) == 1

    doc = {
        "task": "eval",
        "bundle": {"kind": kind, "npts": 8},
        "initial": {"kind": "random", "seed": 3, "amplitude": 0.2, "x_dependent": True},
    }
    path = tmp_path / "eval.json"
    path.write_text(json.dumps(doc))
    calls.clear()
    assert main(["run", str(path), "--output-dir", str(tmp_path / "out")]) == 0
    assert len(calls) == 1


def test_solver_evaluates_each_state_once(torus, monkeypatch):
    """The solver evaluates the start and each line-search candidate once, and
    the action and gradient it carries are a fresh evaluation's bits."""
    *_, ref, riem = torus
    digests, projected = [], []
    curvature, step = ym.nc_curvature, ym._step

    def digest_curvature(ncc):
        h = hashlib.sha256()
        for part in (ncc.a, ncc.phi):
            for name in sorted(part):
                h.update(part[name].tobytes())
        digests.append(h.hexdigest())
        return curvature(ncc)

    def count_step(ncc, direction, eta, project):
        projected.append(project)
        return step(ncc, direction, eta, project)

    monkeypatch.setattr(ym, "nc_curvature", digest_curvature)
    monkeypatch.setattr(ym, "_step", count_step)
    start = random_ncc(ref, seed=11, amplitude=0.2, x_dependent=True)

    def solve(tol):
        digests.clear()
        projected.clear()
        out = solve_vacuum(start, riem, SolverOptions(max_iters=20, tol=tol))
        assert len(set(digests)) == len(digests)
        assert len(digests) == 1 + projected.count(True)
        return out

    _, report, trace = solve(0.0)
    assert report.stop_reason == "budget"
    # stopped at the first state whose gradient norm reaches the budget run's
    # last, the returned state is the one the last trace row describes
    state, report, trace = solve(trace[-1][1])
    assert report.converged

    monkeypatch.undo()
    bd, g = evaluate(state, riem)
    assert bd.s_total == report.action == trace[-1][0]
    assert grad_norm(g) == trace[-1][1]


@pytest.fixture(scope="module")
def zero_instanton8():
    """The two-chart instanton bundle at N=8 over the zero reference."""
    man, lb, rep = instanton_bundle(8)
    ref = zero_connection(man, lb, rep)
    riem = assemble(round_sphere_metric(man), np.eye(3), ref)
    return man, lb, rep, ref, riem


def _evaluations(ncc, riem):
    bd, g = evaluate(ncc, riem)
    return nc_curvature(ncc), bd, g


@pytest.mark.parametrize("bundle", ["torus", "zero_instanton8"])
def test_zero_reference_skip_is_bitwise(request, bundle, monkeypatch):
    """Skipping the terms that vanish with the reference potential changes no
    bit of the curvature, the action breakdown or the gradient."""
    man, _, rep, ref, riem = request.getfixturevalue(bundle)
    assert all(ref.zero_potential(ch.name) for ch in man.charts)
    ncc = random_ncc(ref, seed=9, amplitude=0.3, x_dependent=True)
    for ch in man.charts:
        ncc.phi[ch.name] = ncc.phi[ch.name] + rep.matrices
    curv, bd, g = _evaluations(ncc, riem)
    monkeypatch.setattr(OrdinaryConnection, "zero_potential", lambda self, name: False)
    curv0, bd0, g0 = _evaluations(ncc, riem)
    for ch in man.charts:
        for block in ("hh", "hv", "vv"):
            assert np.array_equal(curv[ch.name][block], curv0[ch.name][block])
        assert np.array_equal(bd.densities[ch.name], bd0.densities[ch.name])
        for part in ("a", "phi"):
            assert np.array_equal(g[part][ch.name], g0[part][ch.name])
    assert (bd.s_horizontal, bd.s_mixed, bd.s_vertical) == (
        bd0.s_horizontal, bd0.s_mixed, bd0.s_vertical)


def test_gradient_anti_hermitian(torus):
    _, _, _, ref, riem = torus
    g = gradient(random_ncc(ref, seed=4, amplitude=0.3, x_dependent=True), riem)
    for part in ("a", "phi"):
        for v in g[part].values():
            assert np.max(np.abs(v + np.conj(np.swapaxes(v, -1, -2)))) < 1e-12


# ------------------------------------------------------- gauge invariance


def test_action_gauge_invariant_constant_frame(torus):
    man, _, _, ref, riem = torus
    ncc = random_ncc(ref, seed=11, amplitude=0.3)
    S = action(ncc, riem).s_total
    rng = np.random.default_rng(2)
    h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    h = 0.5 * (h + np.conj(h.T))
    w, v = np.linalg.eigh(h)
    Uc = (v * np.exp(1j * w)) @ np.conj(v.T)
    U = {ch.name: np.broadcast_to(Uc, ch.shape + (2, 2)).copy() for ch in man.charts}
    St = action(gauge_transform(ncc, U), riem).s_total
    assert St == pytest.approx(S, rel=1e-10)


@pytest.fixture(scope="module")
def smooth_tori():
    """A random x-dependent field on the torus at N=20 and N=40, with its
    action."""
    lb = build_su(2)
    rep = build_representation(lb, "fundamental")
    out = []
    for npts in (20, 40):
        man = build_torus(2, npts)
        ref = zero_connection(man, lb, rep)
        riem = assemble(flat_metric(man), np.eye(3), ref)
        ncc = random_ncc(ref, seed=11, amplitude=0.3, x_dependent=True)
        out.append((man.charts[0], riem, ncc, action(ncc, riem).s_total))
    return out


def test_action_gauge_invariant_smooth_frame_second_order(smooth_tori):
    errs = []
    for ch, riem, ncc, S in smooth_tori:
        x = grid_points(ch)
        theta = 0.3 * np.cos(x[..., 0]) + 0.2 * np.sin(x[..., 1])
        U = np.zeros(ch.shape + (2, 2), dtype=complex)
        U[..., 0, 0] = np.exp(1j * theta)
        U[..., 1, 1] = np.exp(-1j * theta)
        St = action(gauge_transform(ncc, {ch.name: U}), riem).s_total
        errs.append(abs(St - S) / S)
    assert errs[1] < 5e-3
    assert errs[0] / errs[1] > 2.5


_PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
_UNIT = st.floats(min_value=-1.0, max_value=1.0)


@settings(deadline=None, max_examples=8)
@given(amps=st.lists(_UNIT, min_size=4, max_size=4),
       axis=st.lists(_UNIT, min_size=3, max_size=3))
def test_action_gauge_invariant_random_smooth_frame_second_order(smooth_tori, amps, axis):
    # U = exp(theta(x) n.i sigma / 2) = cos(theta/2) + i sin(theta/2) n.sigma, with
    # theta a random combination of the lowest Fourier modes; below an amplitude
    # of about 0.5 the O(h^2) error can be linear in theta and cancel at N=20
    amps, axis = np.array(amps), np.array(axis)
    assume(np.linalg.norm(amps) >= 0.5 and np.linalg.norm(axis) >= 0.1)
    n_sigma = np.einsum("i,ijk->jk", axis / np.linalg.norm(axis), _PAULI)
    errs = []
    for ch, riem, ncc, S in smooth_tori:
        x = grid_points(ch)
        theta = (amps[0] * np.cos(x[..., 0]) + amps[1] * np.sin(x[..., 0])
                 + amps[2] * np.cos(x[..., 1]) + amps[3] * np.sin(x[..., 1]))
        U = (np.cos(theta / 2)[..., None, None] * np.eye(2)
             + 1j * np.sin(theta / 2)[..., None, None] * n_sigma)
        St = action(gauge_transform(ncc, {ch.name: U}), riem).s_total
        errs.append(abs(St - S) / S)
    assert errs[1] < 2e-2
    assert errs[0] / errs[1] > 2.5


# -------------------------------------------------------------- solver


def test_solver_converges_from_constant_perturbation(solved_torus):
    _, report, _, _ = solved_torus
    assert report.converged
    assert report.action < 1e-12
    assert report.residuals[0] < 1e-6
    assert report.residuals[1] < 1e-6
    assert report.residuals[2] < 1e-6


def test_solver_recovers_irreducible_class(solved_torus):
    _, report, _, _ = solved_torus
    assert report.commutant_dim == 1
    assert report.casimir_spectrum == pytest.approx((-0.75, -0.75), abs=1e-6)


def test_solver_trace_monotone(solved_torus):
    _, _, trace, _ = solved_torus
    values = [s for s, _ in trace]
    assert all(values[i + 1] <= values[i] + 1e-12 for i in range(len(values) - 1))


def test_solved_point_is_a_local_minimum(solved_torus):
    state, _, _, riem = solved_torus
    # smallest finite-difference second derivative over 50 random directions;
    # measured 3.57 at this grid, so anything solidly positive passes.
    c = criticality_probe(state, riem)
    assert c > 1e-3


def test_solver_finds_trivial_branch_from_small_fields(torus):
    _, _, _, ref, riem = torus
    start = random_ncc(ref, seed=5, amplitude=0.08, x_dependent=True)
    opts = SolverOptions(max_iters=400, tol=1e-10, momentum=0.9)
    _, report, _ = solve_vacuum(start, riem, opts)
    assert report.action < 1e-9
    assert report.residuals[0] < 1e-6
    assert report.commutant_dim == 4
    assert max(abs(c) for c in report.casimir_spectrum) < 1e-6


def test_solver_leaves_unstable_point():
    man, lb, rep = instanton_bundle(8)
    conn = bpst_connection(man, lb, rep, rho=1.0)
    riem = assemble(round_sphere_metric(man), np.eye(3), conn)
    ncc = zero_ncc(conn)
    S0 = action(ncc, riem).s_total
    _, report, trace = solve_vacuum(
        ncc, riem, SolverOptions(max_iters=6, tol=1e-12, momentum=0.85)
    )
    assert report.action < 0.5 * S0
    values = [s for s, _ in trace]
    assert all(values[i + 1] <= values[i] + 1e-12 for i in range(len(values) - 1))


def test_flat_fiber_point_flat_on_instanton_background():
    man, lb, rep = instanton_bundle(8)
    conn = bpst_connection(man, lb, rep, rho=1.0)
    riem = assemble(round_sphere_metric(man), np.eye(3), conn)
    res = vacuum_residuals(canonical_ncc(conn), riem)
    assert res == (0.0, 0.0, 0.0)


def test_report_refuses_unclassifiable_fields(torus):
    _, _, _, ref, riem = torus
    start = random_ncc(ref, seed=13, amplitude=0.5)
    _, report, _ = solve_vacuum(start, riem, SolverOptions(max_iters=2, tol=1e-12))
    assert report.refused is not None
    assert report.casimir_spectrum is None


# -------------------------------------------------------- classification


def test_classify_fundamental(torus):
    _, lb, rep, _, _ = torus
    phi = np.broadcast_to(rep.matrices, (6, 3, 2, 2)).copy()
    out = classify_vacuum(phi, lb)
    assert out["commutant_dim"] == 1
    assert out["casimir_spectrum"] == pytest.approx((-0.75, -0.75), abs=1e-12)


def test_classify_zero(torus):
    _, lb, _, _, _ = torus
    out = classify_vacuum(np.zeros((6, 3, 2, 2), dtype=complex), lb)
    assert out["commutant_dim"] == 4
    assert out["casimir_spectrum"] == pytest.approx((0.0, 0.0), abs=1e-15)


def test_classify_distinguishes_equal_dimension_classes():
    lb = build_su(2)
    spin1 = build_representation(lb, "spin", j=1)
    mixed = build_representation(
        lb, "sum",
        parts=[build_representation(lb, "spin", j=0.5), build_representation(lb, "trivial")],
    )
    out1 = classify_vacuum(np.broadcast_to(spin1.matrices, (4, 3, 3, 3)).copy(), lb)
    out2 = classify_vacuum(np.broadcast_to(mixed.matrices, (4, 3, 3, 3)).copy(), lb)
    assert out1["casimir_spectrum"] == pytest.approx((-2.0, -2.0, -2.0), abs=1e-12)
    assert out1["commutant_dim"] == 1
    assert out2["casimir_spectrum"] == pytest.approx((-0.75, -0.75, 0.0), abs=1e-12)
    assert out2["commutant_dim"] == 2
    assert out1["casimir_spectrum"] != out2["casimir_spectrum"]


def test_classify_fingerprint_gauge_invariant(torus):
    man, lb, rep, _, _ = torus
    ch = man.charts[0]
    x = grid_points(ch)
    theta = 0.4 * np.cos(x[..., 0] + 0.3)
    U = np.zeros(ch.shape + (2, 2), dtype=complex)
    U[..., 0, 0] = np.exp(1j * theta)
    U[..., 1, 1] = np.exp(-1j * theta)
    phi = np.einsum("...ij,ajl,...kl->...aik", U, rep.matrices, np.conj(U))
    out = classify_vacuum(phi, lb)
    assert out["commutant_dim"] == 1
    assert out["casimir_spectrum"] == pytest.approx((-0.75, -0.75), abs=1e-10)


def test_classify_refuses_non_representation(torus):
    _, lb, rep, _, _ = torus
    phi = 0.5 * np.broadcast_to(rep.matrices, (6, 3, 2, 2)).copy()
    with pytest.raises(ClassificationRefused):
        classify_vacuum(phi, lb)


def test_classify_refuses_non_finite_fields(torus):
    _, lb, rep, _, _ = torus
    phi = np.broadcast_to(rep.matrices, (6, 3, 2, 2)).copy()
    phi[2, 1, 0, 0] = np.nan
    with pytest.raises(ClassificationRefused, match="nan"):
        classify_vacuum(phi, lb)


def test_classify_refuses_spatially_mixed_classes(torus):
    _, lb, rep, _, _ = torus
    phi = np.broadcast_to(rep.matrices, (6, 3, 2, 2)).copy()
    phi[3:] = 0.0  # each point closes, but the class changes across the grid
    with pytest.raises(ClassificationRefused):
        classify_vacuum(phi, lb)


def _support_classify(instanton8, defect=0.0):
    """The instanton's canonical point with random anti-hermitian fields on
    every zero-weight point, and R(E_a) scaled by 1 + ``defect`` at the
    north chart's first point of weight above 0.5."""
    man, lb, rep, ref, _ = instanton8
    rng = np.random.default_rng(4)
    phi = {}
    for ch in man.charts:
        w = man.weights[ch.name]
        phi[ch.name] = np.broadcast_to(rep.matrices, ch.shape + rep.matrices.shape).copy()
        noise = rng.normal(size=phi[ch.name][w == 0].shape) * (1 + 1j)
        phi[ch.name][w == 0] += noise - np.conj(np.swapaxes(noise, -1, -2))
    at = np.unravel_index(np.argmax(man.weights["north"] > 0.5), man.chart("north").shape)
    phi["north"][at] *= 1.0 + defect
    return phi, lb, man.weights


def test_classify_reads_only_the_points_of_non_zero_weight(instanton8):
    """The action never sees a zero-weight point, so a solve never moves the
    fields there; classification ignores them too."""
    phi, lb, weights = _support_classify(instanton8)
    with pytest.raises(ClassificationRefused, match="closure residual"):
        classify_vacuum(phi, lb)
    out = classify_vacuum(phi, lb, weights=weights)
    assert out["commutant_dim"] == 1
    assert out["casimir_spectrum"] == pytest.approx((-0.75, -0.75), abs=1e-12)
    assert out["residual"] == 0.0


def test_classify_refuses_a_defect_where_the_weight_is_positive(instanton8):
    phi, lb, weights = _support_classify(instanton8, defect=0.01)
    with pytest.raises(ClassificationRefused, match="closure residual 5.05"):
        classify_vacuum(phi, lb, weights=weights)


def test_classify_with_unit_weights_is_bitwise_unweighted(torus):
    """The torus's weights are all 1: passing them changes no bit."""
    man, lb, rep, _, riem = torus
    x = grid_points(man.charts[0])
    theta = 0.4 * np.cos(x[..., 0] + 0.3)
    U = np.zeros(x.shape[:-1] + (2, 2), dtype=complex)
    U[..., 0, 0], U[..., 1, 1] = np.exp(1j * theta), np.exp(-1j * theta)
    phi = {"t0": np.einsum("...ij,ajl,...kl->...aik", U, rep.matrices, np.conj(U))}
    assert repr(classify_vacuum(phi, lb, riem.hint, man.weights)) == repr(
        classify_vacuum(phi, lb, riem.hint))
