"""Fast runtime invariant suite.

Every check is a small, seconds-scale probe of an identity the package is
built on: algebra closure, quadrature exactness, curvature route agreement,
flatness of the distinguished point, metric-connection residuals, vanishing
first class on a traceless algebra.  The suite exists so a deployed copy can
vouch for itself without the development test harness.
"""

import time
from dataclasses import dataclass

import numpy as np

from .chern_weil import chern_form, chern_number
from .connections import (
    OrdinaryConnection,
    bpst_connection,
    canonical_ncc,
    constant_connection,
    curvature_form,
    gauge_transform,
    instanton_bundle,
    nc_curvature_via_forms,
    random_ncc,
    zero_connection,
    zero_ncc,
)
from .geometry import (
    build_sphere_two_charts,
    build_torus,
    flat_metric,
    grid_points,
    integrate,
    overlap_round_trip,
    partial_derivative,
    round_sphere_metric,
)
from .levi_civita import christoffel, residual_table
from .lie_core import Representation, _check_jacobi, build_representation, build_su, build_u1
from .metric import assemble, identity_residuals
from .nc_forms import random_form, scalar_product, wedge, form_norm, differential
from .yang_mills import action, evaluate, grad_norm, vacuum_residuals

__all__ = ["CheckResult", "run_selfcheck", "format_table"]


@dataclass(frozen=True)
class CheckResult:
    module: str
    name: str
    passed: bool
    detail: str
    seconds: float  # wall time of the check


def _su2_torus():
    man = build_torus(2, 8)
    lb = build_su(2)
    rep = build_representation(lb, "fundamental")
    conn = zero_connection(man, lb, rep)
    riem = assemble(flat_metric(man), np.eye(3), conn)
    return man, lb, rep, conn, riem


def _detail(value, tol):
    return f"{value:.2e} (tol {tol:.0e})"


def _check_structure():
    lb = build_su(2)
    C = lb.structure
    anti = np.max(np.abs(C + np.swapaxes(C, 0, 1)))
    worst = float(np.maximum(anti, _check_jacobi(C)))
    return worst < 1e-12, _detail(worst, 1e-12)


def _check_trace_normalization():
    lb = build_su(2)
    gram = np.einsum("aij,bji->ab", lb.basis, lb.basis)
    worst = np.max(np.abs(gram + 0.5 * np.eye(3)))
    return worst < 1e-12, _detail(worst, 1e-12)


def _check_casimir():
    lb = build_su(2)
    rep = build_representation(lb, "fundamental")
    cas = np.einsum("aij,ajl->il", rep.matrices, rep.matrices)
    worst = np.max(np.abs(cas + 0.75 * np.eye(2)))
    return worst < 1e-12, _detail(worst, 1e-12)


def _check_torus_volume():
    man = build_torus(2, 16)
    vol = float(integrate(man, flat_metric(man), dict.fromkeys(man.weights, 1.0)))
    err = abs(vol - (2 * np.pi) ** 2) / (2 * np.pi) ** 2
    return err < 1e-12, _detail(err, 1e-12)


def _check_sphere_area():
    man = build_sphere_two_charts(2, 16, 1.0, 1.6)
    total = float(integrate(man, round_sphere_metric(man), dict.fromkeys(man.weights, 1.0)))
    err = abs(total - 4 * np.pi) / (4 * np.pi)
    return err < 0.02, _detail(err, 2e-2)


def _check_overlap_round_trip():
    worst = overlap_round_trip(build_sphere_two_charts(2, 12, 1.0, 1.6))
    return worst < 1e-12, _detail(worst, 1e-12)


def _check_derivative():
    man = build_torus(1, 32)
    ch = man.charts[0]
    x = grid_points(ch)[..., 0]
    err = float(np.max(np.abs(partial_derivative(np.sin(x), ch, 0) - np.cos(x))))
    return err < 1e-2, _detail(err, 1e-2)


def _check_transition_round_trip():
    man, _, rep = instanton_bundle(8)
    worst = 0.0
    for ov in man.overlaps:
        back = man.overlap(ov.dst, ov.src)
        prod = np.einsum("...ij,...jl->...il", back.transition(ov.y), ov.transition(ov.x))
        worst = float(np.maximum(worst, np.max(np.abs(prod - np.eye(rep.k)))))
    return worst < 1e-10, _detail(worst, 1e-10)


def _check_unequal_degree_product():
    man, _, _, conn, riem = _su2_torus()
    ch = man.charts[0]
    w = random_form(conn, ch, 1, seed=11)
    e = random_form(conn, ch, 2, seed=12)
    val = abs(scalar_product(w, e, man, riem))
    return val == 0.0, _detail(val, 1e-300)


def _check_wedge_associativity():
    man, _, _, conn, _ = _su2_torus()
    ch = man.charts[0]
    w = random_form(conn, ch, 1, seed=1, amplitude=0.7)
    e = random_form(conn, ch, 1, seed=2, amplitude=0.7)
    f = random_form(conn, ch, 1, seed=3, amplitude=0.7)
    left = wedge(wedge(w, e), f)
    right = wedge(w, wedge(e, f))
    worst = 0.0
    for key in left.comps.keys() | right.comps.keys():
        worst = float(np.maximum(worst, np.max(np.abs(left.get(key) - right.get(key)))))
    return worst < 1e-12, _detail(worst, 1e-12)


def _check_differential_squares():
    man, _, _, conn, _ = _su2_torus()
    ch = man.charts[0]
    w = random_form(conn, ch, 1, seed=4, x_dependent=True)
    dd = differential(differential(w))
    worst = form_norm(dd)
    return worst < 1e-10, _detail(worst, 1e-10)


def _check_route_agreement():
    man, lb, rep, _, _ = _su2_torus()
    coeffs = 0.3 * np.arange(6, dtype=float).reshape(2, 3)
    conn = constant_connection(man, lb, rep, coeffs)
    ncc = random_ncc(conn, seed=21, amplitude=0.4)
    name = man.charts[0].name
    direct = curvature_form(ncc, name)
    via = nc_curvature_via_forms(ncc, name)
    worst = form_norm(direct - via)
    scale = max(form_norm(direct), 1.0)
    return worst < 1e-10 * scale, _detail(worst / scale, 1e-10)


def _check_flat_metric_identities():
    _, _, _, _, riem = _su2_torus()
    worst = float(np.max(list(identity_residuals(riem).values())))
    return worst < 1e-12, _detail(worst, 1e-12)


def _check_canonical_action():
    _, _, _, _, riem = _su2_torus()
    ncc = canonical_ncc(riem.conn)
    bd, grad = evaluate(ncc, riem)
    worst = float(np.maximum(bd.s_total, grad_norm(grad)))
    return worst == 0.0, _detail(worst, 1e-300)


def _check_double_well():
    _, _, rep, _, riem = _su2_torus()
    t = 0.5
    ncc = zero_ncc(riem.conn)
    for name in ncc.phi:
        ncc.phi[name] = ncc.phi[name] + t * rep.matrices
    bd = action(ncc, riem)
    want = 1.5 * (2 * np.pi) ** 2 * (t * t - t) ** 2
    err = abs(bd.s_vertical - want) / want
    return err < 1e-9, _detail(err, 1e-9)


def _check_gauge_invariance():
    man, _, _, _, riem = _su2_torus()
    ncc = random_ncc(riem.conn, seed=31, amplitude=0.5)
    rng = np.random.default_rng(41)
    H = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    H = H + H.conj().T
    H = H - 0.5 * np.trace(H) * np.eye(2)
    w, V = np.linalg.eigh(H)
    U0 = V @ np.diag(np.exp(1j * w)) @ V.conj().T
    U = {ch.name: np.broadcast_to(U0, ch.shape + (2, 2)).copy() for ch in man.charts}
    s0 = action(ncc, riem).s_total
    s1 = action(gauge_transform(ncc, U), riem).s_total
    defect = abs(s1 - s0) / max(1.0, s0)
    return defect < 1e-10, _detail(defect, 1e-10)


def _check_canonical_flat_on_instanton():
    man, lb, rep = instanton_bundle(8)
    conn = bpst_connection(man, lb, rep, rho=1.0)
    riem = assemble(round_sphere_metric(man), np.eye(3), conn)
    res = vacuum_residuals(canonical_ncc(conn), riem)
    worst = float(np.max(res))
    return worst == 0.0, _detail(worst, 1e-300)


def _check_lc_flat():
    _, _, _, _, riem = _su2_torus()
    table = christoffel(riem)
    # the symbols vanish identically; the residuals differentiate constant
    # fields and therefore carry dense-matmul rounding noise
    blocks = float(np.max([np.max(np.abs(v)) for v in table.hh_v.values()]))
    resid = float(np.max(list(residual_table(riem).values())))
    passed = blocks == 0.0 and resid < 1e-12
    return passed, _detail(np.maximum(blocks, resid), 1e-12)


def _check_lc_constant_regime():
    man = build_torus(2, 8)
    lb = build_su(2)
    rep = build_representation(lb, "fundamental")
    rng = np.random.default_rng(7)
    B = rng.standard_normal((3, 3))
    conn = constant_connection(man, lb, rep, 0.4 * rng.standard_normal((2, 3)))
    riem = assemble(flat_metric(man), B @ B.T + 3 * np.eye(3), conn)
    worst = float(np.max(list(residual_table(riem).values())))
    return worst < 1e-12, _detail(worst, 1e-12)


def _check_first_class_traceless():
    man, lb, rep = instanton_bundle(8)
    conn = bpst_connection(man, lb, rep, rho=1.0)
    cf = chern_form(conn, 1)
    worst = float(np.max([np.max(np.abs(a)) for c in cf.comps.values() for a in c.values()]))
    return worst == 0.0, _detail(worst, 1e-300)


def _check_trivial_flux():
    man = build_torus(2, 12)
    lb = build_u1()
    rep = Representation(lb.basis.copy())
    ch = man.charts[0]
    x = grid_points(ch)
    A = np.zeros(ch.shape + (2, 1))
    A[..., 0, 0] = 0.3 * np.sin(x[..., 1])
    A[..., 1, 0] = 0.2 * np.cos(x[..., 0])
    c1 = abs(chern_number(OrdinaryConnection(man, lb, rep, {ch.name: A}), 1))
    return c1 < 1e-12, _detail(c1, 1e-12)


_CHECKS = [
    ("lie_core", "structure-constants", _check_structure),
    ("lie_core", "trace-normalization", _check_trace_normalization),
    ("lie_core", "fundamental-casimir", _check_casimir),
    ("geometry", "torus-volume", _check_torus_volume),
    ("geometry", "sphere-area", _check_sphere_area),
    ("geometry", "overlap-round-trip", _check_overlap_round_trip),
    ("geometry", "derivative-accuracy", _check_derivative),
    ("geometry", "transition-round-trip", _check_transition_round_trip),
    ("nc_forms", "unequal-degree-product", _check_unequal_degree_product),
    ("nc_forms", "wedge-associativity", _check_wedge_associativity),
    ("nc_forms", "differential-squares-to-zero", _check_differential_squares),
    ("connections", "curvature-route-agreement", _check_route_agreement),
    ("metric", "flat-identity-residuals", _check_flat_metric_identities),
    ("yang_mills", "canonical-action-zero", _check_canonical_action),
    ("yang_mills", "double-well-value", _check_double_well),
    ("yang_mills", "gauge-invariance", _check_gauge_invariance),
    ("yang_mills", "canonical-flat-on-instanton", _check_canonical_flat_on_instanton),
    ("levi_civita", "flat-table-zero", _check_lc_flat),
    ("levi_civita", "constant-regime-residuals", _check_lc_constant_regime),
    ("chern_weil", "first-class-traceless", _check_first_class_traceless),
    ("chern_weil", "trivial-flux", _check_trivial_flux),
]


def run_selfcheck(module_filter: str | None = None) -> list:
    """Run the invariant checks, optionally only those of one module."""
    results = []
    for module, name, fn in _CHECKS:
        if module_filter is not None and module_filter != module:
            continue
        t0 = time.perf_counter()
        try:
            passed, detail = fn()
        except Exception as exc:  # a crashed check is a failed check
            passed, detail = False, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        results.append(CheckResult(module, name, bool(passed), detail, seconds))
    return results


def format_table(results) -> str:
    wide_mod = max((len(r.module) for r in results), default=6)
    wide_name = max((len(r.name) for r in results), default=5)
    lines = []
    for r in results:
        flag = "pass" if r.passed else "FAIL"
        lines.append(
            f"{r.module:<{wide_mod}}  {r.name:<{wide_name}}  {flag}  "
            f"{r.seconds:6.2f}s  {r.detail}"
        )
    bad = sum(1 for r in results if not r.passed)
    lines.append(f"{len(results)} checks, {bad} failed")
    return "\n".join(lines)
