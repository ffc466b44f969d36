"""Fast runtime invariant suite.

Every check is a small, seconds-scale probe of an identity the package is
built on: algebra closure, quadrature exactness, curvature route agreement,
flatness of the distinguished point, metric-connection residuals, vanishing
first class on a traceless algebra.  The suite exists so a deployed copy can
vouch for itself without the development test harness.  Bundles, reference
connections, metrics and initial field pairs are assembled from config
documents by :func:`ncym.config.build_problem`, as ``ncym run`` assembles
them; only the Lie-algebra checks and the hand-written potential of
``trivial-flux`` build their objects directly.
"""

import time
from dataclasses import dataclass

import numpy as np

from .chern_weil import chern_form, chern_number
from .config import build_problem, resolve
from .connections import (
    OrdinaryConnection,
    curvature_form,
    gauge_transform,
    nc_curvature_via_forms,
    zero_ncc,
)
from .geometry import (expm_antihermitian, grid_points, integrate, overlap_round_trip,
                       partial_derivative, sup)
from .levi_civita import christoffel, residual_table
from .lie_core import _check_jacobi, build_representation, build_su
from .metric import identity_residuals
from .nc_forms import random_form, scalar_product, wedge, form_norm, differential
from .yang_mills import action, evaluate, grad_norm, vacuum_residuals

__all__ = ["CheckResult", "MODULES", "run_selfcheck", "format_table"]


@dataclass(frozen=True)
class CheckResult:
    module: str
    name: str
    passed: bool
    detail: str
    seconds: float  # wall time of the check


def _problem(task, bundle, **blocks):
    """The problem of a config document, assembled as ``ncym run`` does."""
    return build_problem(resolve({"task": task, "bundle": bundle, **blocks}))


def _su2_torus(**blocks):
    """su(2) fundamental over the flat 2-torus at N=8, zero reference
    connection, identity fiber metric, canonical initial pair."""
    return _problem("eval", {"kind": "torus", "npts": 8}, **blocks)


def _detail(value, tol):
    return f"{value:.2e} (tol {tol:.0e})"


def _check_structure():
    lb = build_su(2)
    C = lb.structure
    worst = sup([C + np.swapaxes(C, 0, 1), _check_jacobi(C)])
    return worst < 1e-12, _detail(worst, 1e-12)


def _check_trace_normalization():
    lb = build_su(2)
    gram = np.einsum("aij,bji->ab", lb.basis, lb.basis)
    worst = sup(gram + 0.5 * np.eye(3))
    return worst < 1e-12, _detail(worst, 1e-12)


def _check_casimir():
    lb = build_su(2)
    rep = build_representation(lb, "fundamental")
    cas = np.einsum("aij,ajl->il", rep.matrices, rep.matrices)
    worst = sup(cas + 0.75 * np.eye(2))
    return worst < 1e-12, _detail(worst, 1e-12)


def _check_torus_volume():
    p = _problem("lc-check", {"kind": "torus", "npts": 16})
    vol = float(integrate(p.man, p.riem.base.sqrt_det))
    err = abs(vol - (2 * np.pi) ** 2) / (2 * np.pi) ** 2
    return err < 1e-12, _detail(err, 1e-12)


def _check_sphere_area():
    p = _problem("geom-check", {"kind": "monopole", "npts": 16})
    total = float(integrate(p.man, p.riem.base.sqrt_det))
    err = abs(total - 4 * np.pi) / (4 * np.pi)
    return err < 0.02, _detail(err, 2e-2)


def _check_overlap_round_trip():
    worst = overlap_round_trip(_problem("chern", {"kind": "monopole", "npts": 12}).man)
    return worst < 1e-12, _detail(worst, 1e-12)


def _check_derivative():
    ch = _problem("geom-check", {"kind": "torus", "dim": 1, "npts": 32}).man.charts[0]
    x = grid_points(ch)[..., 0]
    err = sup(partial_derivative(np.sin(x), ch, 0) - np.cos(x))
    return err < 1e-2, _detail(err, 1e-2)


def _check_transition_round_trip():
    p = _problem("chern", {"kind": "instanton", "npts": 8})
    worst = sup(np.einsum("...ij,...jl->...il", p.man.overlap(ov.dst, ov.src).transition(ov.y),
                          ov.transition(ov.x)) - np.eye(p.rep.k) for ov in p.man.overlaps)
    return worst < 1e-10, _detail(worst, 1e-10)


def _check_unequal_degree_product():
    p = _su2_torus()
    ch = p.man.charts[0]
    w = random_form(p.conn, ch, 1, seed=11)
    e = random_form(p.conn, ch, 2, seed=12)
    val = abs(scalar_product(w, e, p.man, p.riem))
    return val == 0.0, _detail(val, 1e-300)


def _check_wedge_associativity():
    p = _su2_torus()
    ch = p.man.charts[0]
    w = random_form(p.conn, ch, 1, seed=1, amplitude=0.7)
    e = random_form(p.conn, ch, 1, seed=2, amplitude=0.7)
    f = random_form(p.conn, ch, 1, seed=3, amplitude=0.7)
    left = wedge(wedge(w, e), f)
    right = wedge(w, wedge(e, f))
    worst = sup(left.get(key) - right.get(key) for key in left.comps.keys() | right.comps.keys())
    return worst < 1e-12, _detail(worst, 1e-12)


def _check_differential_squares():
    p = _su2_torus()
    w = random_form(p.conn, p.man.charts[0], 1, seed=4, x_dependent=True)
    dd = differential(differential(w))
    worst = form_norm(dd)
    return worst < 1e-10, _detail(worst, 1e-10)


def _check_route_agreement():
    coeffs = 0.3 * np.arange(6, dtype=float).reshape(2, 3)
    p = _su2_torus(connection={"kind": "constant", "coeffs": coeffs.tolist()},
                   initial={"kind": "random", "seed": 21, "amplitude": 0.4})
    name = p.man.charts[0].name
    direct = curvature_form(p.init, name)
    via = nc_curvature_via_forms(p.init, name)
    worst = form_norm(direct - via)
    scale = max(form_norm(direct), 1.0)
    return worst < 1e-10 * scale, _detail(worst / scale, 1e-10)


def _check_flat_metric_identities():
    worst = sup(identity_residuals(_su2_torus().riem).values())
    return worst < 1e-12, _detail(worst, 1e-12)


def _check_canonical_action():
    p = _su2_torus()
    bd, grad = evaluate(p.init, p.riem)
    worst = sup([bd.s_total, grad_norm(grad)])
    return worst == 0.0, _detail(worst, 1e-300)


def _check_double_well():
    p = _su2_torus()
    t = 0.5
    ncc = zero_ncc(p.conn)
    for name in ncc.phi:
        ncc.phi[name] = ncc.phi[name] + t * p.rep.matrices
    bd = action(ncc, p.riem)
    want = 1.5 * (2 * np.pi) ** 2 * (t * t - t) ** 2
    err = abs(bd.s_vertical - want) / want
    return err < 1e-9, _detail(err, 1e-9)


def _check_gauge_invariance():
    """Action invariance under the constant frame expm_antihermitian(iH)."""
    p = _su2_torus(initial={"kind": "random", "seed": 31, "amplitude": 0.5})
    rng = np.random.default_rng(41)
    H = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    H = H + H.conj().T
    H = H - 0.5 * np.trace(H) * np.eye(2)
    U0 = expm_antihermitian(1j * H)
    U = {ch.name: np.broadcast_to(U0, ch.shape + (2, 2)).copy() for ch in p.man.charts}
    s0 = action(p.init, p.riem).s_total
    s1 = action(gauge_transform(p.init, U), p.riem).s_total
    defect = abs(s1 - s0) / max(1.0, s0)
    return defect < 1e-10, _detail(defect, 1e-10)


def _check_canonical_flat_on_instanton():
    p = _problem("eval", {"kind": "instanton", "npts": 8})
    res = vacuum_residuals(p.init, p.riem)
    worst = sup(res)
    return worst == 0.0, _detail(worst, 1e-300)


def _check_lc_flat():
    riem = _su2_torus().riem
    table = christoffel(riem)
    # the eight symbol families, half_curvature and mixed_rotation vanish
    # identically; the residuals differentiate constant fields and therefore
    # carry dense-matmul rounding noise
    blocks = sup(arr for name, per_chart in vars(table).items()
                 if name != "half_structure" for arr in per_chart.values())
    resid = sup(residual_table(riem).values())
    return blocks == 0.0 and resid < 1e-12, _detail(sup([blocks, resid]), 1e-12)


def _check_lc_constant_regime():
    rng = np.random.default_rng(7)
    B = rng.standard_normal((3, 3))
    coeffs = 0.4 * rng.standard_normal((2, 3))
    p = _problem("lc-check", {"kind": "torus", "npts": 8},
                 connection={"kind": "constant", "coeffs": coeffs.tolist()},
                 metric={"internal": (B @ B.T + 3 * np.eye(3)).tolist()})
    worst = sup(residual_table(p.riem).values())
    return worst < 1e-12, _detail(worst, 1e-12)


def _check_first_class_traceless():
    cf = chern_form(_problem("chern", {"kind": "instanton", "npts": 8}).conn, 1)
    worst = sup(a for c in cf.comps.values() for a in c.values())
    return worst == 0.0, _detail(worst, 1e-300)


def _check_trivial_flux():
    p = _problem("chern", {"kind": "torus", "npts": 12, "algebra": {"kind": "u1"}})
    ch = p.man.charts[0]
    x = grid_points(ch)
    A = np.zeros(ch.shape + (2, 1))
    A[..., 0, 0] = 0.3 * np.sin(x[..., 1])
    A[..., 1, 0] = 0.2 * np.cos(x[..., 0])
    c1 = abs(chern_number(OrdinaryConnection(p.man, p.basis, p.rep, {ch.name: A}), 1))
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

# the modules whose checks `run_selfcheck` can be limited to
MODULES = tuple(dict.fromkeys(module for module, _, _ in _CHECKS))


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
