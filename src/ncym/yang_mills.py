"""Yang-Mills functional for module connections: the three-term action,
its analytic gradient, a deterministic vacuum solver, and classification
of solutions by representation-theoretic fingerprints.

The action is the squared curvature norm.  In the adapted basis it splits
into a horizontal (field-strength), mixed (covariant scalar derivative)
and vertical (scalar potential) term, each a positive integral.  Gradients
are exact discrete adjoints of the curvature map, so finite-difference
directional derivatives of the action reproduce them to solver precision.

The action and the gradient share one curvature evaluation: the curvature
with its indices raised and the integration weight applied is contracted
with the curvature for the action, and fed to the adjoint for the gradient,
so :func:`evaluate` returns both from a single call of ``nc_curvature``.
The vacuum solver evaluates each state once: the line search feeds the
accepted candidate's raised tensors to the adjoint for the next gradient.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .connections import NCConnection, _random_antiherm, nc_curvature, nc_curvature_via_forms
from .errors import ClassificationRefused, ShapeError
from .geometry import adjoint_partial_derivative, sup
from .lie_core import LieBasis, _comm, closure_defect
from .nc_forms import scalar_product


@dataclass(frozen=True)
class ActionBreakdown:
    """The three positive terms of the action and their local densities.

    ``densities[name]`` stacks the horizontal, mixed and vertical integrand
    (already weighted by the partition of unity and the metric density) on
    the leading axis; summing times the cell volume reproduces the terms.
    """

    s_horizontal: float
    s_mixed: float
    s_vertical: float
    densities: dict

    @property
    def s_total(self) -> float:
        return self.s_horizontal + self.s_mixed + self.s_vertical

    @property
    def residuals(self) -> tuple:
        """Square roots of the (vertical, mixed, horizontal) terms."""
        return tuple(
            float(np.sqrt(max(s, 0.0)))
            for s in (self.s_vertical, self.s_mixed, self.s_horizontal)
        )


@dataclass(frozen=True)
class SolverOptions:
    """The settable part of :func:`solve_vacuum`: the iteration budget, the
    gradient-norm tolerance and the heavy-ball momentum."""

    max_iters: int = 400
    tol: float = 1e-8
    momentum: float = 0.85


# Fixed line-search constants of solve_vacuum: the initial step (the growing
# step is capped at 64 times it), the Armijo sufficient-decrease factor, the
# shrink factor per backtrack, and the number of backtracks before a stall.
STEP = 0.25
ARMIJO = 1e-4
SHRINK = 0.5
MAX_BACKTRACKS = 30


@dataclass(frozen=True)
class VacuumReport:
    """Terminal diagnostics of a solver run.

    ``residuals`` are the integrated norms of the three vacuum equations in
    the order (vertical, mixed, horizontal): the scalar fields closing on
    the structure constants, the covariantly-constant scalars, and the
    field-strength matching condition.  ``stop_reason`` says why the solver
    stopped: ``converged`` (the gradient norm fell to ``tol``), ``budget``
    (``max_iters`` ran out), ``stalled`` (the line search found no decrease)
    or ``non_finite`` (the action or the gradient norm was not finite).
    """

    residuals: tuple
    action: float
    stop_reason: str
    iterations: int
    casimir_spectrum: tuple | None = None
    casimir_deviation: float | None = None
    commutant_dim: int | None = None
    refused: str | None = None

    @property
    def converged(self) -> bool:
        return self.stop_reason == "converged"


def _check_shared_reference(ncc: NCConnection, riem) -> None:
    if riem.conn is not ncc.ref:
        raise ShapeError(
            "metric and connection must share the same reference connection "
            "object; re-expanding against a different background is refused"
        )


def _evaluate(ncc: NCConnection, riem):
    """One curvature evaluation: the action and the raised tensors.

    Per chart the curvature blocks are raised with the inverse metric, a
    horizontal index by h = 1 / c of the base metric c delta, and multiplied
    by the integration weight W (partition of unity, metric density, cell
    volume), giving ``T_hh, T_hv, T_vv``.  The action terms are
    ``1/2 Re<O_hh, T_hh>``, ``Re<O_hv, T_hv>`` and ``1/2 Re<O_vv, T_vv>``, and
    the gradient is the adjoint of the curvature map applied to ``T``.
    """
    _check_shared_reference(ncc, riem)
    man = ncc.ref.man
    curv = nc_curvature(ncc)
    s_h = s_m = s_v = 0.0
    densities, raised = {}, {}
    for ch in man.charts:
        name = ch.name
        O = curv[name]
        h = 1.0 / riem.base.conf[name]
        hi = riem.hint[name]
        w = man.weights[name] * riem.sqrtg[name] * ch.cell_volume
        W = w[..., None, None, None, None]
        T = (
            W * ((h * h)[..., None, None, None, None] * O["hh"]),
            W * np.einsum("...bc,...mcij->...mbij", h[..., None, None] * hi, O["hv"]),
            W * np.einsum("...ac,...bd,...cdij->...abij", hi, hi, O["vv"]),
        )
        dens = np.stack([
            half * np.einsum("...xyij,...xyij->...", np.conj(O[block]), t).real
            for block, t, half in zip(("hh", "hv", "vv"), T, (0.5, 1.0, 0.5))
        ]) / ch.cell_volume
        densities[name] = dens
        raised[name] = T
        s_h += float(np.sum(dens[0]) * ch.cell_volume)
        s_m += float(np.sum(dens[1]) * ch.cell_volume)
        s_v += float(np.sum(dens[2]) * ch.cell_volume)
    return ActionBreakdown(s_h, s_m, s_v, densities), raised


def action(ncc: NCConnection, riem) -> ActionBreakdown:
    """Evaluate the curvature-norm action, term by term.

    Each term contracts one curvature block with the matching inverse-metric
    blocks and the hermitian trace, integrated with the metric density.  All
    three are non-negative; their sum is the squared curvature norm.
    """
    return _evaluate(ncc, riem)[0]


def action_via_cycle(ncc: NCConnection, riem) -> float:
    """The same functional through the differential-forms pipeline.

    The curvature is produced from the connection one-form by differential
    and wedge, and its norm taken with the graded scalar product -- sharing
    no contraction code with :func:`action`.
    """
    _check_shared_reference(ncc, riem)
    man = ncc.ref.man
    forms = {ch.name: nc_curvature_via_forms(ncc, ch.name) for ch in man.charts}
    return float(scalar_product(forms, forms, man, riem).real)


# --------------------------------------------------------------- gradient


def evaluate(ncc: NCConnection, riem) -> tuple:
    """``(action breakdown, gradient)`` from a single curvature evaluation."""
    bd, raised = _evaluate(ncc, riem)
    return bd, _adjoint(ncc, raised)


def gradient(ncc: NCConnection, riem) -> dict:
    """Exact gradient of the discrete action in the flat real pairing.

    Returns ``{"a": {...}, "phi": {...}}`` with the same per-chart shapes as
    the connection fields.  The pairing is ``sum Re tr(G^dagger d)`` over
    grid points and indices, so a finite-difference directional derivative
    of :func:`action` along ``d`` matches ``pairing(gradient, d)``.
    """
    return evaluate(ncc, riem)[1]


def _adjoint(ncc: NCConnection, raised: dict) -> dict:
    """The adjoint of the curvature map applied to the raised tensors.

    The transpose of ``nc_curvature`` term by term: T_hh and T_hv share the
    slot axis of (a, phi), so the transpose of D_mu = partial_mu + [R(A_mu)
    + a_mu, .] acts on both in one batched step per mu.  As there, a chart
    whose reference potential is exactly zero skips the R(A), A and F
    terms, which vanish there identically; the remaining terms run in the
    same order on every chart, so the gradient has the same bits either way.
    """
    ref = ncc.ref
    C = ref.basis.structure
    out_a, out_p = {}, {}
    for ch in ref.man.charts:
        name = ch.name
        Thh, Thv, Tvv = raised[name]
        a, phi = ncc.a[name], ncc.phi[name]
        zero = ref.zero_potential(name)
        T = np.concatenate([Thh, Thv], axis=-3)  # grid + (mu, d + m, k, k)

        acc = np.zeros_like(T[..., 0, :, :, :])
        if not zero:
            RA = ref.rep_potential(name)
            F = ref.curvature()[name]
            acc[..., ch.dim:, :, :] = -np.einsum("...mnc,...mnij->...cij", F, Thh)
        for mu in range(ch.dim):
            Tmu = T[..., mu, :, :, :]
            cov = adjoint_partial_derivative(Tmu, ch, mu)
            if not zero:
                cov = cov - _comm(RA[..., mu, None, :, :], Tmu)
            acc = acc + 2.0 * (cov - _comm(a[..., mu, None, :, :], Tmu))

        ga, gp = np.split(acc, [ch.dim], axis=-3)
        if not zero:
            gp = gp - 2.0 * np.einsum("...ma,abc,...mbij->...cij", ref.A[name], C, Thv)
        for b in range(ref.basis.dim):
            ga = ga + 2.0 * _comm(phi[..., b, None, :, :], Thv[..., :, b, :, :])
            gp = gp - 2.0 * _comm(phi[..., b, None, :, :], Tvv[..., b, :, :, :])
        out_a[name] = ga
        out_p[name] = gp - np.einsum("abc,...abij->...cij", C, Tvv)
    return {"a": out_a, "phi": out_p}


def pairing(grad: dict, direction: dict) -> float:
    """The flat real inner product under which :func:`gradient` is exact."""
    total = 0.0
    for part in ("a", "phi"):
        for name, g in grad[part].items():
            d = direction[part][name]
            total += float(np.sum(np.conj(g) * d).real)
    return total


def grad_norm(grad: dict) -> float:
    return float(
        np.sqrt(
            sum(
                np.sum(np.abs(g) ** 2)
                for part in ("a", "phi")
                for g in grad[part].values()
            )
        )
    )


# ----------------------------------------------------------------- vacua


def vacuum_residuals(ncc: NCConnection, riem) -> tuple:
    """Integrated norms of the three vacuum equations.

    Order: (vertical, mixed, horizontal) -- the scalar fields closing on the
    structure constants, covariant constancy of the scalars, and the
    field-strength matching equation.  Each is the square root of the
    corresponding action term, hence zero exactly on solutions.
    """
    return action(ncc, riem).residuals


def _dict_map(fn, *dicts):
    return {k: fn(*(d[k] for d in dicts)) for k in dicts[0]}


def _step(ncc: NCConnection, direction: dict, eta: float, project: bool) -> NCConnection:
    def upd(x, p):
        y = x + eta * p
        if project:
            y = 0.5 * (y - np.conj(np.swapaxes(y, -1, -2)))
        return y

    return replace(
        ncc,
        a=_dict_map(upd, ncc.a, direction["a"]),
        phi=_dict_map(upd, ncc.phi, direction["phi"]),
    )


def _fields_map(fn, *fields: dict) -> dict:
    return {p: _dict_map(fn, *(f[p] for f in fields)) for p in ("a", "phi")}


def _steepest(g: dict, gn: float) -> tuple:
    """Plain steepest descent: direction -g, velocity reset to g, slope -|g|^2."""
    return _fields_map(np.negative, g), g, -gn * gn


def _line_search(state, S, direction, slope, eta, riem):
    """Armijo backtracking from step ``eta``; every candidate is projected
    back to anti-hermitian fields.

    Returns ``(candidate, its breakdown, its gradient, accepted eta)``, or None
    when ``MAX_BACKTRACKS`` shrinks find no sufficient decrease.
    """
    for _ in range(MAX_BACKTRACKS):
        cand = _step(state, direction, eta, True)
        bd, raised = _evaluate(cand, riem)
        if bd.s_total <= S + ARMIJO * eta * slope:
            return cand, bd, _adjoint(cand, raised), eta
        del raised  # not held through the next candidate's evaluation
        eta *= SHRINK
    return None


def solve_vacuum(init: NCConnection, riem, opts: SolverOptions | None = None):
    """Minimize the action over (a, phi) by damped gradient descent.

    Heavy-ball momentum with Armijo backtracking; the step grows again after
    easy accepts and shrinks on rejection, and a rejected momentum step falls
    back to plain steepest descent before declaring a stall.  Deterministic:
    no randomness enters the loop.  Each state is evaluated once: the
    accepted candidate's raised tensors give the next gradient, and its
    breakdown the next trace row and the report.

    Returns ``(terminal connection, VacuumReport, trace)`` where ``trace`` is
    the per-iteration list of ``(action, gradient norm)``.  Non-convergence
    within the budget is reported through ``stop_reason``, never as an
    exception.
    """
    opts = opts or SolverOptions()
    state = init.copy()
    vel = None
    bd, g = evaluate(state, riem)
    eta = STEP
    trace = []
    stop = "budget"
    it = 0
    for it in range(1, opts.max_iters + 1):
        S = bd.s_total
        gn = grad_norm(g)
        trace.append((S, gn))
        if not (np.isfinite(S) and np.isfinite(gn)):
            stop = "non_finite"
            break
        if gn <= opts.tol:
            stop = "converged"
            break
        vel = g if vel is None else _fields_map(lambda v, gg: opts.momentum * v + gg, vel, g)
        direction = _fields_map(np.negative, vel)
        slope = pairing(g, direction)
        if slope >= 0.0:
            direction, vel, slope = _steepest(g, gn)
        eta = min(2.0 * eta, 64.0 * STEP)
        found = _line_search(state, S, direction, slope, eta, riem)
        if found is None and slope != -gn * gn:
            # momentum direction failed entirely: drop it and retry once
            direction, vel, slope = _steepest(g, gn)
            found = _line_search(state, S, direction, slope, STEP, riem)
        if found is None:
            stop = "stalled"  # at line-search resolution
            break
        state, bd, g, eta = found
    report = _report(state, bd, riem, stop, it)
    return state, report, trace


def _report(ncc: NCConnection, bd, riem, stop_reason: str, iterations: int) -> VacuumReport:
    report = VacuumReport(bd.residuals, bd.s_total, stop_reason, iterations)
    try:
        cls = classify_vacuum(ncc.phi, ncc.ref.basis, riem.hint, ncc.ref.man.weights)
    except ClassificationRefused as err:
        return replace(report, refused=str(err))
    return replace(
        report,
        casimir_spectrum=cls["casimir_spectrum"],
        casimir_deviation=cls["casimir_deviation"],
        commutant_dim=cls["commutant_dim"],
    )


# ----------------------------------------------------------- classification


RESIDUAL_TOL = 1e-6  # largest pointwise closure defect classify_vacuum accepts
SPECTRUM_TOL = 1e-4  # largest spread of the Casimir spectrum over the grid


def classify_vacuum(phi, basis: LieBasis, hint: dict | None = None,
                    weights: dict | None = None) -> dict:
    """Fingerprint scalar fields that close on the structure constants.

    ``phi`` is one (..., m, k, k) stack or a dict of them per chart, ``hint``
    the per-chart inverse fiber metric (the identity if None); with per-chart
    ``weights``, only the points of non-zero weight, which the action sees,
    are classified.  The closure defect ``lie_core.closure_defect`` -- the
    vertical curvature block of ``nc_curvature`` -- must stay within
    ``RESIDUAL_TOL`` pointwise; otherwise the classification is refused.  The
    fingerprint is gauge invariant: the sorted spectrum of the contracted
    quadratic element ``h^{ab} phi_a phi_b`` (mean over the grid, plus its
    maximal spatial deviation, at most ``SPECTRUM_TOL``) and the dimension of
    the joint commutant of the fields.
    """
    if isinstance(phi, np.ndarray):
        phi = {"_": phi}
    m = basis.dim

    resids = []
    spectra = []
    nullities = set()
    for name, f in phi.items():
        h = np.broadcast_to(np.eye(m) if hint is None else hint[name], f.shape[:-3] + (m, m))
        if weights is not None:
            keep = weights[name] > 0
            f, h = f[keep], h[keep]
        resid = sup(closure_defect(f, basis.structure))
        # written so that a NaN residual refuses too
        if not resid <= RESIDUAL_TOL:
            raise ClassificationRefused(
                f"closure residual {resid:.3e} exceeds {RESIDUAL_TOL:.1e} on "
                f"chart {name!r}; fields are not a representation"
            )
        resids.append(resid)
        quad = np.einsum("...ab,...aij,...bjl->...il", h, f, f)
        eig = np.sort(np.linalg.eigvalsh(quad), axis=-1)
        spectra.append(eig.reshape(-1, eig.shape[-1]))

        k = f.shape[-1]
        flat = f.reshape(-1, m, k, k)
        L = np.concatenate([_commutator_matrix(flat[:, a]) for a in range(m)], axis=1)
        sv = np.linalg.svd(L, compute_uv=False)
        scale = np.maximum(sv[:, :1], 1.0)
        nullity = np.sum(sv < 1e-8 * scale, axis=1)
        nullities.update(np.unique(nullity).tolist())

    allspec = np.concatenate(spectra, axis=0)
    mean = allspec.mean(axis=0)
    deviation = sup(allspec - mean)
    if not deviation <= SPECTRUM_TOL:
        raise ClassificationRefused(
            f"spectrum varies over the grid by {deviation:.3e} "
            f"(> {SPECTRUM_TOL:.1e}); no single class fits"
        )
    if len(nullities) != 1:
        raise ClassificationRefused(
            f"commutant dimension varies over the grid: {sorted(nullities)}"
        )
    return {
        "casimir_spectrum": tuple(float(x) for x in mean),
        "casimir_deviation": deviation,
        "commutant_dim": int(nullities.pop()),
        "residual": sup(resids),
    }


def _commutator_matrix(f):
    """Matrix of X -> [f, X] on vec(X), batched over the leading axis."""
    k = f.shape[-1]
    eye = np.eye(k)
    left = np.einsum("xij,kl->xikjl", f, eye).reshape(f.shape[0], k * k, k * k)
    right = np.einsum("ij,xlk->xikjl", eye, f).reshape(f.shape[0], k * k, k * k)
    return left - right


# ------------------------------------------------------------- diagnostics


PROBE_DIRECTIONS, PROBE_EPS = 50, 1e-3  # criticality_probe's directions and step


def criticality_probe(ncc: NCConnection, riem) -> float:
    """Smallest finite-difference second directional derivative of the action
    at the given configuration, over ``PROBE_DIRECTIONS`` random (seed 0)
    anti-hermitian directions of unit norm."""
    rng = np.random.default_rng(0)
    S0 = action(ncc, riem).s_total
    worst = np.inf
    for _ in range(PROBE_DIRECTIONS):
        draw = _fields_map(lambda f: _random_antiherm(rng, f.shape[:-2], f.shape[-1], 1.0),
                           {"a": ncc.a, "phi": ncc.phi})
        scale = 1.0 / grad_norm(draw)
        direction = _fields_map(lambda z: z * scale, draw)
        Sp = action(_step(ncc, direction, PROBE_EPS, False), riem).s_total
        Sm = action(_step(ncc, direction, -PROBE_EPS, False), riem).s_total
        worst = min(worst, (Sp - 2.0 * S0 + Sm) / (PROBE_EPS * PROBE_EPS))
    return float(worst)
