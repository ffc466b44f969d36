"""Batch front end: `ncym run`, `ncym selfcheck`, `ncym plot`.

One run per process.  A run reads a JSON config, dispatches its task, and
writes artifacts into the output directory: `report.json` always (carrying
the resolved config verbatim), `trace.csv` for solves, field snapshots when
requested.  The invariant suite has one entry, `ncym selfcheck` (optionally
one module's checks, `--filter`); it is not a task of `ncym run`.  Exit
codes: 0 success, 1 a selfcheck failed, 2 validation failure; a solve that
did not converge still writes its artifacts and exits 3 when it ran out of
iterations, 4 when the line search stalled, 5 when the action or the
gradient became non-finite.  Every other task whose result holds a
non-finite number writes its report (non-finite values as the strings
"NaN", "Infinity", "-Infinity") and exits 5 as well.

`--threads` (or the NCYM_THREADS environment variable) is a parallelism
hint handed to the BLAS runtime before the numerical modules load; it changes
wall time, and results only within the determinism contract stated in
:mod:`ncym.serialize`.  A hint that is not a positive integer exits 2 before
anything runs.
"""

import argparse
import csv
import json
import os
import sys
from pathlib import Path

from .errors import ConfigError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NON_FINITE = 5
# VacuumReport.stop_reason -> exit code of a solve
EXIT_SOLVE = {
    "converged": EXIT_OK, "budget": 3, "stalled": 4, "non_finite": EXIT_NON_FINITE,
}


def _apply_threads_hint(threads: str | None) -> None:
    """Hand a positive thread count from ``--threads`` or NCYM_THREADS to
    the BLAS runtimes; raise ConfigError on any other value."""
    source = "--threads" if threads is not None else "NCYM_THREADS"
    n = threads if threads is not None else os.environ.get("NCYM_THREADS")
    if n is None:
        return
    try:
        count = int(n)
    except ValueError:
        count = 0
    if count < 1:
        raise ConfigError(f"{source} must be a positive integer, got {n!r}")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, str(count))


def _pyify(obj):
    """Plain-Python mirror of a result tree, so report JSON is canonical and strict."""
    import numpy as np
    from .serialize import json_float

    if isinstance(obj, dict):
        return {str(k): _pyify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_pyify(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        return json_float(obj)
    if isinstance(obj, (np.integer, int)) and not isinstance(obj, bool):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_pyify(v) for v in obj.tolist()]
    return obj


def _non_finite(obj) -> bool:
    """Whether a result tree holds a NaN or an infinity."""
    import numpy as np

    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, dict):
        return any(_non_finite(v) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return any(_non_finite(v) for v in obj)
    return isinstance(obj, (float, np.floating)) and not np.isfinite(obj)


def _write_report(out_dir: Path, task: str, resolved: dict, result: dict) -> None:
    from .serialize import save_report

    save_report(
        out_dir / "report.json",
        {"task": task, "config": resolved, "result": _pyify(result)},
    )


def _task_eval(problem, doc):
    from .yang_mills import evaluate, grad_norm

    bd, grad = evaluate(problem.init, problem.riem)
    return EXIT_OK, {
        "action": {
            "horizontal": bd.s_horizontal,
            "mixed": bd.s_mixed,
            "vertical": bd.s_vertical,
            "total": bd.s_total,
        },
        "vacuum_residuals": list(bd.residuals),
        "grad_norm": grad_norm(grad),
    }


def _task_solve(problem, doc, out_dir):
    from .serialize import save_trace_csv, state_snapshot, save_report
    from .yang_mills import SolverOptions, solve_vacuum

    opts = SolverOptions(**doc["solver"])
    state, report, trace = solve_vacuum(problem.init, problem.riem, opts)
    save_trace_csv(out_dir / "trace.csv", trace)
    if doc["snapshots"]:
        save_report(out_dir / "state.json", state_snapshot(state))
    result = {
        "converged": report.converged,
        "iterations": report.iterations,
        "action": report.action,
        "residuals": list(report.residuals),
        "casimir_spectrum": None
        if report.casimir_spectrum is None
        else list(report.casimir_spectrum),
        "casimir_deviation": report.casimir_deviation,
        "commutant_dim": report.commutant_dim,
        "refused": report.refused,
    }
    return EXIT_SOLVE[report.stop_reason], result


def _task_classify(problem, doc):
    from .errors import ClassificationRefused
    from .yang_mills import classify_vacuum

    try:
        finger = classify_vacuum(
            problem.init.phi, problem.basis, hint=problem.riem.hint
        )
        return EXIT_OK, {"refused": None, **_pyify(finger)}
    except ClassificationRefused as exc:
        return EXIT_OK, {"refused": str(exc)}


def _task_chern(problem, doc):
    import numpy as np
    from .chern_weil import chern_form, closedness_residual

    q = doc["chern"]["degree"]
    cf = chern_form(problem.conn, q)
    value = cf.integral()
    return EXIT_OK, {
        "q": q,
        "value": value,
        "grid": doc["bundle"]["npts"],
        "estimated_error": abs(value - np.round(value)),
        "gluing_residual": closedness_residual(cf),
    }


def _task_lc_check(problem, doc):
    from .levi_civita import residual_table

    return EXIT_OK, {"residuals": residual_table(problem.riem)}


def _task_geom_check(problem, doc):
    import numpy as np
    from .connections import gluing_residuals
    from .geometry import overlap_round_trip

    man = problem.man
    base = problem.riem.base
    volume = 0.0
    for ch in man.charts:
        volume += (
            float(np.sum(man.weights[ch.name] * base.sqrt_det[ch.name]))
            * ch.cell_volume
        )
    gluing = gluing_residuals(problem.conn) if man.overlaps else {}
    return EXIT_OK, {
        "volume": volume,
        "overlap_round_trip": overlap_round_trip(man),
        "potential_gluing": gluing,
    }


def cmd_selfcheck(args) -> int:
    from .selfcheck import format_table, run_selfcheck

    results = run_selfcheck(args.filter)
    print(format_table(results))
    payload = {
        "checks": [
            {
                "module": r.module,
                "name": r.name,
                "passed": r.passed,
                "detail": r.detail,
            }
            for r in results
        ],
        "failed": sum(1 for r in results if not r.passed),
    }
    if args.output_dir:
        out_dir = Path(args.output_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        _write_report(out_dir, "selfcheck", {"task": "selfcheck"}, payload)
    return EXIT_OK if payload["failed"] == 0 else 1


def cmd_run(args) -> int:
    from .config import build_problem, resolve

    try:
        try:
            doc = json.loads(Path(args.config).read_text())
        except OSError as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if args.seed is not None:
            doc["seed"] = args.seed
        resolved = resolve(doc)
        task = resolved["task"]
        out_dir = Path(args.output_dir or resolved.get("output_dir") or f"ncym-out-{task}")
        out_dir.mkdir(parents=True, exist_ok=True)

        problem = build_problem(resolved)
        if task == "eval":
            code, result = _task_eval(problem, resolved)
        elif task == "solve":
            code, result = _task_solve(problem, resolved, out_dir)
        elif task == "classify":
            code, result = _task_classify(problem, resolved)
        elif task == "chern":
            code, result = _task_chern(problem, resolved)
        elif task == "lc-check":
            code, result = _task_lc_check(problem, resolved)
        else:
            code, result = _task_geom_check(problem, resolved)
    except ValueError as exc:
        # every package validation error (ConfigError, ShapeError, InvalidRank,
        # ...) means the inputs were unusable
        print(f"ncym: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    if code == EXIT_OK and _non_finite(result):
        code = EXIT_NON_FINITE
    _write_report(out_dir, task, resolved, result)
    print(f"{task}: report written to {out_dir / 'report.json'}")
    return code


def _load_run(run_dir: Path):
    """The resolved config of a run and its problem."""
    from .config import build_problem, resolve

    report_path = run_dir / "report.json"
    if not report_path.exists():
        raise ConfigError(f"no report.json under {run_dir}")
    resolved = resolve(json.loads(report_path.read_text())["config"])
    return resolved, build_problem(resolved)


def cmd_plot(args) -> int:
    run_dir = Path(args.run_dir)
    out_dir = Path(args.output_dir) if args.output_dir else run_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        if args.what == "trace":
            src = run_dir / "trace.csv"
            if not src.exists():
                raise ConfigError(f"no trace.csv under {run_dir}; run a solve first")
            rows = list(csv.reader(src.open()))
            with open(out_dir / "plot_trace.csv", "w", newline="") as fh:
                csv.writer(fh).writerows(rows)
        elif args.what == "well":
            _, problem = _load_run(run_dir)
            _emit_well_scan(problem, out_dir / "well.csv")
        elif args.what == "density":
            resolved, problem = _load_run(run_dir)
            if resolved["bundle"]["kind"] == "torus":
                raise ConfigError("density profiles need a sphere bundle")
            _emit_density_profile(resolved, problem, out_dir / "density.csv")
        else:
            _, problem = _load_run(run_dir)
            _emit_action_slice(problem, out_dir / "slice.csv")
    except ValueError as exc:
        print(f"ncym: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(f"plot data written to {out_dir}")
    return EXIT_OK


def _emit_well_scan(problem, path) -> None:
    import numpy as np
    from .connections import zero_ncc
    from .yang_mills import action

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "action"])
        for t in np.linspace(-0.5, 1.5, 81):
            ncc = zero_ncc(problem.conn)
            for name in ncc.phi:
                ncc.phi[name] = ncc.phi[name] + float(t) * problem.rep.matrices
            writer.writerow([repr(float(t)), repr(action(ncc, problem.riem).s_total)])


def _emit_density_profile(resolved, problem, path) -> None:
    import numpy as np
    from .chern_weil import chern_form
    from .geometry import grid_points

    q = resolved.get("chern", {}).get("degree", problem.man.dim // 2)
    cf = chern_form(problem.conn, q)
    ch = problem.man.chart("north")
    comp = ch.orientation * cf.comps["north"][tuple(range(problem.man.dim))]
    x = grid_points(ch)
    # 1-d cut along the first axis through the row of cells nearest the origin
    centre = [s // 2 for s in ch.shape]
    idx = tuple([slice(None)] + centre[1:])
    coords = x[idx + (0,)]
    values = comp[idx]
    order = np.argsort(coords)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x0", "density"])
        for i in order:
            writer.writerow([repr(float(coords[i])), repr(float(values[i]))])


def _emit_action_slice(problem, path) -> None:
    import numpy as np
    from .geometry import grid_points
    from .yang_mills import action

    if problem.init is None:
        raise ConfigError("an action slice needs a run with an initial field pair")
    bd = action(problem.init, problem.riem)
    name = problem.man.charts[0].name
    dens = bd.densities[name]
    ch = problem.man.charts[0]
    x = grid_points(ch)
    # fix every axis beyond the first two at its middle index
    extra = tuple(s // 2 for s in ch.shape[2:])
    plane = dens[(slice(None), slice(None), slice(None)) + extra]
    xs = x[(slice(None), slice(None)) + extra + (0,)]
    ys = (
        x[(slice(None), slice(None)) + extra + (1,)]
        if ch.dim > 1
        else np.zeros_like(xs)
    )
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["i", "j", "x0", "x1", "horizontal", "mixed", "vertical"])
        for i in range(plane.shape[1]):
            for j in range(plane.shape[2]):
                writer.writerow(
                    [i, j, repr(float(xs[i, j])), repr(float(ys[i, j]))]
                    + [repr(float(plane[c, i, j])) for c in range(3)]
                )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ncym",
        description="Gauge fields and Yang-Mills vacua on endomorphism bundles",
    )
    parser.add_argument("--threads", default=None,
                        help="BLAS parallelism hint, a positive integer (or NCYM_THREADS)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one experiment config")
    p_run.add_argument("config")
    p_run.add_argument("--output-dir", default=None)
    p_run.add_argument("--seed", type=int, default=None)

    p_check = sub.add_parser("selfcheck", help="run the invariant suite")
    p_check.add_argument("--filter", default=None, metavar="MODULE")
    p_check.add_argument("--output-dir", default=None)

    p_plot = sub.add_parser("plot", help="emit plot-ready CSV from a run")
    p_plot.add_argument("run_dir")
    p_plot.add_argument(
        "--what", choices=["trace", "well", "density", "slice"], default="trace"
    )
    p_plot.add_argument("--output-dir", default=None)

    args = parser.parse_args(argv)
    try:
        _apply_threads_hint(args.threads)
    except ConfigError as exc:
        print(f"ncym: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if args.command == "run":
        return cmd_run(args)
    if args.command == "selfcheck":
        return cmd_selfcheck(args)
    return cmd_plot(args)


if __name__ == "__main__":
    sys.exit(main())
