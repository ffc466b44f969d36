"""Batch front end: `ncym run`, `ncym selfcheck`, `ncym plot`.

One run per process.  A run reads a JSON config, dispatches its task through
`TASK_RUNNERS`, and writes artifacts into the output directory:
`report.json` always (carrying the resolved config verbatim), `trace.csv`
for solves, and, when a solve sets `snapshots`, `state.json` with the
solved fields a and phi alone (the report's config rebuilds the manifold and
the reference connection they live on).  `ncym plot` writes plot-ready
CSV from the problem that a run's recorded config rebuilds.  Both read JSON
through :func:`ncym.config.read`, strictly, and write through
:mod:`ncym.serialize`.  The invariant suite has one entry, `ncym selfcheck`
(optionally one module's checks, `--filter`); it is not a task of `ncym run`.

Exit codes: 0 success, 1 a selfcheck failed, 2 validation failure (a config
or report that cannot be read, holds NaN or Infinity, or records no config;
a refused setting; an output directory that cannot be made; an array that
cannot be allocated, a MemoryError, after which no report is written); a
solve that did not converge still writes its artifacts and exits 3 when it
ran out of iterations, 4 when the line search stalled, 5 when the action or
the gradient became non-finite.  Every other task whose result holds a
non-finite number writes its report (non-finite values as the strings
"NaN", "Infinity", "-Infinity") and exits 5 as well.  Exit 2 covers only an
allocation that fails when it is made: one that the kernel grants but cannot
later back with memory still ends in the OOM killer.  A run refused before its
task starts, and a refused plot, make no output directory.

`--threads` (or the NCYM_THREADS environment variable) is a parallelism
hint handed to the BLAS runtime before the numerical modules load; it wins
over OMP_NUM_THREADS, OPENBLAS_NUM_THREADS and MKL_NUM_THREADS already set.
It changes wall time, and results only within the determinism contract stated
in :mod:`ncym.serialize`.  A hint that is not a positive integer exits 2
before anything runs.
"""

import argparse
import csv
import os
import sys
from dataclasses import asdict
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
        os.environ[var] = str(count)


def _non_finite(obj) -> bool:
    """Whether a result tree holds a NaN or an infinity."""
    import numpy as np

    if isinstance(obj, dict):
        return any(_non_finite(v) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return any(_non_finite(v) for v in obj)
    return isinstance(obj, (float, np.floating)) and not np.isfinite(obj)


def _make_dir(path: Path) -> Path:
    """Create an output directory; a path that cannot be one is a ConfigError."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot use {str(path)!r} as output directory: {exc}") from exc
    return path


def _write_report(out_dir: Path, task: str, resolved: dict, result: dict) -> None:
    from .serialize import plain, save_report

    save_report(
        out_dir / "report.json",
        {"task": task, "config": resolved, "result": plain(result)},
    )


def _task_eval(problem, doc, out_dir):
    from .yang_mills import evaluate, grad_norm

    bd, grad = evaluate(problem.init, problem.riem)
    return EXIT_OK, {
        "action": {
            "horizontal": bd.s_horizontal,
            "mixed": bd.s_mixed,
            "vertical": bd.s_vertical,
            "total": bd.s_total,
        },
        "vacuum_residuals": bd.residuals,
        "grad_norm": grad_norm(grad),
    }


def _task_solve(problem, doc, out_dir):
    from .serialize import save_report, save_trace_csv, state_snapshot
    from .yang_mills import SolverOptions, solve_vacuum

    opts = SolverOptions(**doc["solver"])
    state, report, trace = solve_vacuum(problem.init, problem.riem, opts)
    save_trace_csv(out_dir / "trace.csv", trace)
    if doc["snapshots"]:
        save_report(out_dir / "state.json", state_snapshot(state))
    result = asdict(report)
    del result["stop_reason"]
    return EXIT_SOLVE[report.stop_reason], {**result, "converged": report.converged}


def _task_classify(problem, doc, out_dir):
    from .errors import ClassificationRefused
    from .yang_mills import classify_vacuum

    try:
        finger = classify_vacuum(problem.init.phi, problem.basis, problem.riem.hint,
                                 problem.man.weights)
        return EXIT_OK, {"refused": None, **finger}
    except ClassificationRefused as exc:
        return EXIT_OK, {"refused": str(exc)}


def _task_chern(problem, doc, out_dir):
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


def _task_lc_check(problem, doc, out_dir):
    from .levi_civita import residual_table

    return EXIT_OK, {"residuals": residual_table(problem.riem)}


def _task_geom_check(problem, doc, out_dir):
    from .connections import gluing_residuals
    from .geometry import integrate, overlap_round_trip

    man = problem.man
    volume = float(integrate(man, problem.riem.base.sqrt_det))
    gluing = gluing_residuals(problem.conn) if man.overlaps else {}
    return EXIT_OK, {
        "volume": volume,
        "overlap_round_trip": overlap_round_trip(man),
        "potential_gluing": gluing,
    }


# task name -> runner(problem, resolved config, output directory) -> (exit code, result)
TASK_RUNNERS = {
    "eval": _task_eval,
    "solve": _task_solve,
    "classify": _task_classify,
    "chern": _task_chern,
    "lc-check": _task_lc_check,
    "geom-check": _task_geom_check,
}


def cmd_selfcheck(args) -> int:
    from .selfcheck import MODULES, format_table, run_selfcheck

    if args.filter is not None and args.filter not in MODULES:
        raise ConfigError(f"--filter {args.filter!r} names no selfcheck module; "
                          f"known: {', '.join(MODULES)}")
    out_dir = _make_dir(Path(args.output_dir)) if args.output_dir else None
    results = run_selfcheck(args.filter)
    print(format_table(results))
    failed = sum(1 for r in results if not r.passed)
    if out_dir is not None:
        checks = [
            {"module": r.module, "name": r.name, "passed": r.passed, "detail": r.detail}
            for r in results
        ]
        _write_report(out_dir, "selfcheck", {"task": "selfcheck"},
                      {"checks": checks, "failed": failed})
    return EXIT_OK if failed == 0 else 1


def cmd_run(args) -> int:
    from .config import build_problem, read, resolve

    doc = read(args.config)
    if args.seed is not None:
        doc["seed"] = args.seed
    resolved = resolve(doc)
    task = resolved["task"]
    problem = build_problem(resolved)
    out_dir = _make_dir(Path(args.output_dir or resolved.get("output_dir") or f"ncym-out-{task}"))
    code, result = TASK_RUNNERS[task](problem, resolved, out_dir)
    if code == EXIT_OK and _non_finite(result):
        code = EXIT_NON_FINITE
    _write_report(out_dir, task, resolved, result)
    print(f"{task}: report written to {out_dir / 'report.json'}")
    return code


def _load_run(run_dir: Path):
    """The problem of a run, from the config its report records."""
    from .config import build_problem, read, resolve

    report_path = run_dir / "report.json"
    config = read(report_path).get("config")
    if not isinstance(config, dict):
        raise ConfigError(f"{report_path} records no config object")
    return build_problem(resolve(config))


def cmd_plot(args) -> int:
    from .serialize import save_csv

    run_dir = Path(args.run_dir)
    if args.what == "trace":
        src = run_dir / "trace.csv"
        if not src.exists():
            raise ConfigError(f"no trace.csv under {run_dir}; run a solve first")
        with open(src, newline="") as fh:
            rows = list(csv.reader(fh))
        if not rows:
            raise ConfigError(f"{src} is empty")
        name, header, rows = "plot_trace.csv", rows[0], rows[1:]
    else:
        emit, name = _PLOTS[args.what]
        header, rows = emit(_load_run(run_dir))
    out_dir = _make_dir(Path(args.output_dir) if args.output_dir else run_dir)
    save_csv(out_dir / name, header, rows)
    print(f"plot data written to {out_dir}")
    return EXIT_OK


def _well_scan(problem):
    import numpy as np
    from .connections import zero_ncc
    from .yang_mills import action

    if problem.riem is None:
        raise ConfigError("an action well scan needs a run with a metric")
    rows = []
    for t in np.linspace(-0.5, 1.5, 81):
        ncc = zero_ncc(problem.conn)
        for name in ncc.phi:
            ncc.phi[name] = ncc.phi[name] + float(t) * problem.rep.matrices
        rows.append([t, action(ncc, problem.riem).s_total])
    return ["t", "action"], rows


def _density_profile(problem):
    import numpy as np
    from .chern_weil import chern_form
    from .geometry import grid_points

    man = problem.man
    if man.kind == "torus":
        raise ConfigError("density profiles need a sphere bundle")
    cf = chern_form(problem.conn, man.dim // 2)
    ch = man.chart("north")
    comp = ch.orientation * cf.comps["north"][tuple(range(man.dim))]
    x = grid_points(ch)
    # 1-d cut along the first axis through the row of cells nearest the origin
    centre = [s // 2 for s in ch.shape]
    idx = tuple([slice(None)] + centre[1:])
    coords = x[idx + (0,)]
    values = comp[idx]
    return ["x0", "density"], [[coords[i], values[i]] for i in np.argsort(coords)]


def _action_slice(problem):
    import numpy as np
    from .geometry import grid_points
    from .yang_mills import action

    if problem.init is None:
        raise ConfigError("an action slice needs a run with an initial field pair")
    bd = action(problem.init, problem.riem)
    ch = problem.man.charts[0]
    dens, x = bd.densities[ch.name], grid_points(ch)
    if ch.dim == 1:  # a single row: j = 0 and x1 = 0
        dens, x = dens[..., None], np.pad(x, ((0, 0), (0, 1)))[:, None]
    # fix every axis beyond the first two at its middle index
    extra = tuple(s // 2 for s in ch.shape[2:])
    plane = dens[(slice(None),) * 3 + extra]
    xs, ys = (x[(slice(None),) * 2 + extra + (k,)] for k in (0, 1))
    rows = [
        [i, j, xs[i, j], ys[i, j], *plane[:, i, j]]
        for i in range(plane.shape[1])
        for j in range(plane.shape[2])
    ]
    return ["i", "j", "x0", "x1", "horizontal", "mixed", "vertical"], rows


# plot kind -> (emitter(problem) -> (header, rows), file name); "trace" copies trace.csv
_PLOTS = {
    "well": (_well_scan, "well.csv"),
    "density": (_density_profile, "density.csv"),
    "slice": (_action_slice, "slice.csv"),
}


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
    p_plot.add_argument("--what", choices=["trace", *_PLOTS], default="trace")
    p_plot.add_argument("--output-dir", default=None)

    args = parser.parse_args(argv)
    command = {"run": cmd_run, "selfcheck": cmd_selfcheck, "plot": cmd_plot}[args.command]
    try:
        _apply_threads_hint(args.threads)
        return command(args)
    except (ValueError, MemoryError) as exc:
        # every package validation error (ConfigError, ShapeError, InvalidRank,
        # ...) means the inputs were unusable, and so does a grid too large
        # to allocate
        print(f"ncym: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
