"""ncym benchmark: time two user-facing workloads through `ncym run`.

    python3 perfbench/run.py --workload torus-solve --seed 7 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all      # one summary table

Each run is ``ncym.cli.main(["run", <generated config>, "--output-dir", <temp
dir>])`` in this process, with BLAS pinned to one thread.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` makes one untraced and one
traced round and reports the per-layer metrics.  The last line of standard
output is one JSON object; a fuller result file with provenance is written
under ``.bench_results/``.  See perfbench/README.md.
"""

import os

THREADS = 1
# pinned before numpy loads anywhere in this process
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = ROOT / ".bench_results"
SCRATCH = ROOT / ".bench_tmp"

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS, Workload  # noqa: E402

END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# after every round, set-up is timed for at least this long, so its samples are
# spread over the same stretch of time as the rounds
SETUP_MIN_S = 0.25


def _import_ncym():
    src = ROOT / "src"
    if not (src / "ncym" / "__init__.py").is_file():
        raise ImportError(f"no ncym package under {src}")
    sys.path.insert(0, str(src))
    import ncym.cli  # noqa: F401


class Runner:
    """Runs a workload's configs through the CLI, checking every output."""

    def __init__(self, wl: Workload):
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.solve_iters = 0  # solver iterations of the last round

    def run_one(self, doc: dict) -> float:
        from ncym import cli

        self.attempted += 1
        out_dir = Path(tempfile.mkdtemp(dir=SCRATCH))
        try:
            cfg_path = out_dir / "config.json"
            cfg_path.write_text(json.dumps(doc))
            argv = ["run", str(cfg_path), "--output-dir", str(out_dir)]
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(argv)
            except Exception as exc:  # a crashed run counts as failed
                code = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - t0
            if code != 0:
                problems = [f"run ended with {code}"]
            else:
                report = json.loads((out_dir / "report.json").read_text())
                problems = self.wl.check(doc, report, out_dir)
                self.solve_iters += report["result"].get("iterations", 0)
        finally:
            shutil.rmtree(out_dir)
        if problems:
            self.failed += 1
            self.problems += [f"{doc['task']} seed {doc.get('seed')}: {p}" for p in problems]
        return elapsed

    def run_round(self) -> float:
        self.solve_iters = 0
        return sum(self.run_one(doc) for doc in self.wl.configs)

    def warm_up(self) -> None:
        """Run the first config untimed, so lazy imports and caches are warm."""
        self.run_one(self.wl.configs[0])


def measure_setup(wl: Workload) -> list:
    """Wall seconds of resolve + build_problem for every config of a round."""
    from ncym.config import build_problem, resolve

    samples = []
    t_start = time.perf_counter()
    while not samples or time.perf_counter() - t_start < SETUP_MIN_S:
        t0 = time.perf_counter()
        for doc in wl.configs:
            build_problem(resolve(doc))
        samples.append(time.perf_counter() - t0)
    return samples


def measure(wl: Workload, seconds: float) -> tuple:
    """End-to-end metrics from rounds, each followed by set-up timings.

    Rounds fill `seconds` of wall time after the warm-up: another round starts
    only while the last round and its set-up timings would still fit.  Times
    are means, not medians: the machine's speed switches between a fast and a
    slow level that each last several rounds, so a median jumps between the
    two levels, while a mean moves with the share of time spent at each.
    """
    runner = Runner(wl)
    runner.warm_up()
    rounds, setup = [], []
    t_start = time.perf_counter()
    while True:
        t_round = time.perf_counter()
        rounds.append(runner.run_round())
        setup += measure_setup(wl)
        now = time.perf_counter()
        if now - t_start + (now - t_round) > seconds:
            break
    metrics = {
        "run_s": statistics.fmean(rounds),
        "setup_s": statistics.fmean(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    samples = {"run_s": rounds, "setup_s": setup}
    return runner, metrics, samples


def measure_traced(wl: Workload) -> tuple:
    """Per-layer metrics from one traced round, beside one untraced round."""
    from layers import Tracer

    runner = Runner(wl)
    runner.warm_up()
    plain = runner.run_round()
    tracer = Tracer()
    with tracer.installed():
        traced = runner.run_round()
    metrics = tracer.metrics(runner.solve_iters)
    metrics.update({
        "solve_iters": runner.solve_iters,
        "trace.run_s": traced,
        "trace.untraced_run_s": plain,
        "trace.overhead": traced / plain - 1.0,
    })
    return runner, metrics, {"run_s": [plain], "trace.run_s": [traced]}


def trace_units() -> dict:
    from layers import metric_units

    units = metric_units()
    units.update({
        "solve_iters": "count",
        "trace.run_s": "s",
        "trace.untraced_run_s": "s",
        "trace.overhead": "ratio",
    })
    return units


def _git_sha():
    """HEAD of the checkout, or None when it is not a git work tree."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(seed: int) -> dict:
    import numpy as np
    import scipy

    import ncym

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": _git_sha(),
        "ncym": ncym.__version__,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "threads": THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = WORKLOADS[name](seed)
    if trace:
        runner, values, samples = measure_traced(wl)
        units = trace_units()
    else:
        runner, values, samples = measure(wl, seconds)
        units = END_TO_END
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    RESULTS.mkdir(exist_ok=True)
    detail = {
        **result,
        "workload": name,
        "trace": int(trace),
        "seconds": seconds,
        "fail_frac": runner.failed / runner.attempted,
        "solve_iters": runner.solve_iters,
        "samples": samples,
        "problems": runner.problems,
        "provenance": provenance(seed),
    }
    path = RESULTS / f"{name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(detail, indent=2) + "\n")
    for problem in runner.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    return result


def run_all(seed: int, seconds: float) -> int:
    """Each workload in its own process (peak memory is per process), one table."""
    print(f"{'workload':20} {'run_s':>10} {'setup_s':>10} {'peak_rss_mb':>12} "
          f"{'fail_frac':>10} {'solve_iters':>12}")
    ok = True
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            ok = False
            continue
        detail = json.loads((RESULTS / f"{name}-seed{seed}-trace0.json").read_text())
        m = detail["metrics"]
        iters = str(detail["solve_iters"]) if name == "torus-solve" else "-"
        print(f"{name:20} {m['run_s']['value']:>9.4f}s {m['setup_s']['value']:>9.4f}s "
              f"{m['peak_rss_mb']['value']:>10.1f}MB {detail['fail_frac']:>10.3f} {iters:>12}")
        ok = ok and detail["correct"]
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    try:
        _import_ncym()
    except ImportError as exc:
        print(f"perfbench: cannot import ncym from this checkout: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    SCRATCH.mkdir(exist_ok=True)
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
