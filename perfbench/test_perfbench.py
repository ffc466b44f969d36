"""Self-tests of the benchmark at small sizes.

    python3 -m pytest perfbench -q

They check that every declared metric is emitted under a valid name, that
traced counts repeat exactly, that each layer is hit on the workloads the
README's layer table names, that tracing leaves no wrapper behind, that the
shipped references still match, and that the benchmark refuses to run without
the package.
"""

import contextlib
import io
import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from layers import LAYERS, Tracer, function_names  # noqa: E402

run._import_ncym()

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")

# the smallest instances of each workload
SMALL = {
    "torus-solve": lambda: workloads.torus_solve(7),
    "instanton-topology": lambda: workloads.instanton_topology(7, npts=8),
}


@pytest.fixture(autouse=True)
def scratch_dir():
    run.SCRATCH.mkdir(exist_ok=True)
    yield
    shutil.rmtree(run.SCRATCH, ignore_errors=True)


@pytest.fixture(scope="module")
def traced():
    """Two traced runs of each small workload."""
    run.SCRATCH.mkdir(exist_ok=True)
    out = {}
    for name, make in SMALL.items():
        out[name] = []
        for _ in range(2):
            runner, metrics, _ = run.measure_traced(make())
            assert runner.failed == 0, runner.problems
            out[name].append(metrics)
    return out


def test_benchmark_declares_what_the_runs_emit():
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.trace_units()
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def test_end_to_end_metrics_emitted():
    runner, metrics, _ = run.measure(SMALL["instanton-topology"](), seconds=0.0)
    assert runner.failed == 0, runner.problems
    assert list(metrics) == list(run.END_TO_END)
    assert all(v > 0 for v in metrics.values())


def test_traced_names_and_exact_counts(traced):
    units = run.trace_units()
    for name, (first, second) in traced.items():
        assert list(first) == list(units), name
        assert all(NAME.fullmatch(k) for k in first)
        for key in units:
            if not key.endswith("_s") and key != "trace.overhead":
                assert first[key] == second[key], (name, key)


def test_layers_hit_where_the_table_says(traced):
    calls = {name: runs[0] for name, runs in traced.items()}
    torus = calls["torus-solve"]
    assert torus["connections.nc_curvature.calls"] > 0
    assert torus["geometry.interp_chart.calls"] == 0
    topo = calls["instanton-topology"]
    assert topo["connections.nc_curvature.calls"] == 0
    assert topo["geometry.interp_chart.calls"] > 0
    for fn in ("action", "gradient", "solve_vacuum"):
        assert topo[f"yang_mills.{fn}.calls"] == 0
    # seed 7 of torus_vacuum.json: 126 iterations, three curvatures each
    assert torus["solve_iters"] == 126
    assert torus["connections.nc_curvature.calls_per_iter"] >= 2


def test_self_time_within_total(traced):
    for runs in traced.values():
        for fn in function_names():
            m = runs[0]
            assert -1e-9 <= m[f"{fn}.self_s"] <= m[f"{fn}.total_s"] + 1e-9


def test_tracing_restores_every_binding():
    before = {
        (mod, attr): val
        for mod, module in sys.modules.items() if mod.startswith("ncym")
        for attr, val in vars(module).items() if callable(val)
    }
    tracer = Tracer()
    with tracer.installed():
        from ncym import yang_mills

        assert yang_mills.nc_curvature is not before[("ncym.connections", "nc_curvature")]
    after = {
        (mod, attr): val
        for mod, module in sys.modules.items() if mod.startswith("ncym")
        for attr, val in vars(module).items() if callable(val)
    }
    assert after == before
    assert set(LAYERS) <= {m.split(".")[-1] for m in sys.modules if m.startswith("ncym.")}


def test_torus_solve_is_the_shipped_config():
    shipped = json.loads((ROOT / "configs/torus_vacuum.json").read_text())
    del shipped["output_dir"]
    assert workloads.TORUS == shipped


def test_torus_check_rejects_another_solve():
    """A converged solve that differs from the committed one fails the check."""
    runner = run.Runner(workloads.Workload(
        [dict(workloads.TORUS, seed=3, initial=dict(workloads.TORUS["initial"], seed=3))],
        workloads._check_solve))
    runner.run_round()
    assert runner.failed == 1


def test_shipped_bpst_chern_matches():
    """configs/bpst_chern.json at N=16 against its committed report."""
    from ncym import cli

    shipped = json.loads((ROOT / "runs/bpst_chern/report.json").read_text())
    with tempfile.TemporaryDirectory(dir=run.SCRATCH) as out:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["run", str(ROOT / "configs/bpst_chern.json"), "--output-dir", out])
        assert code == 0
        result = json.loads((Path(out) / "report.json").read_text())["result"]
    assert workloads._close(result, shipped["result"]) == []


def test_check_rejects_a_wrong_value():
    ref = json.loads(workloads.REFERENCE.read_text())["instanton-topology"]
    report = {"result": dict(ref["chern"], value=ref["chern"]["value"] * (1 + 1e-9))}
    doc = workloads.topology_config("chern")
    assert workloads._check_topology(doc, report, None)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "torus-solve",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
