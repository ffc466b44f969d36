"""End-to-end command driver: tasks, artifacts, exit codes, determinism."""

import csv
import json
from pathlib import Path

import numpy as np
import pytest

from ncym.cli import main

ROOT = Path(__file__).resolve().parent.parent


def _write(tmp_path, doc, name="exp.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _solve_doc(out, npts=8):
    return {
        "task": "solve",
        "bundle": {"kind": "torus", "dim": 2, "npts": npts},
        "initial": {"kind": "canonical-plus-random", "seed": 7, "amplitude": 0.2},
        "solver": {"max_iters": 400, "tol": 1e-8, "momentum": 0.9},
        "seed": 7,
        "output_dir": str(out),
    }


@pytest.fixture(scope="module")
def solved_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("solve")
    out = tmp / "run"
    cfgp = tmp / "exp.json"
    cfgp.write_text(json.dumps(_solve_doc(out)))
    code = main(["run", str(cfgp)])
    return code, out, cfgp


def test_solve_run_artifacts(solved_run):
    code, out, _ = solved_run
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["task"] == "solve"
    assert report["result"]["converged"] is True
    assert report["result"]["action"] < 1e-8
    assert report["result"]["commutant_dim"] == 1
    # the resolved config is recorded verbatim, defaults included
    assert report["config"]["connection"] == {"kind": "zero"}
    assert report["config"]["solver"] == {"max_iters": 400, "tol": 1e-8, "momentum": 0.9}
    assert report["config"]["initial"]["seed"] == 7


def test_solve_trace_monotone(solved_run):
    _, out, _ = solved_run
    rows = list(csv.DictReader(open(out / "trace.csv")))
    assert list(rows[0]) == ["iteration", "action", "grad_norm"]
    actions = [float(r["action"]) for r in rows]
    assert all(a <= b + 1e-12 for a, b in zip(actions[1:], actions))


def test_rerun_is_bitwise_identical(solved_run, tmp_path):
    _, out, cfgp = solved_run
    first = (out / "report.json").read_bytes()
    assert main(["run", str(cfgp)]) == 0
    assert (out / "report.json").read_bytes() == first


def test_eval_task(tmp_path):
    doc = {
        "task": "eval",
        "bundle": {"kind": "instanton", "npts": 8},
        "output_dir": str(tmp_path / "out"),
    }
    assert main(["run", _write(tmp_path, doc)]) == 0
    result = json.loads((tmp_path / "out" / "report.json").read_text())["result"]
    # canonical initial over the instanton reference: exactly flat
    assert result["vacuum_residuals"] == [0.0, 0.0, 0.0]
    assert result["grad_norm"] == 0.0
    assert result["action"]["total"] == 0.0


def test_chern_task(tmp_path):
    doc = {
        "task": "chern",
        "bundle": {"kind": "monopole", "npts": 16, "charge": 2},
        "output_dir": str(tmp_path / "out"),
    }
    assert main(["run", _write(tmp_path, doc)]) == 0
    result = json.loads((tmp_path / "out" / "report.json").read_text())["result"]
    assert result["q"] == 1
    assert result["grid"] == 16
    assert abs(result["value"] - 2.0) < 0.01
    assert result["estimated_error"] < 0.01


def test_classify_task(tmp_path):
    doc = {
        "task": "classify",
        "bundle": {"kind": "torus", "npts": 8},
        "initial": {"kind": "canonical"},
        "output_dir": str(tmp_path / "out"),
    }
    assert main(["run", _write(tmp_path, doc)]) == 0
    result = json.loads((tmp_path / "out" / "report.json").read_text())["result"]
    assert result["refused"] is None
    assert result["commutant_dim"] == 1


def test_lc_check_task(tmp_path):
    doc = {
        "task": "lc-check",
        "bundle": {"kind": "torus", "npts": 8},
        "connection": {"kind": "constant", "coeffs": [[0.3, 0.0, 0.1], [0.0, 0.2, 0.0]]},
        "output_dir": str(tmp_path / "out"),
    }
    assert main(["run", _write(tmp_path, doc)]) == 0
    res = json.loads((tmp_path / "out" / "report.json").read_text())["result"]
    assert res["residuals"]["torsion"] < 1e-12
    assert res["residuals"]["metricity"] < 1e-12


def test_geom_check_task(tmp_path):
    doc = {
        "task": "geom-check",
        "bundle": {"kind": "instanton", "npts": 8},
        "output_dir": str(tmp_path / "out"),
    }
    assert main(["run", _write(tmp_path, doc)]) == 0
    res = json.loads((tmp_path / "out" / "report.json").read_text())["result"]
    assert res["overlap_round_trip"] < 1e-12
    assert abs(res["volume"] - 8 * np.pi**2 / 3) / (8 * np.pi**2 / 3) < 0.02


def test_invalid_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    for path, message in (
        (_write(tmp_path, {"task": "eval"}), "ncym:"),
        (str(tmp_path / "missing.json"), "cannot read config"),
        (str(bad), "not valid JSON"),
    ):
        assert main(["run", path]) == 2
        assert message in capsys.readouterr().err


_TORUS_EVAL = {"task": "eval", "bundle": {"kind": "torus", "npts": 8}}
_BUNDLES = {
    "torus": {"kind": "torus", "npts": 8},
    "instanton": {"kind": "instanton", "npts": 8},
    "monopole": {"kind": "monopole", "npts": 8},
}
# bundle keys a bundle kind never reads, and blocks a task never reads
_UNREAD_BUNDLE_KEYS = [
    ("torus", "charge", 1), ("torus", "radius", 1.0), ("torus", "margin", 1.6),
    ("instanton", "side", 6.0), ("instanton", "dim", 4),
    ("instanton", "algebra", {"kind": "su", "n": 2}), ("instanton", "charge", 1),
    ("monopole", "side", 6.0), ("monopole", "dim", 2),
    ("monopole", "algebra", {"kind": "u1"}),
]
_UNREAD_BLOCKS = [
    ("chern", "initial", {"kind": "canonical"}),
    ("geom-check", "initial", {"kind": "zero"}),
    ("eval", "solver", {"max_iters": 10}),
    ("chern", "solver", {"tol": 1e-6}),
    ("eval", "snapshots", True),
    ("lc-check", "snapshots", False),
    ("eval", "chern", {"degree": 1}),
    ("geom-check", "chern", {"degree": 2}),
    ("chern", "metric", {"internal": np.eye(3).tolist()}),
    ("geom-check", "metric", {"internal": np.eye(3).tolist()}),
]


@pytest.mark.parametrize(
    "doc,named",
    [
        *(
            ({**_TORUS_EVAL, "solver": {key: value}}, key)
            for key, value in (("step", 0.25), ("armijo", 1e-4), ("shrink", 0.5),
                               ("max_backtracks", 30), ("project", True))
        ),
        ({**_TORUS_EVAL, "metric": {"kind": "flat"}}, "kind"),
        ({"task": "chern", "bundle": {"kind": "monopole", "npts": 16, "charge": 1},
          "connection": {"kind": "monopole", "charge": 2}}, "charge"),
        ({**_TORUS_EVAL, "task": "selfcheck"}, "selfcheck"),
        *(({"task": "geom-check", "bundle": {**_BUNDLES[kind], key: value}}, key)
          for kind, key, value in _UNREAD_BUNDLE_KEYS),
        *(({"task": task, "bundle": _BUNDLES["torus"], block: value}, block)
          for task, block, value in _UNREAD_BLOCKS),
    ],
    ids=["solver.step", "solver.armijo", "solver.shrink", "solver.max_backtracks",
         "solver.project", "metric.kind", "connection.charge", "task-selfcheck",
         *(f"bundle.{key}-{kind}" for kind, key, _ in _UNREAD_BUNDLE_KEYS),
         *(f"{block}-{task}" for task, block, _ in _UNREAD_BLOCKS)],
)
def test_removed_settings_exit_2(doc, named, tmp_path, capsys):
    """Settings that changed nothing, had to repeat what the bundle fixes, or
    are never read by the bundle kind or the task, are refused with a message
    naming them, before anything runs."""
    doc = {**doc, "output_dir": str(tmp_path / "out")}
    assert main(["run", _write(tmp_path, doc)]) == 2
    assert f"'{named}'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("hint", ["abc", "0", "-3"])
@pytest.mark.parametrize("source", ["flag", "env"])
def test_thread_hint_must_be_a_positive_integer(hint, source, monkeypatch, capsys):
    monkeypatch.delenv("NCYM_THREADS", raising=False)
    argv = ["selfcheck", "--filter", "lie_core"]
    if source == "flag":
        argv = ["--threads", hint] + argv
        named = "--threads"
    else:
        monkeypatch.setenv("NCYM_THREADS", hint)
        named = "NCYM_THREADS"
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert named in err and repr(hint) in err


def test_budget_exhaustion_exits_3(tmp_path):
    doc = {
        "task": "solve",
        "bundle": {"kind": "torus", "npts": 8},
        "initial": {"kind": "random", "seed": 3, "amplitude": 0.5},
        "solver": {"max_iters": 3, "tol": 1e-14},
        "output_dir": str(tmp_path / "out"),
    }
    assert main(["run", _write(tmp_path, doc)]) == 3
    # partial artifacts still land
    assert (tmp_path / "out" / "report.json").exists()
    assert (tmp_path / "out" / "trace.csv").exists()


def test_stalled_solve_exits_4(tmp_path, monkeypatch):
    """A line search that finds no decrease is a stall, not a spent budget."""
    from ncym import yang_mills

    monkeypatch.setattr(yang_mills, "STEP", 1e3)
    monkeypatch.setattr(yang_mills, "MAX_BACKTRACKS", 1)
    doc = {
        "task": "solve",
        "bundle": {"kind": "torus", "npts": 8},
        "initial": {"kind": "random", "seed": 3, "amplitude": 0.5},
        "output_dir": str(tmp_path / "out"),
    }
    assert main(["run", _write(tmp_path, doc)]) == 4
    res = json.loads((tmp_path / "out" / "report.json").read_text())["result"]
    assert res["converged"] is False and res["iterations"] == 1


def test_non_finite_solve_is_refused(tmp_path):
    """Fields that overflow to NaN stop the solve at once with exit code 5,
    and are refused, never classified."""
    doc = _solve_doc(tmp_path / "out")
    doc["initial"]["amplitude"] = 1e200
    doc["solver"]["max_iters"] = 2
    with np.errstate(all="ignore"):
        assert main(["run", _write(tmp_path, doc)]) == 5
    text = (tmp_path / "out" / "report.json").read_text()

    def refuse(token):
        raise AssertionError(f"bare {token} in report.json")

    res = json.loads(text, parse_constant=refuse)["result"]
    assert res["action"] == "NaN"
    assert res["residuals"] == ["NaN"] * 3
    assert res["refused"] is not None
    assert res["commutant_dim"] is None
    assert res["casimir_spectrum"] is None


def test_non_finite_lc_check_exits_5(tmp_path):
    """Residuals of overflowed fields are reported as NaN, never as the
    largest finite piece, and the check exits 5."""
    doc = {
        "task": "lc-check",
        "bundle": {"kind": "torus", "dim": 2, "npts": 16},
        "connection": {"kind": "random", "amplitude": 1e200},
        "output_dir": str(tmp_path / "out"),
    }
    with np.errstate(all="ignore"):
        assert main(["run", _write(tmp_path, doc)]) == 5
    res = json.loads((tmp_path / "out" / "report.json").read_text())["result"]
    assert {res["residuals"][k] for k in ("torsion", "metricity", "koszul")} == {"NaN"}


@pytest.mark.parametrize(
    "task,extra",
    [
        ("eval", {"initial": {"kind": "random", "amplitude": 1e200}}),
        ("chern", {"connection": {"kind": "random", "amplitude": 1e200}}),
    ],
)
def test_non_finite_result_exits_5(task, extra, tmp_path):
    """Every task whose result holds a non-finite number writes its report,
    with NaN as a string, and exits 5."""
    doc = {
        "task": task,
        "bundle": {"kind": "torus", "dim": 2, "npts": 8},
        "output_dir": str(tmp_path / "out"),
        **extra,
    }
    with np.errstate(all="ignore"):
        assert main(["run", _write(tmp_path, doc)]) == 5
    text = (tmp_path / "out" / "report.json").read_text()
    assert "NaN" in text
    json.loads(text, parse_constant=lambda token: pytest.fail(f"bare {token}"))


@pytest.mark.parametrize("task", ["chern", "geom-check"])
def test_monopole_at_smallest_grid(task, tmp_path):
    """At N=8 some overlap points of the 2-sphere map outside the other
    chart's grid; the overlap sample set leaves them out."""
    doc = {
        "task": task,
        "bundle": {"kind": "monopole", "npts": 8},
        "output_dir": str(tmp_path / "out"),
    }
    assert main(["run", _write(tmp_path, doc)]) == 0
    res = json.loads((tmp_path / "out" / "report.json").read_text())["result"]
    if task == "chern":
        assert abs(res["value"] - 1.0) < 0.05
        assert 0.0 < res["gluing_residual"] < 0.1
    else:
        assert res["overlap_round_trip"] < 1e-12
        gluing = res["potential_gluing"].values()
        assert all(0.0 < v < 0.5 for pair in gluing for v in pair.values())


def test_seed_flag_overrides(tmp_path):
    doc = {
        "task": "classify",
        "bundle": {"kind": "torus", "npts": 8},
        "initial": {"kind": "canonical"},
        "output_dir": str(tmp_path / "out"),
    }
    assert main(["run", _write(tmp_path, doc), "--seed", "123"]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["config"]["seed"] == 123


def test_selfcheck_subcommand(capsys):
    assert main(["selfcheck", "--filter", "lie_core"]) == 0
    out = capsys.readouterr().out
    assert "structure-constants" in out
    assert "0 failed" in out


def test_plot_well_scan(solved_run):
    _, out, _ = solved_run
    assert main(["plot", str(out), "--what", "well"]) == 0
    rows = list(csv.DictReader(open(out / "well.csv")))
    ss = {float(r["t"]): float(r["action"]) for r in rows}
    assert ss[0.0] == 0.0
    assert ss[1.0] == 0.0
    assert ss[0.5] > 1.0
    assert min(float(r["action"]) for r in rows) == 0.0


def test_plot_trace_and_slice(solved_run):
    _, out, _ = solved_run
    assert main(["plot", str(out), "--what", "trace"]) == 0
    assert (out / "plot_trace.csv").read_text().startswith("iteration,action,grad_norm")
    assert main(["plot", str(out), "--what", "slice"]) == 0
    header = (out / "slice.csv").read_text().splitlines()[0]
    assert header == "i,j,x0,x1,horizontal,mixed,vertical"


def test_plot_density_profile(tmp_path):
    doc = {
        "task": "chern",
        "bundle": {"kind": "instanton", "npts": 12},
        "output_dir": str(tmp_path / "out"),
    }
    assert main(["run", _write(tmp_path, doc)]) == 0
    assert main(["plot", str(tmp_path / "out"), "--what", "density"]) == 0
    rows = list(csv.DictReader(open(tmp_path / "out" / "density.csv")))
    pts = [(float(r["x0"]), float(r["density"])) for r in rows]
    right = [v for x, v in pts if x > 0]
    assert all(a >= b for a, b in zip(right, right[1:]))  # decays from origin
    assert max(v for _, v in pts) > 0


def test_plot_slice_needs_an_initial_field_pair(tmp_path, capsys):
    """A geom-check run records no initial field pair, so it has no action
    slice to plot."""
    doc = {
        "task": "geom-check",
        "bundle": {"kind": "torus", "npts": 8},
        "output_dir": str(tmp_path / "out"),
    }
    assert main(["run", _write(tmp_path, doc)]) == 0
    assert main(["plot", str(tmp_path / "out"), "--what", "slice"]) == 2
    assert "initial field pair" in capsys.readouterr().err


def test_plot_without_trace_exits_2(tmp_path, capsys):
    (tmp_path / "empty").mkdir()
    assert main(["plot", str(tmp_path / "empty"), "--what", "trace"]) == 2
    capsys.readouterr()


def _agree(got, want, path="report"):
    """Mismatches between two report trees under the determinism contract:
    numbers to 1e-12 relative with a 1e-14 absolute floor, the rest exactly."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path}: keys differ"]
        return [m for k in want for m in _agree(got[k], want[k], f"{path}.{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: lengths differ"]
        return [m for i, pair in enumerate(zip(got, want)) for m in _agree(*pair, f"{path}[{i}]")]
    if isinstance(want, float) and isinstance(got, (int, float)):
        ok = abs(got - want) <= 1e-12 * abs(want) + 1e-14
        return [] if ok else [f"{path}: {got!r} != {want!r}"]
    return [] if got == want else [f"{path}: {got!r} != {want!r}"]


# instanton N=8 results as recorded with scipy's grid interpolator and the
# LAPACK metric inverse; the sparse sampling operator and the eigendecomposition
# reproduce them
_INSTANTON8 = {
    "chern": {
        "estimated_error": 0.02648014415954969,
        "gluing_residual": 0.08824514710337651,
        "grid": 8,
        "q": 2,
        "value": 0.9735198558404503,
    },
    "geom-check": {
        "overlap_round_trip": 4.440892098500626e-16,
        "potential_gluing": {
            "('north', 'south')": {
                "field_strength": 0.04876784659352356, "potential": 0.3573587475942334,
            },
            "('south', 'north')": {
                "field_strength": 0.04876784659352354, "potential": 0.3573587475942333,
            },
        },
        "volume": 26.350098315642096,
    },
}


@pytest.mark.parametrize("task", sorted(_INSTANTON8))
def test_instanton_topology_is_pinned(task, tmp_path):
    """The Chern-Weil form, its gluing, the potential and field-strength
    gluing and the volume of the N=8 instanton, within the determinism
    contract of their recorded values."""
    doc = {
        "task": task,
        "bundle": {"kind": "instanton", "npts": 8},
        "output_dir": str(tmp_path / "out"),
    }
    assert main(["run", _write(tmp_path, doc)]) == 0
    got = json.loads((tmp_path / "out" / "report.json").read_text())["result"]
    assert _agree(got, _INSTANTON8[task]) == []


@pytest.mark.parametrize("name", ["torus_lc_check", "bpst_chern", "bpst_eval"])
def test_shipped_configs_reproduce_committed_runs(name, tmp_path):
    """The determinism contract across machines and BLAS builds: a rerun of a
    shipped config agrees with its committed report within tolerance."""
    out = tmp_path / name
    assert main(["run", str(ROOT / "configs" / f"{name}.json"), "--output-dir", str(out)]) == 0
    got = json.loads((out / "report.json").read_text())
    want = json.loads((ROOT / "runs" / name / "report.json").read_text())
    assert _agree(got, want) == []
