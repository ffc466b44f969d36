"""End-to-end command driver: tasks, artifacts, exit codes, determinism."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ncym.connections as connections
from ncym.cli import _apply_threads_hint, main

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
    # the zero field pair over the zero torus connection: exactly flat too
    doc = {"task": "eval", "bundle": {"kind": "torus", "npts": 8},
           "initial": {"kind": "zero"}, "output_dir": str(tmp_path / "zero")}
    assert main(["run", _write(tmp_path, doc)]) == 0
    result = json.loads((tmp_path / "zero" / "report.json").read_text())["result"]
    assert result["action"] == dict.fromkeys(("horizontal", "mixed", "total", "vertical"), 0.0)


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
    # random fields are no representation: the run still exits 0, and says why
    doc = {**doc, "initial": {"kind": "random", "seed": 3, "amplitude": 0.5},
           "output_dir": str(tmp_path / "random")}
    assert main(["run", _write(tmp_path, doc)]) == 0
    result = json.loads((tmp_path / "random" / "report.json").read_text())["result"]
    assert result["refused"].startswith("closure residual ")


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
        (_write(tmp_path, [{"task": "eval"}], "array.json"), "does not hold a JSON object"),
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


# keys a connection, initial or representation kind never reads, with the
# message that refuses them
_UNREAD_KIND_KEYS = [
    ({"connection": {"kind": "zero", "seed": 3, "amplitude": 9.0}},
     "a zero connection does not read 'seed'"),
    ({"connection": {"kind": "constant", "coeffs": [[0.0] * 3] * 2, "rho": 2.0}},
     "a constant connection does not read 'rho'"),
    ({"initial": {"kind": "canonical", "amplitude": 0.1}},
     "a canonical initial does not read 'amplitude'"),
    ({"initial": {"kind": "zero", "x_dependent": True}},
     "a zero initial does not read 'x_dependent'"),
    ({"representation": {"kind": "fundamental", "dim": 3}},
     "a fundamental representation does not read 'dim'"),
    ({"representation": {"kind": "sum", "parts": [{"kind": "spin", "j": 0.5},
                                                  {"kind": "trivial", "j": 1}]}},
     "a trivial representation does not read 'j'"),
    ({"bundle": {"kind": "torus", "npts": 8, "algebra": {"kind": "u1", "n": 3}}},
     "a u1 algebra does not read 'n'"),
]


@pytest.mark.parametrize("block, message", _UNREAD_KIND_KEYS,
                         ids=[m.split(" does")[0][2:] for _, m in _UNREAD_KIND_KEYS])
def test_keys_a_kind_does_not_read_exit_2(block, message, tmp_path, capsys):
    """Every kinded block holds only the keys its kind reads, so the
    resolved config in a report is the exact description of the run."""
    doc = {**_TORUS_EVAL, **block, "output_dir": str(tmp_path / "out")}
    assert main(["run", _write(tmp_path, doc)]) == 2
    assert capsys.readouterr().err == f"ncym: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("doc, key", [
    ({"task": "lc-check", "metric": {"internal": [[1, 0, 0], [0, 1], [0, 0, 1]]}},
     "metric.internal"),
    ({"task": "eval", "connection": {"kind": "constant", "coeffs": [[0.0] * 3, [0.0] * 2]}},
     "connection.coeffs"),
], ids=["metric.internal", "connection.coeffs"])
def test_ragged_matrix_exits_2(doc, key, tmp_path, capsys):
    """A matrix whose rows differ in length is refused with its key named,
    not with numpy's message about an inhomogeneous shape."""
    doc = {**_TORUS_EVAL, **doc, "output_dir": str(tmp_path / "out")}
    assert main(["run", _write(tmp_path, doc)]) == 2
    assert capsys.readouterr().err == f"ncym: config rejected: {key}: rows of lengths [2, 3]\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("block, named", [
    ({"connection": {"kind": "constant", "coeffs": [[0.1, 0.2], [0.3, 0.4]]}},
     "connection.coeffs of shape (2, 2), want (2, 3)"),
    ({"representation": {"kind": "spin", "j": 0.3}}, "got 0.3"),
    ({"metric": {"internal": [[1.0, 0.0], [0.0, 1.0]]}}, "shape (2, 2), want (3, 3)"),
], ids=["connection.coeffs", "representation.j", "metric.internal"])
def test_value_of_the_wrong_size_exits_2(block, named, tmp_path, capsys):
    """A value that the schema admits but the su(2) torus cannot use is
    refused in one line that names it, before any output directory."""
    doc = {**_TORUS_EVAL, **block, "output_dir": str(tmp_path / "out")}
    assert main(["run", _write(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("ncym: ") and err.count("\n") == 1 and named in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("bundle", [
    {"kind": "instanton", "npts": 9},
    {"kind": "monopole", "npts": 9, "charge": 1},
    {"kind": "monopole", "npts": 9, "charge": -3},
], ids=["instanton9", "monopole9", "monopole9-charge-3"])
def test_geom_check_on_an_odd_grid(bundle, tmp_path):
    """At odd npts the chart origin is a grid point, where the transition is
    singular.  At the default margin no sample point's order-2 stencil, along
    any axis, reaches it, and geom-check exits 0 with every residual finite."""
    from ncym.config import build_problem, resolve
    from ncym.geometry import diff_matrix, grid_points

    doc = {"task": "geom-check", "bundle": bundle, "output_dir": str(tmp_path / "out")}
    man = build_problem(resolve(doc)).man
    for ov in man.overlaps:
        ch = man.chart(ov.src)
        origin = (ch.shape[0] - 1) // 2
        assert not np.any(grid_points(ch)[(origin,) * ch.dim])
        stencil = diff_matrix(ch.shape[0], ch.spacing[0], False) != 0.0
        at = np.argwhere(ov.mask)
        for axis in range(ch.dim):
            others = np.all(np.delete(at, axis, axis=1) == origin, axis=1)
            assert not np.any(others & stencil[at[:, axis], origin])
    assert main(["run", _write(tmp_path, doc)]) == 0
    res = json.loads((tmp_path / "out" / "report.json").read_text())["result"]
    values = [v for pair in res["potential_gluing"].values() for v in pair.values()]
    assert len(values) == 4 and all(np.isfinite(v) and v > 0.0 for v in values)


@pytest.mark.parametrize("task", ["geom-check", "chern"])
@pytest.mark.parametrize("kind", ["instanton", "monopole"])
def test_stencil_across_the_origin_exits_2(kind, task, tmp_path, capsys):
    """At margin 2.25 on 9 points the origin's axis neighbours are sample
    points, whose order-2 stencils would read the singular transition there:
    the sphere builder refuses, naming the margin and the grid, so every task
    on that sphere exits 2 and writes no report."""
    doc = {"task": task, "bundle": {"kind": kind, "npts": 9, "margin": 2.25},
           "output_dir": str(tmp_path / "out")}
    assert main(["run", _write(tmp_path, doc)]) == 2
    assert capsys.readouterr().err == (
        "ncym: chart margin 2.25 at npts 9 puts the chart origin, where the transition is "
        "singular, in a sample point's stencil\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("task, code", [(task, 2) for task in
                                        ("chern", "geom-check", "eval", "lc-check", "classify")])
def test_overlap_without_sample_points(task, code, tmp_path, capsys):
    """At margin 1.01 the N=8 instanton charts overlap in no grid point: the
    sphere builder refuses, naming the margin and the grid, so every task on
    that sphere exits 2 and writes no report."""
    doc = {"task": task, "bundle": {"kind": "instanton", "npts": 8, "margin": 1.01},
           "output_dir": str(tmp_path / "out")}
    assert main(["run", _write(tmp_path, doc)]) == code
    assert capsys.readouterr().err == (
        "ncym: sphere charts share no grid point: chart margin 1.01 at npts 8 "
        "leaves their overlap without sample points\n")
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


@pytest.mark.parametrize("source", ["flag", "env"])
def test_thread_hint_overrides_blas_variables(source, monkeypatch):
    """A hint replaces BLAS thread counts already in the environment."""
    blas = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    for var in blas:
        monkeypatch.setenv(var, "2")
    monkeypatch.setenv("NCYM_THREADS", "1")
    _apply_threads_hint("1" if source == "flag" else None)
    assert [os.environ[var] for var in blas] == ["1", "1", "1"]


def test_snapshot_is_the_solved_state(tmp_path, monkeypatch):
    """`snapshots: true` writes state.json, which holds only the solved fields
    a and phi: they read back bitwise as the state that solve_vacuum returns
    for the run's resolved config, and that config rebuilds bitwise the
    manifold and reference connection the run solved on."""
    from ncym import yang_mills
    from ncym.config import build_problem, resolve
    from ncym.geometry import grid_points
    from ncym.serialize import json_to_array
    from ncym.yang_mills import SolverOptions, solve_vacuum

    used = []

    def recording(init, riem, opts):
        used.append(init.ref)
        return solve_vacuum(init, riem, opts)

    monkeypatch.setattr(yang_mills, "solve_vacuum", recording)
    doc = json.loads((ROOT / "configs" / "torus_vacuum.json").read_text())
    doc["solver"]["max_iters"] = 20
    out = tmp_path / "out"
    assert main(["run", _write(tmp_path, {**doc, "snapshots": True}),
                 "--output-dir", str(out)]) == 3
    config = json.loads((out / "report.json").read_text())["config"]
    assert config["snapshots"] is True
    problem = build_problem(resolve(config))
    (ref,) = used
    for ch in ref.man.charts:
        got = problem.man.chart(ch.name)
        assert (got.shape, got.spacing, got.periodic, got.orientation) == (
            ch.shape, ch.spacing, ch.periodic, ch.orientation)
        pairs = ((grid_points(got), grid_points(ch)), (problem.conn.A[ch.name], ref.A[ch.name]),
                 (problem.man.weights[ch.name], ref.man.weights[ch.name]))
        for rebuilt, solved in pairs:
            assert rebuilt.tobytes() == solved.tobytes(), ch.name
    state, _, _ = solve_vacuum(problem.init, problem.riem, SolverOptions(**config["solver"]))
    snap = json.loads((out / "state.json").read_text())
    assert set(snap) == {"a", "phi"}
    for key in ("a", "phi"):
        fields = getattr(state, key)
        assert set(snap[key]) == set(fields)
        for name, arr in fields.items():
            back = json_to_array(snap[key][name])
            assert back.dtype == arr.dtype and back.shape == arr.shape, (key, name)
            assert back.tobytes() == np.ascontiguousarray(arr).tobytes(), (key, name)


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
        ("geom-check", {"bundle": {"kind": "monopole", "npts": 16, "charge": 10**20}}),
    ],
)
def test_non_finite_result_exits_5(task, extra, tmp_path):
    """Every task whose result holds a non-finite number writes its report,
    with NaN as a string, and exits 5.  A monopole of charge 10**20 is such
    a config by contract: its phase overflows, so no result can be finite,
    and that shows only after the run."""
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


def test_negative_seed_flag_exits_2_naming_seed(tmp_path, capsys):
    doc = {"task": "eval", "bundle": {"kind": "torus", "npts": 8},
           "initial": {"kind": "random"}}
    assert main(["run", _write(tmp_path, doc), "--seed", "-1",
                 "--output-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "config rejected: seed: -1 is less than the minimum of 0" in err
    assert not (tmp_path / "out").exists()


def test_selfcheck_subcommand(capsys, tmp_path):
    assert main(["selfcheck", "--filter", "lie_core"]) == 0
    out = capsys.readouterr().out
    assert "structure-constants" in out
    assert "0 failed" in out
    assert main(["selfcheck", "--filter", "lie_core", "--output-dir", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["task"] == "selfcheck" and report["result"]["failed"] == 0
    assert report["result"]["checks"]


def test_selfcheck_filter_naming_no_module_exits_2(tmp_path, capsys):
    """A mistyped module runs no check: it is refused, naming the known
    modules, before any output directory is made."""
    assert main(["selfcheck", "--filter", "geometri", "--output-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("ncym: ") and "'geometri'" in err and "geometry" in err
    assert not (tmp_path / "out").exists()


def test_plot_slice_of_a_1d_torus_is_one_row(tmp_path):
    doc = {"task": "eval", "bundle": {"kind": "torus", "dim": 1, "npts": 8},
           "output_dir": str(tmp_path / "out")}
    assert main(["run", _write(tmp_path, doc)]) == 0
    assert main(["plot", str(tmp_path / "out"), "--what", "slice"]) == 0
    rows = list(csv.DictReader(open(tmp_path / "out" / "slice.csv")))
    assert [int(r["i"]) for r in rows] == list(range(8))
    assert all(r["j"] == "0" and float(r["x1"]) == 0.0 for r in rows)


@pytest.mark.parametrize("bundle", [
    {"kind": "torus", "dim": 1, "npts": 8},
    {"kind": "torus", "dim": 3, "npts": 8},
    {"kind": "monopole", "npts": 8},
], ids=["torus1", "torus3", "monopole"])
def test_no_plot_kind_raises(bundle, tmp_path, capsys):
    """Every task once on the bundle, then every plot kind of its run: each
    plot exits 0, or exits 2 with an `ncym:` line.  A refused run makes no
    directory, so each of its plots exits 2."""
    from ncym.cli import TASK_RUNNERS, _PLOTS

    for task in TASK_RUNNERS:
        out = tmp_path / task
        doc = {"task": task, "bundle": bundle, "output_dir": str(out)}
        if task == "solve":
            doc["solver"] = {"max_iters": 2}
        code = main(["run", _write(tmp_path, doc, f"{task}.json")])
        assert code in (0, 2, 3), task
        assert out.exists() == (code != 2), task
        capsys.readouterr()
        for what in ("trace", *_PLOTS):
            code_plot = main(["plot", str(out), "--what", what])
            err = capsys.readouterr().err
            assert code_plot in (0, 2), (task, what)
            assert code_plot == 0 or err.startswith("ncym: "), (task, what)
            assert code_plot == 2 or out.exists(), (task, what)


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


def test_plot_well_needs_a_metric(tmp_path, capsys):
    """A chern run assembles no metric, so it has no action well to plot."""
    doc = {
        "task": "chern",
        "bundle": {"kind": "torus", "npts": 8},
        "output_dir": str(tmp_path / "out"),
    }
    assert main(["run", _write(tmp_path, doc)]) == 0
    assert main(["plot", str(tmp_path / "out"), "--what", "well"]) == 2
    assert "needs a run with a metric" in capsys.readouterr().err


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_config_constant_exits_2(tmp_path, capsys, token):
    """json accepts NaN and Infinity, which no report could record: the
    config is refused as it is read, before anything runs."""
    text = (
        '{"task": "eval", "bundle": {"kind": "torus", "npts": 8},'
        f' "initial": {{"kind": "random", "amplitude": {token}}}}}'
    )
    path = tmp_path / "exp.json"
    path.write_text(text)
    out = tmp_path / "out"
    assert main(["run", str(path), "--output-dir", str(out)]) == 2
    assert f"config holds {token}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("task, kind, radius", [
    ("geom-check", "instanton", 1e308),
    ("lc-check", "monopole", 1e200),
])
def test_overflowing_radius_exits_2(tmp_path, capsys, task, kind, radius):
    """A chart extent that overflows a float: a config error, not a
    traceback.  The sphere builder refuses it before the metric is built."""
    doc = {"task": task, "bundle": {"kind": kind, "npts": 8, "radius": radius}}
    out = tmp_path / "out"
    assert main(["run", _write(tmp_path, doc), "--output-dir", str(out)]) == 2
    assert f"sphere of radius {radius!r} with chart margin" in capsys.readouterr().err
    assert not (out / "report.json").exists()


def test_radius_overflowing_only_the_metric_exits_2(tmp_path, capsys):
    """The builder accepts a radius of 1e100; 4 r^4 of the round-sphere
    metric overflows."""
    doc = {"task": "geom-check", "bundle": {"kind": "instanton", "npts": 8, "radius": 1e100}}
    out = tmp_path / "out"
    assert main(["run", _write(tmp_path, doc), "--output-dir", str(out)]) == 2
    assert "round-sphere metric: radius 1e+100 overflows" in capsys.readouterr().err
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("key, value", [("radius", 1e308), ("radius", 1e200),
                                        ("radius", 1e-200), ("margin", 1e300)])
def test_chern_on_a_sphere_beyond_floats_exits_2(key, value, tmp_path, capsys):
    """These ran into numpy's "cannot reshape array of size 0"; the sphere
    builder now names the radius and the margin."""
    doc = {"task": "chern", "bundle": {"kind": "instanton", "npts": 8, key: value}}
    assert main(["run", _write(tmp_path, doc), "--output-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "radius" in err and "margin" in err and f"{key} {value!r}" in err


def test_underflowing_cell_volume_exits_2(tmp_path, capsys):
    """A torus side of 1e-300 gives positive spacings whose product is 0.
    Every weight would vanish and the gradient read exactly zero beside a
    NaN action; the chart grid refuses it."""
    doc = {"task": "eval", "bundle": {"kind": "torus", "npts": 8, "side": 1e-300}}
    out = tmp_path / "out"
    assert main(["run", _write(tmp_path, doc), "--output-dir", str(out)]) == 2
    assert "ncym: grid cell volume underflows to 0" in capsys.readouterr().err
    assert not (out / "report.json").exists()


def test_grid_that_cannot_be_allocated_exits_2(tmp_path):
    """A 10^6 x 10^6 torus asks numpy for 7.28 TiB: a MemoryError, which exits
    2 with a `ncym:` line, not 1 with a traceback.  The run is one child
    process that caps its own address space first, so the refusal does not
    depend on how the machine overcommits memory."""
    doc = {"task": "eval", "bundle": {"kind": "torus", "npts": 1000000}}
    out = tmp_path / "out"
    script = ("import resource, sys\n"
              "resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))\n"
              "from ncym.cli import main\n"
              "sys.exit(main(sys.argv[1:]))\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", script, "run", _write(tmp_path, doc), "--output-dir", str(out)],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("ncym: ") and "Traceback" not in proc.stderr
    assert not (out / "report.json").exists()


def test_chern_degree_is_half_the_base_dimension(tmp_path):
    doc = {"task": "chern", "bundle": {"kind": "torus", "dim": 4, "npts": 8}}
    out = tmp_path / "out"
    assert main(["run", _write(tmp_path, doc), "--output-dir", str(out)]) == 0
    result = json.loads((out / "report.json").read_text())["result"]
    assert result["q"] == 2
    assert result["value"] == 0.0


@pytest.mark.parametrize("doc, names", [
    ({"task": "chern", "bundle": {"kind": "torus", "dim": 3, "npts": 8}}, "3-dimensional"),
    ({"task": "chern", "bundle": {"kind": "torus", "dim": 1, "npts": 8}}, "1-dimensional"),
    ({"task": "chern", "bundle": {"kind": "instanton", "npts": 8}, "chern": {"degree": 1}},
     "chern.degree 1 cannot saturate a 4-dimensional base"),
    ({"task": "chern", "bundle": {"kind": "torus", "dim": 2, "npts": 8}, "chern": {"degree": 2}},
     "chern.degree 2 cannot saturate a 2-dimensional base"),
], ids=["torus-dim-3", "torus-dim-1", "instanton-degree-1", "torus-degree-2"])
def test_chern_degree_without_a_top_form_exits_2(doc, names, tmp_path, capsys):
    """An odd base is refused by its dimension alone, before a degree is
    filled in; an explicit degree that does not saturate an even base is
    refused by that degree."""
    out = tmp_path / "out"
    assert main(["run", _write(tmp_path, doc), "--output-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert names in err
    assert ("chern.degree" in err) == ("degree" in doc.get("chern", {}))
    assert not out.exists()


def test_topology_tasks_never_form_the_cached_field_strength(tmp_path, monkeypatch):
    """chern, geom-check and lc-check form the field strength one slab at
    a time; none of them fills the connection's whole-chart cache."""
    def whole_chart(conn):
        raise AssertionError("a topology task formed the whole-chart field strength")

    monkeypatch.setattr(connections, "curvature_F", whole_chart)
    for task in ("chern", "geom-check", "lc-check"):
        doc = {"task": task, "bundle": {"kind": "instanton", "npts": 8}}
        out = tmp_path / task
        assert main(["run", _write(tmp_path, doc, f"{task}.json"), "--output-dir", str(out)]) == 0
        assert json.loads((out / "report.json").read_text())["task"] == task


@pytest.mark.parametrize("command", ["run", "plot", "selfcheck"])
def test_output_dir_naming_a_file_exits_2(command, tmp_path, capsys):
    taken = tmp_path / "afile"
    taken.write_text("")
    argv = {
        "run": ["run", _write(tmp_path, {**_TORUS_EVAL, "output_dir": str(taken)})],
        "plot": ["plot", str(ROOT / "runs" / "torus_vacuum"), "--what", "well",
                 "--output-dir", str(taken)],
        "selfcheck": ["selfcheck", "--filter", "lie_core", "--output-dir", str(taken)],
    }[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("ncym: ") and str(taken) in err
    assert taken.read_text() == ""


@pytest.mark.parametrize("report", [
    '{"task": "eval", "config": {"task": "eval", "bundle": {"kind": "torus", "npts": 8},'
    ' "initial": {"kind": "random", "amplitude": NaN}}, "result": {}}',
    '{"task": "eval", "result": {}}',
], ids=["nan-in-config", "no-config"])
def test_plot_reads_reports_strictly(report, tmp_path, capsys):
    """A plot rebuilds its problem from the config a report records, read as
    strictly as `ncym run` reads a config."""
    (tmp_path / "report.json").write_text(report)
    assert main(["plot", str(tmp_path), "--what", "slice"]) == 2
    assert capsys.readouterr().err.startswith("ncym: ")
    assert not (tmp_path / "slice.csv").exists()


def test_plot_without_trace_exits_2(tmp_path, capsys):
    (tmp_path / "empty").mkdir()
    assert main(["plot", str(tmp_path / "empty"), "--what", "trace"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("what, run_dir", [
    ("trace", None), ("well", None), ("density", ROOT / "runs" / "torus_vacuum"),
], ids=["no-trace", "no-report", "torus-density"])
def test_refused_plot_makes_no_directory(what, run_dir, tmp_path, capsys):
    """A plot that is refused, for want of its input or by its emitter,
    exits 2 before it makes its output directory."""
    run_dir = run_dir or tmp_path
    assert main(["plot", str(run_dir), "--what", what,
                 "--output-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("ncym: ")
    assert not (tmp_path / "out").exists()


def test_plot_of_an_empty_trace_exits_2(tmp_path, capsys):
    (tmp_path / "trace.csv").write_text("")
    assert main(["plot", str(tmp_path), "--what", "trace"]) == 2
    assert "trace.csv is empty" in capsys.readouterr().err


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
# LAPACK metric inverse; the corner-gather sampling operator and the
# eigendecomposition reproduce them
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


@pytest.mark.parametrize("task", sorted(_INSTANTON8))
def test_topology_tasks_run_without_scipy(task, tmp_path):
    """`ncym run` of a topology task imports no part of scipy: the sampling
    operator is plain numpy.  Run in a child process, whose modules are its
    own."""
    doc = {"task": task, "bundle": {"kind": "instanton", "npts": 8}}
    script = ("import sys\n"
              "from ncym.cli import main\n"
              "code = main(sys.argv[1:])\n"
              "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n"
              "sys.exit(code)\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", script, "run", _write(tmp_path, doc),
         "--output-dir", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def _csv_cells(path):
    """The rows of a CSV file, with every numeric cell as a float."""
    def cell(text):
        try:
            return float(text)
        except ValueError:
            return text

    with open(path, newline="") as fh:
        return [[cell(c) for c in row] for row in csv.reader(fh)]


@pytest.mark.parametrize("name, what", [("torus_vacuum", "well"), ("torus_vacuum", "slice"),
                                        ("bpst_chern", "density")])
def test_committed_plot_data_reproduces(name, what, tmp_path):
    """The committed evaluation CSVs, plotted afresh from the committed run,
    agree under the determinism contract; a plot needs no solve."""
    run = ROOT / "runs" / name
    assert main(["plot", str(run), "--what", what, "--output-dir", str(tmp_path)]) == 0
    got = _csv_cells(tmp_path / f"{what}.csv")
    assert _agree(got, _csv_cells(run / f"{what}.csv"), f"{what}.csv") == []


@pytest.mark.parametrize("name", ["torus_lc_check", "bpst_chern", "bpst_eval"])
def test_shipped_configs_reproduce_committed_runs(name, tmp_path):
    """The determinism contract across machines and BLAS builds: a rerun of a
    shipped config agrees with its committed report within tolerance."""
    out = tmp_path / name
    assert main(["run", str(ROOT / "configs" / f"{name}.json"), "--output-dir", str(out)]) == 0
    got = json.loads((out / "report.json").read_text())
    want = json.loads((ROOT / "runs" / name / "report.json").read_text())
    assert _agree(got, want) == []
