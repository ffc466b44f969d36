"""Analytic potentials evaluated by rows: the BPST and monopole builders give
the connection a function of (chart, first-axis rows).  Its rows carry the
bits of the whole-chart formula, the topology tasks never form A on a whole
chart, and a potential that is not finite is refused at build time, or by
the block check when a hand-built row function yields one."""

import json

import numpy as np
import pytest

from ncym.chern_weil import chern_form
from ncym.cli import TASK_RUNNERS, main
from ncym.config import build_problem, resolve
from ncym.connections import (
    OrdinaryConnection,
    bpst_connection,
    gluing_residuals,
    instanton_bundle,
    monopole_bundle,
    monopole_connection,
    thooft_symbols,
)
from ncym.errors import ShapeError
from ncym.geometry import grid_points, round_sphere_metric
from ncym.levi_civita import residual_table
from ncym.metric import assemble


def _bpst_whole_chart(man, rho=1.0):
    """The instanton potential formed on the whole charts at once, by the
    closed form the row function evaluates."""
    r, x, out = man.params["radius"], grid_points(man.chart("north")), {}
    for name, eta, size in (("north", thooft_symbols(), rho),
                            ("south", thooft_symbols(anti=True), r * r / rho)):
        den = man.rho2[name] + size * size
        ex = (x.reshape(-1, 4) @ eta.transpose(2, 1, 0).reshape(4, -1)).reshape(den.shape + (4, 3))
        ex *= 2.0
        out[name] = np.divide(ex, den[..., None, None], out=ex)
    return out


def _monopole_whole_chart(man, charge):
    r, x, out = man.params["radius"], grid_points(man.chart("north")), {}
    scale = float(np.sqrt(2.0))
    for name, q in (("north", charge), ("south", -charge)):
        den = man.rho2[name] + r * r
        out[name] = (scale * q * np.stack([-x[..., 1], x[..., 0]], axis=-1) / den[..., None])[..., None]
    return out


def _row_sets(n):
    """Index arrays of first-axis rows: single rows at both edges and inside,
    an edge block with its one-sided halo, an interior block with its
    order-4 halo, and every row at once."""
    return [np.array([0]), np.array([n - 1]), np.array([n // 2]), np.arange(5),
            np.arange(n // 2 - 2, n // 2 + 3), np.arange(n - 5, n), np.arange(n)]


CASES = [("instanton", 8, None), ("instanton", 12, None)] + [
    ("monopole", 16, q) for q in (1, 2, 3, -2)]


@pytest.mark.parametrize("kind,npts,charge", CASES)
def test_rows_are_bitwise_the_whole_chart(kind, npts, charge):
    if kind == "instanton":
        man, lb, rep = instanton_bundle(npts)
        conn, whole = bpst_connection(man, lb, rep), _bpst_whole_chart(man)
    else:
        man, lb, rep = monopole_bundle(npts, charge)
        conn, whole = monopole_connection(man, lb, rep, charge), _monopole_whole_chart(man, charge)
    for ch in man.charts:
        field = conn.slab_field(ch.name)
        for rows in _row_sets(npts):
            got = field(rows)
            assert got.shape == whole[ch.name][rows].shape
            assert got.tobytes() == whole[ch.name][rows].tobytes(), (ch.name, rows)
    assert conn._A == {}
    for ch in man.charts:  # the cached whole-chart read
        assert conn.A[ch.name].tobytes() == whole[ch.name].tobytes()
    assert set(conn._A) == {ch.name for ch in man.charts}


def _doc(kind, task):
    doc = {"task": task, "bundle": {"kind": kind, "npts": 8}}
    if task == "chern":
        doc["chern"] = {"degree": 2 if kind == "instanton" else 1}
    return resolve(doc)


@pytest.mark.parametrize("kind", ["instanton", "monopole"])
@pytest.mark.parametrize("task", ["chern", "geom-check", "lc-check"])
def test_topology_tasks_never_form_a_whole_chart(kind, task):
    """The tasks read the analytic potential by rows only: the connection's
    whole-chart potential and field strength caches stay empty."""
    doc = _doc(kind, task)
    problem = build_problem(doc)
    assert callable(problem.conn.potential)
    TASK_RUNNERS[task](problem, doc, None)
    assert problem.conn._A == {}
    assert problem.conn._F == {}


def _nan_on_row(conn, bad_row):
    """A hand-built analytic connection that evaluates ``conn`` by rows, with
    NaN on first-axis row ``bad_row`` of the north chart."""

    def rows_of(ch, rows):
        out = conn.potential(ch, rows)
        if ch.name == "north":
            out[rows == bad_row] = np.nan
        return out

    return OrdinaryConnection(conn.man, conn.basis, conn.rep, rows_of)


@pytest.mark.parametrize("bad_row", [0, 5])
@pytest.mark.parametrize("check", ["chern_form", "gluing_residuals", "residual_table"])
def test_each_formed_block_is_checked_finite(check, bad_row):
    man, lb, rep = instanton_bundle(8)
    conn = _nan_on_row(bpst_connection(man, lb, rep), bad_row)
    call = {
        "chern_form": lambda: chern_form(conn, 2),
        "gluing_residuals": lambda: gluing_residuals(conn),
        "residual_table": lambda: residual_table(assemble(round_sphere_metric(man), np.eye(3), conn)),
    }[check]
    with pytest.raises(ShapeError, match="gauge potential components must be finite"):
        call()


def test_whole_chart_read_is_checked_finite():
    man, lb, rep = instanton_bundle(8)
    conn = _nan_on_row(bpst_connection(man, lb, rep), 3)
    with pytest.raises(ShapeError, match="gauge potential components must be finite"):
        conn.A


@pytest.mark.parametrize("build", [
    lambda: bpst_connection(*instanton_bundle(8), rho=float("nan")),
    lambda: monopole_connection(*monopole_bundle(8, 1), charge=10**308),
], ids=["bpst-nan-size", "monopole-overflowing-charge"])
def test_builders_refuse_a_potential_that_is_not_finite(build):
    with pytest.raises(ShapeError, match="gauge potential components must be finite"):
        build()


@pytest.mark.parametrize("task", ["chern", "geom-check", "lc-check"])
def test_a_refused_potential_makes_no_output_directory(task, tmp_path, capsys):
    """The refusal comes from the builder, before the run's output directory
    is made, although the tasks form the potential only later."""
    doc = {"task": task, "bundle": {"kind": "monopole", "npts": 8, "charge": 10**308},
           "output_dir": str(tmp_path / "out")}
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path)]) == 2
    assert "gauge potential components must be finite" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
