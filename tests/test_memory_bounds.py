"""Peak memory of the topology checks at instanton N=12, bounded.

The bounds are tracemalloc peaks in MiB: numpy reports its array buffers to
tracemalloc, so they count every array a call allocates, independent of the
allocator's reuse of freed memory.  Each bound is a measured value plus at
least 15% headroom (numpy 2.4.6, one BLAS thread; nothing measured imports
a module).

The instanton potential is analytic: the connection holds a function of
first-axis rows, not arrays.  The topology checks read it through
`geometry.row_slabs`, which evaluates the rows a block and its stencil halo
read and holds only those (at most 5 rows, 0.8 MiB, at N=12), so the
whole-chart potential A is never formed: neither in the
set-up nor in a task, and the connection's caches of A and of the field
strength stay empty throughout.  The slabs hold at most SLAB_POINTS points
each (views of one block of whole first-axis rows at a time), so no
derivative, field strength, transition or contraction of a whole chart is
formed either.

Whole tasks (``build_problem`` and the task, with the caches that the
fixture's build warmed):

- ``geom-check`` peaks at 13.05 MiB, bound 15.1 MiB (16.4 MiB when the
  set-up formed A on both charts; 20.8 MiB with dense base-metric blocks as
  well, 36.8 MiB when the gluing also filled the field-strength cache);
- ``lc-check`` peaks at 12.19 MiB, bound 14.1 MiB (15.0 MiB with A formed
  at set-up);
- ``chern`` peaks at 5.25 MiB, bound 6.1 MiB (9.0 MiB with A formed at
  set-up, so a whole-chart A fails the bound).

Set-ups (``build_problem``), memory retained:

- ``geom-check`` or ``lc-check``: 1.97 MiB, bound 2.35 MiB: the base metric
  is one conformal factor per point, and both charts share it, its
  sqrt(det), |x|^2 and one volume density (2.03 MiB when the instanton
  potential kept its own copy of a row's coordinates).  With A formed on
  both charts it was 5.77 MiB; with dense (d, d) round-sphere blocks and
  their inverse as well, shared by the charts, 10.52 MiB; with a copy of
  both per chart 16.06 MiB;
- ``chern``: 1.50 MiB, bound 1.8 MiB (1.55 MiB with that copy, 5.29 MiB
  with A formed).

Single calls, which now form the rows of A that they read:

- ``residual_table``: 10.35 MiB measured, bound 10.8 MiB, with the field
  strengths and the symbols formed per slab and the base metric read as its
  per-point conformal factor c and 1 / c (9.38 MiB when A was formed at
  set-up and not counted here; 9.61 MiB with dense c delta and delta / c
  blocks formed per slab; 12.1 MiB when the fields of a whole 1,728-point
  row were formed before it was cut into slabs; 1024-point slabs copied
  points-last from whole-chart fields gave 68.4 MiB, whole-chart symbol
  tables of both charts 168.2 MiB);
- ``gluing_residuals``: 11.15 MiB measured, bound 12 MiB, with the source
  field strength formed and contracted per slab, the destination potential
  and field strength kept only on the 5,712 of 20,736 points the sampler
  reads, both taken from one walk of the destination chart, and t^-1
  evaluated per block on its rows and their stencil halo (10.7 MiB when A
  was formed at set-up).  Before that it read the cached order-2 field
  strength of both charts (15.2 MiB more, formed by its first caller) and
  took 11.2 MiB of its own on top, with the transition on the whole source
  grid; the sample points contracted all at once gave 57.2 MiB;
- ``chern_form``: 3.75 MiB measured, bound 4.5 MiB, with the order-4 field
  strength formed per slab and each slab's arrays freed before the next is
  formed (4.57 MiB when they were kept until the next slab replaced them;
  3.68 MiB when A was formed at set-up; 5.8 MiB per whole row; the order-4
  field strength of both charts, 15.2 MiB, sliced into slabs gave
  20.1 MiB; each chart contracted whole gave 76.7 MiB);
- ``closedness_residual`` of that Chern form: 0.52 MiB measured, bound
  0.6 MiB, with ``interp_chart`` sampling the overlap in runs of at most
  SLAB_POINTS points, each through its own ``sampling_operator`` (2.12 MiB
  with one operator over all 5,712 sample points; at N=24 3.3 against
  33.5 MiB, at N=32 10.4 against 106.2 MiB).
"""

import tracemalloc

import numpy as np
import pytest

from ncym.chern_weil import chern_form, closedness_residual
from ncym.cli import TASK_RUNNERS
from ncym.config import build_problem, resolve
from ncym.connections import gluing_residuals
import ncym.geometry as geometry
from ncym.levi_civita import residual_table

MiB = 2**20
RESIDUAL_TABLE_MIB = 10.8
GLUING_MIB = 12
CHERN_FORM_MIB = 4.5
CLOSEDNESS_MIB = 0.6
GEOM_CHECK_MIB = 15.1
LC_CHECK_MIB = 14.1
CHERN_MIB = 6.1
SETUP_MIB = 2.35
CHERN_SETUP_MIB = 1.8


@pytest.fixture(scope="module")
def instanton12():
    doc = {"task": "lc-check", "bundle": {"kind": "instanton", "npts": 12},
           "connection": {"kind": "bpst", "rho": 1.0}}
    return build_problem(resolve(doc))


def _traced_mib(fn):
    """``fn()`` with the memory it leaves allocated and its peak, in MiB."""
    tracemalloc.start()
    try:
        result = fn()
        current, peak = tracemalloc.get_traced_memory()
        return result, current / MiB, peak / MiB
    finally:
        tracemalloc.stop()


def _peak_mib(fn):
    result, _, peak = _traced_mib(fn)
    return result, peak


def test_residual_table_peak_is_bounded(instanton12):
    _, peak = _peak_mib(lambda: residual_table(instanton12.riem))
    assert peak <= RESIDUAL_TABLE_MIB


def test_gluing_residuals_peak_is_bounded(instanton12):
    _, peak = _peak_mib(lambda: gluing_residuals(instanton12.conn))
    assert peak <= GLUING_MIB


def _task_peak_mib(task):
    """The peak of a whole instanton N=12 ``task``, set-up and task, with
    the caches that the fixture's build warmed; the potential and field
    strength caches of its connection stay empty."""
    doc = {"task": task, "bundle": {"kind": "instanton", "npts": 12},
           "connection": {"kind": "bpst", "rho": 1.0}}
    if task == "chern":
        doc["chern"] = {"degree": 2}
    doc = resolve(doc)
    problems = []

    def run():
        problems.append(build_problem(doc))
        return TASK_RUNNERS[task](problems[-1], doc, None)

    _, peak = _peak_mib(run)
    assert problems[0].conn._A == {}
    assert problems[0].conn._F == {}
    return peak


def test_geom_check_peak_is_bounded(instanton12):
    assert _task_peak_mib("geom-check") <= GEOM_CHECK_MIB


def test_lc_check_peak_is_bounded(instanton12):
    assert _task_peak_mib("lc-check") <= LC_CHECK_MIB


def test_chern_peak_is_bounded(instanton12):
    assert _task_peak_mib("chern") <= CHERN_MIB


def test_chern_form_peak_is_bounded(instanton12):
    _, peak = _peak_mib(lambda: chern_form(instanton12.conn, 2))
    assert peak <= CHERN_FORM_MIB


def test_closedness_residual_peak_is_bounded(instanton12):
    cf = chern_form(instanton12.conn, 2)
    _, peak = _peak_mib(lambda: closedness_residual(cf))
    assert peak <= CLOSEDNESS_MIB


def _setup_retained_mib(task):
    """The memory an instanton N=12 set-up of ``task`` leaves allocated, with
    the caches that the fixture's build warmed; the problem is held while
    measuring."""
    doc = {"task": task, "bundle": {"kind": "instanton", "npts": 12},
           "connection": {"kind": "bpst", "rho": 1.0}}
    problem, retained, _ = _traced_mib(lambda: build_problem(resolve(doc)))
    assert (problem.riem is None) == (task == "chern")
    assert problem.conn._A == {}
    return retained


def test_geom_check_setup_retains_a_bounded_set(instanton12):
    assert _setup_retained_mib("geom-check") <= SETUP_MIB


def test_lc_check_setup_retains_a_bounded_set(instanton12):
    assert _setup_retained_mib("lc-check") <= SETUP_MIB


def test_chern_setup_retains_a_bounded_set(instanton12):
    assert _setup_retained_mib("chern") <= CHERN_SETUP_MIB


def test_base_metric_holds_no_dense_blocks(instanton12):
    """Every array the base metric holds is one value per grid point: none
    has trailing (d, d) axes, and the structure keeps no base inverse."""
    riem, d = instanton12.riem, instanton12.man.dim
    arrays = [arr for table in vars(riem.base).values() if isinstance(table, dict)
              for arr in table.values()]
    assert len(arrays) == 2 * len(riem.man.charts)  # conf and sqrt_det
    for arr in arrays:
        assert arr.shape[-2:] != (d, d)
        assert arr.shape == riem.man.charts[0].shape
    assert not hasattr(riem, "hbase")


def test_slab_residuals_are_bitwise_the_whole_chart_residuals(instanton12, monkeypatch):
    """Slabs of the default size give the bits of one slab holding the whole
    chart."""
    riem = instanton12.riem
    ch = riem.man.charts[0]
    out = residual_table(riem)
    assert out["vertical_lift_lift_symbol"] == 0.0
    assert len(list(geometry.row_slabs(ch, {}))) > 1
    whole_chart = max(int(np.prod(ch.shape)) for ch in riem.man.charts)
    monkeypatch.setattr(geometry, "SLAB_POINTS", whole_chart)
    assert len(list(geometry.row_slabs(ch, {}))) == 1
    assert out == residual_table(riem)


def test_gluing_is_bitwise_in_one_whole_chart_slab(instanton12, monkeypatch):
    """Slabs of the default size give the gluing residuals of one slab
    holding the whole chart, and leave the field-strength cache empty."""
    conn = instanton12.conn
    out = gluing_residuals(conn)
    whole_chart = max(int(np.prod(ch.shape)) for ch in conn.man.charts)
    monkeypatch.setattr(geometry, "SLAB_POINTS", whole_chart)
    assert len(list(geometry.row_slabs(conn.man.charts[0], {}))) == 1
    assert out == gluing_residuals(conn)
    assert conn._F == {}
