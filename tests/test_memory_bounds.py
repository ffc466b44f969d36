"""Peak memory of the topology checks at instanton N=12, bounded.

The bounds are tracemalloc peaks in MiB: numpy reports its array buffers to
tracemalloc, so they count every array a call allocates, independent of the
allocator's reuse of freed memory.  Each bound is a measured value plus at
least 15% headroom (numpy 2.4.6, one BLAS thread, with the order-2 field
strength cached; nothing measured imports a module).  All three run through
`geometry.row_slabs`, so no derivative, field strength or contraction of a
whole chart is formed beyond the cached order-2 field strength that
`curvature_F` returns:

- ``residual_table``: 12.6 MiB measured, bound 15 MiB (1024-point slabs
  copied points-last from whole-chart fields gave 68.4 MiB, whole-chart
  symbol tables of both charts 168.2 MiB);
- ``gluing_residuals``: 11.2 MiB measured, bound 13 MiB, with each slab's
  sample-point arrays freed before the next slab's are formed (kept
  alive into the next slab, they gave 12.2 MiB with the numpy corner
  gather of `geometry.sampling_operator` and 11.9 MiB with a scipy CSR
  matrix; the sample points contracted all at once, with d(t^-1) on the
  whole source grid, gave 57.2 MiB);
- ``chern_form``: 6.45 MiB measured, bound 8 MiB, with the order-4 field
  strength formed per slab (the order-4 field strength of both charts,
  15.2 MiB, sliced into slabs gave 20.1 MiB; each chart contracted whole
  gave 76.7 MiB);
- a ``geom-check`` set-up (``build_problem``) retains 10.52 MiB, bound
  12.5 MiB: both charts share one round-sphere metric, its inverse and
  one volume density (a copy of the metric and its inverse per chart
  retained 16.06 MiB).
"""

import tracemalloc

import numpy as np
import pytest

from ncym.chern_weil import chern_form
from ncym.config import build_problem, resolve
from ncym.connections import gluing_residuals
import ncym.geometry as geometry
from ncym.levi_civita import residual_table

MiB = 2**20
RESIDUAL_TABLE_MIB = 15
GLUING_MIB = 13
CHERN_FORM_MIB = 8
SETUP_MIB = 12.5


@pytest.fixture(scope="module")
def instanton12():
    doc = {"task": "lc-check", "bundle": {"kind": "instanton", "npts": 12},
           "connection": {"kind": "bpst", "rho": 1.0}}
    problem = build_problem(resolve(doc))
    problem.conn.curvature()  # cached on the connection, as in a geom-check
    return problem


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


def test_chern_form_peak_is_bounded(instanton12):
    _, peak = _peak_mib(lambda: chern_form(instanton12.conn, 2))
    assert peak <= CHERN_FORM_MIB


def test_geom_check_setup_retains_a_bounded_set(instanton12):
    """The instanton N=12 set-up of a geom-check, with the caches that the
    fixture's build warmed; the problem is held while measuring."""
    doc = {"task": "geom-check", "bundle": {"kind": "instanton", "npts": 12},
           "connection": {"kind": "bpst", "rho": 1.0}}
    problem, retained, _ = _traced_mib(lambda: build_problem(resolve(doc)))
    assert problem.riem is not None
    assert retained <= SETUP_MIB


def test_slab_residuals_are_bitwise_the_whole_chart_residuals(instanton12, monkeypatch):
    """Row slabs and sub-slabs of the default size give the bits of one slab
    holding the whole chart."""
    riem = instanton12.riem
    ch = riem.man.charts[0]
    out = residual_table(riem)
    assert out["vertical_lift_lift_symbol"] == 0.0
    assert len(list(geometry.row_slabs(ch, {}))) > 1
    whole_chart = max(int(np.prod(ch.shape)) for ch in riem.man.charts)
    monkeypatch.setattr(geometry, "SLAB_POINTS", whole_chart)
    assert len(list(geometry.row_slabs(ch, {}))) == 1
    assert out == residual_table(riem)
