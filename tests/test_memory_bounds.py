"""Peak memory of the topology checks at instanton N=12, bounded.

The bounds are tracemalloc peaks in MiB: numpy reports its array buffers to
tracemalloc, so they count every array a call allocates, independent of the
allocator's reuse of freed memory.  Each bound is a measured value plus at
least 15% headroom (numpy 2.4.6, scipy 1.17.1, one BLAS thread, with the
field strength cached and scipy.sparse imported before the measurement):

- ``residual_table``: 68.4 MiB measured, bound 79 MiB, with 1024-point
  slabs copied points-last (grid-row slabs of 2048 points gave 72.6 MiB,
  whole-chart symbol tables of both charts 168.2 MiB);
- ``gluing_residuals``: 57.2 MiB measured, bound 66 MiB (contracting the
  potential and field strength on the whole source grid gave 93.8 MiB).
"""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse  # noqa: F401  (imported before measuring: its import allocates)

from ncym.config import build_problem, resolve
from ncym.connections import gluing_residuals
import ncym.levi_civita as lc
from ncym.levi_civita import residual_table

MiB = 2**20
RESIDUAL_TABLE_MIB = 79
GLUING_MIB = 66


@pytest.fixture(scope="module")
def instanton12():
    doc = {"task": "lc-check", "bundle": {"kind": "instanton", "npts": 12},
           "connection": {"kind": "bpst", "rho": 1.0}}
    problem = build_problem(resolve(doc))
    problem.conn.curvature()  # cached on the connection, as in a geom-check
    return problem


def _peak_mib(fn):
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] / MiB
    finally:
        tracemalloc.stop()


def test_residual_table_peak_is_bounded(instanton12):
    _, peak = _peak_mib(lambda: residual_table(instanton12.riem))
    assert peak <= RESIDUAL_TABLE_MIB


def test_gluing_residuals_peak_is_bounded(instanton12):
    _, peak = _peak_mib(lambda: gluing_residuals(instanton12.conn))
    assert peak <= GLUING_MIB


def test_slab_residuals_are_bitwise_the_whole_chart_residuals(instanton12, monkeypatch):
    riem = instanton12.riem
    out = residual_table(riem)
    assert out["vertical_lift_lift_symbol"] == 0.0
    whole_chart = max(int(np.prod(ch.shape)) for ch in riem.man.charts)
    monkeypatch.setattr(lc, "SLAB_POINTS", whole_chart)
    assert out == residual_table(riem)
