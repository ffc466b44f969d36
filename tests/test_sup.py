"""The one sup-norm, ``geometry.sup``: NaN propagation, lazy reduction, the
input guards that refuse NaN, and a scan that keeps it the only reduction."""

import inspect
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import ncym
from ncym.connections import (
    OrdinaryConnection,
    gauge_transform,
    gauge_transform_ordinary,
    zero_connection,
    zero_ncc,
)
from ncym.errors import ClassificationRefused, ShapeError, SingularMetric
from ncym.geometry import Manifold, build_torus, sup
from ncym.lie_core import build_representation, build_su, component_in_basis
from ncym.metric import extract_connection
from ncym.yang_mills import classify_vacuum


def test_sup_propagates_a_nan_from_any_position():
    arrays = [np.random.default_rng(i).standard_normal((2, 3)) for i in range(3)]
    for i, arr in enumerate(arrays):
        for j in range(arr.size):
            held = arr.flat[j]
            arr.flat[j] = np.nan
            assert np.isnan(sup(arrays)), (i, j)
            assert np.isnan(sup(a for a in arrays)), (i, j)
            assert np.isnan(sup(arr)), (i, j)
            arr.flat[j] = held
    assert not np.isnan(sup(arrays))


def test_sup_reduces_a_generator_one_item_at_a_time():
    def items():
        for value in (3.0, -7.0, 2.0):
            arr = np.full(4, value)
            yield arr
            arr[:] = 0.0  # a consumer that held the items back would see zeros

    assert sup(items()) == 7.0


def test_sup_of_nothing_is_zero():
    for empty in ([], iter(()), {}.values(), np.zeros((0, 3))):
        out = sup(empty)
        assert out == 0.0 and isinstance(out, float)


def test_sup_is_bitwise_the_numpy_reduction():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((40, 7)) + 1j * rng.standard_normal((40, 7))
    out = sup(x)
    assert isinstance(out, float) and out == float(np.max(np.abs(x)))
    assert sup([x[:10], x[10:]]) == out


def _su2_torus():
    lb = build_su(2)
    man = build_torus(2, 8)
    return man, lb, zero_connection(man, lb, build_representation(lb, "fundamental"))


def _nan_unitary(man):
    U = np.broadcast_to(np.eye(2, dtype=complex), man.charts[0].shape + (2, 2)).copy()
    U[3, 5, 0, 1] = np.nan
    return {"t0": U}


def _gauge_transform():
    man, _, conn = _su2_torus()
    gauge_transform(zero_ncc(conn), _nan_unitary(man))


def _gauge_transform_ordinary():
    man, _, conn = _su2_torus()
    gauge_transform_ordinary(conn, _nan_unitary(man))


def _component_in_basis():
    lb = build_su(2)
    mat = lb.basis[0].copy()
    mat[0, 1] = np.nan
    component_in_basis(lb, mat)


def _extract_connection():
    man, lb, conn = _su2_torus()
    G = np.full(man.charts[0].shape + (5, 5), np.nan)
    with np.errstate(invalid="ignore"):
        extract_connection(man, lb, conn.rep, {"t0": G})


def _classify_vacuum():
    man, lb, conn = _su2_torus()
    phi = np.broadcast_to(conn.rep.matrices, man.charts[0].shape + conn.rep.matrices.shape)
    hint = np.broadcast_to(np.eye(3), man.charts[0].shape + (3, 3)).copy()
    hint[0, 0, 0, 0] = np.nan
    classify_vacuum({"t0": phi}, lb, {"t0": hint})


def _chart_grid():
    ch = build_torus(2, 8).charts[0]
    replace(ch, spacing=(np.nan, ch.spacing[1]))


def _manifold():
    man = build_torus(2, 8)
    Manifold(charts=man.charts, weights={"t0": np.full(man.charts[0].shape, np.nan)})


def _ordinary_connection(at, value):
    def call():
        man, lb, conn = _su2_torus()
        A = conn.A["t0"].copy()
        A[at] = value
        OrdinaryConnection(man, lb, conn.rep, {"t0": A})

    return call


REFUSALS = {
    "gauge_transform": (_gauge_transform, ShapeError, "not unitary"),
    "gauge_transform_ordinary": (_gauge_transform_ordinary, ShapeError, "not unitary"),
    "component_in_basis": (_component_in_basis, ShapeError, "not in the real span"),
    "extract_connection": (_extract_connection, SingularMetric, "not finite"),
    "classify_vacuum": (_classify_vacuum, ClassificationRefused, "spectrum varies"),
    "ChartGrid": (_chart_grid, ShapeError, "spacing must be positive"),
    "Manifold": (_manifold, ShapeError, "weights must be non-negative"),
    "OrdinaryConnection-nan": (_ordinary_connection((1, 2, 0, 0), np.nan), ShapeError,
                               "must be finite"),
    "OrdinaryConnection-inf": (_ordinary_connection((0, 0, 0, 0), np.inf), ShapeError,
                               "must be finite"),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_nan_input_is_refused(case):
    call, error, message = REFUSALS[case]
    with pytest.raises(error, match=message):
        call()


def test_every_sup_norm_reduces_through_sup():
    """No module reduces max |x| by hand, and no accumulator folds a running
    maximum with max or np.maximum (the builtin drops a NaN); only the body
    of ``sup`` does."""
    accumulator = re.compile(r"^\s*([\w\[\]]+)\s*=.*(?:np\.maximum|(?<![\w.])max)\(\s*\1\s*,",
                             re.MULTILINE)
    for path in sorted(Path(ncym.__file__).parent.glob("*.py")):
        text = path.read_text()
        if path.name == "geometry.py":
            text = text.replace(inspect.getsource(sup), "")
        assert "np.max(np.abs(" not in text, path.name
        assert accumulator.search(text) is None, path.name
