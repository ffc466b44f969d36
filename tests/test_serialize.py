"""Snapshot layout: row-major [re, im] arrays of the solved fields, canonical text."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncym.connections import bpst_connection, instanton_bundle, random_ncc
from ncym.errors import ShapeError
from ncym.serialize import (
    array_to_json,
    dumps_canonical,
    json_float,
    json_to_array,
    save_trace_csv,
    state_snapshot,
)


def test_complex_array_round_trip():
    rng = np.random.default_rng(0)
    arr = rng.standard_normal((3, 4, 2)) + 1j * rng.standard_normal((3, 4, 2))
    obj = array_to_json(arr)
    assert obj["kind"] == "complex"
    assert obj["shape"] == [3, 4, 2]
    # row-major [re, im] pairs: the first entry is arr[0, 0, 0]
    assert obj["values"][0] == [arr[0, 0, 0].real, arr[0, 0, 0].imag]
    back = json_to_array(obj)
    assert back.dtype == complex
    assert np.array_equal(back, arr)


def test_real_array_round_trip():
    arr = np.arange(12, dtype=float).reshape(3, 4)
    obj = array_to_json(arr)
    assert obj["kind"] == "real"
    assert obj["values"][4] == arr[1, 0]  # row-major flattening
    assert np.array_equal(json_to_array(obj), arr)


@settings(max_examples=25, deadline=None)
@given(
    shape=st.lists(st.integers(1, 4), min_size=1, max_size=3),
    seed=st.integers(0, 2**16),
    complex_valued=st.booleans(),
)
def test_round_trip_property(shape, seed, complex_valued):
    rng = np.random.default_rng(seed)
    arr = rng.standard_normal(tuple(shape))
    if complex_valued:
        arr = arr + 1j * rng.standard_normal(tuple(shape))
    text = json.dumps(array_to_json(arr))
    assert np.array_equal(json_to_array(json.loads(text)), arr)


def test_payload_shape_guard():
    obj = array_to_json(np.ones((2, 2)))
    obj["shape"] = [3, 2]
    with pytest.raises(ShapeError):
        json_to_array(obj)
    with pytest.raises(ShapeError):
        json_to_array({"shape": [1], "kind": "surprising", "values": [0.0]})


def test_state_snapshot_round_trip():
    man, lb, rep = instanton_bundle(8)
    conn = bpst_connection(man, lb, rep, rho=1.0)
    ncc = random_ncc(conn, seed=5, amplitude=0.3)
    snap = state_snapshot(ncc)
    # the manifold and the reference are rebuilt from the run's config
    assert set(snap) == {"a", "phi"}
    for name in ("north", "south"):
        assert np.array_equal(json_to_array(snap["phi"][name]), ncc.phi[name])
        assert np.array_equal(json_to_array(snap["a"][name]), ncc.a[name])


def test_dumps_canonical_is_order_independent():
    a = {"b": 1.5, "a": [1, 2], "c": {"y": 2.0, "x": 1e-17}}
    b = {"c": {"x": 1e-17, "y": 2.0}, "a": [1, 2], "b": 1.5}
    assert dumps_canonical(a) == dumps_canonical(b)
    assert dumps_canonical(a).endswith("\n")


def _strict(text):
    def refuse(token):
        raise ValueError(f"bare {token} in JSON")

    return json.loads(text, parse_constant=refuse)


def test_non_finite_values_are_strict_json():
    assert [json_float(v) for v in (np.nan, np.inf, -np.inf, 0.5)] == [
        "NaN", "Infinity", "-Infinity", 0.5,
    ]
    with pytest.raises(ValueError):
        dumps_canonical({"action": float("nan")})
    arr = np.array([[np.nan, 1.0], [np.inf, -np.inf]])
    cplx = arr.astype(complex)
    cplx.imag = arr[::-1]
    for values in (arr, cplx):
        back = json_to_array(_strict(dumps_canonical(array_to_json(values))))
        np.testing.assert_array_equal(back, values)


_EDGE_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, np.inf, -np.inf, np.nan]),
)


def _same_floats(got, want):
    """Equal values (NaN equal to NaN), and the same sign wherever not NaN."""
    np.testing.assert_array_equal(got, want)
    keep = ~np.isnan(want)
    assert np.array_equal(np.signbit(got[keep]), np.signbit(want[keep]))


@settings(max_examples=50, deadline=None)
@given(
    shape=st.lists(st.integers(1, 3), min_size=1, max_size=3),
    data=st.data(),
    complex_valued=st.booleans(),
)
def test_canonical_round_trip_keeps_edge_floats(shape, data, complex_valued):
    size = int(np.prod(shape)) * (2 if complex_valued else 1)
    flat = np.array(data.draw(st.lists(_EDGE_FLOATS, min_size=size, max_size=size)))
    arr = flat.reshape(shape + [-1])
    arr = arr.view(complex)[..., 0] if complex_valued else arr[..., 0]
    back = json_to_array(_strict(dumps_canonical(array_to_json(arr))))
    assert back.shape == arr.shape and back.dtype == arr.dtype
    _same_floats(back.real, arr.real)
    if complex_valued:
        _same_floats(back.imag, arr.imag)


def test_trace_csv_columns(tmp_path):
    path = tmp_path / "trace.csv"
    save_trace_csv(path, [(3.0, 2.0), (1.5, 0.25)])
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "iteration,action,grad_norm"
    assert lines[1].split(",") == ["0", "3.0", "2.0"]
    assert lines[2].split(",") == ["1", "1.5", "0.25"]
