"""JSON snapshots of solved fields, plus canonical report emission.

Layout
------
Arrays serialize row-major (C order) under their shape: real arrays as flat
float lists, complex arrays as flat lists of ``[re, im]`` pairs.  A field
snapshot holds the solved fields ``a`` and ``phi`` per chart and nothing
else: the manifold and the reference connection are rebuilt bit for bit from
the resolved config the run's report records (``build_problem(resolve(
report["config"]))``).  A result tree (dicts, lists, numpy
arrays and scalars) becomes JSON values through :func:`plain`, and a report
is emitted through :func:`dumps_canonical`, which fixes key order and
separators so identical results produce bytewise-identical files.  Every
file is strict JSON: a non-finite float is written as the string ``"NaN"``,
``"Infinity"`` or ``"-Infinity"`` (see :func:`json_float`), never as a bare
token.  Tables (the solver trace, the plot data) go through :func:`save_csv`,
which writes each float as its ``repr``, so it reads back exactly.

Determinism
-----------
A rerun of the same config is bitwise identical on the same machine with the
same BLAS thread count.  Across machines and BLAS builds, which may order
floating-point sums differently, evaluations agree to 1e-12 relative, and
quantities at roundoff level (residuals of exact identities) to 1e-14
absolute.  Solves are not bound across machines: the iteration amplifies
rounding differences, so a 1e-15 change per matrix product can move the final
residuals by 1e-3 relative.
"""

import csv
import json
import math
from pathlib import Path

import numpy as np

from .connections import NCConnection
from .errors import ShapeError

__all__ = [
    "array_to_json",
    "json_to_array",
    "state_snapshot",
    "json_float",
    "plain",
    "dumps_canonical",
    "save_report",
    "save_csv",
    "save_trace_csv",
]


def json_float(v):
    """A float for strict JSON: non-finite values become "NaN", "Infinity" or "-Infinity"."""
    v = float(v)
    return v if math.isfinite(v) else json.dumps(v)


def plain(obj):
    """Plain-Python mirror of a result tree: dict keys as strings, tuples and
    arrays as lists, numpy scalars as Python numbers, floats strict (see
    :func:`json_float`)."""
    if isinstance(obj, dict):
        return {str(k): plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return plain(obj.tolist())
    if isinstance(obj, (np.floating, float)):
        return json_float(obj)
    if isinstance(obj, (np.integer, int)) and not isinstance(obj, bool):
        return int(obj)
    return obj


def array_to_json(arr: np.ndarray) -> dict:
    """Row-major encoding: real values flat, complex values as [re, im]."""
    arr = np.asarray(arr)
    if np.iscomplexobj(arr):
        flat = arr.ravel(order="C")
        values = [[json_float(v.real), json_float(v.imag)] for v in flat]
        kind = "complex"
    else:
        values = [json_float(v) for v in arr.ravel(order="C")]
        kind = "real"
    return {"shape": list(arr.shape), "kind": kind, "values": values}


def json_to_array(obj: dict) -> np.ndarray:
    shape = tuple(obj["shape"])
    if obj["kind"] == "complex":
        vals = np.array(
            [complex(float(re), float(im)) for re, im in obj["values"]], dtype=complex
        )
    elif obj["kind"] == "real":
        vals = np.array(obj["values"], dtype=float)
    else:
        raise ShapeError(f"unknown array kind {obj['kind']!r}")
    if vals.size != int(np.prod(shape)):
        raise ShapeError("array payload does not match its declared shape")
    return vals.reshape(shape, order="C")


def state_snapshot(ncc: NCConnection) -> dict:
    """Serializable form of a field pair (a, phi); its reference is not
    written, since the run's config rebuilds it."""
    return {
        "a": {name: array_to_json(v) for name, v in ncc.a.items()},
        "phi": {name: array_to_json(v) for name, v in ncc.phi.items()},
    }


def dumps_canonical(obj) -> str:
    """Deterministic strict JSON text: sorted keys, fixed separators, newline
    end; a bare non-finite float raises ValueError instead of writing NaN."""
    text = json.dumps(obj, sort_keys=True, indent=2, separators=(",", ": "), allow_nan=False)
    return text + "\n"


def save_report(path, obj) -> None:
    Path(path).write_text(dumps_canonical(obj))


def save_csv(path, header, rows) -> None:
    """A table with one header row; floats are written as their ``repr``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(
                [repr(float(v)) if isinstance(v, (float, np.floating)) else v for v in row]
            )


def save_trace_csv(path, trace) -> None:
    """Solver trace as columns (iteration, action, grad_norm)."""
    save_csv(path, ["iteration", "action", "grad_norm"],
             ((i, s, gn) for i, (s, gn) in enumerate(trace)))
