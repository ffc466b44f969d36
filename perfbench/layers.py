"""Per-layer tracing: wrap the public functions of each ncym module from outside.

Every wrapped call records one span; a function's self time is its span
durations minus the parts covered by wrapped calls made inside them.  The
wrappers are installed at every binding site -- modules such as
``yang_mills`` bind ``from .connections import nc_curvature``, so patching
``connections`` alone would miss their calls -- and the originals are put
back when tracing ends, so untraced runs pay nothing.
"""

import importlib
import sys
import time
from contextlib import contextmanager
from functools import wraps

# layer (ncym module) -> wrapped public functions
LAYERS = {
    "config": ("resolve", "build_problem"),
    "geometry": (
        "build_torus",
        "build_sphere_two_charts",
        "partial_derivative",
        "adjoint_partial_derivative",
        "interp_chart",
    ),
    "connections": ("nc_curvature", "curvature_F", "gluing_residuals", "bpst_connection"),
    "metric": ("assemble",),
    "yang_mills": ("solve_vacuum", "action", "gradient", "vacuum_residuals", "classify_vacuum"),
    "chern_weil": ("chern_form", "chern_number", "closedness_residual"),
    "levi_civita": (
        "christoffel",
        "torsion_residual",
        "metricity_residual",
        "koszul_residual",
        "residual_table",
    ),
    "serialize": ("save_report", "save_trace_csv"),
}


def _elements(arr, chart, axis, order=2):
    return arr.size


def _points(chart, arr, pts, method="linear"):
    return pts.size // pts.shape[-1]


# work counts recorded beside the call counts: metric name -> (function, count)
COUNTS = {
    "geometry.partial_derivative.elems": ("geometry.partial_derivative", _elements),
    "geometry.interp_chart.points": ("geometry.interp_chart", _points),
}

# calls per solver iteration: metric name -> counted function
PER_ITER = {
    "connections.nc_curvature.calls_per_iter": "connections.nc_curvature",
    "yang_mills.action.calls_per_iter": "yang_mills.action",
}


def function_names() -> list:
    return [f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns]


def metric_units() -> dict:
    """Every per-layer metric a traced run reports, with its unit."""
    units = {}
    for name in function_names():
        units[f"{name}.calls"] = "count"
        units[f"{name}.total_s"] = "s"
        units[f"{name}.self_s"] = "s"
    units.update({name: "count" for name in COUNTS})
    units.update({name: "calls/iter" for name in PER_ITER})
    return units


class Tracer:
    """Call counts, total and self time per wrapped function."""

    def __init__(self):
        self.calls = dict.fromkeys(function_names(), 0)
        self.total = dict.fromkeys(function_names(), 0.0)
        self.self_time = dict.fromkeys(function_names(), 0.0)
        self.counts = dict.fromkeys(COUNTS, 0)
        self._children = []  # per open span: time covered by wrapped calls

    def _wrap(self, name, fn):
        counters = [(metric, count) for metric, (target, count) in COUNTS.items()
                    if target == name]

        @wraps(fn)
        def traced(*args, **kwargs):
            for metric, count in counters:
                self.counts[metric] += count(*args, **kwargs)
            self._children.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                covered = self._children.pop()
                self.calls[name] += 1
                self.total[name] += elapsed
                self.self_time[name] += elapsed - covered
                if self._children:
                    self._children[-1] += elapsed

        return traced

    @contextmanager
    def installed(self):
        """Wrap every binding of the traced functions in loaded ncym modules."""
        wrappers = {}
        for name in function_names():
            mod, fn = name.split(".")
            original = getattr(importlib.import_module(f"ncym.{mod}"), fn)
            wrappers[id(original)] = (original, self._wrap(name, original))
        patched = []
        for modname, module in list(sys.modules.items()):
            if modname != "ncym" and not modname.startswith("ncym."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    setattr(module, attr, wrappers[id(value)][1])
                    patched.append((module, attr, value))
        try:
            yield
        finally:
            for module, attr, value in patched:
                setattr(module, attr, value)

    def metrics(self, solve_iters: int) -> dict:
        """Per-layer values; ratios per iteration are 0 when nothing was solved."""
        out = {}
        for name in function_names():
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.total_s"] = self.total[name]
            out[f"{name}.self_s"] = self.self_time[name]
        out.update(self.counts)
        for metric, target in PER_ITER.items():
            out[metric] = self.calls[target] / solve_iters if solve_iters else 0.0
        return out
