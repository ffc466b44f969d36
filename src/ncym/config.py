"""Experiment configuration: schema validation, defaults, problem assembly.

A config document is a single JSON object selecting a bundle, a reference
connection, an initial field pair, and a task.  The bundle fixes the base
metric (flat on the torus, round on the sphere) and the charge of a monopole
connection; the optional ``metric`` block sets only the fiber metric.  Every
setting must change the run: a bundle accepts only the keys its kind reads,
and ``metric`` (eval, solve, classify, lc-check), ``initial`` (eval, solve,
classify), ``solver`` and ``snapshots`` (solve) and ``chern`` (chern) are
accepted, and defaulted where they have defaults, only for those tasks.
Validation happens before any computation; the fully resolved document
(defaults filled in) is what every run records verbatim in its report, so a
report always carries the exact inputs that produced it.
"""

import copy
from dataclasses import asdict, dataclass

import jsonschema
import numpy as np

from .connections import (
    bpst_connection,
    constant_connection,
    canonical_ncc,
    instanton_bundle,
    monopole_bundle,
    monopole_connection,
    random_connection,
    random_ncc,
    zero_connection,
    zero_ncc,
)
from .errors import ConfigError
from .geometry import build_torus, flat_metric, round_sphere_metric
from .lie_core import build_representation, build_su, build_u1
from .metric import assemble
from .yang_mills import SolverOptions

__all__ = ["resolve", "build_problem", "SCHEMA"]

TASKS = ["eval", "solve", "classify", "chern", "lc-check", "geom-check"]

# the bundle keys each bundle kind reads; any other key is refused
BUNDLE_KEYS = {
    "torus": {"kind", "npts", "dim", "side", "algebra"},
    "instanton": {"kind", "npts", "radius", "margin"},
    "monopole": {"kind", "npts", "charge", "radius", "margin"},
}

# the tasks that read each optional block; the block is refused elsewhere
TASK_BLOCKS = {
    "metric": {"eval", "solve", "classify", "lc-check"},
    "initial": {"eval", "solve", "classify"},
    "solver": {"solve"},
    "snapshots": {"solve"},
    "chern": {"chern"},
}

SCHEMA = {
    "type": "object",
    "$defs": {
        "representation": {
            "type": "object",
            "properties": {
                "kind": {"enum": ["trivial", "fundamental", "adjoint", "spin", "sum"]},
                "dim": {"type": "integer", "minimum": 1},
                "j": {"type": "number", "minimum": 0},
                "parts": {
                    "type": "array",
                    "minItems": 1,
                    "items": {"$ref": "#/$defs/representation"},
                },
            },
            "required": ["kind"],
            "additionalProperties": False,
            "allOf": [
                {
                    "if": {"properties": {"kind": {"const": "spin"}}},
                    "then": {"required": ["j"]},
                },
                {
                    "if": {"properties": {"kind": {"const": "sum"}}},
                    "then": {"required": ["parts"]},
                },
            ],
        }
    },
    "properties": {
        "task": {"enum": TASKS},
        "bundle": {
            "type": "object",
            "properties": {
                "kind": {"enum": ["torus", "instanton", "monopole"]},
                "dim": {"type": "integer", "minimum": 1, "maximum": 4},
                "npts": {"type": "integer", "minimum": 8},
                "side": {"type": "number", "exclusiveMinimum": 0},
                "radius": {"type": "number", "exclusiveMinimum": 0},
                "margin": {"type": "number", "exclusiveMinimum": 1},
                "charge": {"type": "integer"},
                "algebra": {
                    "type": "object",
                    "properties": {
                        "kind": {"enum": ["su", "u1"]},
                        "n": {"type": "integer", "minimum": 2},
                    },
                    "required": ["kind"],
                    "additionalProperties": False,
                },
            },
            "required": ["kind", "npts"],
            "additionalProperties": False,
        },
        "representation": {"$ref": "#/$defs/representation"},
        "metric": {
            "type": "object",
            "properties": {
                "internal": {
                    "type": "array",
                    "items": {"type": "array", "items": {"type": "number"}},
                },
            },
            "minProperties": 1,
            "additionalProperties": False,
        },
        "connection": {
            "type": "object",
            "properties": {
                "kind": {"enum": ["zero", "constant", "random", "bpst", "monopole"]},
                "coeffs": {
                    "type": "array",
                    "items": {"type": "array", "items": {"type": "number"}},
                },
                "seed": {"type": "integer"},
                "amplitude": {"type": "number"},
                "rho": {"type": "number", "exclusiveMinimum": 0},
            },
            "required": ["kind"],
            "additionalProperties": False,
        },
        "initial": {
            "type": "object",
            "properties": {
                "kind": {"enum": ["canonical", "zero", "random", "canonical-plus-random"]},
                "seed": {"type": "integer"},
                "amplitude": {"type": "number"},
                "x_dependent": {"type": "boolean"},
            },
            "required": ["kind"],
            "additionalProperties": False,
        },
        "solver": {
            "type": "object",
            "properties": {
                "max_iters": {"type": "integer", "minimum": 1},
                "tol": {"type": "number", "exclusiveMinimum": 0},
                "momentum": {"type": "number", "minimum": 0, "maximum": 1},
            },
            "additionalProperties": False,
        },
        "chern": {
            "type": "object",
            "properties": {"degree": {"type": "integer", "minimum": 1}},
            "additionalProperties": False,
        },
        "seed": {"type": "integer"},
        "output_dir": {"type": "string"},
        "snapshots": {"type": "boolean"},
    },
    "required": ["task", "bundle"],
    "additionalProperties": False,
}


def _compile(schema: dict):
    """The validator ``jsonschema.validate`` builds on every call, with the
    schema checked against its meta-schema once."""
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


_VALIDATOR = _compile(SCHEMA)


def _defaults_for(doc: dict) -> dict:
    doc = copy.deepcopy(doc)
    bundle = doc["bundle"]
    kind = bundle["kind"]
    if kind == "torus":
        bundle.setdefault("dim", 2)
        bundle.setdefault("side", float(2.0 * np.pi))
        bundle.setdefault("algebra", {"kind": "su", "n": 2})
        if bundle["algebra"]["kind"] == "su":
            bundle["algebra"].setdefault("n", 2)
        doc.setdefault("representation", {"kind": "fundamental"})
        doc.setdefault("connection", {"kind": "zero"})
    elif kind == "instanton":
        bundle.setdefault("radius", 1.0)
        bundle.setdefault("margin", 1.6)
        doc.setdefault("connection", {"kind": "bpst", "rho": 1.0})
    else:  # monopole
        bundle.setdefault("charge", 1)
        bundle.setdefault("radius", 1.0)
        bundle.setdefault("margin", 1.6)
        doc.setdefault("connection", {"kind": "monopole"})
    conn = doc["connection"]
    if conn["kind"] == "random":
        conn.setdefault("seed", doc.get("seed", 0))
        conn.setdefault("amplitude", 0.3)
    if conn["kind"] == "bpst":
        conn.setdefault("rho", 1.0)
    task = doc["task"]
    if task in TASK_BLOCKS["initial"]:
        doc.setdefault("initial", {"kind": "canonical"})
        init = doc["initial"]
        if init["kind"] in ("random", "canonical-plus-random"):
            init.setdefault("seed", doc.get("seed", 0))
            init.setdefault("amplitude", 0.5)
            init.setdefault("x_dependent", False)
    if task == "solve":
        doc["solver"] = {**asdict(SolverOptions()), **doc.get("solver", {})}
        doc.setdefault("snapshots", False)
    if task == "chern":
        doc.setdefault("chern", {})
        doc["chern"].setdefault("degree", 2 if kind == "instanton" else 1)
    doc.setdefault("seed", 0)
    return doc


def resolve(doc: dict) -> dict:
    """Validate a raw document and return it with the defaults filled in."""
    # the error jsonschema.validate would raise, without re-checking SCHEMA
    error = jsonschema.exceptions.best_match(_VALIDATOR.iter_errors(doc))
    if error is not None:
        raise ConfigError(f"config rejected: {error.message}") from error
    resolved = _defaults_for(doc)
    _cross_check(resolved)
    return resolved


def _cross_check(doc: dict) -> None:
    bundle = doc["bundle"]
    kind = bundle["kind"]
    for key in bundle:
        if key not in BUNDLE_KEYS[kind]:
            raise ConfigError(f"a {kind} bundle does not read {key!r}")
    for block, tasks in TASK_BLOCKS.items():
        if block in doc and doc["task"] not in tasks:
            raise ConfigError(f"task {doc['task']!r} does not read {block!r}")
    conn = doc["connection"]["kind"]
    allowed = {
        "torus": {"zero", "constant", "random"},
        "instanton": {"zero", "bpst"},
        "monopole": {"zero", "monopole"},
    }[kind]
    if conn not in allowed:
        raise ConfigError(f"connection kind {conn!r} not available on a {kind} bundle")
    if kind != "torus" and "representation" in doc:
        raise ConfigError(f"the {kind} bundle fixes its own representation")
    if conn == "constant" and "coeffs" not in doc["connection"]:
        raise ConfigError("constant connection needs its coefficient matrix")


def _build_rep(lb, spec: dict):
    kind = spec["kind"]
    if kind == "trivial":
        return build_representation(lb, "trivial", dim=spec.get("dim", 1))
    if kind == "spin":
        return build_representation(lb, "spin", j=spec["j"])
    if kind == "sum":
        parts = [_build_rep(lb, p) for p in spec["parts"]]
        return build_representation(lb, "sum", parts=parts)
    return build_representation(lb, kind)


@dataclass(frozen=True)
class Problem:
    """Everything a task needs, assembled from one resolved config."""

    man: object
    basis: object
    rep: object
    conn: object  # reference ordinary connection
    riem: object  # Riemannian structure sharing that reference
    init: object  # initial NCConnection, None when the task reads none


def build_problem(doc: dict) -> Problem:
    """Assemble the problem of a resolved document (see :func:`resolve`)."""
    bundle = doc["bundle"]
    kind = bundle["kind"]
    if kind == "torus":
        man = build_torus(bundle["dim"], bundle["npts"], bundle["side"])
        alg = bundle["algebra"]
        lb = build_su(alg["n"]) if alg["kind"] == "su" else build_u1()
        rep = _build_rep(lb, doc["representation"])
    elif kind == "instanton":
        man, lb, rep = instanton_bundle(
            bundle["npts"], radius=bundle["radius"], margin=bundle["margin"]
        )
    else:
        man, lb, rep = monopole_bundle(
            bundle["npts"], bundle["charge"],
            radius=bundle["radius"], margin=bundle["margin"],
        )

    cspec = doc["connection"]
    if cspec["kind"] == "zero":
        conn = zero_connection(man, lb, rep)
    elif cspec["kind"] == "constant":
        conn = constant_connection(man, lb, rep, np.asarray(cspec["coeffs"], dtype=float))
    elif cspec["kind"] == "random":
        conn = random_connection(man, lb, rep, cspec["seed"], cspec["amplitude"])
    elif cspec["kind"] == "bpst":
        conn = bpst_connection(man, lb, rep, rho=cspec["rho"])
    else:
        conn = monopole_connection(man, lb, rep, bundle["charge"])

    base = flat_metric(man) if kind == "torus" else round_sphere_metric(man)
    internal = (
        np.asarray(doc["metric"]["internal"], dtype=float)
        if "metric" in doc
        else np.eye(lb.dim)
    )
    riem = assemble(base, internal, conn)

    ispec = doc.get("initial")
    if ispec is None:
        init = None
    elif ispec["kind"] == "canonical":
        init = canonical_ncc(conn)
    elif ispec["kind"] == "zero":
        init = zero_ncc(conn)
    else:
        init = random_ncc(
            conn, ispec["seed"], ispec["amplitude"], ispec["x_dependent"]
        )
        if ispec["kind"] == "canonical-plus-random":
            for ch in man.charts:
                init.phi[ch.name] = init.phi[ch.name] + rep.matrices
    return Problem(man=man, basis=lb, rep=rep, conn=conn, riem=riem, init=init)
