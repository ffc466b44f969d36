"""Experiment configuration: schema validation, defaults, problem assembly.

A config document is a single JSON object selecting a bundle, a reference
connection, an initial field pair, and a task.  The bundle fixes the base
metric (flat on the torus, round on the sphere) and the charge of a monopole
connection; the optional ``metric`` block sets only the fiber metric.  Every
setting must change the run: :data:`TASKS` gives the optional blocks each
task reads, and :data:`BUNDLES` and :data:`KINDS` the keys each kind of
bundle, algebra, connection, initial field pair and representation reads,
with their defaults.  :data:`SCHEMA` is derived from these tables, and
:data:`VALUES` gives only each key's value type.  :func:`resolve` validates
before any computation, fills the defaults in and refuses any other block
or key; every run records the resolved document verbatim in its report.

Every JSON file ncym reads, a config or the report a plot starts from,
goes through :func:`read`, which refuses NaN and Infinity tokens, unreadable
files, invalid JSON and anything but an object with a ConfigError.  The
Chern-Weil degree has no freedom: a degree-q form integrates over a
2q-dimensional base, so ``chern.degree`` defaults to half the base dimension,
and an odd-dimensional base or any other degree is refused at resolve time.
"""

import copy
import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import NamedTuple

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

__all__ = ["read", "resolve", "build_problem", "SCHEMA", "TASKS", "BUNDLES", "KINDS", "VALUES"]

# task -> the optional blocks it reads; any other block is refused
TASKS = {
    "eval": ("metric", "initial"),
    "solve": ("metric", "initial", "solver", "snapshots"),
    "classify": ("metric", "initial"),
    "chern": ("chern",),
    "lc-check": ("metric",),
    "geom-check": (),
}

# the default of a seed key: the document's seed
SEED = object()


class BundleKind(NamedTuple):
    keys: dict  # bundle key it reads -> default (None: no default)
    base_dim: int | None  # None: the bundle's "dim" sets it
    connections: tuple  # the reference connection kinds it admits, default first
    representation: dict | None = None  # default; None: the bundle fixes its own


BUNDLES = {
    "torus": BundleKind(
        {"npts": None, "dim": 2, "side": float(2.0 * np.pi), "algebra": {"kind": "su"}},
        None, ("zero", "constant", "random"), {"kind": "fundamental"},
    ),
    "instanton": BundleKind({"npts": None, "radius": 1.0, "margin": 1.6}, 4, ("bpst", "zero")),
    "monopole": BundleKind(
        {"npts": None, "charge": 1, "radius": 1.0, "margin": 1.6}, 2, ("monopole", "zero")
    ),
}

_RANDOM_INITIAL = {"seed": SEED, "amplitude": 0.5, "x_dependent": False}

# block -> kind -> the keys that kind reads, with their defaults (None: no
# default, SEED: the document's seed); a bundle's keys are in BUNDLES
KINDS = {
    "algebra": {"su": {"n": 2}, "u1": {}},
    "representation": {
        "trivial": {"dim": 1}, "fundamental": {}, "adjoint": {},
        "spin": {"j": None}, "sum": {"parts": None},
    },
    "connection": {
        "zero": {}, "constant": {"coeffs": None}, "random": {"seed": SEED, "amplitude": 0.3},
        "bpst": {"rho": 1.0}, "monopole": {},
    },
    "initial": {
        "canonical": {}, "zero": {},
        "random": _RANDOM_INITIAL, "canonical-plus-random": _RANDOM_INITIAL,
    },
}

_NUMBER = {"type": "number"}
_POSITIVE = {"type": "number", "exclusiveMinimum": 0}
_SEED = {"type": "integer", "minimum": 0}
_MATRIX = {"type": "array", "items": {"type": "array", "items": _NUMBER}}

# block -> key -> the JSON schema of its value; BUNDLES and KINDS give which
# keys a kinded block admits and requires, SolverOptions the solver's keys
VALUES = {
    "bundle": {
        "dim": {"type": "integer", "minimum": 1, "maximum": 4},
        "npts": {"type": "integer", "minimum": 8},
        "side": _POSITIVE,
        "radius": _POSITIVE,
        "margin": {"type": "number", "exclusiveMinimum": 1},
        "charge": {"type": "integer"},
    },
    "algebra": {"n": {"type": "integer", "minimum": 2}},
    "representation": {
        "dim": {"type": "integer", "minimum": 1},
        "j": {"type": "number", "minimum": 0},
        "parts": {"type": "array", "minItems": 1, "items": {"$ref": "#/$defs/representation"}},
    },
    "metric": {"internal": _MATRIX},
    "connection": {"coeffs": _MATRIX, "seed": _SEED, "amplitude": _NUMBER, "rho": _POSITIVE},
    "initial": {"seed": _SEED, "amplitude": _NUMBER, "x_dependent": {"type": "boolean"}},
    "solver": {
        "max_iters": {"type": "integer", "minimum": 1},
        "tol": _POSITIVE,
        "momentum": {"type": "number", "minimum": 0, "maximum": 1},
    },
    "chern": {"degree": {"type": "integer", "minimum": 1}},
}
_MATRICES = [(b, k) for b, keys in VALUES.items() for k in keys if keys[k] is _MATRIX]


def _kinded(block: str, kinds: dict, **nested) -> dict:
    """The schema of a kinded block from ``kinds`` (kind -> the keys it reads
    with their defaults) and the schemas of the kinded blocks ``nested`` in
    it: a key no kind gives a default is required, and one that only some
    kinds leave without a default is required of those kinds."""
    props = {"kind": {"enum": list(kinds)}, **VALUES[block], **nested}
    required, conditions = ["kind"], []
    for key in props:
        bare = [kind for kind, keys in kinds.items() if key in keys and keys[key] is None]
        if len(bare) == len(kinds):
            required.append(key)
        else:
            conditions += [{"if": {"properties": {"kind": {"const": kind}}},
                            "then": {"required": [key]}} for kind in bare]
    schema = {"type": "object", "properties": props, "required": required,
              "additionalProperties": False}
    return {**schema, "allOf": conditions} if conditions else schema


def _plain(block: str, **bounds) -> dict:
    """The schema of a block without kinds: the keys ``VALUES`` gives it."""
    return {"type": "object", "properties": VALUES[block], **bounds,
            "additionalProperties": False}


SCHEMA = {
    "type": "object",
    "$defs": {"representation": _kinded("representation", KINDS["representation"])},
    "properties": {
        "task": {"enum": list(TASKS)},
        "bundle": _kinded("bundle", {kind: b.keys for kind, b in BUNDLES.items()},
                          algebra=_kinded("algebra", KINDS["algebra"])),
        "representation": {"$ref": "#/$defs/representation"},
        "metric": _plain("metric", minProperties=1),
        "connection": _kinded("connection", KINDS["connection"]),
        "initial": _kinded("initial", KINDS["initial"]),
        "solver": _plain("solver"),
        "chern": _plain("chern"),
        "seed": _SEED,
        "output_dir": {"type": "string"},
        "snapshots": {"type": "boolean"},
    },
    "required": ["task", "bundle"],
    "additionalProperties": False,
}


# the validator jsonschema.validate builds on every call, with SCHEMA checked
# against its meta-schema once
_VALIDATOR = jsonschema.validators.validator_for(SCHEMA)(SCHEMA)
_VALIDATOR.check_schema(SCHEMA)


def _refuse_constant(token: str):
    """``parse_constant`` of :func:`read`: JSON has no NaN or infinity."""
    raise ConfigError(f"config holds {token}, which is not a JSON number")


def read(path) -> dict:
    """The JSON object in the file at ``path``, read strictly."""
    try:
        doc = json.loads(Path(path).read_text(), parse_constant=_refuse_constant)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path} does not hold a JSON object")
    return doc


def _fill(block: str, spec: dict, seed: int, keys: dict | None = None) -> None:
    """Refuse every key of a kinded block that its kind does not read, and
    fill in the defaults of those it does, down to the parts of a sum."""
    kind = spec["kind"]
    keys = KINDS[block][kind] if keys is None else keys
    for key in spec:
        if key != "kind" and key not in keys:
            raise ConfigError(f"a {kind} {block} does not read {key!r}")
    for key, default in keys.items():
        if key not in spec:  # SCHEMA requires every key without a default
            spec[key] = seed if default is SEED else copy.deepcopy(default)
    for part in spec.get("parts", ()):
        _fill("representation", part, seed)


def resolve(doc: dict) -> dict:
    """Validate a raw document and return it with the defaults filled in."""
    # the error jsonschema.validate would raise, without re-checking SCHEMA
    error = jsonschema.exceptions.best_match(_VALIDATOR.iter_errors(doc))
    if error is not None:
        path = ".".join(map(str, error.absolute_path))  # empty at the top level
        where = f"{path}: " if path else ""
        raise ConfigError(f"config rejected: {where}{error.message}") from error
    for block, key in _MATRICES:
        lengths = {len(row) for row in doc.get(block, {}).get(key, ())}
        if len(lengths) > 1:  # rows of one length, which a schema cannot ask for
            raise ConfigError(f"config rejected: {block}.{key}: rows of lengths {sorted(lengths)}")
    doc = copy.deepcopy(doc)
    seed = doc.setdefault("seed", 0)
    task, bundle = doc["task"], doc["bundle"]
    kind = bundle["kind"]
    spec = BUNDLES[kind]
    _fill("bundle", bundle, seed, spec.keys)
    if "algebra" in bundle:
        _fill("algebra", bundle["algebra"], seed)
    # the blocks in table order, so that the first refused is always the same
    for block in (b for blocks in TASKS.values() for b in blocks):
        if block in doc and block not in TASKS[task]:
            raise ConfigError(f"task {task!r} does not read {block!r}")

    _fill("connection", doc.setdefault("connection", {"kind": spec.connections[0]}), seed)
    if spec.representation is not None:
        doc.setdefault("representation", copy.deepcopy(spec.representation))
    if "representation" in doc:
        _fill("representation", doc["representation"], seed)
    if "initial" in TASKS[task]:
        _fill("initial", doc.setdefault("initial", {"kind": "canonical"}), seed)
    if task == "solve":
        doc["solver"] = {**asdict(SolverOptions()), **doc.get("solver", {})}
        doc.setdefault("snapshots", False)

    conn = doc["connection"]["kind"]
    if conn not in spec.connections:
        raise ConfigError(f"connection kind {conn!r} not available on a {kind} bundle")
    if spec.representation is None and "representation" in doc:
        raise ConfigError(f"the {kind} bundle fixes its own representation")
    if task == "chern":
        dim = spec.base_dim or bundle["dim"]
        if dim % 2:
            raise ConfigError(f"a chern run needs an even-dimensional base, not a "
                              f"{dim}-dimensional one: it integrates a top-degree form")
        degree = doc.setdefault("chern", {}).setdefault("degree", dim // 2)
        if degree != dim // 2:
            raise ConfigError(
                f"chern.degree {degree} cannot saturate a {dim}-dimensional base: "
                "a degree-q Chern-Weil form needs a 2q-dimensional base"
            )
    return doc


def _build_rep(lb, spec: dict):
    params = {key: value for key, value in spec.items() if key != "kind"}
    if "parts" in params:
        params["parts"] = [_build_rep(lb, part) for part in params["parts"]]
    return build_representation(lb, spec["kind"], **params)


@dataclass(frozen=True)
class Problem:
    """Everything a task needs, assembled from one resolved config."""

    man: object
    basis: object
    rep: object
    conn: object  # reference ordinary connection
    riem: object  # Riemannian structure sharing that reference, None for chern
    init: object  # initial NCConnection, None when the task reads none


def build_problem(doc: dict) -> Problem:
    """Assemble the problem of a resolved document (see :func:`resolve`)."""
    bundle = doc["bundle"]
    kind = bundle["kind"]
    # resolve leaves in a kinded block only the keys its builder reads
    params = {key: value for key, value in bundle.items() if key not in ("kind", "algebra")}
    if kind == "torus":
        man = build_torus(**params)
        alg = bundle["algebra"]
        lb = build_su(alg["n"]) if alg["kind"] == "su" else build_u1()
        rep = _build_rep(lb, doc["representation"])
    else:
        man, lb, rep = (instanton_bundle if kind == "instanton" else monopole_bundle)(**params)

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

    # the Chern-Weil integral is metric-free
    riem = None
    if doc["task"] != "chern":
        base = flat_metric(man) if kind == "torus" else round_sphere_metric(man)
        internal = doc["metric"]["internal"] if "metric" in doc else np.eye(lb.dim)
        riem = assemble(base, np.asarray(internal, dtype=float), conn)

    ispec = doc.get("initial")
    if ispec is None:
        init = None
    elif ispec["kind"] == "canonical":
        init = canonical_ncc(conn)
    elif ispec["kind"] == "zero":
        init = zero_ncc(conn)
    else:
        init = random_ncc(conn, ispec["seed"], ispec["amplitude"], ispec["x_dependent"])
        if ispec["kind"] == "canonical-plus-random":
            for ch in man.charts:
                init.phi[ch.name] = init.phi[ch.name] + rep.matrices
    return Problem(man=man, basis=lb, rep=rep, conn=conn, riem=riem, init=init)
