"""Config schema, defaults, cross checks, and problem assembly."""

import jsonschema
import numpy as np
import pytest

from ncym.config import SCHEMA, build_problem, resolve
from ncym.errors import ConfigError


def _torus(**over):
    doc = {"task": "eval", "bundle": {"kind": "torus", "npts": 8}}
    doc.update(over)
    return doc


def test_torus_defaults():
    cfg = resolve(_torus())
    doc = cfg.resolved
    assert doc["bundle"]["dim"] == 2
    assert doc["bundle"]["algebra"] == {"kind": "su", "n": 2}
    assert doc["representation"] == {"kind": "fundamental"}
    assert doc["metric"] == {"kind": "flat"}
    assert doc["connection"] == {"kind": "zero"}
    assert doc["initial"] == {"kind": "canonical"}
    assert doc["solver"]["max_iters"] == 400
    assert doc["seed"] == 0


def test_instanton_defaults():
    cfg = resolve({"task": "chern", "bundle": {"kind": "instanton", "npts": 8}})
    doc = cfg.resolved
    assert doc["connection"] == {"kind": "bpst", "rho": 1.0}
    assert doc["metric"]["kind"] == "round-sphere"
    assert doc["chern"]["degree"] == 2


def test_monopole_defaults_inherit_charge():
    cfg = resolve(
        {"task": "chern", "bundle": {"kind": "monopole", "npts": 8, "charge": 3}}
    )
    assert cfg.resolved["connection"] == {"kind": "monopole", "charge": 3}
    assert cfg.resolved["chern"]["degree"] == 1


def test_seed_flows_into_sub_seeds():
    cfg = resolve(_torus(seed=42, initial={"kind": "random"}))
    assert cfg.resolved["initial"]["seed"] == 42
    cfg2 = resolve(_torus(seed=42, initial={"kind": "random", "seed": 9}))
    assert cfg2.resolved["initial"]["seed"] == 9


@pytest.mark.parametrize(
    "doc",
    [
        {"task": "mystery", "bundle": {"kind": "torus", "npts": 8}},
        {"task": "eval"},
        _torus(bundle={"kind": "torus", "npts": 4}),
        _torus(surprise=1),
        _torus(connection={"kind": "bpst"}),
        _torus(metric={"kind": "round-sphere"}),
        _torus(connection={"kind": "constant"}),
        {"task": "eval", "bundle": {"kind": "instanton", "npts": 8},
         "representation": {"kind": "adjoint"}},
        _torus(solver={"momentum": 1.5}),
        _torus(representation={"kind": "spin"}),
    ],
)
def test_rejections(doc):
    with pytest.raises(ConfigError):
        resolve(doc)


@pytest.mark.parametrize(
    "doc",
    [
        {"task": "mystery", "bundle": {"kind": "torus", "npts": 8}},
        {"task": "eval"},
        _torus(bundle={"kind": "torus", "npts": 4}),
        _torus(surprise=1),
        _torus(solver={"momentum": 1.5}),
        _torus(representation={"kind": "spin"}),
        _torus(representation={"kind": "sum", "parts": [{"kind": "spin"}]}),
    ],
)
def test_schema_rejections_keep_the_jsonschema_message(doc):
    with pytest.raises(jsonschema.ValidationError) as want:
        jsonschema.validate(doc, SCHEMA)
    with pytest.raises(ConfigError) as got:
        resolve(doc)
    assert str(got.value) == f"config rejected: {want.value.message}"


def test_resolved_document_validates_again():
    # the resolved form is itself a valid document: reports can be re-run
    cfg = resolve(_torus(seed=3))
    again = resolve(cfg.resolved)
    assert again.resolved == cfg.resolved


def test_build_torus_problem():
    p = build_problem(resolve(_torus()))
    assert p.basis.dim == 3
    assert p.rep.k == 2
    assert p.riem.conn is p.conn
    name = p.man.charts[0].name
    assert np.all(p.init.phi[name][..., 0, :, :] == p.rep.matrices[0])


def test_build_sum_representation():
    doc = _torus(
        representation={
            "kind": "sum",
            "parts": [{"kind": "spin", "j": 0.5}, {"kind": "trivial", "dim": 1}],
        }
    )
    p = build_problem(resolve(doc))
    assert p.rep.k == 3


def test_build_u1_torus():
    doc = _torus(bundle={"kind": "torus", "npts": 8, "algebra": {"kind": "u1"}})
    p = build_problem(resolve(doc))
    assert p.basis.dim == 1
    assert p.rep.k == 1


def test_build_internal_metric_override():
    internal = (np.eye(3) * [1.0, 2.0, 3.0]).tolist()
    p = build_problem(resolve(_torus(metric={"kind": "flat", "internal": internal})))
    name = p.man.charts[0].name
    assert p.riem.internal[name][0, 0, 2, 2] == 3.0


def test_build_random_initial_is_seeded():
    doc = _torus(initial={"kind": "random", "seed": 11, "amplitude": 0.2})
    p1 = build_problem(resolve(doc))
    p2 = build_problem(resolve(doc))
    name = p1.man.charts[0].name
    assert np.array_equal(p1.init.phi[name], p2.init.phi[name])
