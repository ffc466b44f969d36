"""Config schema, defaults, cross checks, and problem assembly."""

from dataclasses import asdict, fields

import jsonschema
import numpy as np
import pytest

from ncym.config import SCHEMA, build_problem, resolve
from ncym.connections import monopole_connection
from ncym.errors import ConfigError
from ncym.geometry import flat_metric, round_sphere_metric
from ncym.yang_mills import SolverOptions


def _torus(**over):
    doc = {"task": "eval", "bundle": {"kind": "torus", "npts": 8}}
    doc.update(over)
    return doc


def test_torus_defaults():
    doc = resolve(_torus())
    assert doc["bundle"]["dim"] == 2
    assert doc["bundle"]["algebra"] == {"kind": "su", "n": 2}
    assert doc["representation"] == {"kind": "fundamental"}
    assert "metric" not in doc  # the base metric follows the bundle
    assert doc["connection"] == {"kind": "zero"}
    assert doc["initial"] == {"kind": "canonical"}
    assert doc["seed"] == 0
    # an eval reads no solver settings, so none are filled in
    assert "solver" not in doc and "snapshots" not in doc
    solve = resolve(_torus(task="solve"))
    assert solve["solver"]["max_iters"] == 400
    assert solve["snapshots"] is False


def test_instanton_defaults():
    doc = resolve({"task": "chern", "bundle": {"kind": "instanton", "npts": 8}})
    assert doc["connection"] == {"kind": "bpst", "rho": 1.0}
    assert "metric" not in doc
    assert doc["chern"]["degree"] == 2
    # a chern task reads neither an initial field pair nor solver settings
    assert not {"initial", "solver", "snapshots"} & set(doc)


@pytest.mark.parametrize(
    "bundle,base",
    [
        ({"kind": "torus", "npts": 8}, flat_metric),
        ({"kind": "instanton", "npts": 8}, round_sphere_metric),
        ({"kind": "monopole", "npts": 8}, round_sphere_metric),
    ],
)
def test_base_metric_follows_the_bundle(bundle, base):
    p = build_problem(resolve({"task": "eval", "bundle": bundle}))
    want = base(p.man)
    for ch in p.man.charts:
        assert np.array_equal(p.riem.base.g[ch.name], want.g[ch.name])


def test_monopole_defaults_inherit_charge():
    """The monopole connection takes the bundle's charge; it has none of its own."""
    doc = resolve({"task": "chern", "bundle": {"kind": "monopole", "npts": 8, "charge": 3}})
    assert doc["connection"] == {"kind": "monopole"}
    assert doc["chern"]["degree"] == 1
    p = build_problem(doc)
    want = monopole_connection(p.man, p.basis, p.rep, 3)
    for ch in p.man.charts:
        assert np.array_equal(p.conn.A[ch.name], want.A[ch.name])


def test_solver_schema_is_solver_options():
    """Every solver key a config may set is a SolverOptions field, and back."""
    assert set(SCHEMA["properties"]["solver"]["properties"]) == {
        f.name for f in fields(SolverOptions)
    }
    assert resolve(_torus(task="solve"))["solver"] == asdict(SolverOptions())


def test_seed_flows_into_sub_seeds():
    doc = resolve(_torus(seed=42, initial={"kind": "random"}))
    assert doc["initial"]["seed"] == 42
    doc2 = resolve(_torus(seed=42, initial={"kind": "random", "seed": 9}))
    assert doc2["initial"]["seed"] == 9


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
    doc = resolve(_torus(seed=3))
    assert resolve(doc) == doc


def test_build_torus_problem():
    p = build_problem(resolve(_torus()))
    assert p.basis.dim == 3
    assert p.rep.k == 2
    assert p.riem.conn is p.conn
    name = p.man.charts[0].name
    assert np.all(p.init.phi[name][..., 0, :, :] == p.rep.matrices[0])


def test_initial_field_pair_built_only_where_read():
    bundle = {"kind": "instanton", "npts": 8}
    assert build_problem(resolve({"task": "geom-check", "bundle": bundle})).init is None
    assert build_problem(resolve({"task": "eval", "bundle": bundle})).init is not None


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
    p = build_problem(resolve(_torus(metric={"internal": internal})))
    name = p.man.charts[0].name
    assert p.riem.internal[name][0, 0, 2, 2] == 3.0


def test_build_random_initial_is_seeded():
    doc = _torus(initial={"kind": "random", "seed": 11, "amplitude": 0.2})
    p1 = build_problem(resolve(doc))
    p2 = build_problem(resolve(doc))
    name = p1.man.charts[0].name
    assert np.array_equal(p1.init.phi[name], p2.init.phi[name])
