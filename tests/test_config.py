"""Config schema, defaults, cross checks, and problem assembly."""

from dataclasses import asdict, fields

import jsonschema
import numpy as np
import pytest

from ncym.config import SCHEMA, build_problem, resolve
from ncym.connections import monopole_connection
from ncym.errors import ConfigError
from ncym.geometry import _spd_inverse, flat_metric, grid_points, round_sphere_metric
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
        assert np.array_equal(p.riem.base.conf[ch.name], want.conf[ch.name])
        assert np.array_equal(p.riem.base.dense(ch.name), want.dense(ch.name))


@pytest.mark.parametrize("bundle", [{"kind": "instanton", "npts": 8},
                                    {"kind": "monopole", "npts": 8, "charge": 2}])
def test_charts_on_one_grid_share_one_base_metric(bundle):
    """Both stereographic charts are built on the same grid, so the set-up
    forms |x|^2, the round-sphere conformal factor c, sqrt(det) and the
    volume density once and both charts hold the same read-only arrays.
    The blocks formed on demand and sqrt(det) are bitwise what the dense
    inverse of the c I blocks gives."""
    p = build_problem(resolve({"task": "geom-check", "bundle": bundle}))
    base, r = p.riem.base, p.man.params["radius"]
    for table in (p.man.rho2, base.conf, base.sqrt_det, p.riem.sqrtg):
        assert table["north"] is table["south"]
        with pytest.raises(ValueError, match="read-only"):
            table["south"][...] = 1.0
    for ch in p.man.charts:
        x = grid_points(ch)
        g = (4.0 * r**4 / (r**2 + np.sum(x * x, axis=-1)) ** 2)[..., None, None] * np.eye(ch.dim)
        inv, sqrt_det = _spd_inverse(ch.name, g, "base metric")
        sqrtg = sqrt_det * p.riem.sqrt_det_int[ch.name]
        for got, want in ((base.dense(ch.name), g), (base.dense_inverse(ch.name), inv),
                          (base.sqrt_det[ch.name], sqrt_det), (p.riem.sqrtg[ch.name], sqrtg)):
            assert got.tobytes() == want.tobytes()


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
        _torus(representation={"kind": "sum"}),
        {"task": "eval", "bundle": {"kind": "torus"}},
    ],
)
def test_rejections(doc):
    with pytest.raises(ConfigError):
        resolve(doc)


# each rejected document with the key path its message names
SCHEMA_REJECTIONS = [
    ({"task": "mystery", "bundle": {"kind": "torus", "npts": 8}}, "task: "),
    ({"task": "eval"}, ""),
    (_torus(bundle={"kind": "torus", "npts": 4}), "bundle.npts: "),
    (_torus(surprise=1), ""),
    (_torus(solver={"momentum": 1.5}), "solver.momentum: "),
    (_torus(representation={"kind": "spin"}), "representation: "),
    (_torus(representation={"kind": "sum", "parts": [{"kind": "spin"}]}),
     "representation.parts.0: "),
    # a key without a default: "'coeffs' is a required property", and so on
    (_torus(connection={"kind": "constant"}), "connection: "),
    (_torus(representation={"kind": "sum"}), "representation: "),
    ({"task": "eval", "bundle": {"kind": "torus"}}, "bundle: "),
]


@pytest.mark.parametrize(
    "doc, path", SCHEMA_REJECTIONS, ids=[f"doc{i}" for i in range(len(SCHEMA_REJECTIONS))]
)
def test_schema_rejections_keep_the_jsonschema_message(doc, path):
    """jsonschema's message, after the key path of the offending value (none
    at the top level, where the message names the key)."""
    with pytest.raises(jsonschema.ValidationError) as want:
        jsonschema.validate(doc, SCHEMA)
    with pytest.raises(ConfigError) as got:
        resolve(doc)
    assert str(got.value) == f"config rejected: {path}{want.value.message}"


@pytest.mark.parametrize(
    "doc, path",
    [
        (_torus(seed=-1), "seed"),
        (_torus(initial={"kind": "random", "seed": -1}), "initial.seed"),
        (_torus(connection={"kind": "random", "seed": -4}), "connection.seed"),
    ],
)
def test_negative_seed_is_rejected_naming_its_key(doc, path):
    """numpy's generators take no negative seed; the schema refuses one and
    says which key holds it."""
    value = -4 if path == "connection.seed" else -1
    with pytest.raises(ConfigError) as got:
        resolve(doc)
    assert str(got.value) == f"config rejected: {path}: {value} is less than the minimum of 0"


def test_zero_seed_is_accepted():
    doc = resolve(_torus(seed=0, initial={"kind": "random", "seed": 0},
                         connection={"kind": "random", "seed": 0}))
    assert build_problem(doc).init is not None


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


def test_metric_built_only_where_read():
    """The Chern-Weil integral is metric-free, so a chern set-up assembles no
    Riemannian structure; geom-check reads its base metric."""
    bundle = {"kind": "instanton", "npts": 8}
    assert build_problem(resolve({"task": "chern", "bundle": bundle})).riem is None
    for task in ("geom-check", "lc-check", "eval"):
        assert build_problem(resolve({"task": task, "bundle": bundle})).riem is not None


def test_build_sum_representation():
    doc = _torus(
        representation={
            "kind": "sum",
            "parts": [{"kind": "spin", "j": 0.5}, {"kind": "trivial", "dim": 1}],
        }
    )
    p = build_problem(resolve(doc))
    assert p.rep.k == 3


def test_trivial_representation_records_its_dim():
    """A trivial representation is one-dimensional unless its config says
    otherwise, and the resolved config records the dim the run uses."""
    doc = resolve(_torus(representation={"kind": "trivial"}))
    assert doc["representation"] == {"kind": "trivial", "dim": 1}
    assert build_problem(doc).rep.k == 1
    doc = resolve(_torus(representation={"kind": "sum", "parts": [
        {"kind": "fundamental"}, {"kind": "trivial"}, {"kind": "trivial", "dim": 2}]}))
    assert doc["representation"]["parts"][1:] == [
        {"kind": "trivial", "dim": 1}, {"kind": "trivial", "dim": 2}]
    assert build_problem(doc).rep.k == 5


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


def _count_eigh(monkeypatch):
    calls = []
    eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return calls


@pytest.mark.parametrize("task", ["geom-check", "lc-check"])
def test_diagonal_metrics_are_inverted_without_eigh(monkeypatch, task):
    # the base metric is the scalar c, never inverted as a block; the
    # default fiber metric is diagonal and takes the closed path
    calls = _count_eigh(monkeypatch)
    p = build_problem(resolve({"task": task, "bundle": {"kind": "instanton", "npts": 12}}))
    assert p.riem is not None
    assert calls == []


def test_non_diagonal_fiber_metric_takes_one_eigh(monkeypatch):
    """The config's one fiber block serves both charts, and is inverted once."""
    internal = [[2.0, 0.5, 0.0], [0.5, 2.0, 0.0], [0.0, 0.0, 1.0]]
    calls = _count_eigh(monkeypatch)
    p = build_problem(resolve({"task": "lc-check", "bundle": {"kind": "instanton", "npts": 12},
                               "metric": {"internal": internal}}))
    assert calls == [(3, 3)]
    assert p.riem.sqrtg["north"] is p.riem.sqrtg["south"]


def test_build_random_initial_is_seeded():
    doc = _torus(initial={"kind": "random", "seed": 11, "amplitude": 0.2})
    p1 = build_problem(resolve(doc))
    p2 = build_problem(resolve(doc))
    name = p1.man.charts[0].name
    assert np.array_equal(p1.init.phi[name], p2.init.phi[name])
