"""The schema, the config kind tables and the CLI name the same kinds."""

from dataclasses import fields

from ncym import cli, config
from ncym.yang_mills import SolverOptions

_PROPS = config.SCHEMA["properties"]


def test_task_table_matches_config_tasks():
    assert list(cli.TASK_RUNNERS) == list(config.TASKS) == _PROPS["task"]["enum"]


def test_every_block_a_task_reads_is_in_the_schema():
    blocks = {block for blocks in config.TASKS.values() for block in blocks}
    assert blocks <= set(_PROPS)


def _schema_block(block):
    if block == "algebra":
        return _PROPS["bundle"]["properties"]["algebra"]
    if block == "representation":
        return config.SCHEMA["$defs"]["representation"]
    return _PROPS[block]


def test_schema_enums_are_the_kind_tables():
    """Each kind enum names the kinds of its table, in order, and the keys a
    block's schema admits are exactly those some kind of it reads."""
    tables = {"bundle": {k: b.keys for k, b in config.BUNDLES.items()}, **config.KINDS}
    assert set(tables) == {"bundle", "algebra", "connection", "initial", "representation"}
    for block, kinds in tables.items():
        schema = _schema_block(block)
        assert schema["properties"]["kind"]["enum"] == list(kinds), block
        read = {key for keys in kinds.values() for key in keys}
        assert set(schema["properties"]) == read | {"kind"}, block


def test_value_types_are_the_keys_kinds_read():
    """VALUES types exactly the keys some kind of a block reads (a nested
    kinded block has its own schema), and the solver keys are the fields of
    SolverOptions: a key taken out of a table takes its type with it."""
    tables = {"bundle": {k: b.keys for k, b in config.BUNDLES.items()}, **config.KINDS}
    assert set(config.VALUES) == set(tables) | {"metric", "solver", "chern"}
    for block, kinds in tables.items():
        read = {key for keys in kinds.values() for key in keys}
        assert set(config.VALUES[block]) == read - set(config.KINDS), block
    assert list(config.VALUES["solver"]) == [f.name for f in fields(SolverOptions)]


def test_bundle_tables_name_known_connections():
    for kind, bundle in config.BUNDLES.items():
        assert set(bundle.connections) <= set(config.KINDS["connection"]), kind
        rep = bundle.representation
        assert rep is None or rep["kind"] in config.KINDS["representation"], kind
