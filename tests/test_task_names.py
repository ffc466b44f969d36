"""The CLI dispatches every task the config schema admits, and no other."""

from ncym import cli, config


def test_task_table_matches_config_tasks():
    assert sorted(cli.TASK_RUNNERS) == sorted(config.TASKS)
