"""The runtime invariant suite passes, filters, and contains failures."""

import re
from dataclasses import replace

import numpy as np
import pytest

import ncym.selfcheck as sc


def test_all_checks_pass():
    results = sc.run_selfcheck()
    failed = [r for r in results if not r.passed]
    assert failed == []
    assert len(results) >= 20


def test_module_filter():
    results = sc.run_selfcheck("yang_mills")
    assert results
    assert all(r.module == "yang_mills" for r in results)


def test_unknown_filter_is_empty():
    assert sc.run_selfcheck("no_such_module") == []


def test_crashing_check_is_reported_not_raised(monkeypatch):
    def boom():
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr(sc, "_CHECKS", [("demo", "explodes", boom)])
    (result,) = sc.run_selfcheck()
    assert not result.passed
    assert "synthetic failure" in result.detail


def test_wedge_associativity_check_fails_on_nan(monkeypatch):
    real = sc.random_form

    def poisoned(*args, **kwargs):
        form = real(*args, **kwargs)
        next(iter(form.comps.values()))[0, 0, 0] = np.nan
        return form

    monkeypatch.setattr(sc, "random_form", poisoned)
    passed, detail = sc._check_wedge_associativity()
    assert not passed
    assert "nan" in detail.lower()


def test_transition_round_trip_check_fails_on_nan(monkeypatch):
    """The check builds its instanton through the config, so the bundle is
    poisoned where :func:`ncym.config.build_problem` looks it up."""
    import ncym.config

    real = ncym.config.instanton_bundle

    def poisoned(npts, **kwargs):
        man, lb, rep = real(npts, **kwargs)
        nan = replace(man.overlaps[0], transition=lambda x: np.full(x.shape[:-1] + (2, 2), np.nan))
        return replace(man, overlaps=(nan,) + man.overlaps[1:]), lb, rep

    monkeypatch.setattr(ncym.config, "instanton_bundle", poisoned)
    passed, detail = sc._check_transition_round_trip()
    assert not passed
    assert "nan" in detail.lower()


def test_lc_flat_check_fails_on_a_nonzero_family(monkeypatch):
    """Every symbol family counts, not only the zero-strided hh_v."""
    real = sc.christoffel

    def shifted(riem):
        table = real(riem)
        return replace(table, hv_h={k: v + 1e-3 for k, v in table.hv_h.items()})

    monkeypatch.setattr(sc, "christoffel", shifted)
    passed, _ = sc._check_lc_flat()
    assert not passed


def _poison_last_chern_component(real):
    def poisoned(conn, q):
        cf = real(conn, q)
        last = list(cf.comps.values())[-1]
        key = max(last)
        last[key] = last[key].copy()
        last[key].flat[-1] = np.nan
        return cf

    return poisoned


NAN = float("nan")


@pytest.mark.parametrize(
    "check,target,make",
    [
        (sc._check_structure, "build_su",
         lambda real: lambda n: replace(real(n), structure=np.full((3, 3, 3), NAN))),
        (sc._check_canonical_action, "grad_norm", lambda real: lambda grad: NAN),
        (sc._check_canonical_flat_on_instanton, "vacuum_residuals",
         lambda real: lambda ncc, riem: (0.0, 0.0, NAN)),
        (sc._check_lc_flat, "residual_table",
         lambda real: lambda riem: {"torsion": 0.0, "metricity": 0.0, "koszul": NAN}),
        (sc._check_lc_constant_regime, "residual_table",
         lambda real: lambda riem: {"torsion": 0.0, "metricity": 0.0, "koszul": NAN}),
        (sc._check_first_class_traceless, "chern_form", _poison_last_chern_component),
    ],
    ids=["structure", "canonical-action", "canonical-flat-on-instanton", "lc-flat",
         "lc-constant-regime", "first-class-traceless"],
)
def test_nan_reads_as_fail(check, target, make, monkeypatch):
    """A NaN behind a zero or finite value fails the check instead of being
    dropped by the reduction (builtin max(0.0, nan) is 0.0)."""
    monkeypatch.setattr(sc, target, make(getattr(sc, target)))
    passed, detail = check()
    assert not passed
    assert "nan" in detail.lower()


def test_format_table_summarizes():
    results = sc.run_selfcheck("lie_core")
    text = sc.format_table(results)
    assert "pass" in text
    assert text.strip().endswith("0 failed")
    # every check row carries its wall time
    assert all(r.seconds >= 0.0 for r in results)
    rows = text.splitlines()[:-1]
    assert len(rows) == len(results)
    assert all(re.search(r"  (pass|FAIL) +\d+\.\d{2}s  ", row) for row in rows)
