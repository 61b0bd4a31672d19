"""The benchmark wraps package functions by name; each name must still resolve,
and the wrappers must see the program's own calls.

A rename during a refactor then fails here instead of inside a traced
benchmark run, and so does a call path that bypasses a probed name (its
per-layer time would read 0).
"""
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from test_golden import short_run

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def probes(monkeypatch):
    """``perfbench/probes.py``, loaded without changing it."""
    monkeypatch.syspath_prepend(str(PERFBENCH))  # probes.py imports its sibling spans.py
    spec = importlib.util.spec_from_file_location("perfbench_probes", PERFBENCH / "probes.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_every_layer_probe_resolves_to_a_callable(probes):
    unresolved = []
    for probe in probes.LAYER_PROBES:
        module_name, _, path = probe.target.partition(":")
        owner = importlib.import_module(f"longtail_lab.{module_name}")
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            unresolved.append(probe.target)
    assert len(probes.LAYER_PROBES) > 40
    assert unresolved == []


def test_probes_see_a_two_stage_run_with_a_background_class(probes, tmp_path):
    tracer = probes.Tracer()
    restore = probes.install(tracer, probes.LAYER_PROBES)
    try:
        root = tracer.begin("test.op")
        short_run(tmp_path / "run", one_stage=False, background_class=0)
        tracer.end(root)
    finally:
        restore()
    totals = probes.totals_by_root(tracer)[root]
    assert probes.train_time(totals) > 0
    assert probes.rows_drawn(totals) > 0
    for method in probes.STAGE2_METHODS:
        assert totals.calls.get(f"model.train_stage2.{method}") == 1, method
    for name in ("heads.bags_train_heads", "heads.build_group_layout", "heads.bags_scores",
                 "heads.ssb_aggregate"):
        assert totals.calls.get(name, 0) >= 1, name
