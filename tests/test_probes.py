"""The benchmark wraps package functions by name; each name must still resolve.

A rename during a refactor then fails here instead of inside a traced
benchmark run.
"""
import importlib
import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_layer_probe_resolves_to_a_callable(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # probes.py imports its sibling spans.py
    spec = importlib.util.spec_from_file_location("perfbench_probes", PERFBENCH / "probes.py")
    probes = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, probes)  # its dataclasses look it up
    spec.loader.exec_module(probes)
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
