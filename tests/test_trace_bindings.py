"""The per-layer tracing of perfbench/trace_run.py wraps names bound in the
package's modules; each of them must still resolve to a callable, or a
layer's metrics silently read None."""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_layers(monkeypatch) -> dict:
    # trace_run imports its sibling `workloads`; nothing is written there
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("trace_run", PERFBENCH / "trace_run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def test_every_traced_binding_is_a_callable(monkeypatch):
    layers = _load_layers(monkeypatch)
    sites = [(layer, mod, attr) for layer, pairs in layers.items() for mod, attr in pairs]
    missing = [
        f"{layer}: {mod}.{attr}"
        for layer, mod, attr in sites
        if not callable(getattr(importlib.import_module(mod), attr, None))
    ]
    assert missing == []
    assert sites
