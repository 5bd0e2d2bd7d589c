"""The per-layer tracing of perfbench/trace_run.py wraps names bound in the
package's modules; each of them must still resolve to a callable, or a
layer's metrics silently read None, and still be called by the workloads
that reach its layer, or they silently read zero."""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_trace_run(monkeypatch):
    # trace_run imports its sibling `workloads`; nothing is written there
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("trace_run", PERFBENCH / "trace_run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_layers(monkeypatch) -> dict:
    return _load_trace_run(monkeypatch).LAYERS


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


def test_triple_counters_read_the_audit_record_only(monkeypatch):
    # the traced triple counts are the audits' examined and skipped triples,
    # read without building a single violation object
    from lieforge import esvla
    from lieforge.algebra import Audit

    counters = _load_trace_run(monkeypatch).COUNTERS
    built = []
    real = Audit.violation
    monkeypatch.setattr(
        Audit, "violation", lambda self, e: built.append(e) or real(self, e)
    )
    rep = esvla.audit_esvla(esvla.EsvlaConfig(6))
    read = [("algebra.jacobi", "jacobi_audit", rep.jacobi)]
    read += [
        ("cohomology.cocycle_audit", "cocycle_audit", aud)
        for _, aud in sorted(rep.cocycles.items())
    ]
    for layer, fn, audit in read:
        counts = counters[layer](fn, (), audit)
        assert counts == {
            "triples": audit.examined + audit.skipped_boundary,
            "skipped": audit.skipped_boundary,
        }
        assert audit.examined > 0 and audit.found
    assert built == []
    assert len(rep.jacobi.violations) == len(built) == len(rep.jacobi.found)


# The layers each benchmark workload reaches with seed 0.  A name that stays
# bound but is no longer called would read zero without any error, so each
# workload runs under perfbench's own wrappers.  Update these sets whenever
# the benchmark's layers or workloads change.
FIRED = {
    "esvla_audit": {
        "algebra.alternating",
        "algebra.center",
        "algebra.jacobi",
        "cohomology.assembly",
        "cohomology.cocycle_audit",
        "esvla.cocycles",
        "linalg.eliminate",
        "specfile.instantiate",
    },
    "witt_cohomology": {"cohomology.assembly", "linalg.eliminate", "specfile.instantiate"},
    "snla_search": {"linalg.eliminate", "snla.search"},
}


def test_every_layer_is_called_by_the_workloads(monkeypatch, tmp_path, capsys):
    from lieforge import cli

    trace_run = _load_trace_run(monkeypatch)
    assert set(trace_run.WORKLOADS) == set(FIRED)
    assert set().union(*FIRED.values()) == set(trace_run.LAYERS)
    for name, prepare in trace_run.WORKLOADS.items():
        prep = prepare(0, tmp_path)
        bindings, tracer = trace_run.Bindings(), trace_run.Tracer()
        bindings.install(tracer)
        try:
            code = cli.main(prep.argv)
        finally:
            bindings.remove()
        assert prep.check(code, capsys.readouterr().out) == [], name
        assert bindings.unmeasured == {}
        assert {span[0] for span in tracer.spans} == FIRED[name], name
