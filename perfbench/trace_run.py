"""In-process traced run of one workload: per-layer times and counts.

run.py starts this as a child, with PYTHONPATH pointing at the checkout's
src and the workload's inputs already written:

    python3 perfbench/trace_run.py --workload NAME --seed N --workdir DIR \
        --seconds S --spans-out FILE -- LIEFORGE_ARGS...

It calls ``lieforge.cli.main`` in this process, alternating untraced runs
with traced ones for about S seconds.  A traced run replaces each layer's
public functions, at the place where the consuming module binds them, with
wrappers that record spans (name, start, end, parent, counts) in memory.  A
layer's self time is its spans' time minus the time of their child spans;
``cli.self_s`` is what remains of the ``cli.main`` span.  The last line of
stdout is a JSON object with the per-layer metrics (medians over the traced
runs) and the run counts; the spans of the last traced run go to FILE.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import io
import json
import statistics
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Callable, NamedTuple, Optional

from workloads import WORKLOADS

ROOT = "cli"  # the span around lieforge.cli.main

# Wrapping only the defining module would miss callers that imported the
# name with `from .x import y`, so every consumer binding is listed.  Calls
# made inside linalg itself (nullspace -> rref) stay within one span.
LAYERS: dict[str, list[tuple[str, str]]] = {
    "specfile.instantiate": [("lieforge.specfile", "instantiate")],
    "esvla.cocycles": [("lieforge.esvla", "instantiate_cocycle")],
    "algebra.jacobi": [("lieforge.cli", "jacobi_audit"), ("lieforge.esvla", "jacobi_audit")],
    "algebra.center": [("lieforge.cli", "center"), ("lieforge.esvla", "center")],
    "algebra.alternating": [
        ("lieforge.cli", "check_alternating"),
        ("lieforge.esvla", "check_alternating"),
    ],
    "cohomology.cocycle_audit": [("lieforge.esvla", "cocycle_audit")],
    "cohomology.assembly": [
        (mod, fn)
        for mod in ("lieforge.cli", "lieforge.esvla")
        for fn in ("cocycle2_space", "coboundary2_space", "derivation_space", "inner_split")
    ],
    "linalg.eliminate": [
        ("lieforge.algebra", "nullspace"),
        ("lieforge.algebra", "rref"),
        ("lieforge.cohomology", "nullspace"),
        ("lieforge.cohomology", "rank"),
        ("lieforge.cohomology", "rref"),
        ("lieforge.snla", "rank"),
    ],
    "snla.search": [("lieforge.snla", "snla_search")],
}


def _triples(fn: str, args: tuple, result) -> dict[str, int]:
    return {
        "triples": result.examined + result.skipped_boundary,
        "skipped": result.skipped_boundary,
    }


def _matrix(fn: str, args: tuple, result) -> dict[str, int]:
    m = args[0]
    if fn == "rank":
        r = result
    elif fn == "rref":
        r = len(result.pivots)
    else:  # nullspace: one basis vector per free column
        r = m.cols - len(result)
    return {"rows": m.rows, "cols": m.cols, "nnz": m.nnz(), "rank": r}


def _search(fn: str, args: tuple, result) -> dict[str, int]:
    return {"candidates": result.examined, "instances": len(result.instances)}


# Counts a layer records from each call's arguments and result.
COUNTERS = {
    "algebra.jacobi": _triples,
    "cohomology.cocycle_audit": _triples,
    "linalg.eliminate": _matrix,
    "snla.search": _search,
}


class Totals(NamedTuple):
    """One layer's spans in one traced run, summed."""

    self_s: float
    calls: int
    counts: Counter


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0  # the base is reported next to every ratio


# name -> (layer, unit, value from the layer's totals)
METRICS: dict[str, tuple[str, str, Callable[[Totals], float]]] = {
    "specfile.instantiate_s": ("specfile.instantiate", "s", lambda t: t.self_s),
    "specfile.instantiate_calls": ("specfile.instantiate", "count", lambda t: t.calls),
    "esvla.cocycles_s": ("esvla.cocycles", "s", lambda t: t.self_s),
    "algebra.jacobi_s": ("algebra.jacobi", "s", lambda t: t.self_s),
    "algebra.jacobi_triples": ("algebra.jacobi", "count", lambda t: t.counts["triples"]),
    "algebra.jacobi_skip_ratio": (
        "algebra.jacobi", "ratio", lambda t: _ratio(t.counts["skipped"], t.counts["triples"])
    ),
    "algebra.center_s": ("algebra.center", "s", lambda t: t.self_s),
    "algebra.alternating_s": ("algebra.alternating", "s", lambda t: t.self_s),
    "cohomology.cocycle_audit_s": ("cohomology.cocycle_audit", "s", lambda t: t.self_s),
    "cohomology.cocycle_audit_triples": (
        "cohomology.cocycle_audit", "count", lambda t: t.counts["triples"]
    ),
    "cohomology.assembly_s": ("cohomology.assembly", "s", lambda t: t.self_s),
    "linalg.eliminate_s": ("linalg.eliminate", "s", lambda t: t.self_s),
    "linalg.calls": ("linalg.eliminate", "count", lambda t: t.calls),
    "linalg.rows": ("linalg.eliminate", "count", lambda t: t.counts["rows"]),
    "linalg.cols": ("linalg.eliminate", "count", lambda t: t.counts["cols"]),
    "linalg.nnz": ("linalg.eliminate", "count", lambda t: t.counts["nnz"]),
    "linalg.rank": ("linalg.eliminate", "count", lambda t: t.counts["rank"]),
    "linalg.rank_per_row": (
        "linalg.eliminate", "ratio", lambda t: _ratio(t.counts["rank"], t.counts["rows"])
    ),
    "snla.search_s": ("snla.search", "s", lambda t: t.self_s),
    "snla.candidates_per_s": (
        "snla.search", "1/s", lambda t: _ratio(t.counts["candidates"], t.self_s)
    ),
    "snla.instances": ("snla.search", "count", lambda t: t.counts["instances"]),
    "cli.self_s": (ROOT, "s", lambda t: t.self_s),
}


class Tracer:
    """Spans kept in memory; each is [name, start, end, parent, counts]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable, counter: Optional[Callable] = None) -> Callable:
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = [name, time.perf_counter(), None, parent, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                span[4] = counter(args, result)
            return result

        return traced


class Bindings:
    """Installs and removes the wrappers; records bindings that are gone."""

    def __init__(self):
        self.sites: list[tuple[object, str, Callable, str]] = []
        self.unmeasured: dict[str, list[str]] = {}
        for layer, sites in LAYERS.items():
            for mod_name, attr in sites:
                mod = importlib.import_module(mod_name)
                fn = getattr(mod, attr, None)
                if callable(fn):
                    self.sites.append((mod, attr, fn, layer))
                else:
                    self.unmeasured.setdefault(layer, []).append(f"{mod_name}.{attr}")

    def install(self, tracer: Tracer) -> None:
        for mod, attr, fn, layer in self.sites:
            counter = COUNTERS.get(layer)
            setattr(mod, attr, tracer.wrap(layer, fn, counter and functools.partial(counter, attr)))

    def remove(self) -> None:
        for mod, attr, fn, _ in self.sites:
            setattr(mod, attr, fn)


def layer_metrics(spans: list[list], unmeasured) -> dict[str, Optional[float]]:
    """Per-layer metrics of one traced run; None for unmeasured layers."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] is not None:
            own[s[3]] -= s[2] - s[1]
    totals: dict[str, Totals] = {}
    for s, t in zip(spans, own):
        prev = totals.get(s[0], Totals(0.0, 0, Counter()))
        totals[s[0]] = Totals(prev.self_s + t, prev.calls + 1, prev.counts + Counter(s[4] or {}))
    empty = Totals(0.0, 0, Counter())
    out = {
        name: None if layer in unmeasured else value(totals.get(layer, empty))
        for name, (layer, _, value) in METRICS.items()
    }
    out["trace.total_s"] = spans[0][2] - spans[0][1]
    return out


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--workdir", required=True, help="where run.py put the inputs")
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--spans-out", required=True)
    p.add_argument("argv", nargs=argparse.REMAINDER, help="-- then the lieforge arguments")
    args = p.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    check = WORKLOADS[args.workload](args.seed, Path(args.workdir)).check

    from lieforge import cli

    bindings = Bindings()
    attempted = failed = 0
    problems: list[str] = []

    def run_checked(main: Callable, label: str) -> float:
        nonlocal attempted, failed
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            t0 = time.perf_counter()
            code = main(argv)
            elapsed = time.perf_counter() - t0
        attempted += 1
        found = check(code, out.getvalue())
        if found:
            failed += 1
            problems.append(f"{label}: " + "; ".join(found))
        return elapsed

    def traced() -> tuple[float, list[list]]:
        tracer = Tracer()
        bindings.install(tracer)
        try:
            elapsed = run_checked(tracer.wrap(ROOT, cli.main), "traced")
        finally:
            bindings.remove()
        return elapsed, tracer.spans

    # Untimed warm-up: fills caches and finishes lazy set-up in this process.
    run_checked(cli.main, "warm-up")
    per_run: list[dict[str, Optional[float]]] = []
    overheads: list[float] = []
    pair_s: list[float] = []
    spans: list[list] = []
    start = time.perf_counter()
    # Start another pair only if a typical one still fits in the run.
    while not pair_s or time.perf_counter() - start + statistics.median(pair_s) <= args.seconds:
        t0 = time.perf_counter()
        # Alternate which side goes first so drift favours neither.
        if len(pair_s) % 2:
            t_traced, spans = traced()
            t_plain = run_checked(cli.main, "untraced")
        else:
            t_plain = run_checked(cli.main, "untraced")
            t_traced, spans = traced()
        pair_s.append(time.perf_counter() - t0)
        per_run.append(layer_metrics(spans, bindings.unmeasured))
        overheads.append(t_traced - t_plain)

    units = {name: unit for name, (_, unit, _) in METRICS.items()}
    units.update({"trace.total_s": "s", "trace.overhead_s": "s"})
    values = {
        k: None if v is None else statistics.median(r[k] for r in per_run)
        for k, v in per_run[0].items()
    }
    values["trace.overhead_s"] = statistics.median(overheads)
    Path(args.spans_out).write_text(
        json.dumps({"fields": ["name", "start", "end", "parent", "counts"], "spans": spans}) + "\n"
    )
    try:
        backend = importlib.import_module("lieforge.kernel").BACKEND
    except (ImportError, AttributeError):
        backend = None
    print(json.dumps({
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:10],
        "traced_runs": len(per_run),
        "unmeasured": bindings.unmeasured,
        "kernel_backend": backend,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
