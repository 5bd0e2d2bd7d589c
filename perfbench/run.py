"""End-to-end benchmark of the lieforge CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` it runs the workload's CLI command as a child process,
one at a time in a closed loop with a single client, for S seconds, checks
every report against the workload's known answer and prints the end-to-end
metrics.  With ``--trace 1`` it starts perfbench/trace_run.py instead,
which times each layer in-process, and prints the per-layer metrics.
Either way the last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; the line before it holds the run's
metadata.  README.md in this directory describes workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import NamedTuple, Optional

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = HERE / ".work"

SETUP_PROBES = 11
# Every run must end within 180 s; children get what is left of this.
HARD_LIMIT_S = 165.0
CHILD_LIMIT_S = 60.0
# Imports nothing beyond lieforge.cli; reports the kernel backend if the
# package still has lieforge.kernel.
SETUP_PROBE = (
    "import sys, lieforge.cli; "
    "print(getattr(sys.modules.get('lieforge.kernel'), 'BACKEND', None))"
)

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_share": "ratio"}


class Child(NamedTuple):
    code: Optional[int]  # None when killed at its time limit
    wall_s: float
    max_rss_mb: float
    stdout: str
    stderr: str


def child_env() -> dict[str, str]:
    """Environment for every child: this checkout's sources, a fixed hash
    seed (GeneratorId hashes strings, so set and dict layouts would vary
    between processes) and no LIEFORGE_* settings such as LIEFORGE_WORKERS.
    .pyc files are written next to the sources, as in an install."""
    env = {
        k: v
        for k, v in os.environ.items()
        if not k.startswith("LIEFORGE_")
        and k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")
    }
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(argv: list[str], env: dict[str, str], limit_s: float) -> Child:
    """Run one child to completion; time it from spawn until it has exited
    and its output is captured, and take its peak RSS from wait4."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    out: dict[str, bytes] = {}
    readers = [
        threading.Thread(target=lambda k=k, f=f: out.__setitem__(k, f.read()))
        for k, f in (("out", proc.stdout), ("err", proc.stderr))
    ]
    for r in readers:
        r.start()
    killed = threading.Event()

    def kill() -> None:
        killed.set()
        proc.kill()

    timer = threading.Timer(max(limit_s, 0.1), kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    for r in readers:
        r.join()
    wall = time.perf_counter() - t0
    proc.stdout.close()
    proc.stderr.close()
    return Child(
        None if killed.is_set() else proc.returncode,
        wall,
        usage.ru_maxrss / 1024.0,  # Linux reports kilobytes
        out["out"].decode("utf-8", "replace"),
        out["err"].decode("utf-8", "replace"),
    )


def tail_percentile(samples: list[float]) -> Optional[dict]:
    """Highest of a few percentiles with at least ten samples beyond it."""
    n = len(samples)
    for p in (99.9, 99, 95, 90, 75, 50):
        if n * (1 - p / 100) >= 10:
            cut = statistics.quantiles(samples, n=1000, method="inclusive")
            return {"p": p, "value": cut[round(p * 10) - 1]}
    return None


def src_census() -> dict:
    """Line count and digest of the files under src/, caches excluded."""
    lines = 0
    digest = hashlib.sha256()
    files = sorted(
        p for p in SRC.rglob("*")
        if p.is_file() and "__pycache__" not in p.parts and p.suffix not in (".pyc", ".so")
    )
    for p in files:
        data = p.read_bytes()
        lines += data.count(b"\n")
        digest.update(str(p.relative_to(SRC)).encode() + b"\0" + data)
    return {"src_files": len(files), "src_lines": lines, "src_sha256": digest.hexdigest()[:16]}


def commit() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None  # the benchmark may run in an exported tree
    res = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
    )
    return res.stdout.strip() or None


def measure_end_to_end(prepared, seconds: float, deadline: float) -> tuple[dict, dict]:
    env = child_env()
    cli = [sys.executable, "-m", "lieforge", *prepared.argv]
    attempted = failed = 0
    problems: list[str] = []

    def run_checked() -> Child:
        nonlocal attempted, failed
        c = spawn(cli, env, min(CHILD_LIMIT_S, deadline - time.perf_counter()))
        attempted += 1
        found = ["killed at its time limit"] if c.code is None else prepared.check(c.code, c.stdout)
        if found:
            failed += 1
            problems.append("; ".join(found) + (f" [stderr: {c.stderr.strip()[-300:]}]" if c.stderr.strip() else ""))
        return c

    # Untimed warm-up: .pyc compilation stays out of wall_s and setup_s.
    run_checked()
    setup: list[float] = []
    backends = set()
    for _ in range(SETUP_PROBES):
        c = spawn([sys.executable, "-c", SETUP_PROBE], env, min(CHILD_LIMIT_S, deadline - time.perf_counter()))
        if c.code != 0:
            raise RuntimeError(f"set-up probe failed: {c.stderr.strip()[-300:]}")
        setup.append(c.wall_s)
        backends.add(c.stdout.strip())
    walls: list[float] = []
    rss: list[float] = []
    start = time.perf_counter()
    # Start another invocation only if a typical one still fits in the run.
    while not walls or time.perf_counter() - start + statistics.median(walls) <= seconds:
        c = run_checked()
        walls.append(c.wall_s)
        rss.append(c.max_rss_mb)
    values = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(rss),
        "ok_share": (attempted - failed) / attempted,
    }
    metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    meta = {
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "problems": problems[:10],
        "wall_s_samples": len(walls),
        "wall_s_values": walls,
        "wall_s_tail": tail_percentile(walls),
        "setup_s_samples": len(setup),
        "kernel_backend": ",".join(sorted(backends)),
    }
    return metrics, meta


def measure_layers(name: str, seed: int, prepared, seconds: float, deadline: float) -> tuple[dict, dict]:
    spans_out = WORKDIR / f"spans-{name}-seed{seed}.json"
    c = spawn(
        [
            sys.executable, str(HERE / "trace_run.py"),
            "--workload", name, "--seed", str(seed), "--workdir", str(WORKDIR),
            "--seconds", str(seconds), "--spans-out", str(spans_out), "--", *prepared.argv,
        ],
        child_env(),
        deadline - time.perf_counter(),
    )
    if c.code != 0:
        raise RuntimeError(f"traced run failed ({c.code}): {c.stderr.strip()[-500:]}")
    res = json.loads(c.stdout.strip().splitlines()[-1])
    meta = {k: res[k] for k in ("attempted", "failed", "problems", "traced_runs", "unmeasured", "kernel_backend")}
    meta["spans_file"] = str(spans_out.relative_to(ROOT))
    return res["metrics"], meta


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    deadline = time.perf_counter() + HARD_LIMIT_S
    if not (SRC / "lieforge" / "cli.py").is_file():
        print(f"perfbench: no lieforge sources under {SRC}", file=sys.stderr)
        return 2
    WORKDIR.mkdir(exist_ok=True)
    prepared = WORKLOADS[args.workload](args.seed, WORKDIR)
    if args.trace:
        metrics, meta = measure_layers(args.workload, args.seed, prepared, args.seconds, deadline)
    else:
        metrics, meta = measure_end_to_end(prepared, args.seconds, deadline)
    meta.update(
        workload=args.workload,
        seed=args.seed,
        seed_input=prepared.seed_input,
        argv=["lieforge", *(Path(a).name if a.startswith(str(ROOT)) else a for a in prepared.argv)],
        python=platform.python_version(),
        nproc=len(os.sched_getaffinity(0)),
        commit=commit(),
        **src_census(),
    )
    print(json.dumps({"metadata": meta}, sort_keys=True))
    print(json.dumps({
        "correct": meta["failed"] == 0,
        "attempted": meta["attempted"],
        "failed": meta["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
