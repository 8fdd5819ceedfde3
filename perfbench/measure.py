"""Stdlib-only measurement helpers shared by the workloads.

Nothing here imports ``repro``: the host-drift probe must run before the
program is loaded, and the set-up probes time the program's imports in
fresh child processes.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: Repetitions of the host-drift loop per run; the median is reported.
CALIB_REPEATS = 5


def calibration_loop() -> int:
    """A fixed pure-Python workload (integer arithmetic, a dict and a list
    sort): the same bytecode every run, so its time tracks only the host."""
    acc = 0
    table: dict[int, int] = {}
    for i in range(200_000):
        acc = (acc * 31 + i) % 1_000_003
        table[acc & 0xFFFF] = i
    return acc + len(sorted(table.values()))


def host_calibration() -> float:
    """Median seconds of :func:`calibration_loop` (the ``host.calib_s`` probe)."""
    times = []
    for _ in range(CALIB_REPEATS):
        t0 = time.perf_counter()
        calibration_loop()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]; 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def peak_rss_mb(*, children: bool = False) -> float:
    """Peak resident set size in MB of this process, or with ``children``
    of the largest descendant that has been waited for."""
    import resource

    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def route_figures(counters: dict, rows: list[dict]) -> dict:
    """The route layer's work counts and ratios, from a snapshot of the
    program's counters and its per-connection search rows."""
    connections = counters.get("route.connections", 0)
    failures = counters.get("route.connection_failures", 0)
    retries = counters.get("route.retries", 0)
    pops = sum(int(r.get("pops", 0)) for r in rows)
    escalated = sum(int(r.get("pops", 0)) for r in rows if r.get("escalated"))
    # How close the initial bend bound came to the bends found: 1.0 = exact.
    tightness = [
        min(1.0, (r["bound"][0] + 1) / (r["cost"][0] + 1))
        for r in rows
        if r.get("found") and r.get("bound") and r.get("cost")
    ]
    return {
        "route.expansions": counters.get("route.expansions", 0),
        "route.connections": connections,
        "route.heur_escalations": counters.get("route.heur_escalations", 0),
        "route.astar_pruned": counters.get("route.astar_pruned", 0),
        "route.expansions_per_connection": share(
            counters.get("route.expansions", 0), connections
        ),
        "route.escalated_pops_share": share(escalated, pops),
        "route.bound_tightness_p50": percentile(tightness, 50),
        "route.connection_failures": failures,
        "route.connection_success_share": 1.0 - share(failures, connections),
        "route.retries": retries,
        "route.retry_recovered_share": share(
            counters.get("route.retry_recovered", 0), retries
        ),
    }


def program_env(root: Path) -> dict[str, str]:
    """Environment for a child that runs the program from ``root/src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def import_probe(root: Path, modules: list[str]) -> float:
    """Seconds from spawning a fresh interpreter until it has imported
    ``modules`` and said so: the program's set-up as a CLI user pays it."""
    code = "".join(f"import {m}\n" for m in modules) + "print('ready', flush=True)\n"
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", code],
        stdout=subprocess.PIPE,
        env=program_env(root),
        cwd=root,
        text=True,
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    finally:
        proc.wait(timeout=60)
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"import probe failed (exit {proc.returncode})")
    return elapsed


def route_digest(routes: dict[str, list[list[tuple[int, int]]]]) -> str:
    """Hash of every net's sorted paths: equal digests mean equal routes."""
    canon = {
        name: sorted([list(map(list, path)) for path in paths])
        for name, paths in sorted(routes.items())
    }
    blob = json.dumps(canon, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]
