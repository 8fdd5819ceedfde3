"""The ``served_mix`` workload: seeded open-loop HTTP load on ``artwork-serve``.

The gateway runs as its own process with ``--workers nproc`` (the CPUs
this process may run on) and a fresh on-disk result cache.  The benchmark
process generates the jobs from the seed, then sends them from at most
nproc keep-alive connections at Poisson arrival times of a fixed rate,
whatever the gateway's progress (an open loop).  A job's latency runs from
the moment it was *due* to be sent to the gateway's ``finished_at``, so a
stalled sender is charged to the jobs behind it.

The mix: random networks of 6 to 10 modules, the paper's example1 and
example2 runs of Table 6.1, and datapath_network(2, 3) jobs as the slow
tail, in the same numbers on every seed.  Exactly a quarter of the jobs
repeat an earlier spec, half of those a recent one, so both cache hits
and in-flight dedup occur.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from lifeflow import postconditions
from measure import (
    peak_rss_mb,
    percentile,
    program_env,
    route_digest,
    route_figures,
    share,
)

from repro.core.metrics import diagram_metrics
from repro.formats.escher import read_escher, write_escher
from repro.obs.trace import Span
from repro.place.pablo import PabloOptions
from repro.service.jobs import JobSpec
from repro.workloads.datapath import datapath_network
from repro.workloads.examples import example1_string, example2_controller
from repro.workloads.random_nets import random_network

#: Offered load in jobs/s, fixed on every host: about a quarter of what a
#: closed-loop burst of this mix completes through a 2-worker gateway on a
#: 2-core host (73 jobs/s with 4 clients), so the median latency is mostly
#: a job's execution (median queue wait under 1 ms there).  On a host with
#: more CPUs the gateway gets more workers, so the same rate is a lighter
#: load.
RATE = 20.0
#: Every run sends at least this many jobs, so p99 has ten samples beyond it.
MIN_JOBS = 1000
REPEAT_SHARE = 0.25
#: Shares of the fresh (non-repeat) specs by kind; the rest are random.
EXAMPLE_SHARE = 0.01
DATAPATH_SHARE = 0.03
#: Gateway boots per run; the median is ``setup_s``, the last one serves.
BOOTS = 5
#: Job kinds whose work is the same on every seed.  Served quality is summed
#: over these only, so it is as deterministic as the LIFE figures.
FIXED_KINDS = ("example", "datapath")
#: PABLO's six stages, each recorded by the program as a ``pablo.<stage>`` span.
PABLO_STAGES = [
    "partitioning",
    "box_formation",
    "module_placement",
    "box_placement",
    "partition_placement",
    "terminal_placement",
]

#: The paper's example runs (Table 6.1, figures 6.1-6.4) as (network,
#: PABLO -p, -b).  Fresh example jobs cycle through them in equal numbers.
PAPER_EXAMPLES = [
    ("example1", 7, 7),
    ("example2", 1, 1),
    ("example2", 5, 1),
    ("example2", 7, 5),
]


@dataclass(frozen=True)
class Recipe:
    """What one job computes, before it is turned into a JobSpec.

    Example and datapath jobs are the same few designs submitted under
    distinct design names: distinct specs (no cache hit) with fixed work,
    so every seed has the same slow tail."""

    kind: str  # "random" | "example" | "datapath"
    a: int  # random: module count; example: index into PAPER_EXAMPLES
    b: int  # random: network seed; others: design number


@dataclass(frozen=True)
class Plan:
    recipes: list[Recipe]
    due: list[float]  # send offsets in seconds from the window start

    @property
    def repeat_share(self) -> float:
        seen: set[Recipe] = set()
        repeats = 0
        for recipe in self.recipes:
            repeats += recipe in seen
            seen.add(recipe)
        return repeats / len(self.recipes)


def plan_mix(seed: int, count: int) -> Plan:
    """The seeded job sequence and send schedule (cheap: RNG draws only)."""
    rng = random.Random(seed)
    n_repeat = round(count * REPEAT_SHARE)
    repeat_at = set(rng.sample(range(1, count), n_repeat))
    n_fresh = count - n_repeat
    n_datapath = round(n_fresh * DATAPATH_SHARE)
    examples = [
        i for i in range(len(PAPER_EXAMPLES))
        for _ in range(round(n_fresh * EXAMPLE_SHARE / len(PAPER_EXAMPLES)))
    ]
    fresh = [("datapath", 0)] * n_datapath + [("example", i) for i in examples]
    fresh += [("random", 0)] * (n_fresh - len(fresh))
    rng.shuffle(fresh)
    names = iter(rng.sample(range(1 << 30), n_fresh))
    recipes: list[Recipe] = []
    kinds = iter(fresh)
    for i in range(count):
        if i in repeat_at:
            back = rng.randint(1, min(i, 4)) if rng.random() < 0.5 else rng.randint(1, i)
            recipes.append(recipes[i - back])
            continue
        kind, example = next(kinds)
        if kind == "random":
            recipes.append(Recipe("random", rng.randint(6, 10), next(names)))
        else:
            recipes.append(Recipe(kind, example, next(names)))
    due, t = [], 0.0
    for _ in range(count):
        due.append(t)
        t += rng.expovariate(RATE)
    return Plan(recipes, due)


def materialize(recipe: Recipe) -> JobSpec:
    if recipe.kind == "random":
        network = random_network(modules=recipe.a, seed=recipe.b)
        return JobSpec.from_network(network)
    if recipe.kind == "datapath":
        network, pablo = datapath_network(lanes=2, stages=3), PabloOptions()
    else:
        which, p, b = PAPER_EXAMPLES[recipe.a]
        factory = example1_string if which == "example1" else example2_controller
        network, pablo = factory(), PabloOptions(partition_size=p, box_size=b)
    network.name = f"{network.name}_{recipe.b}"
    return JobSpec.from_network(network, pablo)


def build_bodies(plan: Plan) -> tuple[list[bytes], list[str], dict[str, JobSpec]]:
    """JSON bodies and digests per job, plus the spec behind each digest."""
    by_recipe: dict[Recipe, tuple[bytes, str]] = {}
    specs: dict[str, JobSpec] = {}
    bodies, digests = [], []
    for recipe in plan.recipes:
        if recipe not in by_recipe:
            spec = materialize(recipe)
            by_recipe[recipe] = (json.dumps(spec.to_dict()).encode(), spec.digest)
            specs[spec.digest] = spec
        body, digest = by_recipe[recipe]
        bodies.append(body)
        digests.append(digest)
    return bodies, digests, specs


def self_check(seed: int, count: int, plan: Plan, digests: list[str]) -> list[str]:
    """The generator's own gate: the same seed gives the same schedule and
    spec digests; another seed gives another mix with the same repeat share."""
    problems = []
    again = plan_mix(seed, count)
    if again != plan:
        problems.append("the same seed gave a different job plan or schedule")
    sample = sorted(set(range(0, count, max(1, count // 32))))
    if [materialize(plan.recipes[i]).digest for i in sample] != [digests[i] for i in sample]:
        problems.append("the same recipe gave a different spec digest")
    other = plan_mix(seed + 1, count)
    if other.recipes == plan.recipes or other.due == plan.due:
        problems.append("another seed gave the same mix")
    if other.repeat_share != plan.repeat_share:
        problems.append(
            f"repeat share differs across seeds: {other.repeat_share} vs {plan.repeat_share}"
        )
    if len(set(digests)) != len(set(plan.recipes)):
        problems.append("distinct recipes collided on one spec digest")
    return problems


# -- the gateway process --------------------------------------------------


class Gateway:
    """One ``artwork-serve`` child process."""

    def __init__(self, root: Path, workers: int, cache_dir: Path, log_path: Path):
        self.workers = workers
        started = time.perf_counter()
        argv = ["--port", "0", "--workers", str(workers), "--cache", str(cache_dir)]
        code = (
            "import sys; from repro.cli import artwork_serve_main; "
            f"sys.exit(artwork_serve_main({argv!r}))"
        )
        self._log = open(log_path, "ab")
        self.proc = subprocess.Popen(
            [sys.executable, "-c", code],
            stdout=subprocess.PIPE,
            stderr=self._log,
            env=program_env(root),
            cwd=root,
            text=True,
            start_new_session=True,  # its own group, so a kill reaches the workers
        )
        try:
            banner = self.proc.stdout.readline()
            if "listening" not in banner:
                raise RuntimeError(f"artwork-serve did not start: {banner!r}")
            self.port = int(banner.rsplit(":", 1)[1].split()[0])
            self._wait_healthy()
        except BaseException:
            self.stop()
            raise
        self.boot_s = time.perf_counter() - started

    def _wait_healthy(self, timeout: float = 60.0) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            status, body = self.get("/healthz")
            if status == 200 and body["pool"]["alive"] == self.workers:
                return
            time.sleep(0.005)
        raise RuntimeError("artwork-serve workers did not come up")

    def get(self, path: str, conn: http.client.HTTPConnection | None = None):
        own = conn is None
        conn = conn or http.client.HTTPConnection("127.0.0.1", self.port, timeout=90)
        try:
            conn.request("GET", path)
            resp = conn.getresponse()
            return resp.status, json.loads(resp.read())
        finally:
            if own:
                conn.close()

    def stop(self) -> None:
        """SIGTERM (the gateway drains and reaps its workers), then wait."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                os.killpg(self.proc.pid, signal.SIGKILL)
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


# -- the open-loop sender -------------------------------------------------


def send_all(port: int, bodies: list[bytes], due: list[float], conns: int):
    """POST every body at its due offset; returns one record per job:
    lateness, wall-clock send time, round trip, HTTP status and reply."""
    records: list[dict | None] = [None] * len(bodies)
    t0_perf = time.perf_counter() + 0.2

    def sender(lane: int) -> None:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=90)
        try:
            for i in range(lane, len(bodies), conns):
                target = t0_perf + due[i]
                delay = target - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                sent = time.perf_counter()
                sent_at = time.time()
                try:
                    conn.request(
                        "POST", "/v1/jobs", body=bodies[i],
                        headers={"Content-Type": "application/json"},
                    )
                    resp = conn.getresponse()
                    status, reply = resp.status, json.loads(resp.read())
                except (OSError, http.client.HTTPException, ValueError) as exc:
                    # A lost request is a failed job, not a crashed run.
                    conn.close()
                    status, reply = 0, {"error": repr(exc)}
                records[i] = {
                    "late_s": sent - target,
                    "sent_at": sent_at,
                    "rtt_s": time.perf_counter() - sent,
                    "http": status,
                    "reply": reply,
                }
        finally:
            conn.close()

    threads = [threading.Thread(target=sender, args=(lane,)) for lane in range(conns)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return records


def collect(gateway: Gateway, records: list[dict]) -> tuple[dict[str, dict], dict]:
    """Wait for every accepted job to finish; returns ``{id: result}``
    (summary plus payload) and the gateway's ``/v1/stats``."""
    results: dict[str, dict] = {}
    conn = http.client.HTTPConnection("127.0.0.1", gateway.port, timeout=90)
    try:
        for rec in records:
            job_id = rec["reply"].get("id")
            if rec["http"] not in (200, 202) or job_id is None or job_id in results:
                continue
            status, summary = gateway.get(f"/v1/jobs/{job_id}?wait=60", conn)
            while status == 200 and summary.get("finished_at") is None:
                status, summary = gateway.get(f"/v1/jobs/{job_id}?wait=60", conn)
            status, result = gateway.get(f"/v1/jobs/{job_id}/result", conn)
            results[job_id] = result if status == 200 else {"status": f"http {status}"}
        _, stats = gateway.get("/v1/stats", conn)
    finally:
        conn.close()
    return results, stats


# -- the correctness gate -------------------------------------------------


def check_artwork(result: dict, spec: JobSpec) -> tuple[list[str], dict]:
    """§3.2 postconditions on one served diagram, read back from ESCHER;
    also returns the read-back routes for the run's route digest."""
    payload = result["payload"]
    network = spec.build_network()
    diagram = read_escher(payload["escher"], network)
    # ESCHER has no notion of a failed pin: mark the pins the job reported
    # unreached again, as the router left them, before checking.
    for name in payload.get("failed_nets", []):
        route = diagram.routes.get(name)
        if route is not None:
            covered = route.points()
            route.failed_pins = [
                pin for pin in route.net.pins if diagram.pin_position(pin) not in covered
            ]
    problems = [f"{spec.name}: {problem}" for problem in postconditions(diagram)]
    if write_escher(diagram) != payload["escher"]:
        problems.append(f"{spec.name}: ESCHER read/write round trip is not lossless")
    # ESCHER stores straight segments, so bends and branch nodes are not
    # recoverable from it; the geometric counts must survive the trip.
    reread = dict(diagram_metrics(diagram).as_row())
    reported = payload.get("metrics", {})
    if any(reread[k] != reported.get(k) for k in ("nets", "routed", "length", "crossovers")):
        problems.append(f"{spec.name}: ESCHER read-back metrics differ from the job's")
    routes = {
        f"{result['digest'][:16]}/{name}": route.paths
        for name, route in diagram.routes.items()
    }
    return problems, routes


def _roots(payload: dict) -> list[Span]:
    return [Span.from_dict(d) for d in payload.get("trace") or []]


def run(seed: int, seconds: float, trace: bool, work: Path, root: Path, log) -> dict:
    workers = len(os.sched_getaffinity(0))
    count = max(MIN_JOBS, round(RATE * seconds))
    plan = plan_mix(seed, count)
    bodies, digests, specs = build_bodies(plan)
    problems = self_check(seed, count, plan, digests)

    boots = []
    gateway = None
    for n in range(BOOTS):
        if gateway is not None:
            gateway.stop()
        gateway = Gateway(root, workers, work / f"cache{n}", work / "gateway.log")
        boots.append(gateway.boot_s)
    try:
        records = send_all(gateway.port, bodies, plan.due, workers)
        results, stats = collect(gateway, records)
    finally:
        gateway.stop()

    # Gate: every job accepted and ok; every computed artwork valid; every
    # cache hit equal to the first computation of its spec.
    failed: set[int] = set()
    first: dict[str, dict] = {}
    computed: list[tuple[int, dict]] = []
    routes: dict = {}
    for i, rec in enumerate(records):
        result = results.get(rec["reply"].get("id"), {})
        rec["result"] = result
        if result.get("status") != "ok":
            problems.append(f"job {i} (HTTP {rec['http']}) ended {result.get('status')}")
            failed.add(i)
        elif not result.get("cached") and digests[i] not in first:
            first[digests[i]] = result
            computed.append((i, result))
            found, job_routes = check_artwork(result, specs[digests[i]])
            problems.extend(found)
            failed.update([i] if found else [])
            routes.update(job_routes)
        elif result.get("cached"):
            base = first.get(digests[i])
            if base is None or (
                result["metrics"] != base["metrics"]
                or result["payload"]["escher"] != base["payload"]["escher"]
            ):
                problems.append(f"job {i}: cache hit differs from the first computation")
                failed.add(i)
    for problem in problems[:20]:
        log(f"FAIL served_mix: {problem}")

    # End-to-end figures.  A job's latency is its send lateness plus the
    # time from the send to its end, so the gateway's request handling,
    # parsing and cache lookup are inside it.  A cache hit (HTTP 200) ends
    # with its reply; an accepted job (202, deduplicated or not) ends at the
    # gateway's ``finished_at``, which shares the sender's wall clock.
    latencies = []
    for i, rec in enumerate(records):
        result = rec["result"]
        if i in failed or result.get("status") != "ok":
            latencies.append(float("inf"))
        elif rec["http"] == 200:
            latencies.append(rec["late_s"] + rec["rtt_s"])
        else:
            latencies.append(rec["late_s"] + max(0.0, result["finished_at"] - rec["sent_at"]))
    computed_ids = {r["id"] for _, r in computed}
    artwork_lat = [
        latencies[i]
        for i, rec in enumerate(records)
        if rec["reply"].get("id") in computed_ids and not rec["reply"].get("deduped")
    ]
    window = max(d + lat for d, lat in zip(plan.due, latencies) if lat != float("inf"))
    ok_jobs = len(records) - len(failed)
    metrics = [r["metrics"] for _, r in computed]
    fixed = [r["metrics"] for i, r in computed if plan.recipes[i].kind in FIXED_KINDS]
    digest = route_digest(routes)
    end_to_end = {
        "setup_s": statistics.median(boots),
        "artwork_s": statistics.median(artwork_lat),
        "peak_rss_mb": peak_rss_mb(children=True),
        "bends": sum(m["bends"] for m in fixed),
        "crossovers": sum(m["crossovers"] for m in fixed),
        "wire_length": sum(m["length"] for m in fixed),
        "job_latency_p50_ms": percentile(latencies, 50) * 1000.0,
        "job_latency_p99_ms": percentile(latencies, 99) * 1000.0,
        "served_jobs_per_s": ok_jobs / window,
    }
    log(
        f"served_mix: {len(records)} jobs at {RATE:g}/s over {plan.due[-1]:.1f} s, "
        f"{len(computed)} computed, repeat share {plan.repeat_share:.3f}, "
        f"{workers} workers; p50 {end_to_end['job_latency_p50_ms']:.1f} ms, "
        f"p99 {end_to_end['job_latency_p99_ms']:.1f} ms ({len(latencies)} samples); "
        f"route digest {digest}"
    )

    per_layer: dict = {}
    if trace:
        per_layer = served_layers(records, computed, stats, log)
        per_layer["nets_unrouted"] = sum(m["failed"] for m in metrics)
    return {
        "attempted": len(records),
        "failed": max(len(failed), 1 if problems else 0),
        "correct": not problems,
        "digest": digest,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "spans": [s for _, r in computed for s in _roots(r["payload"])],
    }


def served_layers(records: list[dict], computed: list, stats: dict, log) -> dict:
    """Per-layer figures from the job summaries, the payloads' spans and
    counters, and the gateway's ``/v1/stats`` totals."""
    ms = 1000.0
    payloads = [r["payload"] for _, r in computed]
    counters: dict[str, int] = {}
    for payload in payloads:
        for name, value in (payload.get("counters") or {}).get("counters", {}).items():
            counters[name] = counters.get(name, 0) + value
    spans: dict[str, float] = {}
    for payload in payloads:
        for root in _roots(payload):
            for node in root.walk():
                spans[node.name] = spans.get(node.name, 0.0) + node.duration
    rows = [
        row
        for payload in payloads
        for row in (payload.get("search") or {}).get("connections", [])
    ]
    summaries = [r for _, r in computed]
    exec_s = [r["seconds"] for r in summaries]
    queue = [r["started_at"] - r["submitted_at"] for r in summaries if r.get("started_at")]
    ipc = [
        r["finished_at"] - r["started_at"] - r["seconds"]
        for r in summaries
        if r.get("started_at")
    ]
    totals = stats.get("totals", {})
    out = {
        "route.s": spans.get("eureka.route", 0.0),
        "route.first_pass_s": spans.get("eureka.first_pass", 0.0),
        "route.retry_s": spans.get("eureka.retry", 0.0),
        "route.plane_s": spans.get("eureka.plane", 0.0),
        "route.claims_s": spans.get("eureka.claims", 0.0),
        "place.s": spans.get("pablo.place", 0.0),
        "place.partitions": counters.get("place.partitions", 0),
        "place.boxes": counters.get("place.boxes", 0),
        "service.place_ms_p50": percentile(
            [r["timing"]["placement_seconds"] for r in summaries], 50
        ) * ms,
        "service.route_ms_p50": percentile(
            [r["timing"]["routing_seconds"] for r in summaries], 50
        ) * ms,
        "service.exec_ms_p50": percentile(exec_s, 50) * ms,
        "service.cache_hit_share": share(
            sum(1 for rec in records if rec["reply"].get("cached")), len(records)
        ),
        "service.jobs": totals.get("service.jobs", 0),
        "formats.escher_bytes": percentile(
            [len(p["escher"].encode()) for p in payloads], 50
        ),
        "gateway.submit_ms_p50": percentile([r["rtt_s"] for r in records], 50) * ms,
        "gateway.submit_ms_p99": percentile([r["rtt_s"] for r in records], 99) * ms,
        "gateway.queue_wait_ms_p50": percentile(queue, 50) * ms,
        "gateway.queue_wait_ms_p99": percentile(queue, 99) * ms,
        "gateway.ipc_ms_p50": percentile(ipc, 50) * ms,
        "gateway.jobs_deduped": totals.get("gateway.jobs_deduped", 0),
        "gateway.rejections": sum(1 for r in records if r["http"] in (429, 503)),
        "bench.send_lateness_ms_p99": percentile([r["late_s"] for r in records], 99) * ms,
    }
    for stage in PABLO_STAGES:
        out[f"place.{stage}_s"] = spans.get(f"pablo.{stage}", 0.0)
    out.update(route_figures(counters, rows))
    busy = sum(exec_s)
    place, route = out["place.s"], out["route.s"]
    log(f"  worker time by layer over {len(summaries)} computed jobs ({busy:.3f} s):")
    for name, value in (("place", place), ("route", route), ("(self)", busy - place - route)):
        log(f"    {name:<10} {value:9.4f} s  {100 * share(value, busy):5.1f}%")
    log(
        "  job latency parts (p50): submit "
        f"{out['gateway.submit_ms_p50']:.2f} ms, queue {out['gateway.queue_wait_ms_p50']:.2f} ms, "
        f"exec {out['service.exec_ms_p50']:.2f} ms, ipc {out['gateway.ipc_ms_p50']:.2f} ms"
    )
    return out
