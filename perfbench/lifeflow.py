"""The ``life_hand`` workload: Table 6.1's figure 6.6 row, one process.

It routes the paper's hand placement of LIFE, completes it with
rip-up-and-reroute, then validates and writes the artwork.  The input is
the paper's fixed netlist, so the seed does not change it.

Each layer call is wrapped in a ``layer.<name>`` span on the program's own
tracer.  With tracing off those spans are the tracer's shared no-op, so the
measured iterations pay nothing for them.
"""

from __future__ import annotations

import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

from measure import peak_rss_mb, percentile, route_digest, route_figures, share

from repro.core.metrics import diagram_metrics
from repro.core.validate import (
    DiagramViolation,
    check_diagram,
    connectivity_matches_netlist,
)
from repro.formats.escher import read_escher, write_escher
from repro.obs import enable_tracing, get_registry, set_tracer, span
from repro.obs.trace import Tracer
from repro.render.svg import render_svg
from repro.route.eureka import RouterOptions, route_diagram
from repro.route.ripup import reroute_failed
from repro.workloads.life import hand_placement

#: What a user of the LIFE flow imports before the first artwork.
PIPELINE_MODULES = [
    "repro.workloads.life",
    "repro.route.eureka",
    "repro.route.ripup",
    "repro.core.validate",
    "repro.core.metrics",
    "repro.formats.escher",
    "repro.render.svg",
]

ROUTER = RouterOptions(margin=14)
PITCH = 24

#: Table 6.1 of the paper, figure 6.6: modules, nets, nets routed,
#: placement and routing CPU time (minutes:seconds on an HP9000s500).
#: Printed as context.
PAPER_ROW = ("paper fig 6.6", 27, 222, 220, "by hand", "1:32")


@dataclass
class Artwork:
    """One pass from the hand placement to a written artwork."""

    seconds: float
    modules: int
    nets: int
    first_pass_routed: int
    metrics: dict
    digest: str
    escher_bytes: int
    svg_bytes: int
    counters: dict
    report: object
    ripup: object
    problems: list[str] = field(default_factory=list)


def _routes(diagram) -> dict:
    return {name: route.paths for name, route in diagram.routes.items()}


def _covered(diagram) -> dict:
    return {
        name: route.points() for name, route in diagram.routes.items() if route.paths
    }


def postconditions(diagram) -> list[str]:
    """The §3.2 gate on one diagram: ``check_diagram``, and the connectivity
    extracted from the routes equal to the netlist over the routed nets."""
    problems = []
    try:
        check_diagram(diagram)
    except DiagramViolation as exc:
        problems.append(f"check_diagram: {exc}")
    routed = [
        name
        for name, route in diagram.routes.items()
        if route.complete and len(route.net.pins) >= 2
    ]
    if not connectivity_matches_netlist(diagram, nets=routed):
        problems.append("extracted connectivity differs from the netlist")
    return problems


def run_artwork(out_dir: Path) -> Artwork:
    """Build the hand placement (untimed), then time one artwork and check it."""
    diagram = hand_placement(pitch=PITCH)
    network = diagram.network
    get_registry().reset()

    t0 = time.perf_counter()
    with span("bench.artwork", workload="life_hand"):
        with span("layer.route", op="route_diagram"):
            report = route_diagram(diagram, ROUTER)
        with span("layer.route", op="reroute_failed"):
            ripup = reroute_failed(diagram, ROUTER)
        with span("layer.core", op="validate"):
            problems = postconditions(diagram)
        with span("layer.core", op="metrics"):
            metrics = diagram_metrics(diagram)
        with span("layer.formats", op="write_escher"):
            escher = write_escher(diagram)
            (out_dir / "life_hand.es").write_text(escher)
        with span("layer.render", op="render_svg"):
            svg = render_svg(diagram)
            (out_dir / "life_hand.svg").write_text(svg)
    seconds = time.perf_counter() - t0

    # The rest of the gate is the benchmark's own work, outside the timing.
    if _covered(read_escher(escher, network)) != _covered(diagram):
        problems.append("ESCHER write/read round trip changed the routes")
    return Artwork(
        seconds=seconds,
        modules=len(network.modules),
        nets=len(network.nets),
        first_pass_routed=report.nets_routed,
        metrics=dict(metrics.as_row()),
        digest=route_digest(_routes(diagram)),
        escher_bytes=len(escher.encode()),
        svg_bytes=len(svg.encode()),
        counters=get_registry().snapshot(),
        report=report,
        ripup=ripup,
        problems=problems,
    )


def quality(art: Artwork) -> dict:
    m = art.metrics
    return {
        "nets_unrouted": m["nets"] - m["routed"],
        "bends": m["bends"],
        "crossovers": m["crossovers"],
        "wire_length": m["length"],
    }


# -- per-layer figures from one traced artwork --------------------------


def _span_totals(roots) -> dict[tuple[str, str], float]:
    """Seconds per ``(op of the enclosing layer span, span name)``."""
    totals: dict[tuple[str, str], float] = {}
    stack = [(root, "") for root in roots]
    while stack:
        node, op = stack.pop()
        if node.name.startswith("layer."):
            op = node.attrs.get("op", "")
        totals[op, node.name] = totals.get((op, node.name), 0.0) + node.duration
        stack.extend((child, op) for child in node.children)
    return totals


def layer_table(root) -> list[tuple[str, float]]:
    """Self time per layer under the ``bench.artwork`` root, plus the
    ``(self)`` row: the root's time that no layer span covers.  Layer spans
    are siblings, so the rows add up to the root's duration exactly."""
    rows: dict[str, float] = {}
    for child in root.children:
        if child.name.startswith("layer."):
            layer = child.name.split(".", 1)[1]
            rows[layer] = rows.get(layer, 0.0) + child.duration
    table = sorted(rows.items(), key=lambda kv: -kv[1])
    table.append(("(self)", root.duration - sum(rows.values())))
    return table


def traced_layers(art: Artwork, tracer: Tracer) -> dict:
    """The route/core/formats/render per-layer metrics.  The place layer
    reads 0 here: the hand placement needs no PABLO."""
    totals = _span_totals(tracer.roots)

    def named(name: str) -> float:
        return sum(v for (_op, n), v in totals.items() if n == name)

    out = {
        "route.s": named("layer.route"),
        "route.first_pass_s": totals.get(("route_diagram", "eureka.first_pass"), 0.0),
        "route.retry_s": totals.get(("route_diagram", "eureka.retry"), 0.0),
        "route.plane_s": named("eureka.plane"),
        "route.claims_s": named("eureka.claims"),
        "route.ripup_s": totals.get(("reroute_failed", "layer.route"), 0.0),
        "route.ripped_nets": len(art.ripup.ripped_nets),
        "core.validate_s": totals.get(("validate", "layer.core"), 0.0),
        "core.metrics_s": totals.get(("metrics", "layer.core"), 0.0),
        "formats.escher_s": named("layer.formats"),
        "formats.escher_bytes": art.escher_bytes,
        "render.svg_s": named("layer.render"),
        "render.svg_bytes": art.svg_bytes,
    }
    out.update(route_figures(art.counters["counters"], art.report.search.connections))
    return out


# -- the workload ---------------------------------------------------------


def run(seconds: float, trace: bool, work: Path, log) -> dict:
    """Measure ``life_hand``; returns the result fields for the JSON line."""
    out_dir = work / "artwork"
    out_dir.mkdir(parents=True, exist_ok=True)
    arts: list[Artwork] = []
    traced: Artwork | None = None
    tracer: Tracer | None = None
    started = time.perf_counter()
    arts.append(run_artwork(out_dir))
    # Peak RSS of one artwork: how many more a run fits depends on the
    # host's speed, and each one raises the high-water mark a little.
    rss_mb = peak_rss_mb()
    if trace:
        # The untraced artwork is the overhead baseline; now one traced.
        tracer = enable_tracing()
        try:
            traced = run_artwork(out_dir)
        finally:
            set_tracer(Tracer(enabled=False))
    else:
        while time.perf_counter() - started < seconds:
            arts.append(run_artwork(out_dir))
    shutil.rmtree(out_dir, ignore_errors=True)

    every = arts + ([traced] if traced else [])
    failed = sum(1 for a in every if a.problems)
    for art in every:
        for problem in art.problems:
            log(f"FAIL life_hand: {problem}")
    digests = {a.digest for a in every}
    qualities = {tuple(sorted(quality(a).items())) for a in every}
    deterministic = len(digests) == 1 and len(qualities) == 1
    if not deterministic:
        log(f"FAIL life_hand: nondeterministic routes, digests {sorted(digests)}")

    first = every[0]
    times = [a.seconds for a in arts]
    log(f"life_hand: artwork {statistics.median(times):.2f} s over {len(times)} run(s), "
        f"{first.metrics['routed']}/{first.nets} nets routed at the end, "
        f"route digest {first.digest}")
    log(f"  {'Table 6.1':<22}{'modules':>8}{'nets':>6}{'routed':>8}{'placement':>11}{'routing':>9}")
    for row in (
        PAPER_ROW,
        ("measured life_hand", first.modules, first.nets, first.first_pass_routed,
         "by hand", f"{first.report.seconds:.2f} s"),
    ):
        log(f"  {row[0]:<22}{row[1]:>8}{row[2]:>6}{row[3]:>8}{row[4]:>11}{row[5]:>9}")

    end_to_end = {
        "artwork_s": statistics.median(times),
        "peak_rss_mb": rss_mb,
        "bends": quality(first)["bends"],
        "crossovers": quality(first)["crossovers"],
        "wire_length": quality(first)["wire_length"],
        # A LIFE run is a closed loop of one client waiting on one artwork
        # at a time: each artwork is one job.
        "job_latency_p50_ms": percentile(times, 50) * 1000.0,
        "job_latency_p99_ms": percentile(times, 99) * 1000.0,
        "served_jobs_per_s": len(times) / sum(times),
    }
    per_layer: dict = {}
    if traced is not None and tracer is not None:
        per_layer = traced_layers(traced, tracer)
        per_layer["nets_unrouted"] = quality(first)["nets_unrouted"]
        per_layer["obs.trace_overhead_share"] = traced.seconds / arts[0].seconds - 1.0
        root = next(r for r in tracer.roots if r.name == "bench.artwork")
        table = layer_table(root)
        log(f"  self time by layer (traced artwork {traced.seconds:.3f} s):")
        for layer, self_s in table:
            log(f"    {layer:<10} {self_s:9.4f} s  {100 * share(self_s, root.duration):5.1f}%")
        named = sum(s for name, s in table if name != "(self)")
        log(f"    named layers cover {100 * share(named, root.duration):.2f}% of the artwork")
    return {
        "attempted": len(every),
        "failed": failed if deterministic else len(every),
        "correct": failed == 0 and deterministic,
        "digest": first.digest,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "tracer": tracer,
    }
