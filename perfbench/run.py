"""The repository benchmark: the paper's LIFE figure 6.6 and a served job mix.

Run from the root of a checkout::

    python3 perfbench/run.py --workload life_hand --seed 1 --seconds 35 --trace 0

Workloads (see BENCHMARK.json for why each is there):

* ``life_hand`` - figure 6.6: hand placement, EUREKA, rip-up, output;
* ``served_mix`` - seeded open-loop HTTP load on ``artwork-serve``.

With ``--trace 0`` the last stdout line is a JSON object carrying the
end-to-end metrics; with ``--trace 1`` one extra traced pass gives the
per-layer metrics instead, and its spans are written to
``.perfbench/traces/<run id>.json``.  Every run checks the artworks it
produces (the §3.2 postconditions, ESCHER round trip, cache soundness and
determinism); a failed check counts as a failed operation and makes
``correct`` false.  Exits 2 without a result when the program's sources
are not in the current directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

import measure

WORKLOADS = ("life_hand", "served_mix")

#: Fresh interpreters timed per LIFE run; the median is ``setup_s``.
IMPORT_PROBES = 5


def log(line: str) -> None:
    print(line, flush=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: no src/repro here; run from the root of a checkout", file=sys.stderr)
        return 2
    declared = json.loads((root / "BENCHMARK.json").read_text())
    units = {
        m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]
    }

    # The host probe runs before the program is imported.
    calib_s = measure.host_calibration()
    sys.path.insert(0, str(root / "src"))
    run_id = f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}-{int(time.time())}"
    work = root / ".perfbench" / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload == "served_mix":
            import servedmix

            result = servedmix.run(args.seed, args.seconds, bool(args.trace), work, root, log)
        else:
            import lifeflow

            setup = [
                measure.import_probe(root, lifeflow.PIPELINE_MODULES)
                for _ in range(IMPORT_PROBES)
            ]
            result = lifeflow.run(args.seconds, bool(args.trace), work, log)
            result["end_to_end"]["setup_s"] = statistics.median(setup)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    values = {**result["end_to_end"], **result["per_layer"], "host.calib_s": calib_s}
    if args.trace:
        write_trace(root, run_id, result)
    names = [m["name"] for m in declared["per_layer" if args.trace else "end_to_end"]]
    log(f"run {run_id}: host.calib_s {calib_s:.4f}, route digest {result['digest']}, "
        f"correct {result['correct']}")
    metrics = {
        name: {"value": float(values.get(name, 0.0)), "unit": units[name]}
        for name in names
    }
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


def write_trace(root: Path, run_id: str, result: dict) -> None:
    """Write the traced pass's spans, tagged with the run id, as Chrome
    trace JSON (open in chrome://tracing or Perfetto)."""
    from repro.obs.trace import Span, chrome_trace_document

    tracer = result.get("tracer")
    roots = list(tracer.roots) if tracer is not None else list(result.get("spans", []))
    run_root = Span(name="bench.run", attrs={"run_id": run_id}, children=roots)
    if roots:
        run_root.start = min(r.start for r in roots)
        run_root.duration = max(r.end for r in roots) - run_root.start
    path = root / ".perfbench" / "traces" / f"{run_id}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(chrome_trace_document([run_root])))
    log(f"spans written to {path.relative_to(root)}")


if __name__ == "__main__":
    sys.exit(main())
