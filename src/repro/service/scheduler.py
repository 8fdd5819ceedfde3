"""Batch scheduler: fan jobs across a warm worker pool.

The unit of work is :func:`execute_job` — a module-level (hence picklable)
function that rebuilds the canonical network from a :class:`JobSpec`
payload, runs the full PABLO→EUREKA pipeline and returns a plain-dict
result (ESCHER text + metrics + timing), which is also exactly what the
:class:`~repro.service.cache.ResultCache` persists.

A batch runs one of two ways: serially in the parent when a probe job
proves cheaper than a process spawn, otherwise on a
:class:`~repro.gateway.pool.WorkerPool` (a borrowed warm one, or one
started for the batch).  The scheduler guarantees:

* **deterministic ordering** — outcomes come back in submission order
  whatever the completion order or worker count;
* **per-job timeouts** — enforced *inside* the worker with ``SIGALRM``,
  so a slow job dies cleanly without poisoning the pool;
* **retry-once on worker crash** — the pool replaces a worker whose
  process died (segfault, ``os._exit``, OOM kill) and retries its job
  once;
* **progress streaming** — an optional callback fires as each job reaches
  its final outcome.

Every finished job — batch or served by the ``artwork-serve`` gateway —
goes through :func:`record_job`, and every job that made no diagram
carries a :func:`failed_payload`.
"""

from __future__ import annotations

import os
import queue
import signal
import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (gateway imports us)
    from ..gateway.pool import WorkerPool

from ..core.diagram import Diagram
from ..core.generator import generate
from ..formats.escher import read_escher, write_escher
from ..obs import get_logger, get_registry, get_tracer, span
from ..obs.counters import Registry, set_registry
from ..obs.runlog import RunLog, stages_from_spans
from ..obs.sampler import ensure_sampler
from ..obs.trace import Tracer, current_trace_context, set_tracer
from .cache import ResultCache
from .jobs import JobSpec

#: Final states a job can end in.  "ok" includes runs with unroutable
#: nets (they are reported, not fatal); only "ok" results are cached.
JOB_STATUSES = ("ok", "error", "timeout", "crashed")

ProgressCallback = Callable[["JobOutcome", int, int], None]


class JobTimeout(BaseException):
    """Raised by the alarm handler inside a worker.

    Derives from ``BaseException`` so the pipeline's own ``except
    Exception`` error reporting cannot swallow it.
    """


@dataclass
class JobOutcome:
    """Final result of one scheduled job."""

    spec: JobSpec
    status: str
    payload: dict | None = None
    from_cache: bool = False
    attempts: int = 0
    error: str | None = None

    @classmethod
    def from_payload(
        cls, spec: JobSpec, payload: dict, *, attempts: int = 0,
        from_cache: bool = False,
    ) -> "JobOutcome":
        """The outcome a worker's (or the cache's) result dict describes."""
        return cls(
            spec, payload.get("status", "error"), payload,
            from_cache=from_cache, attempts=attempts, error=payload.get("error"),
        )

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def timing(self) -> dict:
        return dict(self.payload.get("timing", {})) if self.payload else {}

    @property
    def metrics(self) -> dict:
        return dict(self.payload.get("metrics", {})) if self.payload else {}

    @property
    def failed_nets(self) -> list[str]:
        return list(self.payload.get("failed_nets", [])) if self.payload else []

    def load_diagram(self) -> Diagram:
        """Rebuild the routed diagram from the ESCHER text in the payload."""
        if not self.payload or "escher" not in self.payload:
            raise ValueError(f"job {self.spec.name!r} has no diagram ({self.status})")
        return read_escher(self.payload["escher"], self.spec.build_network())


#: Payload keys that describe *how* a run went, not *what* it made —
#: merged into the parent's telemetry on arrival and kept out of the
#: result cache (a warm hit must not replay the original run's spans,
#: request trace id or profile windows).
TRANSIENT_KEYS = ("trace", "counters", "trace_id", "profile")


def failed_payload(
    payload: dict, status: str, error: str, seconds: float = 0.0
) -> dict:
    """The result dict of a job that made no diagram: a pipeline
    ``error``, a ``timeout``, a worker that ``crashed`` twice or a job
    ``cancelled`` before it ran.  ``payload`` is the job's input."""
    return {
        "status": status,
        "name": payload.get("name", "?"),
        "error": error,
        "metrics": {},
        "timing": {},
        "seconds": seconds,
    }


def execute_job(payload: dict, progress: Callable[[str], None] | None = None) -> dict:
    """Run one job (a ``JobSpec.to_dict()`` payload) through the pipeline.

    Returns a JSON-able dict; never raises for pipeline errors (they come
    back as ``status: "error"``) so a pool worker survives bad inputs.
    ``progress`` (when the caller supports it — the persistent
    :class:`~repro.gateway.pool.WorkerPool` does) receives per-stage
    notifications that the gateway streams to WebSocket subscribers.
    """
    started = time.perf_counter()
    started_epoch = time.time()
    # The always-on sampler survives across jobs in a pool worker; each
    # job ships only the profile windows that overlap its own run.
    sampler = ensure_sampler()
    # Record the job under a private tracer/registry: the spans and
    # counters travel back in the payload and are re-parented into the
    # parent process's trace by the scheduler.
    tracer = Tracer(enabled=True)
    registry = Registry()
    previous_tracer = set_tracer(tracer)
    previous_registry = set_registry(registry)
    # When a gateway request's trace context rode along (installed by the
    # pool's worker loop), stamp its trace id on the root span and the
    # result so the parent can re-parent the spans under the request.
    context = current_trace_context()
    try:
        spec = JobSpec.from_dict(payload)
        root_attrs = {"job": spec.name}
        if context is not None:
            root_attrs["trace_id"] = context.trace_id
        with tracer.span("job", **root_attrs):
            result = generate(
                spec.build_network(), spec.pablo, spec.eureka, progress=progress
            )
        return {
            "status": "ok",
            "name": spec.name,
            **({"trace_id": context.trace_id} if context is not None else {}),
            "escher": write_escher(result.diagram),
            "metrics": dict(result.metrics.as_row()),
            "timing": dict(result.timing_row),
            "failed_nets": [str(n) for n in result.routing.failed_nets],
            "failure_reasons": {
                net: reason.value
                for net, reason in result.routing.failure_reasons.items()
            },
            "congestion": result.routing.congestion,
            "search": dict(getattr(result.routing, "search_detail", {}) or {}),
            "seconds": round(time.perf_counter() - started, 4),
            "trace": tracer.export_roots(),
            "counters": registry.snapshot(),
            "profile": (
                sampler.export(since=started_epoch) if sampler is not None else []
            ),
        }
    except Exception as exc:  # noqa: BLE001 — worker must not die on bad jobs
        return failed_payload(
            payload, "error", f"{type(exc).__name__}: {exc}",
            round(time.perf_counter() - started, 4),
        )
    finally:
        set_tracer(previous_tracer)
        set_registry(previous_registry)


def _alarm(_signum, _frame):  # pragma: no cover - fires inside workers
    raise JobTimeout()


def run_with_timeout(worker, timeout: float | None, payload: dict) -> dict:
    """Top-level worker wrapper enforcing a wall-clock budget via SIGALRM."""
    if not timeout or not hasattr(signal, "SIGALRM"):
        return worker(payload)
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        return worker(payload)
    except JobTimeout:
        return failed_payload(
            payload, "timeout", f"exceeded {timeout:g}s budget", timeout
        )
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def record_job(
    spec: JobSpec,
    payload: dict | None,
    status: str,
    *,
    from_cache: bool,
    attempts: int,
    kind: str,
    registries: Sequence[Registry],
    cache: ResultCache | None = None,
    runlog: RunLog | None = None,
    extra: dict | None = None,
) -> None:
    """Fold one finished job into counters, the result cache and the run
    registry — the one completion path of batch (``kind="job"``) and
    served (``kind="serve"``) jobs.

    Every registry in ``registries`` counts the job and, for fresh work,
    merges the worker's counters.  A fresh ``ok`` payload is stored in
    ``cache`` without its :data:`TRANSIENT_KEYS`; a failed store costs
    the entry (counted as ``service.cache_errors``), never the job.
    ``extra`` (the gateway's ``job_id``/``trace_id``) lands in the run
    record's ``extra`` beside the status fields.
    """
    payload = payload or {}
    wall = float(payload.get("seconds", 0.0) or 0.0)
    worker_counters = None if from_cache else payload.get("counters")
    for reg in registries:
        reg.inc("service.jobs")
        reg.inc(f"service.status.{status}")
        reg.inc("service.cache_hits" if from_cache else "service.cache_misses")
        if not from_cache:
            # Job wall time as a histogram so percentiles land in the
            # run registry, not just the human-readable report dict.
            reg.observe("service.job_wall_s", wall)
        if worker_counters:
            reg.merge(worker_counters)
    log = get_logger("service.scheduler")
    fields = {"job": spec.name, **(extra or {})}
    if cache is not None and status == "ok" and not from_cache:
        try:
            cache.put(
                spec, {k: v for k, v in payload.items() if k not in TRANSIENT_KEYS}
            )
        except OSError as exc:
            for reg in registries:
                reg.inc("service.cache_errors")
            log.warning(
                "cache write failed", extra={"fields": {**fields, "error": str(exc)}}
            )
    error = str(payload.get("error") or "")
    if runlog is not None:
        runlog.record(
            kind=kind,
            name=spec.name,
            wall_seconds=wall,
            spec_digest=spec.digest,
            stages=stages_from_spans(payload.get("trace") or []),
            counters=worker_counters or {"counters": {}, "histograms": {}},
            metrics=dict(payload.get("metrics", {}) or {}),
            failures={
                net: {"reason": reason}
                for net, reason in (payload.get("failure_reasons") or {}).items()
            },
            congestion=dict(payload.get("congestion", {}) or {}),
            profile="",
            profile_windows=list(payload.get("profile") or []),
            extra={
                "status": status,
                "from_cache": from_cache,
                "attempts": attempts,
                "error": error,
                **({"search": payload["search"]} if payload.get("search") else {}),
                **(extra or {}),
            },
        )
    if status != "ok":
        log.warning(
            "job did not finish ok",
            extra={"fields": {**fields, "status": status, "error": error}},
        )


@dataclass
class BatchScheduler:
    """Fan a batch of :class:`JobSpec` s over a worker pool.

    ``worker`` must be a picklable module-level callable taking the job
    payload dict and returning a result dict — :func:`execute_job` unless
    a test (or an alternative pipeline) substitutes its own.
    """

    max_workers: int = field(default_factory=lambda: os.cpu_count() or 1)
    timeout: float | None = None
    cache: ResultCache | None = None
    retry_crashed: bool = True
    worker: Callable[[dict], dict] = execute_job
    #: Aggregate of every fresh job's worker-side counters, merged as the
    #: outcomes land (cache hits contribute nothing — no work was done).
    counters: Registry = field(default_factory=Registry)
    #: When set, the parent appends one RunRecord per job as outcomes
    #: land (the workers never touch the registry file themselves).
    runlog: RunLog | None = None
    #: A warm :class:`~repro.gateway.pool.WorkerPool` to dispatch on
    #: instead of starting one for the batch.  The pool is *borrowed*:
    #: its worker/timeout/retry settings govern execution and the caller
    #: owns its lifecycle (``artwork-batch --keep-warm`` reuses one pool
    #: across manifests this way).
    pool: "WorkerPool | None" = None
    #: Jobs whose first (probe) execution finishes within this budget are
    #: presumed spawn-dominated and the whole batch runs serially in the
    #: parent — for the paper's sub-30ms artworks this beats any pool, so
    #: four workers are never slower than one.  Set to 0/None to always
    #: fan out.  Only engages for the stock :func:`execute_job` worker.
    serial_threshold: float | None = 0.03

    def __post_init__(self) -> None:
        if self.max_workers < 1:
            raise ValueError("max_workers must be at least 1")

    def run(
        self,
        specs: Sequence[JobSpec],
        progress: ProgressCallback | None = None,
    ) -> list[JobOutcome]:
        """Execute every spec; outcomes are returned in submission order."""
        specs = list(specs)
        outcomes: list[JobOutcome | None] = [None] * len(specs)
        done = 0

        def finish(index: int, outcome: JobOutcome) -> None:
            nonlocal done
            outcomes[index] = outcome
            done += 1
            record_job(
                outcome.spec, outcome.payload, outcome.status,
                from_cache=outcome.from_cache, attempts=outcome.attempts,
                kind="job", registries=(self.counters, get_registry()),
                cache=self.cache, runlog=self.runlog,
            )
            self._adopt_spans(outcome)
            if progress is not None:
                progress(outcome, done, len(specs))

        with span("batch.run", jobs=len(specs), workers=self.max_workers):
            pending: list[int] = []
            for i, spec in enumerate(specs):
                payload = self.cache.get(spec) if self.cache is not None else None
                if payload is not None:
                    finish(i, JobOutcome.from_payload(spec, payload, from_cache=True))
                else:
                    pending.append(i)

            if self.pool is None:
                pending = self._serial_fast_path(specs, pending, finish)
            if pending:
                self._run_on_pool(specs, pending, finish)

        assert all(o is not None for o in outcomes)
        return outcomes  # type: ignore[return-value]

    @staticmethod
    def _adopt_spans(outcome: JobOutcome) -> None:
        """Re-parent a fresh job's worker spans into the live trace (a
        cache hit gets one marker span).  Batch-only: a batch ends, so
        its trace stays bounded — a daemon's would not."""
        tracer = get_tracer()
        if not tracer.enabled:
            return
        job_label = f"job:{outcome.spec.name}"
        roots = (outcome.payload or {}).get("trace") or []
        if roots and not outcome.from_cache:
            for root in roots:
                tracer.adopt(root, label=job_label)
        else:
            with tracer.span(job_label, status=outcome.status,
                             cached=outcome.from_cache):
                pass

    def _run_inline(self, payload: dict) -> dict:
        """Run one job in the parent process (the serial fast path).

        ``SIGALRM`` timeouts only work on the main thread; elsewhere the
        job simply runs unbudgeted — acceptable because the fast path
        only engages after a probe proved jobs finish in milliseconds.
        """
        if threading.current_thread() is threading.main_thread():
            return run_with_timeout(self.worker, self.timeout, payload)
        return self.worker(payload)

    def _serial_fast_path(
        self,
        specs: Sequence[JobSpec],
        indices: list[int],
        finish: Callable[[int, JobOutcome], None],
    ) -> list[int]:
        """Probe the first pending job in-parent; when it proves cheaper
        than a process spawn, drain the whole batch serially.  Returns the
        indices still pending for the pool (empty when drained).

        Restricted to the stock :func:`execute_job` worker: substituted
        test workers may crash on purpose (``os._exit``), which must stay
        inside a child process.
        """
        if (
            not indices
            or not self.serial_threshold
            or self.worker is not execute_job
        ):
            return indices
        probe, rest = indices[0], indices[1:]
        with span("batch.serial_probe", job=specs[probe].name):
            started = time.perf_counter()
            payload = self._run_inline(specs[probe].to_dict())
            probe_wall = time.perf_counter() - started
        finish(probe, JobOutcome.from_payload(specs[probe], payload, attempts=1))
        if probe_wall > self.serial_threshold:
            return rest  # real work: fan the remainder out to processes
        for reg in (self.counters, get_registry()):
            reg.inc("service.serial_fast_path")
        for i in rest:
            payload = self._run_inline(specs[i].to_dict())
            finish(i, JobOutcome.from_payload(specs[i], payload, attempts=1))
        return []

    def _run_on_pool(
        self,
        specs: Sequence[JobSpec],
        indices: list[int],
        finish: Callable[[int, JobOutcome], None],
    ) -> None:
        """Run the jobs at ``indices`` on the borrowed pool, or on one
        started for them and closed before returning.

        The pool owns crash-retry and timeout semantics (a crashed job
        comes back as a ``status: "crashed"`` payload after its one
        retry).  Its callbacks fire on the pool's collector thread and
        only hand results over; ``finish`` runs here as each job lands.
        """
        from ..gateway.pool import WorkerPool  # the gateway imports us

        pool = self.pool
        if pool is None:
            pool = WorkerPool(
                min(self.max_workers, len(indices)),
                worker=self.worker,
                timeout=self.timeout,
                retry_crashed=self.retry_crashed,
            )
        # No timeout of our own defers to a borrowed pool's budget.
        budget = {} if self.timeout is None else {"timeout": self.timeout}
        landed: queue.Queue = queue.Queue()
        try:
            for i in indices:
                pool.submit(
                    specs[i].to_dict(),
                    callback=lambda payload, attempts, i=i: landed.put(
                        (i, payload, attempts)
                    ),
                    **budget,
                )
            for _ in indices:
                i, payload, attempts = landed.get()
                finish(i, JobOutcome.from_payload(specs[i], payload, attempts=attempts))
        finally:
            if pool is not self.pool:
                pool.close(drain=False)
