"""Span tracing for the traced run, from the benchmark's own wrappers.

:func:`install` replaces public entry points of each layer with wrappers
that record a span (name, start, end, parent span, correlation id) and
per-layer counts; :meth:`Tracer.uninstall` restores the originals.  No
code of the program changes, and the untraced run installs nothing.

Spans stay in memory and are written out once, when the run ends
(:meth:`Tracer.write`).  A span's self time is its duration minus the
part covered by its child spans; children nest on one thread, so that
is the sum of their durations.  A shard payload is a *detached* span:
it opens at ``ShardPool.submit`` and closes when the future is done,
on whichever thread completes it, and has no parent's time to subtract
from.
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import threading
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter
from typing import Dict, Iterable, List, Optional, Tuple

#: The benchmark's own span around one grid gather.
GATHER_SPAN = "bench.gather"

#: Span names whose self time makes up each layer's busy time.
LAYER_SPANS = {
    "session.self_s": ("session.run_requests", "session.execute_plan"),
    "session.plan_s": ("session.plan_runs",),
    "lanes.busy_s": ("lanes.run_lanes",),
    "event.busy_s": ("event.run_simulation",),
    "cache.get_s": ("cache.get",),
    "cache.put_s": ("cache.put",),
    "cache.key_s": ("cache.key",),
}


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "corr", "thread", "detached", "attrs")

    def __init__(self, span_id, name, parent, corr, detached) -> None:
        self.id = span_id
        self.name = name
        self.parent = parent
        self.corr = corr
        self.thread = threading.get_ident()
        self.detached = detached
        self.attrs = None
        self.end: Optional[float] = None
        self.start = perf_counter()

    def as_dict(self) -> dict:
        return {slot: getattr(self, slot) for slot in self.__slots__}


class Tracer:
    """In-memory span and count recorder shared by every wrapper."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_corr(self, corr: str) -> None:
        """Tie later spans of this thread to one job, gather or dispatch."""
        self._local.corr = corr

    def open(self, name: str, detached: bool = False) -> Span:
        stack = self._stack()
        span = Span(
            next(self._ids),
            name,
            stack[-1].id if stack else None,
            getattr(self._local, "corr", None),
            detached,
        )
        if not detached:
            stack.append(span)
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = perf_counter()
        if not span.detached:
            stack = self._stack()
            if stack and stack[-1] is span:
                stack.pop()

    def count(self, name: str, amount: int = 1) -> int:
        with self._lock:
            self.counts[name] += amount
            return self.counts[name]

    # -- patching -------------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Record a span around ``owner.attr``; ``after(span, args, result)``
        runs outside the span to take counts from the call."""
        inner = getattr(owner, attr)
        tracer = self

        @functools.wraps(inner)
        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = inner(*args, **kwargs)
            finally:
                tracer.close(span)
            if after is not None:
                after(span, args, result)
            return result

        self._patch(owner, attr, traced)

    def wrap_submit(self, owner, attr: str, name: str) -> None:
        """A detached span from ``submit(shard, ...)`` to the future's end."""
        inner = getattr(owner, attr)
        tracer = self

        @functools.wraps(inner)
        def traced(pool, shard, *args, **kwargs):
            span = tracer.open(name, detached=True)
            span.attrs = shard
            future = inner(pool, shard, *args, **kwargs)
            future.add_done_callback(lambda _future: tracer.close(span))
            return future

        self._patch(owner, attr, traced)

    def _patch(self, owner, attr: str, replacement) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.as_dict()) + "\n")


def install(tracer: Tracer) -> None:
    """Wrap the entry points of every layer the benchmark attributes."""
    from repro.experiments import sweep
    from repro.experiments.cache import ResultCache
    from repro.service import service
    from repro.service.admission import AdmissionController
    from repro.service.shards import ShardPool
    from repro.session import RunRequest, Session
    from repro.session.outcome import ROUTE_DEDUP

    def outcomes(span, args, result):
        tracer.count("session.routes.dedup", sum(o.route == ROUTE_DEDUP for o in result))
        tracer.count("session.fallback_cells", sum(o.fallback for o in result))

    def routes(span, args, plan):
        for run in plan.runs:
            tracer.count(f"session.routes.{run.route}")

    def lanes(span, args, results):
        tracer.count("lanes.calls")
        tracer.count("lanes.cells", len(args[0]))
        tracer.count("lanes.completions", sum(r.collector.total_recorded for r in results))

    def event(span, args, result):
        tracer.count("event.cells")
        tracer.count("event.completions", result.collector.total_recorded)

    def cache_get(span, args, result):
        tracer.count("cache.gets")
        tracer.count("cache.hits", result is not None)

    def cache_put(span, args, result):
        cache, key = args[0], args[1]
        tracer.count("cache.puts")
        # One ``<key>.pkl`` file per entry (ResultCache's documented layout).
        tracer.count("cache.bytes_written", (cache.directory / f"{key}.pkl").stat().st_size)

    def cache_key(span, args, result):
        tracer.count("cache.keys")

    def submitted(span, args, job):
        span.corr = job.job_id

    def taken(span, args, jobs):
        if jobs:
            dispatch = tracer.count("service.dispatches")
            tracer.count("service.jobs_taken", len(jobs))
            tracer.set_corr(f"dispatch-{dispatch}")
            span.attrs = [job.job_id for job in jobs]

    tracer.wrap(Session, "run_requests", "session.run_requests", outcomes)
    tracer.wrap(sweep, "plan_runs", "session.plan_runs", routes)
    tracer.wrap(service, "plan_runs", "session.plan_runs", routes)
    tracer.wrap(sweep, "execute_plan", "session.execute_plan")
    tracer.wrap(sweep, "run_lanes", "lanes.run_lanes", lanes)
    tracer.wrap(sweep, "run_simulation", "event.run_simulation", event)
    tracer.wrap(ResultCache, "get", "cache.get", cache_get)
    tracer.wrap(ResultCache, "put", "cache.put", cache_put)
    tracer.wrap(RunRequest, "cache_key", "cache.key", cache_key)
    tracer.wrap(service.ArbitrationService, "submit", "service.submit", submitted)
    tracer.wrap(AdmissionController, "offer", "service.offer")
    tracer.wrap(AdmissionController, "take", "service.take", taken)
    tracer.wrap_submit(ShardPool, "submit", "shards.payload")


# -- per-layer metrics --------------------------------------------------------


def _finished(spans: Iterable[Span]) -> List[Span]:
    return [span for span in spans if span.end is not None]


def self_times(spans: Iterable[Span]) -> Dict[str, float]:
    """Total self time per span name (detached spans excluded)."""
    spans = [span for span in _finished(spans) if not span.detached]
    covered: Dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.end - span.start
    totals: Dict[str, float] = defaultdict(float)
    for span in spans:
        totals[span.name] += span.end - span.start - covered[span.id]
    return totals


def _union(intervals: Iterable[Tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def _clip(intervals, lo: float, hi: float) -> List[Tuple[float, float]]:
    return [(max(s, lo), min(e, hi)) for s, e in intervals if e > lo and s < hi]


def percentile_ms(values: List[float], q: int) -> float:
    """The q-th percentile of ``values`` (seconds), in milliseconds."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0] * 1e3
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] * 1e3


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """Busy time and counts of every layer, common to all workloads."""
    busy = self_times(tracer.spans)
    counts = tracer.counts
    out = {
        metric: sum(busy.get(name, 0.0) for name in names)
        for metric, names in LAYER_SPANS.items()
    }
    for route in ("lanes", "direct", "cache", "dedup"):
        out[f"session.routes.{route}"] = counts[f"session.routes.{route}"]
    out["session.fallback_cells"] = counts["session.fallback_cells"]
    for name in ("lanes.calls", "lanes.cells", "lanes.completions", "event.cells",
                 "event.completions", "cache.gets", "cache.hits", "cache.puts",
                 "cache.bytes_written", "cache.keys"):
        out[name] = counts[name]
    for layer in ("lanes", "event"):
        completions = counts[f"{layer}.completions"]
        out[f"{layer}.us_per_completion"] = (
            out[f"{layer}.busy_s"] * 1e6 / completions if completions else 0.0
        )
    gets = counts["cache.gets"]
    out["cache.hit_ratio"] = counts["cache.hits"] / gets if gets else 0.0
    return out


def gather_unattributed_frac(tracer: Tracer) -> float:
    """Share of the gathers' wall time not covered by layer self time."""
    wall = sum(
        span.end - span.start for span in _finished(tracer.spans) if span.name == GATHER_SPAN
    )
    if wall <= 0.0:
        return 0.0
    busy = self_times(tracer.spans)
    layers = sum(busy.get(name, 0.0) for names in LAYER_SPANS.values() for name in names)
    return (wall - layers) / wall


def dispatch_unattributed_frac(tracer: Tracer) -> float:
    """Share of the dispatcher's busy windows no wrapped span covers.

    A window runs from a ``take`` that returned jobs to the next
    ``take``; it is covered by the dispatcher's own layer spans and by
    shard payloads in flight.
    """
    spans = _finished(tracer.spans)
    takes = sorted((span for span in spans if span.name == "service.take"), key=lambda s: s.start)
    if not takes:
        return 0.0
    dispatcher = takes[0].thread
    covering = [
        (span.start, span.end)
        for span in spans
        if span.detached
        or (span.thread == dispatcher and span.parent is None and span.name != "service.take")
    ]
    window_total = covered = 0.0
    for this, following in zip(takes, takes[1:]):
        if this.attrs is None:
            continue
        lo, hi = this.end, following.start
        window_total += hi - lo
        covered += _union(_clip(covering, lo, hi))
    return (window_total - covered) / window_total if window_total > 0.0 else 0.0


def shard_metrics(tracer: Tracer, window: float, shards: int) -> Dict[str, float]:
    payloads = [s for s in _finished(tracer.spans) if s.name == "shards.payload"]
    durations = [s.end - s.start for s in payloads]
    busy = sum(
        _union((s.start, s.end) for s in payloads if s.attrs == shard) for shard in range(shards)
    )
    return {
        "shards.payloads": len(payloads),
        "shards.payload_p50_ms": percentile_ms(durations, 50),
        "shards.payload_p99_ms": percentile_ms(durations, 99),
        "shards.busy_frac": busy / (window * shards) if window > 0.0 and shards else 0.0,
    }
