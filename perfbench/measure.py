"""Set-up, measurement loops and metrics of one benchmark run.

Two loop shapes:

- the grid workloads (``closed-lanes``, ``openloop-event``) are closed
  loops: one caller gathers each job of the grid (a row of a table, or
  a group of the open-loop grid) in turn through a cacheless serial
  :class:`~repro.session.Session`, and repeats the round until the run
  time is spent.  A job's latency is its gather's wall time.
- ``service-mixed`` is an open loop: this thread offers jobs to an
  in-process :class:`~repro.service.service.ArbitrationService` on a
  fixed-rate schedule whatever the service's state, and each job is
  timed from its due time, so a stall also delays the jobs behind it.

Every time here is host wall-clock time, scaled to the host's reference
speed by the probe in :mod:`perfbench.hostspeed`; the unscaled figures go
into the run's record.  Simulated statistics are outputs the gate checks.
"""

from __future__ import annotations

import gc
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from perfbench import gate, hostspeed
from perfbench.inputs import Inputs, build_inputs
from perfbench.tracing import (
    GATHER_SPAN,
    Tracer,
    dispatch_unattributed_frac,
    gather_unattributed_frac,
    install,
    layer_metrics,
    percentile_ms,
    shard_metrics,
)
from repro.errors import SweepExecutionError
from repro.experiments.cache import ResultCache
from repro.service.jobs import JOB_DONE
from repro.service.service import ArbitrationService
from repro.service.shards import PAYLOAD_CELL
from repro.session import Session

ROOT = Path(__file__).resolve().parent.parent
#: Traces and the service's on-disk caches live here, inside the checkout.
WORK_DIR = ROOT / ".perfbench"

END_TO_END = {
    "completions_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_p95_ms": "ms",
    "slo_met_frac": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "session.self_s": "s",
    "session.plan_s": "s",
    "session.routes.lanes": "count",
    "session.routes.direct": "count",
    "session.routes.cache": "count",
    "session.routes.dedup": "count",
    "session.fallback_cells": "count",
    "lanes.busy_s": "s",
    "lanes.calls": "count",
    "lanes.cells": "count",
    "lanes.completions": "count",
    "lanes.us_per_completion": "us",
    "event.busy_s": "s",
    "event.cells": "count",
    "event.completions": "count",
    "event.us_per_completion": "us",
    "cache.get_s": "s",
    "cache.gets": "count",
    "cache.hits": "count",
    "cache.hit_ratio": "ratio",
    "cache.put_s": "s",
    "cache.puts": "count",
    "cache.bytes_written": "bytes",
    "cache.key_s": "s",
    "cache.keys": "count",
    "service.submit_s": "s",
    "service.queue_wait_p50_ms": "ms",
    "service.queue_wait_p99_ms": "ms",
    "service.run_p50_ms": "ms",
    "service.run_p99_ms": "ms",
    "service.dispatches": "count",
    "service.jobs_per_dispatch": "count",
    "service.backlog_high_water": "count",
    "service.dedup": "count",
    "service.cache_hits": "count",
    "service.executed": "count",
    "service.rejected": "count",
    "service.timeouts": "count",
    "service.crashes": "count",
    "service.respawns": "count",
    "shards.payloads": "count",
    "shards.payload_p50_ms": "ms",
    "shards.payload_p99_ms": "ms",
    "shards.busy_frac": "ratio",
    "loadgen.sent": "count",
    "loadgen.lag_p99_ms": "ms",
    "trace.overhead_frac": "ratio",
    "trace.unattributed_frac": "ratio",
}

#: The service stream's fixed latency limit for ``slo_met_frac``.
SERVICE_SLO_MS = 50.0
#: On the grids a gather meets the limit when it takes at most this
#: multiple of its job's median gather.  A fixed limit would have to sit
#: above the host's own swings (other tenants slow a gather by up to
#: 1.7x) and could only move on a several-fold slowdown; this one moves
#: when some gathers fall far behind the typical one.
GRID_SLO_FACTOR = 2.0
#: The service's latency percentiles are medians over this many
#: consecutive windows of the stream (180 jobs each at full size), so a
#: few seconds of contention from other tenants of the host move one
#: window rather than the result.
SERVICE_WINDOWS = 5
#: Probe rounds (about 2 ms each) before and after every gather and
#: set-up; see hostspeed.py.
PROBE_ROUNDS = 5
#: The service stream probes the host (one round on each CPU, since the
#: service runs on all of them) this long before each job is due, when no
#: job is in flight, so the probe ends before the job is submitted.
SERVICE_PROBE_LEAD_S = 0.020
#: A service probe still running this long before its job is due is cut
#: short and discarded.
SERVICE_PROBE_MARGIN_S = 0.001
#: Each service job's latency is scaled by the median slowdown of the
#: probes of the jobs this many places either side of it.
SERVICE_PROBE_SPAN = 4
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPS = 5
#: Longest wait for the service to finish the offered jobs.
DRAIN_LIMIT_S = 60.0


@dataclass
class Phase:
    """What one measured pass (untraced or traced) observed."""

    #: Grids: each job's median normalised gather; service: each job's
    #: latency.
    latencies: List[float] = field(default_factory=list)
    completions_per_s: float = 0.0
    slo_met_frac: float = 0.0
    #: Latency samples behind the metrics.
    samples: int = 0
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    digest: Optional[str] = None
    #: Grids: the first round's results; service: every served result.
    results: list = field(default_factory=list)
    layers: Dict[str, float] = field(default_factory=dict)
    #: The host-speed probe's slowdowns and the unscaled figures.
    host: dict = field(default_factory=dict)


def import_in_fresh_interpreter() -> None:
    """Import the program's layers in a new interpreter, as a user's
    first call does; set-up time counts it."""
    code = "import repro.session, repro.experiments.sweep, repro.service.service"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, "-c", code], check=True, env=env, cwd=ROOT)


def environment(service: Optional[ArbitrationService]) -> dict:
    try:
        import numpy

        numpy_version: Optional[str] = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "service_topology": (
            f"{service.pool.shards}x{service.pool.workers}" if service is not None else None
        ),
    }


def pin_to_one_cpu() -> Optional[int]:
    """Keep this process (and the interpreters it starts) on one CPU.

    The grids are serial, and other tenants slow each CPU of the host by
    their own amount: pinned, the host-speed probe always measures the
    CPU the gathers run on.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def _rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


# -- grid workloads -------------------------------------------------------------


def run_gathers(inputs: Inputs, seconds: float, tracer: Optional[Tracer] = None) -> Phase:
    """Gather every job in turn, round after round, for ``seconds``; the
    first round is warm-up.  The host-speed probe runs before the first
    gather and after every gather."""
    phase = Phase()
    session = Session(jobs=1)
    # Per job, the measured gathers: (normalised time, succeeded).
    gathers: List[List[Tuple[float, bool]]] = [[] for _ in inputs.jobs]
    wall: List[List[float]] = [[] for _ in inputs.jobs]
    probes: List[float] = []
    completions = 0
    digests = set()
    hostspeed.probe(PROBE_ROUNDS)
    before = hostspeed.probe(PROBE_ROUNDS)
    deadline = perf_counter() + seconds
    rounds = 0
    while rounds < 2 or perf_counter() < deadline:
        rounds += 1
        results = []
        for index, job in enumerate(inputs.jobs):
            if tracer is not None:
                tracer.set_corr(f"round-{rounds}/job-{index}")
                span = tracer.open(GATHER_SPAN)
            start = perf_counter()
            try:
                outcomes = session.run_requests(job)
            except SweepExecutionError as exc:
                phase.attempted += len(job)
                phase.failed += len(job)
                phase.errors.append(str(exc))
                return phase
            finally:
                if tracer is not None:
                    tracer.close(span)
            elapsed = perf_counter() - start
            after = hostspeed.probe(PROBE_ROUNDS)
            job_results = [outcome.result for outcome in outcomes]
            short = gate.budget_errors(job, job_results)
            fallbacks = sum(outcome.fallback for outcome in outcomes)
            phase.attempted += len(outcomes)
            phase.failed += len(short) + fallbacks
            phase.errors.extend(short)
            results.extend(job_results)
            if rounds > 1:
                gathers[index].append(
                    (hostspeed.normalised(elapsed, before, after), not short and not fallbacks)
                )
                wall[index].append(elapsed)
                probes.append(after)
            before = after
        digests.add(gate.digest(results))
        if rounds == 1:
            phase.results = results
            completions = sum(r.collector.total_recorded for r in results)
    if len(digests) > 1:
        phase.errors.append("repeated gathers of the same inputs gave different statistics")
    # Each job's figure is the median of its gathers, each scaled by the
    # probes around it to the host's reference speed (see hostspeed.py).
    medians = [statistics.median(t for t, _ in job) for job in gathers]
    phase.latencies = medians
    phase.completions_per_s = completions / sum(medians)
    met = 0
    for job, median in zip(gathers, medians):
        met += sum(ok and t <= GRID_SLO_FACTOR * median for t, ok in job)
    phase.samples = sum(map(len, gathers))
    phase.slo_met_frac = met / phase.samples
    phase.digest = digests.pop()
    phase.host = {
        "slowdown_min": min(probes),
        "slowdown_median": statistics.median(probes),
        "wall_completions_per_s": completions / sum(map(statistics.median, wall)),
    }
    if tracer is not None:
        phase.layers = layer_metrics(tracer)
        phase.layers["loadgen.sent"] = rounds * len(inputs.jobs)
        phase.layers["trace.unattributed_frac"] = gather_unattributed_frac(tracer)
    return phase


# -- service workload -------------------------------------------------------------


@dataclass
class ServiceEnv:
    """A started service over a warmed cache, ready for the stream."""

    service: ArbitrationService
    cache_dir: Path

    def close(self) -> None:
        self.service.close()
        shutil.rmtree(self.cache_dir, ignore_errors=True)


def start_service(inputs: Inputs) -> ServiceEnv:
    """Warm a fresh on-disk cache with the hot cells, start the service
    with its default pooled back end and spawn every shard's worker."""
    WORK_DIR.mkdir(exist_ok=True)
    cache_dir = Path(tempfile.mkdtemp(prefix="cache-", dir=WORK_DIR))
    cache = ResultCache(cache_dir)
    Session(jobs=1, cache=cache).run_requests(inputs.hot)
    service = ArbitrationService(cache=cache).start()
    env = ServiceEnv(service, cache_dir)
    try:
        warm = [
            service.pool.submit(shard, PAYLOAD_CELL, inputs.hot[0].as_cell())
            for shard in range(service.pool.shards)
        ]
        for future in warm:
            future.result(timeout=DRAIN_LIMIT_S)
    except BaseException:
        env.close()
        raise
    return env


def _sleep_until(when: float) -> None:
    delay = when - time.monotonic()
    if delay > 0.0:
        time.sleep(delay)


def run_stream(inputs: Inputs, env: ServiceEnv, tracer: Optional[Tracer] = None) -> Phase:
    """Offer every job on schedule, wait for all, then close the service."""
    phase = Phase()
    service = env.service
    offered = []
    lags = []
    # Per job, the probe's slowdown just before it was due; None where a
    # job was still in flight then, so the probe never competes with the
    # service for the interpreter, or where the probe ran so slowly that
    # it was cut short so as not to delay the job.
    slowdowns: List[Optional[float]] = []
    in_flight = []
    start = time.monotonic() + 0.05
    try:
        for index, requests in enumerate(inputs.jobs):
            due = start + index / inputs.rate
            _sleep_until(due - SERVICE_PROBE_LEAD_S)
            in_flight = [job for job in in_flight if not job.terminal]
            slowdowns.append(
                None if in_flight else hostspeed.probe_each_cpu(due - SERVICE_PROBE_MARGIN_S)
            )
            _sleep_until(due)
            lags.append(max(0.0, time.monotonic() - due))
            job = service.submit(requests)
            in_flight.append(job)
            offered.append((due, job))
        drain_by = time.monotonic() + DRAIN_LIMIT_S
        for _, job in offered:
            job.wait(max(0.0, drain_by - time.monotonic()))
        snapshot = service.stats_snapshot()
    finally:
        env.close()

    served = phase.results
    completions = 0
    end = start
    stopped = time.monotonic()
    met = 0
    wall = []
    # A service that never drained between jobs left no probe: the host
    # is probed once now that it is idle.
    probed = [slowdown for slowdown in slowdowns if slowdown is not None]
    probed = probed or [hostspeed.probe_each_cpu()]
    for index, (due, job) in enumerate(offered):
        phase.attempted += 1
        wall.append((job.finished_at or stopped) - due)
        # Scaled to the reference speed by the probes around the job, or
        # by all of the run's probes when none ran near it.
        low = max(0, index - SERVICE_PROBE_SPAN)
        nearby = [s for s in slowdowns[low:index + SERVICE_PROBE_SPAN + 1] if s is not None]
        phase.latencies.append(wall[-1] / statistics.median(nearby or probed))
        if job.state != JOB_DONE:
            phase.failed += 1
            phase.errors.append(f"{job.job_id} finished {job.state}: {job.error}")
            continue
        met += phase.latencies[-1] <= SERVICE_SLO_MS / 1e3
        end = max(end, job.finished_at)
        for outcome in job.outcomes:
            served.append(outcome.result)
            completions += outcome.result.collector.total_recorded
    # Set by the offered rate as long as the service keeps up: a figure
    # of the load generator more than of the program.
    phase.completions_per_s = completions / (end - start) if end > start else 0.0
    phase.slo_met_frac = met / len(offered)
    phase.samples = len(offered)
    phase.host = {
        "probes": len(probed),
        "slowdown_min": min(probed),
        "slowdown_median": statistics.median(probed),
        "wall_job_p50_ms": windowed_ms(wall, 50, SERVICE_WINDOWS),
        "wall_job_p95_ms": windowed_ms(wall, 95, SERVICE_WINDOWS),
    }

    if tracer is not None:
        done = [job for _, job in offered if job.state == JOB_DONE]
        queue = [job.started_at - job.submitted_at for job in done]
        run = [job.finished_at - job.started_at for job in done]
        counters = snapshot["counters"]
        layers = layer_metrics(tracer)
        layers.update(shard_metrics(tracer, end - start, service.pool.shards))
        dispatches = tracer.counts["service.dispatches"]
        layers.update(
            {
                "service.submit_s": sum(
                    s.end - s.start for s in tracer.spans
                    if s.name == "service.submit" and s.end is not None
                ),
                "service.queue_wait_p50_ms": percentile_ms(queue, 50),
                "service.queue_wait_p99_ms": percentile_ms(queue, 99),
                "service.run_p50_ms": percentile_ms(run, 50),
                "service.run_p99_ms": percentile_ms(run, 99),
                "service.dispatches": dispatches,
                "service.jobs_per_dispatch": (
                    tracer.counts["service.jobs_taken"] / dispatches if dispatches else 0.0
                ),
                "service.backlog_high_water": snapshot["high_water"],
                "service.dedup": counters.get("service.deduplicated", 0),
                "service.cache_hits": counters.get("service.cache_hits", 0),
                "service.executed": counters.get("service.executed", 0),
                "service.rejected": counters.get("service.rejected", 0),
                "service.timeouts": counters.get("service.deadline_exceeded", 0),
                "service.crashes": counters.get("service.crashes", 0),
                "service.respawns": snapshot["pool"]["respawns"],
                "loadgen.sent": len(offered),
                "loadgen.lag_p99_ms": percentile_ms(lags, 99),
                "trace.unattributed_frac": dispatch_unattributed_frac(tracer),
            }
        )
        phase.layers = layers
    return phase


# -- one run ------------------------------------------------------------------------


@dataclass
class Report:
    correct: bool
    attempted: int
    failed: int
    metrics: Dict[str, float]
    record: dict


def windowed_ms(latencies: List[float], q: int, windows: int) -> float:
    """Median over consecutive windows of each window's q-th percentile."""
    size = len(latencies) // windows
    if size < 2:
        return percentile_ms(latencies, q)
    return statistics.median(
        percentile_ms(latencies[start:start + size], q)
        for start in range(0, size * windows, size)
    )


def _end_to_end(workload: str, phase: Phase, setup_s: float, rss_mb: float) -> Dict[str, float]:
    windows = SERVICE_WINDOWS if workload == "service-mixed" else 1
    return {
        "completions_per_s": phase.completions_per_s,
        "job_p50_ms": windowed_ms(phase.latencies, 50, windows),
        "job_p95_ms": windowed_ms(phase.latencies, 95, windows),
        "slo_met_frac": phase.slo_met_frac,
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
    }


def _setup(workload: str, scale: str, seed: int, seconds: int, keep: int):
    """Set up ``SETUP_REPS`` times; returns the inputs, the last ``keep``
    service environments (none for grids) and every set-up's wall and
    normalised seconds (scaled by the host-speed probes around it)."""
    wall: List[float] = []
    times: List[float] = []
    envs: List[ServiceEnv] = []
    try:
        hostspeed.probe(PROBE_ROUNDS)
        before = hostspeed.probe(PROBE_ROUNDS)
        for _ in range(SETUP_REPS):
            start = perf_counter()
            import_in_fresh_interpreter()
            inputs = build_inputs(workload, scale, seed, seconds)
            if workload == "service-mixed":
                envs.append(start_service(inputs))
            wall.append(perf_counter() - start)
            after = hostspeed.probe(PROBE_ROUNDS)
            times.append(hostspeed.normalised(wall[-1], before, after))
            before = after
            while len(envs) > keep:
                envs.pop(0).close()
    except BaseException:
        for env in envs:
            env.close()
        raise
    return inputs, envs, wall, times


def run(workload: str, scale: str, seed: int, seconds: int, trace: bool,
        digests_path: Path) -> Report:
    recorded = gate.load_digests(digests_path)
    is_service = workload == "service-mixed"
    pinned = None if is_service else pin_to_one_cpu()
    inputs, envs, setup_wall, setup_times = _setup(
        workload, scale, seed, seconds, keep=2 if trace else 1
    )
    topology = environment(envs[0].service if envs else None)
    topology["pinned_cpu"] = pinned

    def measure(tracer: Optional[Tracer]) -> Phase:
        # Every pass starts from the same collector state, so the full
        # collections the program triggers fall alike in every run.
        gc.collect()
        if is_service:
            return run_stream(inputs, envs.pop(0), tracer)
        return run_gathers(inputs, seconds, tracer)

    try:
        plain = measure(None)
        traced = None
        if trace:
            tracer = Tracer()
            install(tracer)
            try:
                traced = measure(tracer)
            finally:
                tracer.uninstall()
            tracer.write(WORK_DIR / f"trace-{workload}-seed{seed}.jsonl")
    finally:
        for env in envs:
            env.close()
    # Peak memory of the measured passes; the gate below allocates more.
    # The service's workers have been joined, so they count as children.
    peak_rss = {
        "self": _rss_mb(resource.RUSAGE_SELF),
        "largest_child": _rss_mb(resource.RUSAGE_CHILDREN) if is_service else 0.0,
    }

    errors = list(plain.errors)
    if is_service:
        reference = gate.reference_results(inputs.all_requests())
        errors.extend(gate.budget_errors(inputs.all_requests(), reference))
        phases = [plain] + ([traced] if traced is not None else [])
        for phase in phases:
            mismatches = gate.pickle_mismatches(phase.results, reference)
            if mismatches:
                errors.append(f"{mismatches} served result(s) differ from a serial session")
        run_digest = gate.digest(reference)
    else:
        run_digest = plain.digest
        if workload == "closed-lanes" and plain.results:
            errors.extend(gate.event_cross_check(inputs.all_requests(), plain.results, seed))
    if traced is not None:
        errors.extend(traced.errors)
        if not is_service and traced.digest != plain.digest:
            errors.append("traced gathers gave different statistics")

    digest_error = gate.check_digest(recorded, inputs.key, run_digest or "")
    if digest_error:
        errors.append(digest_error)
    canary = build_inputs(workload, "tiny", 0, 1)
    canary_digest = gate.digest(gate.reference_results(canary.all_requests()))
    if recorded.get(canary.key) != canary_digest:
        errors.append(
            f"canary {canary.key}: recorded {recorded.get(canary.key)}, got {canary_digest}"
        )

    setup_s = statistics.median(setup_times)
    if trace:
        metrics = dict(traced.layers)
        if is_service:
            base = windowed_ms(plain.latencies, 50, SERVICE_WINDOWS)
            metrics["trace.overhead_frac"] = (
                windowed_ms(traced.latencies, 50, SERVICE_WINDOWS) / base - 1.0
            )
        else:
            metrics["trace.overhead_frac"] = (
                plain.completions_per_s / traced.completions_per_s - 1.0
            )
        # Layers a workload never reaches report zero work.
        metrics = {name: metrics.get(name, 0) for name in PER_LAYER}
    else:
        metrics = _end_to_end(workload, plain, setup_s, sum(peak_rss.values()))

    attempted = plain.attempted + (traced.attempted if traced is not None else 0)
    failed = plain.failed + (traced.failed if traced is not None else 0)
    record = {
        "workload": workload,
        "scale": scale,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": topology,
        "inputs": inputs.properties,
        "digest": {
            "key": inputs.key,
            "value": run_digest,
            "recorded": inputs.key in recorded,
            "canary": canary.key,
        },
        "setup_s_each": setup_times,
        "setup_wall_s_each": setup_wall,
        "peak_rss_mb": peak_rss,
        "samples": plain.samples,
        "host_speed": plain.host or None,
        "slo_limit": (
            f"{SERVICE_SLO_MS:g} ms" if is_service
            else f"{GRID_SLO_FACTOR:g} x each job's median normalised gather"
        ),
        "errors": errors[:20],
    }
    return Report(
        correct=not errors and failed == 0,
        attempted=attempted,
        failed=failed,
        metrics=metrics,
        record=record,
    )
