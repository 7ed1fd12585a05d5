"""The synchronous orchestrator: submit requests, gather outcomes.

Callers :meth:`~Session.submit`
:class:`~repro.session.request.RunRequest`\\ s, then :meth:`~Session.gather`
the batch — one planned, deduplicated, lane-packed, cached, pool-backed
sweep — and receive :class:`~repro.session.outcome.RunOutcome`\\ s in
submission order.  Identical requests of one gather (same epoch-6
content hash) run once; every duplicate receives the same result with
``route="dedup"`` (the planner decides that, see
:func:`repro.session.planner.plan_runs`), even with no cache directory
configured.

A session backs the experiment tables, the robustness grid, the CLI and
ad-hoc runs alike; the service exposes the same ``run_requests`` /
``simulate`` pair, so a grid can run against either.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator, List, Optional, Sequence

from repro.errors import SweepExecutionError
from repro.session.control import RunControl
from repro.session.outcome import ROUTE_DEDUP, RunOutcome, SessionStats
from repro.session.planner import RunPlan, normalize_engine
from repro.session.request import RunRequest

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.experiments.cache import ResultCache
    from repro.experiments.runner import SimulationSettings
    from repro.service.backoff import BackoffPolicy
    from repro.session.execute import Backend
    from repro.stats.summary import RunResult
    from repro.workload.scenarios import ScenarioSpec

__all__ = ["Session"]


class Session:
    """Plans, executes, caches and accounts batches of run requests.

    Parameters
    ----------
    jobs:
        Worker processes (``0`` = one per CPU core; default
        ``$REPRO_JOBS`` or 1, in-process).  With ``jobs > 1`` a gather
        of more than one per-cell run executes on a one-shard
        :class:`~repro.service.shards.ShardPool`, which degrades to
        in-process execution where process pools are unavailable.
    cache:
        Optional :class:`~repro.experiments.cache.ResultCache` shared
        by every gather: each request is looked up before execution and
        each executed run is stored after.
    engine:
        Optional engine override applied to every request (validated).
        ``None`` respects each request's own declaration.  The override
        never changes cache keys — the engine selector is not part of a
        cell's identity (epoch 6) — and cells outside the batch domain
        still run on the event engine.
    backoff:
        Retry pacing for failed cells (and respawn pacing for the
        pool): the deterministic jittered exponential of
        :data:`~repro.experiments.sweep.RETRY_BACKOFF` by default.
        Callers that must never sleep pass
        :meth:`BackoffPolicy.none() <repro.service.backoff.BackoffPolicy.none>`.
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        cache: Optional["ResultCache"] = None,
        engine: Optional[str] = None,
        backoff: Optional["BackoffPolicy"] = None,
    ) -> None:
        from repro.experiments.sweep import RETRY_BACKOFF, resolve_jobs

        self.jobs = resolve_jobs(jobs)
        self.cache = cache
        self.engine = normalize_engine(engine)
        self.backoff = backoff if backoff is not None else RETRY_BACKOFF
        #: Execution accounting, cumulative across gathers.
        self.stats = SessionStats()
        self._pending: List[RunRequest] = []

    # -- submit / gather ------------------------------------------------------

    def submit(
        self,
        scenario: "ScenarioSpec",
        protocol: str,
        settings: Optional["SimulationSettings"] = None,
        tag: Optional[str] = None,
    ) -> RunRequest:
        """Queue one run for the next :meth:`gather`; returns its request."""
        request = RunRequest(scenario, protocol, settings, tag=tag)
        self._pending.append(request)
        return request

    def submit_request(self, request: RunRequest) -> RunRequest:
        """Queue an already-built request (e.g. one off the wire)."""
        self._pending.append(request)
        return request

    def gather(self, control: Optional[RunControl] = None) -> List[RunOutcome]:
        """Run everything submitted since the last gather, in order."""
        requests, self._pending = self._pending, []
        return self.run_requests(requests, control=control)

    def run_requests(
        self,
        requests: Sequence[RunRequest],
        control: Optional[RunControl] = None,
    ) -> List[RunOutcome]:
        """Plan and execute ``requests``; outcomes in request order.

        Identical requests (same epoch-6 content hash) execute once;
        duplicates replay the first occurrence's outcome with
        ``route="dedup"`` and count in ``stats.deduplicated``.

        ``control`` (a :class:`~repro.session.control.RunControl`)
        installs cooperative cancellation/deadline checks for the whole
        gather; see :func:`repro.session.execute.execute_plan`.
        Raises :class:`~repro.errors.SweepExecutionError` naming every
        cell whose retry failed too.
        """
        from repro.experiments import sweep

        plan = sweep.plan_runs(requests, cache=self.cache, engine=self.engine)
        with self._backend(plan) as backend:
            outcomes = sweep.execute_plan(
                plan,
                cache=self.cache,
                stats=self.stats,
                backend=backend,
                control=control,
                backoff=self.backoff,
            )
        failures = [
            outcome.failure
            for outcome in outcomes
            if outcome.failure is not None and outcome.route != ROUTE_DEDUP
        ]
        if failures:
            details = "; ".join(str(failure) for failure in failures)
            raise SweepExecutionError(
                f"{len(failures)} sweep cell(s) failed after retry: {details}"
            )
        return outcomes

    @contextmanager
    def _backend(self, plan: RunPlan) -> Iterator["Backend"]:
        """A pool for more than one per-cell run when ``jobs > 1``;
        in-process otherwise (one cell, or lanes alone, gain nothing
        from a pool's start-up)."""
        cells = len(plan.direct_runs)
        if self.jobs < 2 or cells < 2:
            from repro.experiments.sweep import SERIAL

            yield SERIAL.run
            return
        from repro.service.shards import ShardPool

        workers = min(self.jobs, cells + bool(plan.lane_runs))
        with ShardPool(shards=1, workers=workers, backoff=self.backoff) as pool:
            yield pool.run

    def simulate(
        self,
        scenario: "ScenarioSpec",
        protocol: str,
        settings: Optional["SimulationSettings"] = None,
    ) -> "RunResult":
        """Single-run convenience: one request, one gather, its result."""
        request = RunRequest(scenario, protocol, settings)
        return self.run_requests([request])[0].result

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        cache = "on" if self.cache is not None else "off"
        return (
            f"Session(jobs={self.jobs}, cache={cache}, pending={len(self._pending)}, "
            f"executed={self.stats.executed}, hits={self.stats.cache_hits})"
        )
