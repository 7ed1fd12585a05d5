"""Execute a :class:`~repro.session.planner.RunPlan`.

:func:`execute_plan` is the single orchestration loop both
orchestrators share — the :class:`~repro.session.session.Session` and
the :class:`~repro.service.service.ArbitrationService` dispatcher.
(:func:`~repro.experiments.runner.run_simulation` runs one cell without
a plan: it calls :func:`~repro.session.single.run_cell` directly.)  It
replays cached runs, packs the lane route into one lockstep
super-batch, hands every miss to one injected back end, demotes a lane
pack that fails at runtime to per-cell event-engine payloads (loudly —
see :mod:`repro.session.fallback`), retries a failing cell once, fills
in dedup outcomes, writes fresh results back to the cache, and accounts
everything on a shared :class:`~repro.session.outcome.SessionStats`.

A back end only runs payloads.  It is a callable taking the payloads
and a boundary check, yielding ``(payload, result, error)`` as each
payload finishes (in any order); it calls the check at every payload
boundary and lets whatever the check raises propagate.
:class:`SerialBackend` runs payloads in this process, in order;
:meth:`repro.service.shards.ShardPool.run` runs them on process-pool
shards and recovers from worker crashes itself.
"""

from __future__ import annotations

import copy
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.session.control import RunControl
from repro.session.fallback import warn_batch_fallback
from repro.session.outcome import (
    ROUTE_CACHE,
    ROUTE_DEDUP,
    ROUTE_DIRECT,
    CellFailure,
    RunOutcome,
    SessionStats,
)
from repro.session.planner import PlannedRun, RunPlan

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.experiments.cache import ResultCache
    from repro.service.backoff import BackoffPolicy

__all__ = ["execute_plan", "Payload", "SerialBackend", "PAYLOAD_CELL", "PAYLOAD_LANES"]

#: Payload kinds: one simulation cell, or one lane-packed super-batch.
PAYLOAD_CELL = "cell"
PAYLOAD_LANES = "lanes"

Done = Tuple["Payload", object, Optional[BaseException]]
#: A back end: payloads and a boundary check in, finished payloads out.
Backend = Callable[[Sequence["Payload"], Callable[[], None]], Iterable[Done]]


class Payload:
    """One unit of back-end work and the planned runs it answers."""

    __slots__ = ("kind", "runs", "data", "demoted", "first_error", "worker", "rerun")

    def __init__(self, kind: str, runs: List[PlannedRun], demoted: bool = False) -> None:
        self.kind = kind
        self.runs = runs
        #: What the engine needs: a tuple of cells, or one cell (on the
        #: event engine once demoted, as its fallback warning says).
        request = runs[0].request
        self.data = (
            tuple(run.request.as_cell() for run in runs)
            if kind == PAYLOAD_LANES
            else (request.resolved("event") if demoted else request).as_cell()
        )
        #: A cell of a lane pack that failed at runtime.
        self.demoted = demoted
        #: The first attempt's error, once :func:`execute_plan` retries.
        self.first_error: Optional[str] = None
        #: Set by a pooled back end: a worker process produced the result.
        self.worker = False
        #: Set by a pooled back end: it ran the payload in-process after
        #: losing its worker (a crash or a broken pool).
        self.rerun = False


def _run_lanes(cells):
    from repro.engine.batch import run_lanes

    return run_lanes(cells)


def _run_cell(scenario, protocol, settings):
    from repro.session.single import run_cell

    return run_cell(scenario, protocol, settings)


class SerialBackend:
    """Runs payloads in this process, one after another, in order.

    ``run_lanes`` and ``run_cell`` replace the engine entry points
    (:func:`repro.engine.batch.run_lanes` and
    :func:`repro.session.single.run_cell`, both looked up at call time).
    Each cell runs against a private copy of its scenario, so stateful
    distributions (trace replay) start every cell from the same
    position, as they do across a process boundary.
    """

    def __init__(self, run_lanes: Optional[Callable] = None, run_cell: Optional[Callable] = None) -> None:
        self._run_lanes = run_lanes or _run_lanes
        self._run_cell = run_cell or _run_cell

    def execute(self, kind: str, data):
        """Run one payload's data here and return its result(s)."""
        if kind == PAYLOAD_LANES:
            return list(self._run_lanes(data))
        scenario, protocol, settings = data
        return self._run_cell(copy.deepcopy(scenario), protocol, settings)

    def run(self, payloads: Sequence[Payload], check: Callable[[], None]) -> Iterator[Done]:
        """The back-end protocol (see the module docstring)."""
        for payload in payloads:
            check()
            try:
                result = self.execute(payload.kind, payload.data)
            except Exception as exc:
                yield payload, None, exc
            else:
                yield payload, result, None


def _unchecked() -> None:
    return None


def _describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def execute_plan(
    plan: RunPlan,
    cache: Optional["ResultCache"] = None,
    stats: Optional[SessionStats] = None,
    backend: Optional[Backend] = None,
    control: Optional[RunControl] = None,
    backoff: Optional["BackoffPolicy"] = None,
) -> List[RunOutcome]:
    """Run every planned cell; outcomes in plan (= request) order.

    ``backend`` runs the payloads (a :class:`SerialBackend` by
    default).  A lane pack that fails at runtime — a shared pack, or
    the one-cell pack of a direct run promised the batch engine —
    demotes its cells to per-cell event-engine payloads with one
    ``RuntimeWarning``, a ``fallback_cells`` tally on ``stats`` and a
    ``fallback`` flag on their outcomes.  A cell that raises is retried
    once, after ``backoff``'s first delay when one is given; if the
    retry raises too, its outcome carries a :class:`CellFailure` (also
    appended to ``stats.failures``) and no result — callers decide
    whether that raises.  A dedup run gets its first occurrence's result or failure.
    Fresh results are written back to ``cache`` as they arrive, under
    their planned keys.  ``stats`` accumulates across calls when the
    caller owns it.

    ``control`` installs cooperative cancellation: its ``check()`` runs
    before any work and at every payload boundary of the back end, and
    whatever it raises (:class:`~repro.errors.CancelledRunError` /
    :class:`~repro.errors.DeadlineExceededError`) propagates out of
    this function.  Results that finished before the trip are already
    in the cache; cancellation never leaves partial state behind.
    """
    stats = stats if stats is not None else SessionStats()
    run = backend if backend is not None else SerialBackend().run
    check = control.check if control is not None else _unchecked
    check()
    outcomes: List[Optional[RunOutcome]] = [None] * len(plan.runs)
    for planned in plan.cached_runs:
        stats.cache_hits += 1
        outcomes[planned.index] = RunOutcome(
            request=planned.request,
            result=planned.cached,
            route=ROUTE_CACHE,
            cache_key=planned.key,
        )
    # A direct run promised the batch engine is a lane pack of its own,
    # so a runtime kernel failure demotes it like any other pack.
    payloads = [
        Payload(PAYLOAD_CELL if planned.family is None else PAYLOAD_LANES, [planned])
        for planned in plan.direct_runs
    ]
    if plan.lane_runs:
        payloads.insert(0, Payload(PAYLOAD_LANES, plan.lane_runs))

    first_pass = True
    while payloads:
        again: List[Payload] = []
        in_worker = False
        for payload, result, error in run(payloads, check):
            in_worker = in_worker or payload.worker
            if payload.rerun:
                stats.retries += len(payload.runs)
            if error is None:
                lane_pack = payload.kind == PAYLOAD_LANES
                results = result if lane_pack else [result]
                for planned, fresh in zip(payload.runs, results):
                    if cache is not None:
                        cache.put(planned.key, fresh)
                    outcomes[planned.index] = RunOutcome(
                        request=planned.request,
                        result=fresh,
                        route=ROUTE_DIRECT if payload.demoted else planned.route,
                        cache_key=planned.key,
                        stored=cache is not None,
                        fallback=payload.demoted,
                    )
                stats.executed += len(payload.runs)
                if lane_pack:
                    stats.batch_groups += len({planned.family for planned in payload.runs})
                    stats.batch_replications += len(payload.runs)
                continue
            if payload.kind == PAYLOAD_LANES:
                warn_batch_fallback(len(payload.runs), error, stats)
                again.extend(
                    Payload(PAYLOAD_CELL, [planned], demoted=True) for planned in payload.runs
                )
                continue
            planned = payload.runs[0]
            if payload.first_error is None:
                # One retry: it either reproduces a genuine error or heals
                # a transient one; the pacing is deterministic per cell.
                payload.first_error = _describe(error)
                payload.rerun = payload.worker = False
                stats.retries += 1
                if backoff is not None:
                    tag = planned.request.tag
                    backoff.sleep(0, token=tag if tag is not None else str(planned.index))
                again.append(payload)
                continue
            failure = CellFailure(
                index=planned.index,
                tag=planned.request.tag,
                protocol=planned.request.protocol,
                scenario=planned.request.scenario.name,
                error=_describe(error),
                first_error=payload.first_error,
            )
            stats.failures.append(failure)
            outcomes[planned.index] = RunOutcome(
                request=planned.request,
                result=None,
                route=ROUTE_DIRECT,
                cache_key=planned.key,
                fallback=payload.demoted,
                failure=failure,
            )
        if first_pass:
            first_pass = False
            if in_worker:
                stats.parallel_batches += 1
            else:
                stats.serial_batches += 1
        payloads = again

    for planned in plan.by_route(ROUTE_DEDUP):
        stats.deduplicated += 1
        first = outcomes[planned.first]
        outcomes[planned.index] = RunOutcome(
            request=planned.request,
            result=first.result,
            route=ROUTE_DEDUP,
            cache_key=planned.key,
            failure=first.failure,
        )
    return outcomes  # type: ignore[return-value]  # every slot is filled
