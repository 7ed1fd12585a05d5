"""Sharded process-pool back end with respawn and graceful degradation.

:class:`ShardPool` is the repository's one process pool: the service
runs every dispatch on it, and a
:class:`~repro.session.session.Session` with ``jobs > 1`` runs its
grid on a one-shard pool.  It is a small fleet of independent
:class:`~concurrent.futures.ProcessPoolExecutor` shards.  Work routes
to a shard by the cell's epoch-6 content hash, so one crashing payload
can only take down the futures of its own shard — the blast radius the
paper's distributed arbiters get from per-agent state replication, here
applied to the serving layer.

:meth:`ShardPool.run` is the back end
:func:`~repro.session.execute.execute_plan` drives.  Its failure ladder
(each rung strictly contains the one above):

1. a worker crash breaks one shard; the shard is **respawned** after a
   deterministic jittered backoff delay and the in-flight payloads are
   replayed, each at most ``max_replays`` times before it runs
   in-process instead;
2. repeated crashes exhaust ``max_respawns`` — or the platform cannot
   host process pools at all — and the whole pool **degrades** to
   serial in-process execution.  Degrading drains the pending futures
   of *every* shard at once: finished results are harvested and the
   rest run in-process, so no future outlives its pool and every
   payload is answered;
3. payloads executed in-process strip the test-only crash arming, so a
   replay can never re-trigger the fault that killed its worker.

The ``arm_kills`` hook is the deterministic fault-injection seam the
soak suite uses: the next *n* payloads submitted to worker processes
``os._exit`` before touching their cell, which is indistinguishable
from a real mid-job worker loss (OOM kill, segfault) at the
``BrokenProcessPool`` boundary the pool recovers across.
"""

from __future__ import annotations

import os
import threading
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    CancelledError,
    Future,
    ProcessPoolExecutor,
    wait,
)
from typing import Callable, Deque, Dict, Iterator, List, Optional, Sequence

from repro.errors import ConfigurationError
from repro.service.backoff import BackoffPolicy
from repro.session.execute import PAYLOAD_CELL, PAYLOAD_LANES, Payload, SerialBackend

__all__ = ["ShardPool", "PAYLOAD_CELL", "PAYLOAD_LANES"]

#: In-process execution: degraded mode and the last rung of a replay.
_HERE = SerialBackend()


def _execute_payload(kind: str, kill: bool, data):
    """Worker entry point: module-level so it pickles by reference.

    ``kill`` is the soak suite's crash seam — the worker exits hard
    *before* touching the cell, modelling an OOM-killed or segfaulted
    worker whose shard must be respawned and whose work replayed.
    """
    if kill:
        os._exit(13)
    return _HERE.execute(kind, data)


class _Task:
    """A payload on its way through one shard."""

    __slots__ = ("payload", "shard", "gen", "replays")

    def __init__(self, payload: Payload, shard: int) -> None:
        self.payload = payload
        self.shard = shard
        #: The shard's pool generation at submit time (see ``_generations``).
        self.gen = -1
        self.replays = 0


class ShardPool:
    """A fixed set of process-pool shards with crash recovery.

    Parameters
    ----------
    shards:
        Number of independent pools; cells route by content hash.
    workers:
        Worker processes per shard.
    backoff:
        Respawn pacing (shared :class:`BackoffPolicy` vocabulary);
        attempt numbers count *cumulative* respawns so repeated crashes
        wait progressively longer.
    max_respawns:
        Cumulative respawns across shards before the pool declares
        itself irrecoverable and degrades to serial execution.
    """

    def __init__(
        self,
        shards: int = 2,
        workers: int = 1,
        backoff: Optional[BackoffPolicy] = None,
        max_respawns: int = 4,
    ) -> None:
        if shards < 1:
            raise ConfigurationError(f"shards must be >= 1, got {shards}")
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        self.shards = shards
        self.workers = workers
        self.backoff = backoff if backoff is not None else BackoffPolicy()
        self.max_respawns = max_respawns
        self._pools: List[Optional[ProcessPoolExecutor]] = [None] * shards
        #: Per-shard pool identity, bumped on every respawn: a task
        #: remembers the generation it was submitted under, so one
        #: crash (which breaks every queued future of its shard at
        #: once) triggers exactly one respawn — stale-generation
        #: failures replay on the replacement pool instead of
        #: respawning again.
        self._generations: List[int] = [0] * shards
        self._lock = threading.Lock()
        self.degraded = False
        self.degraded_reason: Optional[str] = None
        self.crashes = 0
        self.respawns = 0
        #: Payloads resubmitted to a worker after a crash.
        self.replays = 0
        self._kill_budget = 0
        self._closed = False

    # -- routing --------------------------------------------------------------

    def shard_for(self, key: str) -> int:
        """The shard a content key routes to (stable across calls)."""
        try:
            prefix = int(key[:8], 16)
        except ValueError:
            prefix = hash(key)
        return prefix % self.shards

    def _tasks(self, payloads: Sequence[Payload]) -> List[_Task]:
        """Cells go to their key's shard; a lane pack splits into one
        pack per shard, so routing and the lockstep engine compose."""
        tasks: List[_Task] = []
        for payload in payloads:
            if payload.kind != PAYLOAD_LANES:
                tasks.append(_Task(payload, self.shard_for(payload.runs[0].key)))
                continue
            by_shard: Dict[int, list] = {}
            for planned in payload.runs:
                by_shard.setdefault(self.shard_for(planned.key), []).append(planned)
            for shard, runs in sorted(by_shard.items()):
                part = payload if len(by_shard) == 1 else Payload(PAYLOAD_LANES, runs)
                tasks.append(_Task(part, shard))
        return tasks

    # -- fault injection (tests) ----------------------------------------------

    def arm_kills(self, count: int = 1) -> None:
        """Make the next ``count`` worker payloads crash their process."""
        with self._lock:
            self._kill_budget += count

    def _take_kill(self) -> bool:
        with self._lock:
            if self._kill_budget > 0:
                self._kill_budget -= 1
                return True
            return False

    # -- pool management ------------------------------------------------------

    def _pool(self, shard: int) -> ProcessPoolExecutor:
        """The shard's executor, building it on first use.

        Raises whatever the platform raises when process pools are
        unavailable; the caller degrades.
        """
        pool = self._pools[shard]
        if pool is None:
            pool = ProcessPoolExecutor(max_workers=self.workers)
            self._pools[shard] = pool
        return pool

    def submit(self, shard: int, kind: str, data) -> Future:
        """Submit one payload to ``shard``; consumes any armed kill.

        Raises :class:`BrokenExecutor` (or the platform's pool-creation
        error) straight through — recovery lives in :meth:`run`.
        """
        kill = self._take_kill()
        return self._pool(shard).submit(_execute_payload, kind, kill, data)

    def _respawn(self, shard: int) -> bool:
        """Replace a broken shard after the backoff delay.

        Returns False — without raising — once the respawn budget is
        exhausted or the platform refuses a new pool.  The attempt
        number fed to the backoff is the cumulative respawn count, so a
        crash storm waits progressively longer instead of spinning.
        """
        with self._lock:
            if self.respawns >= self.max_respawns:
                return False
            attempt = self.respawns
            self.respawns += 1
            self._generations[shard] += 1
        broken = self._pools[shard]
        self._pools[shard] = None
        if broken is not None:
            broken.shutdown(wait=False, cancel_futures=True)
        self.backoff.sleep(attempt, token=f"shard{shard}")
        try:
            self._pool(shard)
        except Exception:
            return False
        return True

    def degrade(self, reason: str) -> None:
        """Declare the pool irrecoverable; execution turns serial."""
        self.degraded = True
        self.degraded_reason = reason
        for shard, pool in enumerate(self._pools):
            if pool is not None:
                pool.shutdown(wait=False, cancel_futures=True)
                self._pools[shard] = None

    # -- the back end ---------------------------------------------------------

    def run(
        self,
        payloads: Sequence[Payload],
        check: Callable[[], None],
        max_replays: int = 1,
        poll_interval: float = 0.05,
    ) -> Iterator[tuple]:
        """Run payloads on the shards, yielding ``(payload, result, error)``.

        The back-end protocol of :func:`~repro.session.execute.
        execute_plan`.  ``check`` runs after every wait of at most
        ``poll_interval`` seconds and before every in-process payload;
        whatever it raises propagates after the pending futures are
        cancelled.  Worker crashes never surface as errors: they climb
        the ladder in the module docstring, ``max_replays`` bounding the
        replays of one payload.
        """
        if self.degraded:
            yield from self._here(payloads, check, rerun=False)
            return
        backlog: Deque[_Task] = deque(self._tasks(payloads))
        pending: Dict[Future, _Task] = {}
        lost = False  # did degradation lose work the pool already owed?
        try:
            while backlog or pending:
                while backlog and not self.degraded:
                    task = backlog[0]
                    try:
                        task.gen = self._generations[task.shard]
                        future = self.submit(task.shard, task.payload.kind, task.payload.data)
                    except Exception as exc:
                        lost = isinstance(exc, BrokenExecutor)
                        self.degrade(f"process pool unavailable ({type(exc).__name__}: {exc})")
                        break
                    backlog.popleft()
                    pending[future] = task
                if self.degraded:
                    yield from self._drain(pending, backlog, check, lost)
                    return
                done, _ = wait(pending, timeout=poll_interval, return_when=FIRST_COMPLETED)
                check()
                for future in done:
                    task = pending.pop(future)
                    try:
                        result = future.result()
                    except BrokenExecutor as exc:
                        self.crashes += 1
                        if task.replays >= max_replays:
                            # Replayed already and crashed again: no more
                            # worker attempts — run it here, where a crash
                            # cannot recur (the kill arming is not consulted).
                            yield from self._here([task.payload], check, rerun=True)
                        elif task.gen == self._generations[task.shard] and not self._respawn(
                            task.shard
                        ):
                            lost = True
                            self.degrade(f"respawn budget exhausted ({type(exc).__name__}: {exc})")
                            backlog.append(task)
                            break  # the drain answers the rest of ``done``
                        else:
                            # (A stale generation means the shard was already
                            # respawned for this very crash, so the task just
                            # replays without spending another respawn.)
                            task.replays += 1
                            self.replays += 1
                            backlog.append(task)
                    except CancelledError:
                        yield from self._here([task.payload], check, rerun=True)
                    except Exception as exc:
                        yield task.payload, None, exc
                    else:
                        task.payload.worker = True
                        yield task.payload, result, None
        finally:
            for future in pending:
                future.cancel()

    def _drain(self, pending, backlog, check, rerun: bool) -> Iterator[tuple]:
        """Everything a degraded pool still owes, across every shard:
        futures that finished cleanly are harvested, the rest (queued,
        running or broken) run in-process."""
        owed = [task.payload for task in backlog]
        backlog.clear()
        for future, task in list(pending.items()):
            del pending[future]
            if future.done() and not future.cancelled() and future.exception() is None:
                task.payload.worker = True
                yield task.payload, future.result(), None
            else:
                owed.append(task.payload)
        yield from self._here(owed, check, rerun)

    @staticmethod
    def _here(payloads, check, rerun: bool) -> Iterator[tuple]:
        for payload in payloads:
            payload.rerun = rerun
        return _HERE.run(payloads, check)

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for shard, pool in enumerate(self._pools):
            if pool is not None:
                pool.shutdown(wait=True, cancel_futures=True)
                self._pools[shard] = None

    def __enter__(self) -> "ShardPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def describe(self) -> dict:
        """JSON-safe pool state for the service's ``stats`` answer."""
        return {
            "shards": self.shards,
            "workers": self.workers,
            "degraded": self.degraded,
            "degraded_reason": self.degraded_reason,
            "crashes": self.crashes,
            "respawns": self.respawns,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        mode = "degraded" if self.degraded else "pooled"
        return f"ShardPool({self.shards}x{self.workers}, {mode})"
