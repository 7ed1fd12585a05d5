"""A fixed probe of the host's speed, run beside the measured work.

The 2-CPU hosts this benchmark runs on are shared: other tenants slow
the cores (not just the process's turn on them) by up to 2x, for
stretches that can outlast a whole run.  No statistic taken inside one
run undoes a run that is slow from start to end, so the benchmark times
a fixed pure-Python loop next to the work it measures (before and after
every gather on the grids, before the jobs of the service stream) and
scales each time by how fast the loop ran then.

The loop is a small discrete-event simulation (a heap of timed events,
seeded exponential draws, a dict of counts): the same kind of
interpreter work as the simulator, but none of the program's code, so a
change to the program cannot move it.
"""

from __future__ import annotations

import heapq
import math
import os
import random
from time import monotonic, perf_counter
from typing import Optional

#: Events one round of the probe pops.
ROUND_EVENTS = 3000
#: A round checks its deadline every this many events.
CHECK_EVERY = 250
#: One round's time at full speed on the host the benchmark was sized
#: on (2-CPU Xeon, Python 3.11).  Scaled times read as wall-clock time
#: there at full speed.
REFERENCE_S = 0.0020


def _probe_round(deadline: float) -> bool:
    """One round of the probe; False if it was cut at ``deadline``."""
    rng = random.Random(12345)
    heap = [(rng.expovariate(1.0), agent) for agent in range(64)]
    heapq.heapify(heap)
    counts: dict = {}
    for step in range(ROUND_EVENTS):
        if step % CHECK_EVERY == 0 and monotonic() > deadline:
            return False
        now, agent = heapq.heappop(heap)
        counts[agent] = counts.get(agent, 0) + 1
        heapq.heappush(heap, (now + rng.expovariate(1.0) + (agent & 3) * 0.1, agent))
    return True


def probe(rounds: int = 1, deadline: float = math.inf) -> Optional[float]:
    """How many times slower than at the reference speed the host ran
    ``rounds`` rounds of the probe just now; None if the probe was cut
    at ``deadline`` (a :func:`time.monotonic` time)."""
    start = perf_counter()
    for _ in range(rounds):
        if not _probe_round(deadline):
            return None
    return (perf_counter() - start) / (rounds * REFERENCE_S)


def probe_each_cpu(deadline: float = math.inf) -> Optional[float]:
    """Mean slowdown of one round on each CPU this thread may run on, or
    None if a round was cut at ``deadline``.

    The thread is moved to each CPU in turn and then released; other
    threads of the process stay where they are.
    """
    if not hasattr(os, "sched_setaffinity"):
        return probe(deadline=deadline)
    allowed = os.sched_getaffinity(0)
    slowdowns = []
    try:
        for cpu in sorted(allowed):
            os.sched_setaffinity(0, {cpu})
            slowdowns.append(probe(deadline=deadline))
    finally:
        os.sched_setaffinity(0, allowed)
    if None in slowdowns:
        return None
    return sum(slowdowns) / len(slowdowns)


def normalised(wall: float, before: float, after: float) -> float:
    """``wall`` scaled to the reference speed, by the slowdowns the probe
    measured just before and just after it."""
    return wall / ((before + after) / 2.0)
