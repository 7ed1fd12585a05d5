"""Seeded input generation for the benchmark's workloads.

Everything a run feeds the program is built here from ``--seed`` (and,
for the service stream, ``--seconds``): the same arguments give the same
requests, so simulated statistics can be pinned by digest.  The program
under test only ever receives the generated :class:`RunRequest` objects.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.experiments.runner import SimulationSettings
from repro.session import RunRequest
from repro.workload.arrivals import bursty_equal_load, two_class_priority_load
from repro.workload.scenarios import equal_load, open_loop_equal_load

WORKLOADS = ("closed-lanes", "openloop-event", "service-mixed")
SCALES = ("full", "tiny")

#: Every protocol with a lockstep lane kernel.
LANE_PROTOCOLS = ("rr", "rr-impl2", "rr-impl3", "fcfs", "fcfs-aincr", "fixed")
#: Closed-loop protocols without a lane kernel: always the event engine.
NO_KERNEL_PROTOCOLS = ("aap1", "aap2", "hybrid", "adaptive", "central-rr", "ticket-fcfs")

#: Total offered load of the two closed-loop regimes.  2.0 keeps a queue
#: at every bus width; 0.5 leaves the bus idle half the time.
CLOSED_LOADS = (("saturated", 2.0), ("light", 0.5))

#: Completion budget per cell, ``(batches, batch_size, warmup)``.
BUDGETS: Dict[str, Dict[str, Tuple[int, int, int]]] = {
    "closed-lanes": {"full": (2, 2000, 100), "tiny": (2, 100, 10)},
    "openloop-event": {"full": (2, 500, 50), "tiny": (2, 50, 10)},
    "service-mixed": {"full": (2, 200, 20), "tiny": (2, 50, 10)},
}

#: Service stream: offered jobs per second, below the pooled back end's
#: knee on a 2-CPU host (see README.md, "Sizing").
SERVICE_RATE = {"full": 30.0, "tiny": 20.0}
#: The stream repeats this cycle of job shapes (the kinds of request each
#: job holds); the seed draws the cells.  A fixed cycle keeps the shares
#: of hits, repeats, fresh cells and event cells, and the spacing of the
#: jobs that miss, the same for every seed.  Seven of ten jobs only read
#: the cache, so the median job is a cache hit on an idle dispatcher;
#: the three that miss are spread out so they rarely queue behind each
#: other, and the one with the event cell sets the p95.
JOB_CYCLE = (
    ("fresh", "fresh", "fresh", "event"),
    ("hit",) * 4,
    ("hit",) * 4,
    ("fresh", "fresh", "fresh", "repeat"),
    ("hit",) * 4,
    ("hit",) * 4,
    ("repeat", "repeat", "hit", "hit"),
    ("hit",) * 4,
    ("hit",) * 4,
    ("hit",) * 4,
)
HOT_CELLS = 48
COLD_CELLS = 24
SERVICE_WIDTHS = (4, 8, 16)


@dataclass
class Inputs:
    """One run's generated inputs and the properties recorded with it."""

    #: Identifies the inputs in ``digests.json``.
    key: str
    #: The requests of each job: on the grids, in gather order within a
    #: round; on the service stream, in offer order.
    jobs: List[List[RunRequest]] = field(default_factory=list)
    #: Service workload: the cells written to the cache during set-up.
    hot: List[RunRequest] = field(default_factory=list)
    #: Service workload: offered jobs per second.
    rate: float = 0.0
    properties: dict = field(default_factory=dict)

    def all_requests(self) -> List[RunRequest]:
        """Every request the program receives, in order."""
        return [request for job in self.jobs for request in job]


def budget(settings: SimulationSettings) -> int:
    """Completions a cell records, warm-up included."""
    return settings.warmup + settings.batches * settings.batch_size


def _settings(workload: str, scale: str, seed: int) -> SimulationSettings:
    batches, batch_size, warmup = BUDGETS[workload][scale]
    return SimulationSettings(
        batches=batches, batch_size=batch_size, warmup=warmup, seed=seed
    )


class _Seeds:
    """Distinct cell seeds drawn from one seeded stream."""

    def __init__(self, rng: random.Random) -> None:
        self._rng = rng
        self._used: set = set()

    def draw(self) -> int:
        while True:
            seed = self._rng.randrange(1, 2**31)
            if seed not in self._used:
                self._used.add(seed)
                return seed


def _closed_lanes(scale: str, seed: int) -> Inputs:
    """One job per bus width and load, holding all six kernels: a row of
    the paper's tables."""
    seeds = _Seeds(random.Random(f"closed-lanes/{seed}"))
    jobs = []
    for width in (4, 16, 32):
        for load_name, total in CLOSED_LOADS:
            scenario = equal_load(width, total)
            jobs.append(
                [
                    RunRequest(
                        scenario,
                        protocol,
                        _settings("closed-lanes", scale, seeds.draw()),
                        tag=f"{protocol}/n{width}/{load_name}",
                    )
                    for protocol in LANE_PROTOCOLS
                ]
            )
    return Inputs(
        key=f"closed-lanes/{scale}/seed{seed}",
        jobs=jobs,
        properties={
            "loop": "closed",
            "widths": [4, 16, 32],
            "total_loads": dict(CLOSED_LOADS),
            "protocols": list(LANE_PROTOCOLS),
            "jobs_per_round": len(jobs),
            "cells_per_job": len(LANE_PROTOCOLS),
            "budget_per_cell": budget(jobs[0][0].settings),
        },
    )


#: The open-loop grid: (group, scenario builder, protocols).  Builders
#: are called per cell because MMPP sources carry phase state.
_OPENLOOP_GROUPS = (
    ("poisson-r1", lambda: open_loop_equal_load(8, 0.7, max_outstanding=1),
     ("rr", "fcfs", "fixed", "hybrid")),
    ("poisson-r4", lambda: open_loop_equal_load(8, 0.8, max_outstanding=4),
     ("fcfs", "fcfs-aincr")),
    ("mmpp", lambda: bursty_equal_load(8, 0.7), ("rr", "rr-impl3", "fcfs")),
    ("mmpp-two-class", lambda: bursty_equal_load(8, 0.7, urgent_fraction=0.2),
     ("rr", "fcfs-aincr")),
    ("two-class-open", lambda: two_class_priority_load(8, 0.7, open_loop=True),
     ("rr", "rr-impl3", "fcfs")),
    ("two-class-closed", lambda: two_class_priority_load(8, 2.0), ("rr", "fcfs")),
    ("no-kernel-saturated", lambda: equal_load(16, 2.0), NO_KERNEL_PROTOCOLS),
    ("no-kernel-light", lambda: equal_load(4, 0.5), NO_KERNEL_PROTOCOLS),
)


def _openloop_event(scale: str, seed: int) -> Inputs:
    """One job per group of the open-loop grid."""
    seeds = _Seeds(random.Random(f"openloop-event/{seed}"))
    jobs = []
    groups = {}
    for group, build, protocols in _OPENLOOP_GROUPS:
        job = []
        for protocol in protocols:
            scenario = build()
            groups.setdefault(group, {"scenario": scenario.name, "protocols": []})
            groups[group]["protocols"].append(protocol)
            job.append(
                RunRequest(
                    scenario,
                    protocol,
                    _settings("openloop-event", scale, seeds.draw()),
                    tag=f"{protocol}/{group}",
                )
            )
        jobs.append(job)
    return Inputs(
        key=f"openloop-event/{scale}/seed{seed}",
        jobs=jobs,
        properties={
            "loop": "closed",
            "groups": groups,
            "jobs_per_round": len(jobs),
            "cells_per_round": sum(map(len, jobs)),
            "budget_per_cell": budget(jobs[0][0].settings),
        },
    )


def _service_mixed(scale: str, seed: int, seconds: int) -> Inputs:
    rng = random.Random(f"service-mixed/{seed}")
    seeds = _Seeds(rng)
    scenarios = {
        (width, load_name): equal_load(width, total)
        for width in SERVICE_WIDTHS
        for load_name, total in CLOSED_LOADS
    }
    open_scenario = open_loop_equal_load(8, 0.6, max_outstanding=1)

    # Closed cells take bus widths and loads in a fixed rotation, so the
    # work each job asks for does not drift with the seed.
    shapes = itertools.cycle(sorted(scenarios))

    def closed_cell() -> RunRequest:
        width, load_name = next(shapes)
        protocol = rng.choice(LANE_PROTOCOLS)
        return RunRequest(
            scenarios[(width, load_name)],
            protocol,
            _settings("service-mixed", scale, seeds.draw()),
            tag=f"{protocol}/n{width}/{load_name}",
        )

    def event_cell() -> RunRequest:
        protocol = rng.choice(("rr", "fcfs"))
        return RunRequest(
            open_scenario,
            protocol,
            _settings("service-mixed", scale, seeds.draw()),
            tag=f"{protocol}/open",
        )

    hot = [closed_cell() for _ in range(HOT_CELLS)]
    cold = [closed_cell() for _ in range(COLD_CELLS)]
    rate = SERVICE_RATE[scale]
    count = round(rate * seconds)
    pick = {
        "hit": lambda: rng.choice(hot),
        "repeat": lambda: rng.choice(cold),
        "fresh": closed_cell,
        "event": event_cell,
    }
    jobs = [
        [pick[kind]() for kind in shape]
        for shape in itertools.islice(itertools.cycle(JOB_CYCLE), count)
    ]
    requests = [request for job in jobs for request in job]
    return Inputs(
        key=f"service-mixed/{scale}/{count}jobs/seed{seed}",
        jobs=jobs,
        hot=hot,
        rate=rate,
        properties={
            "loop": "open",
            "rate_jobs_per_s": rate,
            "jobs": len(jobs),
            "cells_per_job": len(JOB_CYCLE[0]),
            "shares": {
                kind: n / sum(map(len, JOB_CYCLE))
                for kind, n in Counter(k for shape in JOB_CYCLE for k in shape).items()
            },
            "read_only_jobs": sum(set(shape) == {"hit"} for shape in JOB_CYCLE) / len(JOB_CYCLE),
            "hot_cells": HOT_CELLS,
            "cold_cells": COLD_CELLS,
            "widths": list(SERVICE_WIDTHS),
            "total_loads": dict(CLOSED_LOADS),
            "protocol_mix": dict(Counter(request.protocol for request in requests)),
            "event_scenario": open_scenario.name,
            "budget_per_cell": budget(hot[0].settings),
        },
    )


def build_inputs(workload: str, scale: str, seed: int, seconds: int) -> Inputs:
    """The generated inputs of one run."""
    if workload == "closed-lanes":
        return _closed_lanes(scale, seed)
    if workload == "openloop-event":
        return _openloop_event(scale, seed)
    if workload == "service-mixed":
        return _service_mixed(scale, seed, seconds)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
