"""Worker-count policy and the in-process engine seams of a gather.

The paper's evaluation is a grid: every table cell is one independent
``(scenario, protocol, settings)`` simulation, and nothing couples the
cells — each derives all of its randomness from its own settings seed.
A :class:`~repro.session.session.Session` gather plans such a grid
(:func:`~repro.session.planner.plan_runs`) and executes it
(:func:`~repro.session.execute.execute_plan`) through the names this
module holds, looked up here at call time: ``plan_runs``,
``execute_plan``, and the engine entry points ``run_lanes`` and
``run_simulation`` behind :data:`SERIAL`.  The differential, fault and
retry suites monkeypatch the last two; the benchmark's tracer wraps
all four.

Determinism guarantees (the common-random-numbers discipline the paper's
protocol comparisons depend on):

- every cell's random streams derive from ``settings.seed`` and the
  agent identities only, so execution order and worker placement cannot
  perturb results: serial and parallel sweeps return bit-identical
  :class:`~repro.stats.summary.RunResult` metrics;
- each cell executes against a private copy of its scenario (the process
  boundary provides one for workers; the serial path deep-copies), so
  stateful workload distributions — trace replay — start every cell from
  the same position regardless of how many cells share a spec;
- results are returned in cell order, whatever order workers finish in.
"""

from __future__ import annotations

import os
from typing import Optional

from repro.engine.batch import run_lanes
from repro.errors import ConfigurationError
from repro.experiments.runner import run_simulation
from repro.service.backoff import BackoffPolicy
from repro.session.execute import SerialBackend, execute_plan  # noqa: F401 - gather seam
from repro.session.planner import plan_runs  # noqa: F401 - gather seam

__all__ = ["default_jobs", "resolve_jobs", "RETRY_BACKOFF", "SERIAL"]

#: Default retry pacing: a deterministic, seeded, capped exponential
#: with jitter (see :mod:`repro.service.backoff`) shared with the
#: service's crash-respawn policy.  The first (and, for sweeps, only)
#: retry waits ~25-50ms — long enough for a torn process pool or an
#: OOM-killed worker's memory to clear, short enough to be invisible in
#: grid wall-clock.
RETRY_BACKOFF = BackoffPolicy(base=0.05, cap=1.0, multiplier=2.0, jitter=0.5, seed=0)

_ENV_JOBS = "REPRO_JOBS"


def default_jobs() -> int:
    """Worker count: ``$REPRO_JOBS`` (0 = all cores), else 1 (serial)."""
    raw = os.environ.get(_ENV_JOBS)
    if raw is None:
        return 1
    try:
        jobs = int(raw)
    except ValueError:
        raise ConfigurationError(f"${_ENV_JOBS} must be an integer, got {raw!r}")
    return resolve_jobs(jobs)


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalise a jobs request: None -> default, 0 -> cpu count."""
    if jobs is None:
        return default_jobs()
    if jobs < 0:
        raise ConfigurationError(f"jobs must be >= 0, got {jobs}")
    if jobs == 0:
        return os.cpu_count() or 1
    return jobs


def _call_run_lanes(cells):
    return run_lanes(cells)


def _call_run_simulation(scenario, protocol, settings):
    return run_simulation(scenario, protocol, settings)


#: The in-process back end of every gather, calling ``run_lanes`` and
#: ``run_simulation`` through this module's globals.
SERIAL = SerialBackend(run_lanes=_call_run_lanes, run_cell=_call_run_simulation)
