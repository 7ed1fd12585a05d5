"""The benchmark's correctness gate.

A run that fails any check here reports ``"correct": false`` and exits
non-zero; speed numbers are never reported for wrong outputs alone.

- :func:`digest` hashes the simulated statistics of a result list.
  ``digests.json`` pins it per input key, so a change that only speeds
  the program up must leave every simulated statistic identical.
- :func:`budget_errors` checks every cell recorded its full completion
  budget and did not give up.
- :func:`event_cross_check` re-runs a seeded sample of lane cells on the
  event engine and compares per-agent completion totals.
- :func:`pickle_mismatches` compares served results with a cacheless
  serial :class:`~repro.session.Session` run, byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import pickle
import random
from dataclasses import replace
from pathlib import Path
from typing import List, Optional, Sequence

from perfbench.inputs import budget
from repro.session import RunRequest, Session

DIGESTS_PATH = Path(__file__).with_name("digests.json")


def _statistics(result) -> list:
    collector = result.collector
    return [
        result.protocol,
        result.scenario.name,
        result.seed,
        result.elapsed.hex(),
        result.utilization.hex(),
        result.failed,
        collector.total_recorded,
        sorted(collector.agent_totals.items()),
        sorted(collector.anomalies.items()),
        [
            [
                batch.index,
                batch.count,
                batch.start_time.hex(),
                batch.end_time.hex(),
                batch.sum_waiting.hex(),
                batch.sum_waiting_sq.hex(),
                batch.sum_queueing.hex(),
                sorted(batch.agent_counts.items()),
            ]
            for batch in collector.batch_stats
        ],
    ]


def digest(results: Sequence) -> str:
    """SHA-256 of the simulated statistics of ``results``, in order."""
    canonical = json.dumps([_statistics(result) for result in results], separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def reference_results(requests: Sequence[RunRequest]) -> list:
    """Results of a cacheless serial session over ``requests``."""
    return [outcome.result for outcome in Session(jobs=1).run_requests(requests)]


def load_digests(path: Path) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def check_digest(recorded: dict, key: str, value: str) -> Optional[str]:
    """An error message when ``key`` is recorded with another digest.

    Returns ``None`` when it matches or is not recorded; callers report
    whether it was recorded.
    """
    expected = recorded.get(key)
    if expected is not None and expected != value:
        return f"digest mismatch for {key}: recorded {expected}, got {value}"
    return None


def budget_errors(requests: Sequence[RunRequest], results: Sequence) -> List[str]:
    """Cells that did not record their full completion budget."""
    errors = []
    for request, result in zip(requests, results):
        needed = budget(request.settings)
        if result is None:
            errors.append(f"{request.tag}: no result")
        elif result.failed or result.collector.total_recorded != needed:
            errors.append(
                f"{request.tag}: recorded {result.collector.total_recorded} of "
                f"{needed} completions (failed={result.failed})"
            )
    return errors


def event_cross_check(
    requests: Sequence[RunRequest], results: Sequence, seed: int, sample: int = 4
) -> List[str]:
    """Re-run a seeded sample of cells on the event engine; compare totals."""
    rng = random.Random(f"event-cross-check/{seed}")
    picked = sorted(rng.sample(range(len(requests)), min(sample, len(requests))))
    event = [
        replace(requests[i], settings=replace(requests[i].settings, engine="event"))
        for i in picked
    ]
    errors = []
    for index, rerun in zip(picked, reference_results(event)):
        ours = results[index].collector
        if (
            ours.agent_totals != rerun.collector.agent_totals
            or ours.total_recorded != rerun.collector.total_recorded
        ):
            errors.append(f"{requests[index].tag}: lane and event engines disagree")
    return errors


def pickle_mismatches(served: Sequence, reference: Sequence) -> int:
    """How many served results differ from the reference when pickled."""
    return sum(
        pickle.dumps(ours) != pickle.dumps(theirs) for ours, theirs in zip(served, reference)
    ) + abs(len(served) - len(reference))
