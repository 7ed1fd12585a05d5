"""Record digests of simulated statistics into ``digests.json``.

Usage, from the repository root::

    python3 perfbench/record_digests.py

For each workload it generates the benchmark's inputs for seeds 0-63 and
the held-out seed 977, at the run length ``BENCHMARK.json`` sets, runs
them through a cacheless serial session and stores each digest under the
inputs' key, next to the tiny seed-0 canary every run checks.  Re-record
only when a change is meant to alter simulated output.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = [*range(64), 977]


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import gate
    from perfbench.inputs import WORKLOADS, build_inputs

    # The service stream's job count, and so its key, follows the run length.
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]
    recorded = {}
    for workload in WORKLOADS:
        runs = [("tiny", 0, 1)] + [("full", seed, seconds) for seed in SEEDS]
        for scale, seed, run_seconds in runs:
            inputs = build_inputs(workload, scale, seed, run_seconds)
            recorded[inputs.key] = gate.digest(gate.reference_results(inputs.all_requests()))
            print(inputs.key, recorded[inputs.key], flush=True)
    with open(gate.DIGESTS_PATH, "w", encoding="utf-8") as handle:
        json.dump(dict(sorted(recorded.items())), handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
