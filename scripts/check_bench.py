#!/usr/bin/env python
"""CI bench guard: median drift plus the grid-wide speedup gate.

Runs the engine benchmarks fresh (to a throwaway file — the committed
``BENCH_engine.json`` is never overwritten here) and applies these
checks (2-5 are rows of the :data:`GATES` table, checked by one loop):

1. **Median drift** — every median is compared against the committed
   baseline with a generous 50% tolerance.  The committed file is a
   developer-machine snapshot and CI runners are slower and noisier, so
   this check is deliberately coarse: it exists to catch
   order-of-magnitude regressions (an accidentally quadratic loop, a
   lost fast path), not single-digit drift — that is what
   ``scripts/run_benchmarks.py --compare`` at its default tolerance is
   for, on quiet hardware.

2. **Grid speedup** — the recorded baseline must demonstrate at least
   ``--grid-speedup`` (default 10x) end-to-end over the full
   peak-contention grid, and the fresh run must stay above that bar
   scaled by the drift tolerance (so 5x at the default 50%).  The
   ratio is machine-relative, so the fresh check mostly absorbs runner
   noise; the exact >= 10x bar is enforced where timing is reliable —
   on the recorded baseline, and by
   ``benchmarks/test_grid_batch.py::test_grid_batch_speedup_gate``
   with its interleaved min-of-k discipline.

3. **Session overhead** — the recorded baseline's session-routed grid
   pass must sit within ``--session-overhead`` (default 2%) of the raw
   lane-engine pass.  Orchestration (planning, routing, outcome
   assembly) is pure bookkeeping; if it shows up in grid timings, the
   session layer grew a per-cell cost it must not have.  The exact bar
   is enforced on the recorded baseline and by
   ``benchmarks/test_session_overhead.py::test_session_overhead_gate``;
   the fresh run gets the same drift-scaled slack as the speedup.

4. **Service overhead** — the recorded baseline's service-routed
   cached grid pass must sit within ``--service-overhead`` (default
   50%) of the direct session gather.  The job layer's cost is a fixed
   sub-millisecond handoff per gather; a per-cell cost on the hit path
   (re-serialization, re-hashing, per-cell events) lands hundreds of
   percent above the bar.  The exact bar is enforced on the recorded
   baseline and by ``benchmarks/test_service_overhead.py::
   test_service_overhead_gate``; the fresh run gets drift-scaled slack.

5. **Open-loop overhead** — the recorded baseline's open-loop bursty
   sweep must cost at most ``--openloop-overhead`` (default 50%, i.e.
   1.5x) more per completion than the paired closed-loop sweep.  The
   arrival layer's MMPP phase walks and class coin flips run once per
   request on the event engine's hot path; this bar keeps them there.
   The exact bar is enforced on the recorded baseline and by
   ``benchmarks/test_openloop_overhead.py::test_openloop_overhead_gate``;
   the fresh run gets drift-scaled slack.

Usage::

    python scripts/check_bench.py [--baseline BENCH_engine.json]
                                  [--tolerance 0.5]
                                  [--grid-speedup 10.0]
                                  [--session-overhead 0.02]
                                  [--service-overhead 0.5]
                                  [--openloop-overhead 0.5]
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from run_benchmarks import DEFAULT_OUT, compare, condense, run_microbench


#: One row per ratio gate: (BENCH_engine.json key and CLI option dest,
#: label, what a fresh run without the ratio is missing, which way is
#: better, default bar, help text).  A "higher" gate passes at or above
#: its bar and gets ``bar * (1 - tolerance)`` as the fresh floor; a
#: "lower" gate passes strictly below it and gets ``bar * (1 +
#: tolerance)`` as the fresh ceiling.
GATES = (
    ("grid_speedup", "grid speedup", "grid benchmarks", "higher", 10.0,
     "required end-to-end grid speedup at the recorded baseline"),
    ("session_overhead", "session overhead", "session benchmark", "lower", 0.02,
     "allowed session-layer grid overhead at the recorded baseline"),
    ("service_overhead", "service overhead", "service benchmark", "lower", 0.5,
     "allowed service-layer cached-hit overhead at the recorded baseline"),
    ("openloop_overhead", "open-loop overhead", "sweep benchmark", "lower", 0.5,
     "allowed open-loop per-completion overhead at the recorded baseline"),
)


def check_gate(
    summary: dict,
    baseline: dict,
    gate: tuple,
    bar: float,
    tolerance: float,
) -> int:
    """Gate one ratio at the recorded baseline and, with drift-scaled
    slack, on the fresh run; 1 on any regression."""
    key, label, missing, better, _default, _help = gate
    higher = better == "higher"

    def value(number: float) -> str:
        return f"{number:.2f}x" if higher else f"{number:+.2%}"

    def limit(number: float) -> str:
        return f"{number:.1f}x" if higher else f"{number:.0%}"

    def passes(number: float, against: float) -> bool:
        return number >= against if higher else number < against

    status = 0
    recorded = baseline.get(key)
    if recorded is None:
        print(f"  {label}: baseline records none  <-- REGRESSION")
        status = 1
    else:
        verdict = "" if passes(recorded, bar) else "  <-- REGRESSION"
        relation = ">=" if higher else "<"
        print(f"  {label}: baseline records {value(recorded)} (gate {relation} {limit(bar)}){verdict}")
        if verdict:
            status = 1
    fresh = summary.get(key)
    slack = bar * (1.0 - tolerance) if higher else bar * (1.0 + tolerance)
    bound = "floor" if higher else "ceiling"
    if fresh is None:
        print(f"  {label} (fresh): missing {missing}  <-- REGRESSION")
        status = 1
    else:
        verdict = "" if passes(fresh, slack) else "  <-- REGRESSION"
        print(
            f"  {label} (fresh): {value(fresh)} "
            f"({bound} {limit(slack)} at {tolerance:.0%} tolerance){verdict}"
        )
        if verdict:
            status = 1
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline",
        type=Path,
        default=DEFAULT_OUT,
        help="committed baseline to compare against (default BENCH_engine.json)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.5,
        help="allowed fractional median slowdown (default 0.5, i.e. 1.5x)",
    )
    for key, _label, _missing, _better, default, help_text in GATES:
        parser.add_argument(
            "--" + key.replace("_", "-"), type=float, default=default, help=help_text
        )
    args = parser.parse_args()

    if not args.baseline.exists():
        print(f"baseline {args.baseline} not found", file=sys.stderr)
        return 2

    with tempfile.TemporaryDirectory() as tmp:
        raw = run_microbench(Path(tmp) / "raw.json")
    summary = condense(raw)
    print(
        f"bench guard: comparing against {args.baseline} "
        f"(tolerance {args.tolerance:.0%})"
    )
    status = compare(summary, args.baseline, args.tolerance)
    baseline_doc = json.loads(args.baseline.read_text(encoding="utf-8"))
    failed = [
        check_gate(summary, baseline_doc, gate, getattr(args, gate[0]), args.tolerance)
        for gate in GATES
    ]
    return status or int(any(failed))

if __name__ == "__main__":
    sys.exit(main())
