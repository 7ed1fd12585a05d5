"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload closed-lanes --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing installed;
``--trace 1`` measures once untraced and once with span wrappers around
every layer's entry points, and reports the per-layer metrics.  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is the
run's record (environment, input properties, digests, errors).  The
exit code is 0 only when the correctness gate passed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv=None) -> argparse.Namespace:
    from perfbench.inputs import SCALES, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", choices=SCALES, default="full",
        help="tiny shrinks every completion budget and the service rate (tests)",
    )
    parser.add_argument(
        "--digests", type=Path, default=Path(__file__).with_name("digests.json"),
        help="recorded digests of simulated statistics, per input key",
    )
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def main(argv=None) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    args = parse_args(argv)
    from perfbench.measure import END_TO_END, PER_LAYER, run

    report = run(
        args.workload, args.scale, args.seed, args.seconds, bool(args.trace), args.digests
    )
    units = PER_LAYER if args.trace else END_TO_END
    print(f"{args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    for name, value in report.metrics.items():
        print(f"  {name:<28} {value:>16.6g} {units[name]}")
    for error in report.record["errors"]:
        print(f"  ERROR {error}")
    print(json.dumps({"record": report.record}, default=str))
    print(
        json.dumps(
            {
                "correct": report.correct,
                "attempted": report.attempted,
                "failed": report.failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in report.metrics.items()
                },
            }
        )
    )
    return 0 if report.correct else 1


if __name__ == "__main__":
    sys.exit(main())
