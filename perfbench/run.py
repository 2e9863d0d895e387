"""cdtube benchmark: one workload per run, checked against an independent
reference, with end-to-end metrics (``--trace 0``) or per-layer metrics
(``--trace 1``).

Usage, from the root of the repository:

    python3 perfbench/run.py --workload pore_network --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is a JSON
report with the environment (Python, numpy, cores, resolved kernel
backend) and details of the run.  See perfbench/README.md.
"""

import argparse
import json
import os
import sys

import workloads

WORKLOADS = ("pore_network", "oracle_validation", "cli")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (workloads.SRC / "cdtube" / "__init__.py").is_file():
        sys.exit(f"perfbench: no cdtube sources at {workloads.SRC}; run from "
                 "a checkout of the repository")
    sys.path.insert(0, str(workloads.SRC))
    # One CPU for the benchmark and every child it starts, so the
    # calibration blocks run on the core that does the measured work.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    if args.workload == "cli":
        tally, metrics, report = workloads.run_cli(args.seed, args.seconds,
                                                   bool(args.trace))
    else:
        tally, metrics, report = workloads.run_library(
            args.workload, args.seed, args.seconds, bool(args.trace))
    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": workloads.environment(), **report,
              "misses": tally.misses}
    print(json.dumps(report))
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
