"""Before/after record of the benchmark: two revisions, paired runs.

Usage, from the root of the repository:

    python3 tools/bench_pairs.py PARENT CHANGE --output BENCH_label.json \
        [--workload cli ...] [--pairs 10] [--seconds 30] [--seed 7] [--trace 0]

Each revision is extracted with ``git archive REV | tar -x`` into its own
temporary directory, so neither side has a ``__pycache__`` or any file
that git does not track.  For every workload, ``perfbench/run.py`` of
each side runs ``--pairs`` times, one side after the other, alternating
which side goes first.  The output file gives, for each metric, each
side's median and quartiles, the change's median relative to the
parent's, and the pairs the change won (a tie counts for neither side),
with the direction of "better" from ``BENCHMARK.json``; then ``correct``
and ``failed`` of every run, the raw values and the environment.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("pore_network", "oracle_validation", "cli")
SIDES = ("parent", "change")


def rev_parse(name):
    return subprocess.run(["git", "rev-parse", "--verify", name], cwd=ROOT,
                          check=True, capture_output=True,
                          text=True).stdout.strip()


def extract(rev, into):
    """The tracked files of ``rev`` under ``into``; returns the commit and
    the tree of its ``src``, which an amended commit keeps."""
    commit = rev_parse(f"{rev}^{{commit}}")
    archive = subprocess.Popen(["git", "archive", commit], cwd=ROOT,
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(into)], stdin=archive.stdout,
                   check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        sys.exit(f"bench_pairs: git archive {rev} failed")
    return {"rev": rev, "commit": commit, "src_tree": rev_parse(f"{commit}:src")}


def run_once(tree, workload, seed, seconds, trace):
    """The last two lines of one ``perfbench/run.py``: (report, result)."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"bench_pairs: {' '.join(argv)} in {tree} exited "
                 f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    report, result = proc.stdout.splitlines()[-2:]
    return json.loads(report), json.loads(result)


def summarise(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def compare(runs, better):
    """Per metric: each side's median and quartiles, and the pairs won."""
    metrics = {}
    for name, entry in runs["parent"][0]["metrics"].items():
        values = {side: [run["metrics"][name]["value"] for run in runs[side]]
                  for side in SIDES}
        sign = -1.0 if better.get(name, "lower") == "lower" else 1.0
        won = sum(sign * (c - p) > 0
                  for p, c in zip(values["parent"], values["change"]))
        stats = {side: summarise(values[side]) for side in SIDES}
        base = stats["parent"]["median"]
        metrics[name] = {
            "unit": entry["unit"],
            "better": better.get(name, "lower"),
            **stats,
            "change_pct": (100.0 * (stats["change"]["median"] - base) / base
                           if base else None),
            "pairs_won": won,
            "pairs": len(values["parent"]),
            "values": values,
        }
    return metrics


def process_wall(argv, repeats=15):
    """Median raw wall in seconds of ``repeats`` runs of ``argv``."""
    walls = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run(argv, check=True)
        walls.append(time.perf_counter() - start)
    return statistics.median(walls)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--output", required=True, type=Path)
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, for quartiles")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"]
              for m in spec["end_to_end"] + spec["per_layer"]}
    with tempfile.TemporaryDirectory() as tmp:
        trees, commits = {}, {}
        for side, rev in zip(SIDES, (args.parent, args.change)):
            trees[side] = Path(tmp, side)
            trees[side].mkdir()
            commits[side] = extract(rev, trees[side])
        workloads, environment = {}, None
        for workload in args.workload or WORKLOADS:
            runs = {side: [] for side in SIDES}
            for pair in range(args.pairs):
                order = SIDES if pair % 2 == 0 else SIDES[::-1]
                for side in order:
                    report, result = run_once(trees[side], workload, args.seed,
                                              args.seconds, args.trace)
                    environment = environment or report["environment"]
                    runs[side].append(result)
                    print(f"{workload} pair {pair + 1}/{args.pairs} {side}: "
                          f"correct={result['correct']} "
                          f"failed={result['failed']}", file=sys.stderr)
            workloads[workload] = {
                side: {"correct": [r["correct"] for r in runs[side]],
                       "attempted": [r["attempted"] for r in runs[side]],
                       "failed": [r["failed"] for r in runs[side]]}
                for side in SIDES}
            workloads[workload]["metrics"] = compare(runs, better)

    python = [sys.executable, "-c", "pass"]
    record = {
        "parent": commits["parent"],
        "change": commits["change"],
        "command": ["python3", "perfbench/run.py", "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(args.trace)],
        "pairs": args.pairs,
        "environment": {
            **environment,
            "dont_write_bytecode": sys.flags.dont_write_bytecode,
            "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
            "python_c_pass_s": process_wall(python),
            "python_S_c_pass_s": process_wall(python[:1] + ["-S"] + python[1:]),
        },
        "workloads": workloads,
    }
    args.output.write_text(json.dumps(record, indent=2) + "\n")


if __name__ == "__main__":
    main()
