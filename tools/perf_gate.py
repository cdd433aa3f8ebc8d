#!/usr/bin/env python3
"""Performance gate: paired perfbench runs of this tree against a base.

    python3 tools/perf_gate.py --base ../parent --pairs 3

--base is a checkout of the commit to compare against (for a pull
request, its merge base). For every workload in BENCHMARK.json the gate
runs `perfbench/run.py --trace 0` at that file's run_seconds with one
fixed seed, once in the base and once in this tree per pair; the side
that runs first alternates from pair to pair. perfbench builds its own
Release tree in each checkout on first use.

The gate fails when any run is not correct or has a failed scenario, or
when this tree's median of an end_to_end metric is worse than the base's
median by more than that metric's bound. Workloads, run length and
bounds all come from BENCHMARK.json, so the gate has no tolerance of its
own: it applies the same no-regression rule as PR acceptance. It prints,
per metric, both medians, the base's interquartile range and how many
pairs this tree won, and per workload whether sim_digest matched.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 3


def iqr(values):
    """Interquartile range (0 for fewer than two values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def verdict(base_runs, tree_runs, specs):
    """Judge one workload from the parsed run.py JSON of both sides.

    base_runs and tree_runs are lists of run.py result objects, pair i
    being (base_runs[i], tree_runs[i]); specs are BENCHMARK.json's
    end_to_end entries. Returns (failures, rows): failure messages, empty
    when the workload passes, and one report row per metric.
    """
    failures = []
    for side, runs in (("base", base_runs), ("tree", tree_runs)):
        for i, run in enumerate(runs, 1):
            failed = run.get("failed", 0)
            if not run.get("correct", False) or failed:
                failures.append("%s run %d is not correct (%d failed "
                                "scenarios)" % (side, i, failed))
    rows = []
    for spec in specs:
        name = spec["name"]
        try:
            base = [run["metrics"][name]["value"] for run in base_runs]
            tree = [run["metrics"][name]["value"] for run in tree_runs]
        except KeyError:
            failures.append("%s: missing from a run's metrics" % name)
            continue
        base_median = statistics.median(base)
        tree_median = statistics.median(tree)
        higher = spec["better"] == "higher"
        worse = (base_median - tree_median if higher
                 else tree_median - base_median) / base_median
        ok = worse <= spec["bound"]
        if not ok:
            failures.append("%s: %.1f%% worse than the base, bound %.0f%%"
                            % (name, 100 * worse, 100 * spec["bound"]))
        wins = sum(t > b if higher else t < b for b, t in zip(base, tree))
        rows.append({"name": name, "base": base_median, "tree": tree_median,
                     "base_iqr": iqr(base), "worse": worse,
                     "bound": spec["bound"], "wins": wins,
                     "pairs": len(tree), "ok": ok})
    return failures, rows


def run_once(tree, workload, seconds):
    """One untraced perfbench run in checkout `tree`: (result, digest).

    A run that crashes or prints no result counts as not correct."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(SEED), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    digest = re.search(r"^sim_digest: (\S+)$", proc.stdout, re.MULTILINE)
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        result = None
    if proc.returncode != 0 or not isinstance(result, dict):
        tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        print("    %s: run.py exited with %d: %s"
              % (tree, proc.returncode, tail))
        result = {"correct": False, "failed": 0, "metrics": {}}
    return result, digest[1] if digest else None


def gate_workload(base_dir, workload, seconds, pairs, specs):
    """Run the pairs of one workload, print its report, return failures."""
    runs = {"base": [], "tree": []}
    digests = set()
    for pair in range(pairs):
        order = ("base", "tree") if pair % 2 == 0 else ("tree", "base")
        for side in order:
            result, digest = run_once(base_dir if side == "base" else ROOT,
                                      workload, seconds)
            runs[side].append(result)
            digests.add(digest)
            value = result["metrics"].get("sim_ios_per_s", {}).get("value")
            print("  pair %d/%d %s: correct=%s sim_ios_per_s=%s"
                  % (pair + 1, pairs, side, result.get("correct"),
                     "%.6g" % value if value is not None else "-"),
                  flush=True)
    failures, rows = verdict(runs["base"], runs["tree"], specs)
    print("  sim_digest %s" % ("matched" if len(digests) == 1
                               and None not in digests else "DIFFERS"))
    for row in rows:
        print("  %s %-14s base %.6g (IQR %.3g)  tree %.6g  worse %+.1f%% "
              "(bound %.0f%%)  wins %d/%d"
              % ("ok  " if row["ok"] else "FAIL", row["name"], row["base"],
                 row["base_iqr"], row["tree"], 100 * row["worse"],
                 100 * row["bound"], row["wins"], row["pairs"]))
    return ["%s: %s" % (workload, f) for f in failures]


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="\n".join(__doc__.splitlines()[2:]))
    parser.add_argument("--base", required=True, type=Path,
                        help="checkout of the commit to compare against")
    parser.add_argument("--pairs", required=True, type=int,
                        help="runs per side and workload (>= 1)")
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    if not (args.base / "perfbench" / "run.py").is_file():
        parser.error("--base %s has no perfbench/run.py" % args.base)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []
    for workload in bench["workloads"]:
        print("%s (%d pairs, %d s, seed %d)"
              % (workload["name"], args.pairs, bench["run_seconds"], SEED),
              flush=True)
        failures += gate_workload(args.base.resolve(), workload["name"],
                                  bench["run_seconds"], args.pairs,
                                  bench["end_to_end"])
    if failures:
        print("\nperf gate FAILED:\n  " + "\n  ".join(failures))
        return 1
    print("\nperf gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
