"""Compare two checkouts on one perfbench workload in alternating pairs.

Usage:
    python3 benchmarks/perfbench_pairs.py PARENT CHANGE \\
        --workload corpus-bursty --seeds 3100-3109 [--seconds 15] [--trace 0]

PARENT and CHANGE are source checkouts, each with its own
``perfbench/run.py``. For every seed the script runs that file once in
each tree, the parent first for even seeds and the change first for odd
ones. Before every run it deletes ``src/**/__pycache__`` and
``.bench_work`` in both trees and runs with ``PYTHONDONTWRITEBYTECODE=1``,
so that each import compiles the sources afresh on both sides and a cache
left by an earlier command cannot skew ``setup_s``.

It prints one JSON object: each pair's metrics, and per metric each
side's median and quartiles (numpy's linear percentiles over the pairs),
the number of pairs in which the change is better (the direction comes
from BENCHMARK.json), the median change in percent and the parent's
interquartile range. A gain is shown when the change is better in at
least 9 of 10 pairs and the medians differ by more than the parent's
interquartile range.
"""

import argparse
import glob
import json
import os
import shutil
import subprocess
import sys

import numpy as np

_ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")


def seed_range(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def directions():
    """{metric: "lower" | "higher"} from the benchmark declaration."""
    with open(os.path.join(_ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}


def clean(tree):
    for cache in glob.glob(os.path.join(tree, "src", "**", "__pycache__"),
                           recursive=True):
        shutil.rmtree(cache)
    shutil.rmtree(os.path.join(tree, ".bench_work"), ignore_errors=True)


def run(tree, trees, args, seed):
    """One perfbench run in tree; its final JSON line."""
    for t in trees:
        clean(t)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", args.workload,
         "--seed", str(seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace)],
        cwd=tree, env=env, capture_output=True, text=True, check=True,
    ).stdout
    result = json.loads(out.strip().splitlines()[-1])
    result["metrics"] = {k: v["value"] for k, v in result["metrics"].items()}
    return result


def quartiles(values):
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"q1": round(float(q1), 6), "median": round(float(median), 6),
            "q3": round(float(q3), 6)}


def summarize(pairs, better):
    summary = {}
    for name in pairs[0]["parent"]["metrics"]:
        p = [pair["parent"]["metrics"][name] for pair in pairs]
        c = [pair["change"]["metrics"][name] for pair in pairs]
        row = {"parent": quartiles(p), "change": quartiles(c)}
        pm, cm = row["parent"]["median"], row["change"]["median"]
        row["parent_iqr"] = round(row["parent"]["q3"] - row["parent"]["q1"], 6)
        if pm:
            row["median_change_pct"] = round(100.0 * (cm - pm) / pm, 2)
        sign = {"lower": 1, "higher": -1}.get(better.get(name))
        if sign:
            wins = sum(sign * (a - b) > 0 for a, b in zip(p, c))
            row["change_better_in"] = f"{wins} of {len(pairs)}"
            row["gain_shown"] = (wins >= 0.9 * len(pairs)
                                 and sign * (pm - cm) > row["parent_iqr"])
        summary[name] = row
    return summary


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, required=True,
                        help="first-last, inclusive")
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    trees = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    pairs = []
    for seed in args.seeds:
        order = ("parent", "change") if seed % 2 == 0 else ("change", "parent")
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run(trees[side], trees.values(), args, seed)
        pairs.append(pair)
        print(f"seed {seed} done", file=sys.stderr)
    json.dump({
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "seeds": args.seeds,
        "all_correct": all(pair[s]["correct"] for pair in pairs for s in trees),
        "failed": {s: sum(pair[s]["failed"] for pair in pairs) for s in trees},
        "attempted": {s: sum(pair[s]["attempted"] for pair in pairs) for s in trees},
        "metrics": summarize(pairs, directions()),
        "pairs": pairs,
    }, sys.stdout, indent=1)
    print()


if __name__ == "__main__":
    main()
