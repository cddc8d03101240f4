"""dualq benchmark: one workload, measured for a fixed time.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload corpus-bursty --seed 1 \\
        --seconds 10 --trace 0

The program is imported from ``src/`` of the checkout it sits in and
driven through its own CLI entry point, ``dualq.cli.main``. The run sets
up at least three times and for at least a second (import, scenario
build and, for the stats workloads, their input corpora) and reports
the median; then it repeats the timed
command in whole rounds until ``--seconds`` have passed, checks every
output against figures computed apart from the program, and prints one
JSON line last (times scaled to a reference speed, see reference.py):

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones. With
``--trace 1`` the run sets up once under the tracer, then alternates
untraced and traced commands, and reports the per-layer figures of one
set-up plus one command, with the tracing overhead. The full record
(host, commit, DTW kernel, per-round times, problems found) is printed
on the line before and written under ``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

import numpy

import tracing
from workloads import WORKLOADS, SetupError, Workload

# set up at least this many times, and for at least this long, and report
# the median: one set-up of a corpus-* workload takes ~0.04 s
SETUP_REPEATS = 3
SETUP_MIN_S = 1.0
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--size", choices=["full", "smoke"], default="full",
                   help="smoke shrinks every workload to seconds, same checks")
    return p.parse_args(argv)


def git_commit(root: str) -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path, encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        return None
    return None


def source_digest(src: str) -> str:
    """sha256 over the program's Python sources, for checkouts without git."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith((".py", ".pyx")):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def plain_run(wl, seconds: float):
    """Set up repeatedly, then time untraced rounds; end-to-end figures."""
    setups = []
    while len(setups) < SETUP_REPEATS or sum(w for _, _, w in setups) < SETUP_MIN_S:
        setups.append(wl.setup(len(setups)))
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rounds.append(wl.round(len(rounds)))
    wl.speed.sample()  # with the pass before each round, brackets every round
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics, extra = wl.end_to_end(setups, rounds, peak_rss_mb)
    return rounds, [w for _, _, w in setups], metrics, extra


def traced_run(wl, seconds: float, trace_path: str):
    """Set up once traced, then alternate untraced and traced rounds;
    per-layer figures of one set-up plus one command."""
    setup_tracer = tracing.Tracer()
    with setup_tracer.region("setup"):
        wl.setup(0, setup_tracer)
    round_tracer = tracing.Tracer()
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rounds.append(wl.round(len(rounds)))
        rounds.append(wl.round(len(rounds), round_tracer))
    tracing.write(trace_path, {"setup": setup_tracer, "rounds": round_tracer})
    traced = [r.wall_s for r in rounds if r.traced]
    plain = [r.wall_s for r in rounds if not r.traced]
    metrics = tracing.layer_metrics(
        [(setup_tracer, 1.0), (round_tracer, 1.0 / len(traced))]
    )
    metrics["trace.overhead_ratio"] = (
        statistics.median(traced) / statistics.median(plain), "ratio"
    )
    return rounds, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "dualq", "cli.py")):
        print(f"perfbench: no dualq sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    results = os.path.join(ROOT, ".bench_work", "results")
    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    os.makedirs(results, exist_ok=True)
    wl = Workload(args.workload, args.seed, args.size == "smoke", work)
    setup_walls, extra = [], {}
    try:
        if args.trace:
            rounds, metrics = traced_run(wl, args.seconds, os.path.join(
                results, f"trace-{args.workload}-seed{args.seed}.json"))
        else:
            rounds, setup_walls, metrics, extra = plain_run(wl, args.seconds)
        attempted, failed, problems = wl.check(rounds)
    except SetupError as exc:
        print(f"perfbench: set-up failed: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    dualq_dtw = sys.modules["dualq.stats.dtw"]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "host": {
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "machine": platform.machine(),
        },
        "commit": git_commit(ROOT),
        "source_sha256": source_digest(SRC),
        "dtw_kernel": dualq_dtw.IMPLEMENTATION,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "setup_walls_s": setup_walls,
        "round_walls_s": [r.wall_s for r in rounds],
        "round_traced": [r.traced for r in rounds],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "other_figures": {k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
    }
    for p in problems:
        print(f"problem: {p}", file=sys.stderr)
    with open(os.path.join(
        results, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    ), "w", encoding="ascii") as fh:
        json.dump(record, fh, indent=1)
    print("record: " + json.dumps(record))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
