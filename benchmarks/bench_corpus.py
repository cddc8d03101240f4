"""Time corpus I/O: write+hash and load+verify, checking every loaded series.

Usage:
    PYTHONPATH=src python3 benchmarks/bench_corpus.py [--runs 30]
        [--duration 10] [--repeat 3]

Two corpora of --runs runs each (low preset, scalable+cubic, bursty,
--duration simulated seconds; seeds 0, 1, ... and 500, 501, ...) are
emulated once, untimed. Each of --repeat rounds then, in a temporary
directory:

* write+hash: ``runner.run_batch`` writes both corpora, run directories,
  sha256 digests and manifests, with ``runner.run_one`` handing it the
  records already emulated, so that no engine time is counted;
* load+verify: ``runner.load_corpus`` checks both manifests' digests and
  parses both corpora back.

The script reports the median of each phase over the rounds, and
samples (series.csv rows) per second. Every loaded record's series must
equal the written one column for column, or the script exits non-zero.
"""

import argparse
import statistics
import tempfile
import time
from contextlib import contextmanager

import numpy as np

from dualq import runner
from dualq.config import build_scenario, parse_flow_shorthand, preset_sections

SERIES_COLUMNS = ("t_ns", "qocc_pkts", "ecn_marks", "drops")
SEED_BASES = (0, 500)


@contextmanager
def emulated(records):
    """Make run_batch write these records instead of running the engine."""
    real = runner.run_one
    runner.run_one = lambda cfg, seed, run_id: records[seed]
    try:
        yield
    finally:
        runner.run_one = real


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=30, help="runs per corpus")
    parser.add_argument("--duration", type=float, default=10.0,
                        help="simulated seconds per run")
    parser.add_argument("--repeat", type=int, default=3,
                        help="timed rounds; the median is reported")
    args = parser.parse_args()

    cfg = build_scenario(preset_sections(
        "low", flows=parse_flow_shorthand("scalable+cubic"), mode="bursty",
        duration_s=args.duration,
    ))
    records = {
        base + i: runner.run_one(cfg, base + i, f"run-{i:05d}")
        for base in SEED_BASES for i in range(args.runs)
    }
    rows = sum(len(r.series("t_ns")) for r in records.values())

    write_s, load_s, mismatched = [], [], []
    for _ in range(args.repeat):
        with tempfile.TemporaryDirectory() as tmp:
            t0 = time.perf_counter()
            with emulated(records):
                dirs = [runner.run_batch(cfg, args.runs, base, f"{tmp}/c{base}")
                        for base in SEED_BASES]
            t1 = time.perf_counter()
            loaded = [runner.load_corpus(d) for d in dirs]
            t2 = time.perf_counter()
        write_s.append(t1 - t0)
        load_s.append(t2 - t1)
        for corpus in loaded:
            for rec in corpus:
                written = records[rec.seed]
                if not all(np.array_equal(rec.series(c), written.series(c))
                           for c in SERIES_COLUMNS):
                    mismatched.append(f"seed {rec.seed}")

    print(f"{2 * args.runs} runs, {rows} samples, {args.repeat} rounds")
    print(f"{'phase':<12} {'median_s':>9} {'samples/s':>11}")
    for name, walls in (("write+hash", write_s), ("load+verify", load_s)):
        wall = statistics.median(walls)
        print(f"{name:<12} {wall:>9.4f} {rows / wall:>11.0f}")
    if mismatched:
        raise SystemExit("loaded series differ from the written ones: "
                         + ", ".join(sorted(set(mismatched))))


if __name__ == "__main__":
    main()
