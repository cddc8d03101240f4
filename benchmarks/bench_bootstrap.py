"""Time the bootstrap at B=2000 in replicates/s, checking every replicate.

Usage:
    PYTHONPATH=src python3 benchmarks/bench_bootstrap.py [--sizes 10,30,100]
        [--repeat 5] [--seed 0]

For each corpus size n, two pairs of fixed-seed scalar corpora of n runs
each go through ``bootstrap_exceedance`` --repeat times, and so does one
normal pair of 12 against 40 runs, which draws its runs with the bounds
of n != m:

* normal: normal throughputs, the second corpus shifted by half a
  standard deviation so that the replicates spread; nearly every
  distance is distinct;
* tied: the same throughputs rounded to 1/16 Mbps, so the distances
  take a few dozen values, as in measured corpora (the bootstrap
  workload's 30-run corpora hold 83 distinct distances among 1,770
  pairs).

Each row gives the pair's distinct distances and the dtype of the rank
codes the cross counts run on, the median wall time of one call,
replicates/s at that median, and, from one ``testing._replicates`` call
outside the timed calls, its tracemalloc peak and the share of the
within quantiles (one per replicate and corpus) that the first pass's
prefix did not settle, so that the second pass weighed the corpus's
whole pair list. The default sizes are the ci-width sizes of the
bootstrap benchmark workload plus n=100.

For each pair, the replicate array of the timed generator seed
(``testing._replicates``) must equal the one-at-a-time oracle
``tests/_oracles.bootstrap_replicates_oracle`` element for element, and
leave the generator in the oracle's state, since ``ci_width_curve`` draws
every size from one generator; every timed call's CI and replicate mean
must equal the oracle's. Otherwise the script exits non-zero.
"""

import argparse
import os
import statistics
import sys
import time
import tracemalloc

import numpy as np

from dualq.stats import testing

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "..", "tests"))
from _oracles import bootstrap_replicates_oracle  # noqa: E402


def corpora(n, m, seed, tied):
    gen = np.random.default_rng(seed)
    a, b = gen.normal(10.0, 1.0, n), gen.normal(10.5, 1.0, m)
    if tied:
        # multiples of 1/16 are exact, and so is every distance between them
        a, b = np.round(a * 16) / 16, np.round(b * 16) / 16
    return testing.build_distances(a, b)


def pcg(seed):
    return np.random.Generator(np.random.PCG64(seed))


def second_pass_share(ds, B, seed):
    """The share of within quantiles of one ``testing._replicates`` call
    that the second pass settled, with its tracemalloc peak."""
    rows = {"first": 0, "second": 0}
    inner = testing._reaching

    def spy(counts, iu, ju, ranks):
        # the second pass weighs all of a corpus's pairs, and only when the
        # prefix is shorter than that
        runs, replicates = counts.shape
        pairs = runs * (runs - 1) // 2
        lo = int((pairs - 1) * testing.QUANTILE_LEVEL)
        full = len(iu) == pairs > testing.WITHIN_PREFIX * (pairs - lo)
        rows["second" if full else "first"] += replicates
        return inner(counts, iu, ju, ranks)

    testing._reaching = spy
    tracemalloc.start()
    try:
        testing._replicates(ds, B, pcg(seed))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        testing._reaching = inner
    return rows["second"] / rows["first"], peak


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", default="10,30,100",
                        help="comma-separated corpus sizes n (runs per corpus)")
    parser.add_argument("--repeat", type=int, default=5,
                        help="timed calls per size; the median is reported")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    B = testing.DEFAULT_B
    print(f"{'n':>5} {'m':>5} {'pair':>6} {'distinct':>8} {'codes':>6} {'B':>6} {'wall_s':>8} "
          f"{'replicates/s':>13} {'second':>6} {'peak_MB':>8}")
    mismatched = []
    sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    pairs = [(n, n, pair) for n in sizes for pair in ("normal", "tied")]
    for n, m, pair in pairs + [(12, 40, "normal")]:
        ds = corpora(n, m, args.seed + n, pair == "tied")
        values, codes = testing._rank_codes(ds)
        oracle_rng, rng = pcg(args.seed), pcg(args.seed)
        expected = bootstrap_replicates_oracle(ds, B, oracle_rng)
        second, peak = second_pass_share(ds, B, args.seed)
        got = testing._replicates(ds, B, rng)
        if not np.array_equal(got, expected):
            mismatched.append(f"n={n} m={m} {pair}: replicates")
        if rng.bit_generator.state != oracle_rng.bit_generator.state:
            mismatched.append(f"n={n} m={m} {pair}: generator state")
        lo, hi = testing.percentile_ci(expected)
        walls = []
        for _ in range(args.repeat):
            t0 = time.perf_counter()
            res = testing.bootstrap_exceedance(ds, B=B, seed=args.seed)
            walls.append(time.perf_counter() - t0)
            if (res.ci_lo, res.ci_hi, res.replicates_mean) != (
                lo, hi, float(expected.mean())
            ):
                mismatched.append(f"n={n} m={m} {pair}: CI or replicate mean")
        wall = statistics.median(walls)
        print(f"{n:>5} {m:>5} {pair:>6} {len(values):>8} {codes.dtype.name:>6} {B:>6} "
              f"{wall:>8.4f} {B / wall:>13.0f} {second:>6.1%} {peak / 1e6:>8.2f}")
    if mismatched:
        raise SystemExit("bootstrap differs from the oracle: "
                         + ", ".join(sorted(set(mismatched))))


if __name__ == "__main__":
    main()
