"""Time the bootstrap at B=2000 in replicates/s, checking every replicate.

Usage:
    PYTHONPATH=src python3 benchmarks/bench_bootstrap.py [--sizes 10,30,100]
        [--repeat 5] [--seed 0]

For each corpus size n, two pairs of fixed-seed scalar corpora of n runs
each go through ``bootstrap_exceedance`` --repeat times:

* normal: normal throughputs, the second corpus shifted by half a
  standard deviation so that the replicates spread; nearly every
  distance is distinct;
* tied: the same throughputs rounded to 1/16 Mbps, so the distances
  take a few dozen values, as in measured corpora (the bootstrap
  workload's 30-run corpora hold 83 distinct distances among 1,770
  pairs).

Each row gives the pair's distinct distances and the dtype of the rank
codes the replicates run on, the median wall time of one call,
replicates/s at that median, and the tracemalloc peak of one
``testing._replicates`` call, outside the timed calls. The default sizes
are the ci-width sizes of the bootstrap benchmark workload plus n=100.

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


def corpora(n, seed, tied):
    gen = np.random.default_rng(seed)
    a, b = gen.normal(10.0, 1.0, n), gen.normal(10.5, 1.0, n)
    if tied:
        # multiples of 1/16 are exact, and so is every distance between them
        a, b = np.round(a * 16) / 16, np.round(b * 16) / 16
    return testing.build_distances(a, b)


def pcg(seed):
    return np.random.Generator(np.random.PCG64(seed))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", default="10,30,100",
                        help="comma-separated corpus sizes n (runs per corpus)")
    parser.add_argument("--repeat", type=int, default=5,
                        help="timed calls per size; the median is reported")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    B = testing.DEFAULT_B
    print(f"{'n':>5} {'pair':>6} {'distinct':>8} {'codes':>6} {'B':>6} {'wall_s':>8} "
          f"{'replicates/s':>13} {'peak_MB':>8}")
    mismatched = []
    sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    for n, pair in ((n, pair) for n in sizes for pair in ("normal", "tied")):
        ds = corpora(n, args.seed + n, pair == "tied")
        values, codes, _, _ = testing._rank_codes(ds)
        oracle_rng, rng = pcg(args.seed), pcg(args.seed)
        expected = bootstrap_replicates_oracle(ds, B, oracle_rng)
        tracemalloc.start()
        try:
            got = testing._replicates(ds, B, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        if not np.array_equal(got, expected):
            mismatched.append(f"n={n} {pair}: replicates")
        if rng.bit_generator.state != oracle_rng.bit_generator.state:
            mismatched.append(f"n={n} {pair}: generator state")
        lo, hi = testing.percentile_ci(expected)
        walls = []
        for _ in range(args.repeat):
            t0 = time.perf_counter()
            res = testing.bootstrap_exceedance(ds, B=B, seed=args.seed)
            walls.append(time.perf_counter() - t0)
            if (res.ci_lo, res.ci_hi, res.replicates_mean) != (
                lo, hi, float(expected.mean())
            ):
                mismatched.append(f"n={n} {pair}: CI or replicate mean")
        wall = statistics.median(walls)
        print(f"{n:>5} {pair:>6} {len(values):>8} {codes.dtype.name:>6} {B:>6} {wall:>8.4f} "
              f"{B / wall:>13.0f} {peak / 1e6:>8.2f}")
    if mismatched:
        raise SystemExit("bootstrap differs from the oracle: "
                         + ", ".join(sorted(set(mismatched))))


if __name__ == "__main__":
    main()
