"""Time the DTW kernels in ns per cell, checking every result bit for bit.

Usage:
    PYTHONPATH=src python3 benchmarks/bench_dtw.py [--lengths 625,1875]
        [--pairs 16,66] [--repeat 3] [--seed 0]

For each series length n and batch size P, P random Poisson(3) pairs of
n samples each (n * n cells per pair) go through:

* numpy: the batched wavefront kernel, ``_dtw_np.dtw_many``, one call;
* python: the scalar oracle ``_dtw_py.dtw_pair`` once per pair.

Raw cost and path length of every pair must equal the oracle's, or the
script exits non-zero. The numpy kernel keeps the best of --repeat
passes; the oracle runs once, and its pass dominates the run time
(about four minutes at the defaults on a 2-core x86 host).
"""

import argparse
import time

import numpy as np

from dualq.stats import _dtw_np, _dtw_py


def best_of(repeat, fn):
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def check(name, got, expected, n, p):
    got = [(float(r), int(k)) for r, k in got]
    if got != expected:
        bad = sum(a != b for a, b in zip(got, expected))
        raise SystemExit(f"{name} kernel differs from the oracle on {bad} of "
                         f"{p} pairs at n={n}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--lengths", default="625,1875",
                        help="comma-separated series lengths")
    parser.add_argument("--pairs", default="16,66",
                        help="comma-separated batch sizes P")
    parser.add_argument("--repeat", type=int, default=3,
                        help="timing passes of the numpy kernel, best is kept")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    lengths = [int(s) for s in args.lengths.split(",") if s.strip()]
    batch_sizes = [int(s) for s in args.pairs.split(",") if s.strip()]
    rng = np.random.default_rng(args.seed)

    print(f"{'n':>6} {'P':>4} {'python':>8} {'numpy':>8} {'py/np':>6}"
          "   (ns per cell)")

    for n in lengths:
        for p in batch_sizes:
            xs = rng.poisson(3.0, (p, n)).astype(np.float64)
            ys = rng.poisson(3.0, (p, n)).astype(np.float64)
            cells = p * n * n
            t0 = time.perf_counter()
            expected = [_dtw_py.dtw_pair(x, y) for x, y in zip(xs, ys)]
            t_py = time.perf_counter() - t0
            t_np, (raw, plen) = best_of(args.repeat,
                                        lambda: _dtw_np.dtw_many(xs, ys))
            check("numpy", zip(raw, plen), expected, n, p)
            print(f"{n:>6} {p:>4} {t_py * 1e9 / cells:>8.1f} "
                  f"{t_np * 1e9 / cells:>8.1f} {t_py / t_np:>6.1f}")


if __name__ == "__main__":
    main()
