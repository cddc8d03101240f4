"""Time the DTW kernels in ns per cell, checking every result bit for bit.

Usage:
    PYTHONPATH=src python3 benchmarks/bench_dtw.py [--lengths 625,1875]
        [--pairs 16,66] [--band N] [--repeat 3] [--seed 0]

For each series length n and batch size P, P random Poisson(3) pairs of
n samples each (n * n cells per pair) go through:

* numpy: the batched wavefront kernel, ``_dtw_np.dtw_many``, once in
  each cost dtype, float64 and int32; the ``length`` column is the
  path-length dtype the kernel picks for n x n pairs;
* python: the scalar oracle ``_dtw_py.dtw_pair`` once per pair.

The pairs are integral, so ``dtw.cost_dtype`` picks int32 for them, as it
does for every metric of ``series.csv``; the script checks that before
it times int32. With --band N every case runs a second time under a
Sakoe-Chiba band of N (N >= 0), on the same pairs; its cells are those
inside the band.

Raw cost and path length of every pair, in every dtype, must equal the
oracle's, or the script exits non-zero. The numpy kernel keeps the best
of --repeat passes (its seconds are printed beside ns per cell); the
oracle runs once, and its pass dominates the run time (under a minute at
the defaults, with or without --band 40, on a 2-core x86 host).
"""

import argparse
import time

import numpy as np

from dualq.stats import _dtw_np, _dtw_py, dtw


def best_of(repeat, fn):
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def check(name, got, expected, n, p, band):
    got = [(float(r), int(k)) for r, k in got]
    if got != expected:
        bad = sum(a != b for a, b in zip(got, expected))
        raise SystemExit(f"{name} kernel differs from the oracle on {bad} of "
                         f"{p} pairs at n={n}, band {band}")


def cells_per_pair(n, band):
    """Cells (i, j) of an n x n matrix with |i - j| <= band (all if band < 0)."""
    if band < 0 or band >= n - 1:
        return n * n
    return n * (2 * band + 1) - band * (band + 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--lengths", default="625,1875",
                        help="comma-separated series lengths")
    parser.add_argument("--pairs", default="16,66",
                        help="comma-separated batch sizes P")
    parser.add_argument("--repeat", type=int, default=3,
                        help="timing passes of the numpy kernel, best is kept")
    parser.add_argument("--band", type=int, default=None,
                        help="also time every case under this Sakoe-Chiba band")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    if args.band is not None and args.band < 0:
        parser.error("--band must be >= 0")
    bands = [-1] if args.band is None else [-1, args.band]

    lengths = [int(s) for s in args.lengths.split(",") if s.strip()]
    batch_sizes = [int(s) for s in args.pairs.split(",") if s.strip()]
    rng = np.random.default_rng(args.seed)

    print(f"{'n':>6} {'P':>4} {'band':>5} {'dtype':>7} {'length':>6} "
          f"{'python':>8} {'numpy':>8} {'py/np':>6} {'numpy_s':>8}   "
          f"(ns per cell; best numpy pass)")

    for n in lengths:
        for p in batch_sizes:
            xs = rng.poisson(3.0, (p, n)).astype(np.float64)
            ys = rng.poisson(3.0, (p, n)).astype(np.float64)
            if dtw.cost_dtype(xs, ys) != np.int32:
                raise SystemExit(f"the guard rejects int32 at n={n}, P={p}")
            for band in bands:
                cells = p * cells_per_pair(n, band)
                t0 = time.perf_counter()
                expected = [_dtw_py.dtw_pair(x, y, band) for x, y in zip(xs, ys)]
                t_py = time.perf_counter() - t0
                label = "full" if band < 0 else str(band)
                ltype = _dtw_np.length_dtype(n, n).name
                for dtype in ("float64", "int32"):
                    t_np, (raw, plen) = best_of(
                        args.repeat,
                        lambda: _dtw_np.dtw_many(xs, ys, band, dtype))
                    check(f"numpy {dtype}", zip(raw, plen), expected, n, p, band)
                    print(f"{n:>6} {p:>4} {label:>5} {dtype:>7} {ltype:>6} "
                          f"{t_py * 1e9 / cells:>8.1f} "
                          f"{t_np * 1e9 / cells:>8.1f} {t_py / t_np:>6.1f} "
                          f"{t_np:>8.4f}")


if __name__ == "__main__":
    main()
