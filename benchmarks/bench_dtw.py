"""Time the DTW kernel in ns per cell, checking every result bit for bit.

Usage:
    PYTHONPATH=src python3 benchmarks/bench_dtw.py [--lengths 625,1875]
        [--pairs 16,66] [--band N] [--repeat 3] [--seed 0]

For each series length n and batch size P, P random Poisson(3) pairs of
n samples each (n * n cells per pair) go through:

* int32 and int64: the batched wavefront kernel ``_dtw_np.dtw_packed``
  in packed keys of each width; the ``sat`` column is the share of pairs
  whose cost saturated the int32 keys (those ``dtw.dtw_norm_pairs`` runs
  again in int64 keys, which never saturate on such pairs);
* x1500: ``dtw.dtw_norm_pairs`` on the same pairs times 1500, as
  ``queue_bytes`` is ``mtu`` times ``queue_occupancy``: the group is
  divided by its gcd, 1500, into int32 keys, and its raw costs
  multiplied back, with every saturated pair run again in int64 keys;
* python: the scalar oracle ``_dtw_py.dtw_pair`` once per pair.

The pairs are small non-negative integers, so ``dtw.packed_route``
sends them to int32 keys with gcd 1, as for the queue-occupancy series
of ``series.csv``, and the pairs times 1500 with gcd 1500; the script
checks both before it times. With --band N every case runs a second
time under a Sakoe-Chiba band of N (N >= 0), on the same pairs; its
cells are those inside the band.

Raw cost and path length of every pair in int64 keys must equal the
oracle's, and in int32 keys every pair not saturated must, and every
saturated one must truly reach the saturation cost; every x1500
distance must equal the oracle's on the pairs times 1500, or the script
exits non-zero. Each numpy case keeps the best of --repeat passes (its
seconds are printed beside ns per cell); the oracle runs once on the
pairs and once on the pairs times 1500 (only the first is timed), and
those passes dominate the run time (about two minutes at the defaults,
on a 2-core x86 host).
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


def check_packed(keys, got, exact, expected, n, p, band, satc):
    """The pairs packed exact equal the oracle; the others reach satc."""
    got = [(float(r), int(k)) for r, k in got]
    bad = sum(a != b if ok else b[0] < satc
              for a, ok, b in zip(got, exact, expected))
    if bad:
        raise SystemExit(f"{keys} keys differ from the oracle on {bad} of {p} "
                         f"pairs at n={n}, band {band}")


def check_x1500(got, xs, ys, n, p, band):
    """dtw_norm_pairs on the pairs times 1500 equals the oracle on them."""
    expected = [r / k for r, k in
                (_dtw_py.dtw_pair(x, y, band) for x, y in zip(xs, ys))]
    bad = sum(a != b for a, b in zip(got.tolist(), expected))
    if bad:
        raise SystemExit(f"dtw_norm_pairs x1500 differs from the oracle on "
                         f"{bad} of {p} pairs at n={n}, band {band}")


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

    print(f"{'n':>6} {'P':>4} {'band':>5} {'kernel':>7} "
          f"{'python':>8} {'numpy':>8} {'py/np':>6} {'numpy_s':>8} {'sat':>6}"
          f"   (ns per cell; best numpy pass)")

    for n in lengths:
        for p in batch_sizes:
            xs = rng.poisson(3.0, (p, n)).astype(np.float64)
            ys = rng.poisson(3.0, (p, n)).astype(np.float64)
            route = dtw.packed_route(xs, ys)
            if route[:2] != (0.0, 1) or route[3] is not np.int32:
                raise SystemExit(f"int32 keys refuse n={n}, P={p}: {route}")
            vmax = route[2]
            bx, by = xs * 1500, ys * 1500
            if dtw.packed_route(bx, by) != (0.0, 1500, vmax, np.int32):
                raise SystemExit(f"the pairs x1500 do not pack at n={n}, P={p}")
            satc = 1 << (30 - _dtw_np.packed_layout(n, n, vmax, np.int32)[0])
            for band in bands:
                cells = p * cells_per_pair(n, band)
                t0 = time.perf_counter()
                expected = [_dtw_py.dtw_pair(x, y, band) for x, y in zip(xs, ys)]
                t_py = time.perf_counter() - t0
                label = "full" if band < 0 else str(band)
                for kernel in ("int32", "int64", "x1500"):
                    sat = "-"
                    if kernel == "x1500":
                        t_np, got = best_of(
                            args.repeat,
                            lambda: dtw.dtw_norm_pairs(
                                bx, by, None if band < 0 else band))
                        check_x1500(got, bx, by, n, p, band)
                    else:
                        keys = getattr(np, kernel)
                        t_np, (raw, plen, exact) = best_of(
                            args.repeat,
                            lambda: _dtw_np.dtw_packed(xs, ys, band, vmax, keys))
                        if keys is np.int64 and not exact.all():
                            raise SystemExit(f"int64 keys saturate at n={n}, "
                                             f"P={p}, band {band}")
                        check_packed(kernel, zip(raw, plen), exact, expected, n,
                                     p, band, satc)
                        if keys is np.int32:
                            sat = f"{1 - exact.mean():.1%}"
                    print(f"{n:>6} {p:>4} {label:>5} {kernel:>7} "
                          f"{t_py * 1e9 / cells:>8.1f} "
                          f"{t_np * 1e9 / cells:>8.1f} {t_py / t_np:>6.1f} "
                          f"{t_np:>8.4f} {sat:>6}")


if __name__ == "__main__":
    main()
