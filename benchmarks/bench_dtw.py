"""Time the DTW kernel in ns per cell, checking every result bit for bit.

Usage:
    PYTHONPATH=src python3 benchmarks/bench_dtw.py [--lengths 625,1875]
        [--pairs 16,66] [--band N] [--repeat 3] [--seed 0]

For each series length n and batch size P, P random Poisson(3) pairs of
n samples each (n * n cells per pair) go through:

* int32 and int64: the batched wavefront kernel ``_dtw_np.dtw_packed``
  in packed keys of each width, in the chunks ``dtw.dtw_norm_pairs``
  runs a group in: equal chunks of at most ``dtw.CHUNK_PAIRS`` pairs and
  ``dtw.CHUNK_BYTES`` per diagonal block of the width's keys (the
  ``chunks`` column, count x largest). The ``sat`` column is the share
  of pairs whose cost saturated the int32 keys (those
  ``dtw.dtw_norm_pairs`` runs again in int64 keys, which never saturate
  on such pairs);
* python: the scalar oracle ``_dtw_py.dtw_pair`` once per pair.

The pairs are small non-negative integers, so ``dtw.packed_route``
sends them to int32 keys, as for the queue-occupancy series of
``series.csv``; the script checks that before it times. With --band N
every case runs a second time under a Sakoe-Chiba band of N (N >= 0),
on the same pairs; its cells are those inside the band.

Raw cost and path length of every pair in int64 keys must equal the
oracle's, and in int32 keys every pair not saturated must, and every
saturated one must truly reach the saturation cost, or the script exits
non-zero. Each numpy case keeps the best of --repeat passes over all of
its chunks (its seconds are printed beside ns per cell); the oracle runs
once on the pairs, and that pass dominates the run time (about a
minute at the defaults, on a 2-core x86 host).
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


def chunks(p, n, keys):
    """A slice of the pairs for each chunk dtw.dtw_norm_pairs runs a group
    of p pairs of n x n in, in keys of dtype ``keys``."""
    per_call = dtw.CHUNK_BYTES // (n * np.dtype(keys).itemsize)
    per_call = max(1, min(dtw.CHUNK_PAIRS, per_call))
    return [slice(c[0], c[-1] + 1)
            for c in np.array_split(np.arange(p), -(-p // per_call))]


def run_chunks(xs, ys, band, vmax, keys, parts):
    """dtw_packed on each chunk of the pairs; (raw, plen, exact) of all."""
    out = [_dtw_np.dtw_packed(xs[c], ys[c], band, vmax, keys) for c in parts]
    return tuple(np.concatenate(col) for col in zip(*out))


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

    print(f"{'n':>6} {'P':>4} {'band':>5} {'kernel':>7} {'chunks':>7} "
          f"{'python':>8} {'numpy':>8} {'py/np':>6} {'numpy_s':>8} {'sat':>6}"
          f"   (ns per cell; best numpy pass)")

    for n in lengths:
        for p in batch_sizes:
            xs = rng.poisson(3.0, (p, n)).astype(np.float64)
            ys = rng.poisson(3.0, (p, n)).astype(np.float64)
            lo, vmax, keys = dtw.packed_route(xs, ys)
            if (lo, keys) != (0.0, np.int32):
                raise SystemExit(f"int32 keys refuse n={n}, P={p}: {lo}, {keys}")
            satc = 1 << (30 - _dtw_np.packed_layout(n, n, vmax, np.int32)[0])
            for band in bands:
                cells = p * cells_per_pair(n, band)
                t0 = time.perf_counter()
                expected = [_dtw_py.dtw_pair(x, y, band) for x, y in zip(xs, ys)]
                t_py = time.perf_counter() - t0
                label = "full" if band < 0 else str(band)
                for kernel in ("int32", "int64"):
                    keys = getattr(np, kernel)
                    parts = chunks(p, n, keys)
                    t_np, (raw, plen, exact) = best_of(
                        args.repeat,
                        lambda: run_chunks(xs, ys, band, vmax, keys, parts))
                    if keys is np.int64 and not exact.all():
                        raise SystemExit(f"int64 keys saturate at n={n}, "
                                         f"P={p}, band {band}")
                    check_packed(kernel, zip(raw, plen), exact, expected, n,
                                 p, band, satc)
                    sat = f"{1 - exact.mean():.1%}" if keys is np.int32 else "-"
                    layout = f"{len(parts)}x{parts[0].stop}"
                    print(f"{n:>6} {p:>4} {label:>5} {kernel:>7} {layout:>7} "
                          f"{t_py * 1e9 / cells:>8.1f} "
                          f"{t_np * 1e9 / cells:>8.1f} {t_py / t_np:>6.1f} "
                          f"{t_np:>8.4f} {sat:>6}")


if __name__ == "__main__":
    main()
