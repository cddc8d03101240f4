"""Public DTW interface over the batched numpy kernel.

Every distance goes through the anti-diagonal wavefront of ``_dtw_np``,
which runs a whole batch of pairs at once in packed integer keys;
single pairs are a batch of one. Each (n, m) group of pairs takes one
exact route, chosen from its values alone (packed_route):

* every value must be an integer. The group's minimum lo is subtracted:
  |x - y| = |(x - lo) - (y - lo)|, so every comparison, tie, path length
  and raw cost is the same;
* every true cost is at most (n + m - 1) * vmax, vmax = max - lo. The
  group runs in int32 keys when packed_layout gives them a clamp period
  T >= 1 for vmax, and the pairs they saturate run again in int64 keys.
  Otherwise it runs in int64 keys when their T >= 1 and (n + m - 1) *
  vmax < 2^min(53, 62 - S): every true cost is then below SATC, so no
  int64 key saturates, and below 2^53, so the shifted values and the
  costs are integers float64 holds exactly, as are _dtw_py's own
  differences and sums. Any other group is a ValueError.

The int64 keys take every pair the int32 keys leave: T >= 1 for int32
keys means (vmax + 1) << S <= 2^30 / 3, so S <= 28 and vmax < 2^(30 - S),
and n + m - 1 <= 2^L = 2^(S - 2), so (n + m - 1) * vmax < 2^28 <=
2^min(53, 62 - S); int64 keys' T is then above 2^32.

``_dtw_py`` is the scalar reference the kernel is tested against bit
for bit, never called here. ``IMPLEMENTATION`` names the kernel.
"""

from __future__ import annotations

import numpy as np

from ._dtw_np import IMPLEMENTATION, dtw_packed, packed_layout

# Each (n, m) group of pairs runs through the kernel in equal chunks of
# at most min(CHUNK_PAIRS, CHUNK_BYTES // (min(n, m) * itemsize)) pairs,
# so that a diagonal block stays near 256 KB (64k int32 keys or 32k
# int64 keys): 34 or 17 pairs at 1875 samples, 104 or 52 at 625.
# Larger blocks fall out of cache, smaller ones pay the per-diagonal
# overhead. Measured on 136 pairs (2-core x86, median ns/cell of 3-5
# alternating rounds): int32 keys 2.0, 1.6, 1.9, 1.8 and 1.7 at 625
# samples, 2.2, 1.8, 2.1, 2.3 and 2.8 at 1875, at 128 KB, 256 KB,
# 384 KB, 512 KB and 1 MB. No budget beat 256 KB by more than the
# rounds' spread.
CHUNK_BYTES = 1 << 18
CHUNK_PAIRS = 256


def _prepare(x, y, band: int | None):
    xa = np.ascontiguousarray(x, dtype=np.float64)
    ya = np.ascontiguousarray(y, dtype=np.float64)
    if xa.ndim != 1 or ya.ndim != 1:
        raise ValueError(f"series must be 1-D, got shapes {xa.shape}, {ya.shape}")
    if xa.size == 0 or ya.size == 0:
        raise ValueError("series must be non-empty")
    if not (np.isfinite(xa).all() and np.isfinite(ya).all()):
        raise ValueError("series must be finite")
    if band is not None and int(band) < abs(xa.size - ya.size):
        raise ValueError(
            f"band {band} cannot align lengths {xa.size} and {ya.size}; "
            f"need at least {abs(xa.size - ya.size)}"
        )
    return xa, ya


def _distinct(xs, ys) -> dict[int, np.ndarray]:
    """Each series of the pairs once, by id: a series recurs in many
    pairs."""
    return {id(a): a for a in (*xs, *ys)}


def packed_route(xs, ys) -> tuple[float, int, type]:
    """(lo, vmax, keys) of the pairs (xs[p], ys[p]): dtw_packed runs them
    shifted by -lo, values in [0, vmax], in keys of dtype ``keys``,
    np.int32 or np.int64 (module docstring). lo is the least value and
    vmax the span. Raises ValueError for a value that is not an integer
    and for a span whose costs could reach 2^53 or saturate int64 keys."""
    n, m = len(xs[0]), len(ys[0])
    values = np.concatenate(list(_distinct(xs, ys).values()))
    whole = values == np.trunc(values)
    if not whole.all():
        raise ValueError(f"DTW series must be integers, got "
                         f"{float(values[np.argmin(whole)])!r}")
    lo = values.min()
    vmax = int(values.max() - lo)
    if packed_layout(n, m, vmax, np.int32)[1] >= 1:
        return float(lo), vmax, np.int32
    shift, period = packed_layout(n, m, vmax, np.int64)
    bound = min(53, 62 - shift)
    if period >= 1 and (n + m - 1) * vmax < 1 << bound:
        return float(lo), vmax, np.int64
    raise ValueError(f"DTW series spanning {vmax} are too wide for {n} x {m} "
                     f"pairs: a cost could reach 2^{bound}")


def dtw_norm(x, y, band: int | None = None) -> float:
    """Normalized DTW of one pair: a batch of one through dtw_norm_pairs."""
    return float(dtw_norm_pairs([x], [y], band)[0])


def dtw_norm_pairs(xs, ys, band: int | None = None) -> np.ndarray:
    """Normalized DTW of every pair (xs[p], ys[p]), as a float64 array.

    The raw cost is divided by the number of cells on the optimal path,
    so series of different lengths compare on one scale. Every pair is
    checked by _prepare; pairs of equal lengths then go through
    dtw_packed together, on the route packed_route gives their group
    (module docstring), in equal chunks of at most CHUNK_BYTES per
    diagonal block and CHUNK_PAIRS pairs. Each chunk's inputs are
    stacked only when it runs, by the kernel, straight into its keys.
    """
    prepared = [_prepare(x, y, band) for x, y in zip(xs, ys, strict=True)]
    b = -1 if band is None else int(band)
    # the runs of one corpus share a length, but validate and bootstrap
    # accept corpora of different durations: up to three groups then
    groups: dict[tuple[int, int], list[int]] = {}
    for p, (xa, ya) in enumerate(prepared):
        groups.setdefault((xa.size, ya.size), []).append(p)
    out = np.empty(len(prepared), dtype=np.float64)
    for (n, m), members in groups.items():
        gx = [prepared[p][0] for p in members]
        gy = [prepared[p][1] for p in members]
        lo, vmax, keys = packed_route(gx, gy)
        per_call = CHUNK_BYTES // (min(n, m) * np.dtype(keys).itemsize)
        per_call = max(1, min(CHUNK_PAIRS, per_call))
        shifted = {key: a - lo for key, a in _distinct(gx, gy).items()}
        for chunk in np.array_split(members, -(-len(members) // per_call)):
            cx = [shifted[id(prepared[p][0])] for p in chunk]
            cy = [shifted[id(prepared[p][1])] for p in chunk]
            raw, plen, exact = dtw_packed(cx, cy, b, vmax, keys)
            if not exact.all():
                # only int32 keys saturate; int64 ones hold these pairs
                redo = np.flatnonzero(~exact)
                raw[redo], plen[redo], _ = dtw_packed(
                    [cx[p] for p in redo], [cy[p] for p in redo], b, vmax, np.int64)
            out[chunk] = raw / plen
    return out
