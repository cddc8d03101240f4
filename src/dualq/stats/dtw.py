"""Public DTW interface over the batched numpy kernel.

Every distance goes through the anti-diagonal wavefront of ``_dtw_np``,
which runs a whole batch of pairs at once; single pairs are a batch of
one. A group of pairs whose values are small non-negative integers runs
in packed int32 keys (``dtw_packed``), every other group, and every
pair whose packed cost saturates, in ``dtw_many``. ``_dtw_py`` is the
scalar reference both are tested against bit for bit, never called
here. ``IMPLEMENTATION`` names the kernel.
"""

from __future__ import annotations

import numpy as np

from ._dtw_np import (IMPLEMENTATION, INT32_INF, dtw_many, dtw_packed,
                      packed_layout)

# Each (n, m) group of pairs runs through the kernel in equal chunks of
# at most min(CHUNK_PAIRS, CHUNK_BYTES // (min(n, m) * itemsize)) pairs,
# so that a diagonal block of costs stays near 256 KB (32k float64 or 64k
# int32 cells or packed keys): 17 or 34 pairs at 1875 samples, 52 or 104 at 625. Larger
# blocks fall out of cache, smaller ones pay the per-diagonal overhead.
# Re-measured with int16 path lengths on 136 pairs of 1875 samples (2-core
# x86, median ns/cell of 3-5 alternating rounds): int32 costs 3.5, 3.1-3.3,
# 3.1, 3.3-3.5 and 4.0 at 128 KB, 256 KB, 384 KB, 512 KB and 1 MB; float64
# 7.1, 5.5-5.7, 5.9, 5.5-5.7 and 7.1. Packed keys (one int32 key and three
# int32 temporaries a cell), 136 pairs: 2.0, 1.6, 1.9, 1.8 and 1.7 at 625
# samples, 2.2, 1.8, 2.1, 2.3 and 2.8 at 1875. No budget beat 256 KB by
# more than the rounds' spread.
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


def _values(xs, ys) -> np.ndarray:
    """Every value of the pairs; a series recurs in many pairs, so each
    array is taken once."""
    return np.concatenate(list({id(a): a for a in (*xs, *ys)}.values()))


def cost_dtype(xs, ys) -> np.dtype:
    """dtw_many's cost dtype for the pairs (xs[p], ys[p]), n and m samples.

    int32 when it gives the float64 results exactly (see _dtw_np): every
    value is an integer, every |value| < 2^30, and (n + m - 1) * (max -
    min) < 2^30 over all values. Otherwise float64.
    """
    n, m = len(xs[0]), len(ys[0])
    values = _values(xs, ys)
    lo, hi = values.min(), values.max()
    if (max(-lo, hi) < INT32_INF and (n + m - 1) * float(hi - lo) < INT32_INF
            and (values == np.trunc(values)).all()):
        return np.dtype(np.int32)
    return np.dtype(np.float64)


def packed_vmax(xs, ys) -> int | None:
    """The largest value of the pairs (xs[p], ys[p]) when dtw_packed can
    run them, else None: every value is an integer in [0, vmax] and
    packed_layout gives a clamp period T >= 1, which implies vmax < 2^28
    (see _dtw_np)."""
    n, m = len(xs[0]), len(ys[0])
    values = _values(xs, ys)
    lo, hi = values.min(), values.max()
    if (lo >= 0 and packed_layout(n, m, int(hi))[1] >= 1
            and (values == np.trunc(values)).all()):
        return int(hi)
    return None


def dtw_norm(x, y, band: int | None = None) -> float:
    """Normalized DTW of one pair: a batch of one through dtw_norm_pairs."""
    return float(dtw_norm_pairs([x], [y], band)[0])


def dtw_norm_pairs(xs, ys, band: int | None = None) -> np.ndarray:
    """Normalized DTW of every pair (xs[p], ys[p]), as a float64 array.

    The raw cost is divided by the number of cells on the optimal path,
    so series of different lengths compare on one scale. Every pair is
    checked by _prepare; pairs of equal lengths then go through one
    kernel together, in equal chunks of at most CHUNK_BYTES per diagonal
    block and CHUNK_PAIRS pairs: dtw_packed when packed_vmax accepts the
    group, with the pairs it saturates run again by dtw_many, else
    dtw_many with the cost dtype cost_dtype picks. Each chunk's inputs
    are stacked only when it runs, by the kernel, straight into int32 or
    its cost dtype.
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
        vmax = packed_vmax(gx, gy)
        # a packed cell is one int32 key
        dtype = cost_dtype(gx, gy) if vmax is None else np.dtype(np.int32)
        per_call = CHUNK_BYTES // (min(n, m) * dtype.itemsize)
        per_call = max(1, min(CHUNK_PAIRS, per_call))
        for chunk in np.array_split(members, -(-len(members) // per_call)):
            cx = [prepared[p][0] for p in chunk]
            cy = [prepared[p][1] for p in chunk]
            if vmax is None:
                raw, plen = dtw_many(cx, cy, b, dtype)
            else:
                raw, plen, exact = dtw_packed(cx, cy, b, vmax)
                if not exact.all():
                    redo = np.flatnonzero(~exact)
                    rx, ry = [cx[p] for p in redo], [cy[p] for p in redo]
                    raw[redo], plen[redo] = dtw_many(rx, ry, b, cost_dtype(rx, ry))
            out[chunk] = raw / plen
    return out
