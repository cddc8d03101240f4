"""Public DTW interface over the batched numpy kernel.

Every distance goes through ``_dtw_np.dtw_many``, the anti-diagonal
wavefront that runs a whole batch of pairs at once; single pairs are a
batch of one. ``_dtw_py`` is the scalar reference it is tested against
bit for bit, never called here. ``IMPLEMENTATION`` names the kernel.
"""

from __future__ import annotations

import numpy as np

from ._dtw_np import IMPLEMENTATION, INT32_INF, dtw_many

# Each (n, m) group of pairs runs through the kernel in equal chunks of
# at most min(CHUNK_PAIRS, CHUNK_BYTES // (min(n, m) * itemsize)) pairs,
# so that a diagonal block of costs stays near 256 KB (32k float64 or 64k
# int32 cells): 17 or 34 pairs at 1875 samples, 52 or 104 at 625. Larger
# blocks fall out of cache: at 1875 samples a 256-pair call took 8.8
# ns/cell (float64) and 5.5 (int32) against 5.8 and 4.0 at 16 pairs
# (2-core x86); smaller chunks pay the per-diagonal overhead instead.
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


def cost_dtype(xs, ys) -> np.dtype:
    """The kernel's cost dtype for the pairs (xs[p], ys[p]), n and m samples.

    int32 when it gives the float64 results exactly (see _dtw_np): every
    value is an integer, every |value| < 2^30, and (n + m - 1) * (max -
    min) < 2^30 over all values. Otherwise float64.
    """
    n, m = len(xs[0]), len(ys[0])
    # a series recurs in many pairs; look at each array once
    values = np.concatenate(list({id(a): a for a in (*xs, *ys)}.values()))
    lo, hi = values.min(), values.max()
    if (max(-lo, hi) < INT32_INF and (n + m - 1) * float(hi - lo) < INT32_INF
            and (values == np.trunc(values)).all()):
        return np.dtype(np.int32)
    return np.dtype(np.float64)


def dtw_norm(x, y, band: int | None = None) -> float:
    """Normalized DTW of one pair: a batch of one through dtw_norm_pairs."""
    return float(dtw_norm_pairs([x], [y], band)[0])


def dtw_norm_pairs(xs, ys, band: int | None = None) -> np.ndarray:
    """Normalized DTW of every pair (xs[p], ys[p]), as a float64 array.

    The raw cost is divided by the number of cells on the optimal path,
    so series of different lengths compare on one scale. Every pair is
    checked by _prepare; pairs of equal lengths then go through the
    kernel together, with the cost dtype cost_dtype picks for them, in
    equal chunks of at most CHUNK_BYTES per diagonal block and
    CHUNK_PAIRS pairs. Each chunk's inputs are stacked only when it runs,
    by the kernel, straight into its cost dtype.
    """
    prepared = [_prepare(x, y, band) for x, y in zip(xs, ys, strict=True)]
    b = -1 if band is None else int(band)
    # CLI corpora come from one scenario, so they form a single group;
    # mixed lengths arise only from library callers
    groups: dict[tuple[int, int], list[int]] = {}
    for p, (xa, ya) in enumerate(prepared):
        groups.setdefault((xa.size, ya.size), []).append(p)
    out = np.empty(len(prepared), dtype=np.float64)
    for (n, m), members in groups.items():
        dtype = cost_dtype([prepared[p][0] for p in members],
                           [prepared[p][1] for p in members])
        per_call = CHUNK_BYTES // (min(n, m) * dtype.itemsize)
        per_call = max(1, min(CHUNK_PAIRS, per_call))
        for chunk in np.array_split(members, -(-len(members) // per_call)):
            raw, plen = dtw_many(
                [prepared[p][0] for p in chunk],
                [prepared[p][1] for p in chunk],
                b,
                dtype,
            )
            out[chunk] = raw / plen
    return out
