"""Public DTW interface over the batched numpy kernel.

Every distance goes through the anti-diagonal wavefront of ``_dtw_np``,
which runs a whole batch of pairs at once; single pairs are a batch of
one. Each (n, m) group of pairs takes one of two exact routes, chosen
from its values alone (packed_gcd_vmax):

* a group of non-negative integers is divided by the gcd g of its
  values and runs in packed int32 keys (``dtw_packed``), when the
  quotients are small enough for the keys. |x - y| / g = |x/g - y/g|
  and dividing by g changes no comparison, so every tie and path length
  is the same, and the raw cost is g times the reduced one. Every true
  cost is at most (n + m - 1) * max, which is kept below 2^53, so the
  costs, the quotients and g times a reduced cost are integers float64
  holds exactly, as _dtw_py's own float64 sums are;
* every other group, and every pair whose packed cost saturates, runs in
  float64 costs (``dtw_many``), the oracle's own arithmetic.

``_dtw_py`` is the scalar reference both are tested against bit for bit,
never called here. ``IMPLEMENTATION`` names the kernel.
"""

from __future__ import annotations

import numpy as np

from ._dtw_np import IMPLEMENTATION, dtw_many, dtw_packed, packed_layout

# Each (n, m) group of pairs runs through the kernel in equal chunks of
# at most min(CHUNK_PAIRS, CHUNK_BYTES // (min(n, m) * itemsize)) pairs,
# so that a diagonal block stays near 256 KB (32k float64 costs or 64k
# packed int32 keys): 17 or 34 pairs at 1875 samples, 52 or 104 at 625.
# Larger blocks fall out of cache, smaller ones pay the per-diagonal
# overhead. Measured on 136 pairs (2-core x86, median ns/cell of 3-5
# alternating rounds): float64 costs at 1875 samples 7.1, 5.5-5.7, 5.9,
# 5.5-5.7 and 7.1 at 128 KB, 256 KB, 384 KB, 512 KB and 1 MB; packed
# keys 2.0, 1.6, 1.9, 1.8 and 1.7 at 625 samples, 2.2, 1.8, 2.1, 2.3 and
# 2.8 at 1875. No budget beat 256 KB by more than the rounds' spread.
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


def packed_gcd_vmax(xs, ys) -> tuple[int, int] | None:
    """(g, vmax) when dtw_packed can run the pairs (xs[p], ys[p]) divided
    by g, else None. g is the gcd of every value (1 when all are 0) and
    vmax the largest value over g. Accepted when every value is a
    non-negative integer, (n + m - 1) * max < 2^53 (module docstring) and
    packed_layout gives a clamp period T >= 1 for vmax (see _dtw_np)."""
    n, m = len(xs[0]), len(ys[0])
    values = np.concatenate(list(_distinct(xs, ys).values()))
    hi = values.max()
    if (values.min() < 0 or (n + m - 1) * int(hi) >= 1 << 53
            or not (values == np.trunc(values)).all()):
        return None
    g = int(np.gcd.reduce(values.astype(np.int64))) or 1
    vmax = int(hi) // g
    return (g, vmax) if packed_layout(n, m, vmax)[1] >= 1 else None


def dtw_norm(x, y, band: int | None = None) -> float:
    """Normalized DTW of one pair: a batch of one through dtw_norm_pairs."""
    return float(dtw_norm_pairs([x], [y], band)[0])


def dtw_norm_pairs(xs, ys, band: int | None = None) -> np.ndarray:
    """Normalized DTW of every pair (xs[p], ys[p]), as a float64 array.

    The raw cost is divided by the number of cells on the optimal path,
    so series of different lengths compare on one scale. Every pair is
    checked by _prepare; pairs of equal lengths then go through one
    route together (module docstring), in equal chunks of at most
    CHUNK_BYTES per diagonal block and CHUNK_PAIRS pairs: dtw_packed on
    the series divided by g when packed_gcd_vmax accepts the group, with
    the pairs it saturates run again by dtw_many, else dtw_many. Each
    chunk's inputs are stacked only when it runs, by the kernel, straight
    into int32 keys or float64 costs.
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
        packed = packed_gcd_vmax(gx, gy)
        # a packed cell is one int32 key, a float64 cost takes 8 bytes
        per_call = CHUNK_BYTES // (min(n, m) * (8 if packed is None else 4))
        per_call = max(1, min(CHUNK_PAIRS, per_call))
        if packed is not None:
            g, vmax = packed
            reduced = {key: a / g for key, a in _distinct(gx, gy).items()}
        for chunk in np.array_split(members, -(-len(members) // per_call)):
            cx = [prepared[p][0] for p in chunk]
            cy = [prepared[p][1] for p in chunk]
            if packed is None:
                raw, plen = dtw_many(cx, cy, b)
            else:
                raw, plen, exact = dtw_packed([reduced[id(a)] for a in cx],
                                              [reduced[id(a)] for a in cy], b, vmax)
                raw *= g
                if not exact.all():
                    redo = np.flatnonzero(~exact)
                    raw[redo], plen[redo] = dtw_many([cx[p] for p in redo],
                                                     [cy[p] for p in redo], b)
            out[chunk] = raw / plen
    return out
