"""Public DTW interface over the batched numpy kernel.

Every distance goes through ``_dtw_np.dtw_many``, the anti-diagonal
wavefront that runs a whole batch of pairs at once; single pairs are a
batch of one. ``_dtw_py`` is the scalar reference it is tested against
bit for bit, never called here. ``IMPLEMENTATION`` names the kernel.
"""

from __future__ import annotations

import numpy as np

from ._dtw_np import IMPLEMENTATION, dtw_many

# Pairs per kernel call in dtw_norm_pairs; bounds the kernel's working
# set at O(chunk * (n + m)) values, about 35 MB for 1875-sample series.
# Chunks of 16, 64 and 256 pairs took 4.2, 3.1 and 5.0 ns/cell at 625
# samples and 3.2, 4.5 and 5.8 ns/cell at 1875 (2-core x86): small
# chunks pay the per-diagonal overhead, and diagonal blocks of more than
# about 40k cells (chunk x min(n, m)) fall out of cache.
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
    if band is None:
        b = -1
    else:
        b = int(band)
        if b < abs(xa.size - ya.size):
            raise ValueError(
                f"band {b} cannot align lengths {xa.size} and {ya.size}; "
                f"need at least {abs(xa.size - ya.size)}"
            )
    return xa, ya, b


def _pair(x, y, band: int | None) -> tuple[float, int]:
    xa, ya, b = _prepare(x, y, band)
    raw, plen = dtw_many(xa[None], ya[None], b)
    return float(raw[0]), int(plen[0])


def dtw_alignment(x, y, band: int | None = None) -> tuple[float, int, float]:
    """Full result: (raw_cost, path_len, normalized_cost).

    The normalized cost divides the raw cost by the number of cells on
    the backtracked optimal path, making series of different lengths
    comparable on one scale.
    """
    raw, plen = _pair(x, y, band)
    return raw, plen, raw / plen


def dtw_norm(x, y, band: int | None = None) -> float:
    raw, plen = _pair(x, y, band)
    return raw / plen


def dtw_norm_pairs(xs, ys, band: int | None = None) -> np.ndarray:
    """Normalized DTW of every pair (xs[p], ys[p]), as a float64 array.

    Each pair is validated like dtw_norm; pairs of equal lengths then go
    through the kernel together, CHUNK_PAIRS at a time. Element p equals
    dtw_norm(xs[p], ys[p], band) bit for bit.
    """
    prepared = [_prepare(x, y, band) for x, y in zip(xs, ys, strict=True)]
    b = -1 if band is None else int(band)
    # CLI corpora come from one scenario, so they form a single group;
    # mixed lengths arise only from library callers
    groups: dict[tuple[int, int], list[int]] = {}
    for p, (xa, ya, _) in enumerate(prepared):
        groups.setdefault((xa.size, ya.size), []).append(p)
    out = np.empty(len(prepared), dtype=np.float64)
    for members in groups.values():
        for start in range(0, len(members), CHUNK_PAIRS):
            chunk = members[start:start + CHUNK_PAIRS]
            raw, plen = dtw_many(
                np.stack([prepared[p][0] for p in chunk]),
                np.stack([prepared[p][1] for p in chunk]),
                b,
            )
            out[chunk] = raw / plen
    return out
