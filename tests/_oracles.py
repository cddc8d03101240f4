"""Independent reference implementations used by the test suite.

These deliberately avoid the production algorithms: the DTW oracle
enumerates every monotone warping path instead of running the dynamic
program, so agreement between the two is evidence, not tautology.
``kernel_alignment`` reads one pair's result off the production code in
the DTW oracle's shape, for the tests that compare the two.
"""

from __future__ import annotations

import math

import numpy as np

from dualq.stats._dtw_np import dtw_many
from dualq.stats.dtw import dtw_norm


def dtw_oracle(x, y):
    """Exhaustive DTW: minimum path cost over all monotone paths.

    Walks every path from (0,0) to (n-1,m-1) with steps {(1,1), (1,0),
    (0,1)}, recording the best prefix cost reaching each cell, then
    recovers the reported path length with the same diagonal >
    vertical > horizontal tie-break the implementation documents.
    Exponential, fine for the short integer series it is used on.
    Returns (raw_cost, path_len, normalized_cost).
    """
    n, m = len(x), len(y)
    inf = math.inf
    best_prefix = [[inf] * m for _ in range(n)]
    total_best = [inf]

    def walk(i: int, j: int, acc: float) -> None:
        acc = acc + abs(x[i] - y[j])
        if acc < best_prefix[i][j]:
            best_prefix[i][j] = acc
        if i == n - 1 and j == m - 1:
            if acc < total_best[0]:
                total_best[0] = acc
            return
        if i + 1 < n and j + 1 < m:
            walk(i + 1, j + 1, acc)
        if i + 1 < n:
            walk(i + 1, j, acc)
        if j + 1 < m:
            walk(i, j + 1, acc)

    walk(0, 0, 0.0)
    raw = total_best[0]
    i, j = n - 1, m - 1
    plen = 1
    while i > 0 or j > 0:
        if i > 0 and j > 0:
            d = best_prefix[i - 1][j - 1]
            v = best_prefix[i - 1][j]
            h = best_prefix[i][j - 1]
            if d <= v and d <= h:
                i, j = i - 1, j - 1
            elif v <= h:
                i -= 1
            else:
                j -= 1
        elif i > 0:
            i -= 1
        else:
            j -= 1
        plen += 1
    return raw, plen, raw / plen


def kernel_alignment(x, y, band=None):
    """(raw_cost, path_len, normalized_cost) of one pair, as dtw_oracle.

    Raw cost and path length come from the batched kernel on a batch of
    one, the normalized cost from ``dtw_norm``, the checked entry point.
    """
    raw, plen = dtw_many(np.asarray(x, dtype=np.float64)[None],
                         np.asarray(y, dtype=np.float64)[None],
                         -1 if band is None else band)
    return float(raw[0]), int(plen[0]), dtw_norm(x, y, band)


def quantile_oracle(values, q: float) -> float:
    """Linear-interpolation quantile at fractional rank (n-1)*q."""
    s = sorted(float(v) for v in values)
    if not s:
        raise ValueError("empty")
    pos = (len(s) - 1) * q
    lo = math.floor(pos)
    hi = math.ceil(pos)
    if lo == hi:
        return s[lo]
    frac = pos - lo
    return s[lo] * (1 - frac) + s[hi] * frac


def bootstrap_replicates_oracle(ds, B: int, rng) -> np.ndarray:
    """Bootstrap replicates evaluated one at a time.

    Per replicate: draw n runs of corpus M, then m runs of corpus K,
    gather the resampled matrices with ``np.ix_``, take each corpus's
    0.95 linear quantile of its upper-triangle distances, and return the
    share of cross distances strictly above the larger one.
    """
    n = ds.matrix_mm.shape[0]
    m = ds.matrix_kk.shape[0]
    iu_n = np.triu_indices(n, 1)
    iu_m = np.triu_indices(m, 1)
    reps = np.empty(B, dtype=np.float64)
    for b in range(B):
        im = rng.integers(0, n, size=n)
        ik = rng.integers(0, m, size=m)
        eps_m = float(np.quantile(ds.matrix_mm[np.ix_(im, im)][iu_n], 0.95,
                                  method="linear"))
        eps_k = float(np.quantile(ds.matrix_kk[np.ix_(ik, ik)][iu_m], 0.95,
                                  method="linear"))
        reps[b] = np.mean(ds.matrix_mk[np.ix_(im, ik)] > max(eps_m, eps_k))
    return reps
