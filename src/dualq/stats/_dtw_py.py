"""Scalar pure-Python DTW kernel: the reference the batched kernel is
tested against, never called at run time.

It fills the full n x m cost matrix row by row and recovers the path
length by backtracking, the textbook way. The batched numpy kernel
(_dtw_np) must equal it bit for bit:
same |x_i - y_j| cost, same min over the three predecessors, same
diagonal > vertical > horizontal tie-break, all in IEEE double.
"""

from __future__ import annotations

_INF = float("inf")


def dtw_pair(x, y, band: int = -1):
    """Dynamic-programming DTW over |x_i - y_j| with unit steps.

    Returns (raw_cost, path_len) where path_len is the number of cells
    on the optimal warping path recovered by backtracking with the
    diagonal > vertical > horizontal tie-break. ``band`` < 0 disables
    the Sakoe-Chiba constraint; the caller guarantees feasibility.
    """
    xs = list(map(float, x))
    ys = list(map(float, y))
    n = len(xs)
    m = len(ys)
    rows: list[list[float]] = [[_INF] * m for _ in range(n)]
    no_band = band < 0
    prev = None
    for i in range(n):
        xi = xs[i]
        row = rows[i]
        if no_band:
            lo, hi = 0, m - 1
        else:
            lo = i - band if i > band else 0
            hi = i + band if i + band < m - 1 else m - 1
        if i == 0:
            acc = abs(xi - ys[0])
            row[0] = acc
            for j in range(max(lo, 1), hi + 1):
                acc += abs(xi - ys[j])
                row[j] = acc
        else:
            for j in range(lo, hi + 1):
                if j > 0:
                    best = prev[j - 1]
                    v = prev[j]
                    if v < best:
                        best = v
                    h = row[j - 1]
                    if h < best:
                        best = h
                else:
                    best = prev[0]
                row[j] = abs(xi - ys[j]) + best
        prev = row
    raw = rows[n - 1][m - 1]
    # backtrack for the path cell count
    i = n - 1
    j = m - 1
    plen = 1
    while i > 0 or j > 0:
        if i > 0 and j > 0:
            d = rows[i - 1][j - 1]
            v = rows[i - 1][j]
            h = rows[i][j - 1]
            if d <= v and d <= h:
                i -= 1
                j -= 1
            elif v <= h:
                i -= 1
            else:
                j -= 1
        elif i > 0:
            i -= 1
        else:
            j -= 1
        plen += 1
    return raw, plen
