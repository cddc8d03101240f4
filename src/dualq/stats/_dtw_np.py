"""Batched DTW kernel in numpy: one anti-diagonal wavefront over many pairs.

Cell (i, j) lies on anti-diagonal k = i + j and depends only on cells
of diagonals k-1 and k-2, so each diagonal is one vectorised step over
every pair of the batch. Only three diagonals of costs and three of path
lengths are kept; nothing is n x m and there is no backtrack.

The path length is carried forward instead of recovered by backtracking:
each cell records 1 + the length of the predecessor the backtrack of
_dtw_py would step to from it (diagonal if d <= v and d <= h, else
vertical if v <= h, else horizontal). That predecessor is the one whose
cost equals min(d, v, h), tested in the same order, so raw cost and path
length equal _dtw_py.dtw_pair bit for bit: same |x_i - y_j| + min sum in
IEEE double, same tie-break.

The choice is made by masked arithmetic on int32 path lengths, not by
nested np.where: start from the horizontal length, add (vertical -
horizontal) where v is the minimum, then (diagonal - that) where d is,
then 1, all into preallocated buffers. The nested np.where allocated two
arrays per diagonal and took almost three times as long as the rest of
the step; a masked copy (np.copyto with where=) was slower still. Lengths
are at most n + m - 1, so int32 cannot overflow for series that fit in
memory, and only the returned lengths are widened to int64.
"""

from __future__ import annotations

import numpy as np

IMPLEMENTATION = "numpy"

_INF = np.inf


def dtw_many(xs, ys, band: int = -1) -> tuple[np.ndarray, np.ndarray]:
    """DTW raw cost and path length for P pairs of equal shape.

    ``xs`` is (P, n) and ``ys`` is (P, m), float64, pair p being
    (xs[p], ys[p]). ``band`` < 0 disables the Sakoe-Chiba constraint;
    the caller guarantees the band is feasible (>= |n - m|). Returns
    (raw, plen) as float64 and int64 arrays of length P.

    Diagonal buffers are laid out (n + 1, P): position i + 1 holds cell
    (i, k - i) of every pair, so one diagonal is one contiguous block.
    Position 0 is row -1, always +inf. Positions outside a diagonal's
    cells stay +inf where a later diagonal can read them.
    """
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    P, n = xs.shape
    m = ys.shape[1]
    x = np.ascontiguousarray(xs.T)  # x[i] is x_i of every pair
    yr = np.ascontiguousarray(ys[:, ::-1].T)  # yr[m - 1 - j] is y_j
    cost = np.full((3, n + 1, P), _INF)
    plen = np.zeros((3, n + 1, P), dtype=np.int32)
    cost[0, 1] = np.abs(x[0] - yr[m - 1])
    plen[0, 1] = 1
    width = min(n, m)
    step = np.empty((width, P))
    best = np.empty((width, P))
    delta = np.empty((width, P), dtype=np.int32)
    is_min = np.empty((width, P), dtype=bool)
    for k in range(1, n + m - 1):
        lo = max(0, k - m + 1)
        hi = min(n - 1, k)
        if band >= 0:
            lo = max(lo, (k - band + 1) // 2)
            hi = min(hi, (k + band) // 2)
        cur, prev, prev2 = cost[k % 3], cost[(k - 1) % 3], cost[(k - 2) % 3]
        lcur, lprev, lprev2 = plen[k % 3], plen[(k - 1) % 3], plen[(k - 2) % 3]
        # the row above the diagonal's first cell is out of the band or
        # the matrix; a stale value from diagonal k - 3 may sit there
        cur[lo] = _INF
        w = hi - lo + 1
        if w <= 0:
            continue
        d = prev2[lo:hi + 1]
        v = prev[lo:hi + 1]
        h = prev[lo + 1:hi + 2]
        c = step[:w]
        b = best[:w]
        t = delta[:w]
        e = is_min[:w]
        ld = lprev2[lo:hi + 1]
        lv = lprev[lo:hi + 1]
        lh = lprev[lo + 1:hi + 2]
        out = lcur[lo + 1:hi + 2]
        np.subtract(x[lo:hi + 1], yr[m - 1 - k + lo:m - k + hi], out=c)
        np.abs(c, out=c)
        np.minimum(d, v, out=b)
        np.minimum(b, h, out=b)
        # diagonal if d is the minimum, else vertical if v is, else
        # horizontal: out = lh + (lv - lh) * (v == b);
        # out += (ld - out) * (d == b); out += 1
        np.subtract(lv, lh, out=t)
        np.equal(v, b, out=e)
        np.multiply(t, e, out=t)
        np.add(lh, t, out=out)
        np.subtract(ld, out, out=t)
        np.equal(d, b, out=e)
        np.multiply(t, e, out=t)
        np.add(out, t, out=out)
        np.add(out, 1, out=out)
        np.add(c, b, out=cur[lo + 1:hi + 2])
    last = (n + m - 2) % 3
    # copies, so that the diagonal buffers are freed on return
    return cost[last, n].copy(), plen[last, n].astype(np.int64)
