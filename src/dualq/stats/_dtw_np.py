"""Batched DTW kernel in numpy: one anti-diagonal wavefront over many pairs.

Cell (i, j) lies on anti-diagonal k = i + j and depends only on cells
of diagonals k-1 and k-2, so each diagonal is one vectorised step over
every pair of the batch. Only three diagonals are kept; nothing is
n x m and there is no backtrack.

Each cell holds one integer key of w bits, int32 or int64, cost << S |
V, where L = (n + m - 2).bit_length(), S = L + 2 and V is the number of
non-diagonal steps on the chosen path. A cell of diagonal k has V <= k
<= n + m - 2 < 2^L, so V fills the low L bits and bits L and L + 1 stay
free for a tie rank. One diagonal is
    c = |x_i * 2^S - y_j * 2^S|
    a = min(d, v + (1 << L) + 1, h + (2 << L) + 1) & ~(3 << L)
    cur = a + c
The three candidates carry ranks 0, 1 and 2, so they are distinct: the
minimum key has the minimum cost, and on a cost tie the lowest rank, d
before v before h, the order in which _dtw_py's backtrack tests them.
So each cell extends the path through the predecessor that backtrack
would step to from it, and the path is carried forward instead of
recovered. V never decides a comparison, since the rank sits above it.
The + 1 counts the non-diagonal step and the mask clears the rank
again, so the winner's key is its predecessor's with V advanced. A path
of D diagonal and V other steps covers 2D + V = n + m - 2 diagonals, so
the last cell's path has plen = D + V + 1 = (n + m - 2 + V) // 2 + 1
cells. The costs are integers, so they and every comparison are those
of _dtw_py's float64 sums wherever those are exact, which dtw.py's route
ensures.

Saturation. +inf outside the matrix and the band is SATKEY = 2^(w - 2),
and every stored key equals the true key when the true cost is below
SATC = 2^(w - 2 - S) (that key is below SATKEY), and is at least SATKEY
otherwise. Induction over diagonals: the predecessor a cell of cost
below SATC steps to costs no more, so its key is exact, and any other
candidate is either exact or at least SATKEY, above the winner's; when
the cell's true cost is at least SATC, every candidate is at least
SATKEY (the mask clears bits below S <= w - 4 only), and c >= 0. So a
pair whose last key is below SATKEY has the raw cost and path length of
_dtw_py, bit for bit, and the caller runs every other pair again.
Keys above SATKEY still grow, by less than U = (vmax + 1) << S a
diagonal for values in [0, vmax] (c <= vmax << S and each rank plus
step < 1 << S), and must stay below 2^(w - 1), temporaries included. So
every T = SATKEY // U - 2 diagonals all three buffers are clamped to
SATKEY, which changes no key below it; a key then stays below
SATKEY + T * U < 2^(w - 1). The clamp is driven by k alone, before the
diagonal's work, so a diagonal skipped by the band does not move it.
packed_layout gives S and T; T < 1 means keys of that width cannot hold
the group. A diagonal takes 8 ufunc calls (BENCH_dtw_packed.json).
"""

from __future__ import annotations

import numpy as np

IMPLEMENTATION = "numpy"


def satkey(keys) -> int:
    """+inf of dtw_packed's keys of dtype ``keys``, 2^(w - 2) for w bits;
    a key at or above it is saturated."""
    return 1 << (8 * np.dtype(keys).itemsize - 2)


def packed_layout(n: int, m: int, vmax: int, keys) -> tuple[int, int]:
    """(S, T) of dtw_packed for n x m pairs of values in [0, vmax] in
    keys of dtype ``keys``: a key is cost << S | V, and the key buffers
    are clamped every T diagonals. T < 1 means the keys cannot hold such
    pairs (module docstring)."""
    shift = (n + m - 2).bit_length() + 2
    return shift, satkey(keys) // ((vmax + 1) << shift) - 2


def dtw_packed(xs, ys, band: int, vmax: int,
               keys) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """DTW raw cost and path length for P pairs of equal shape, in packed
    keys of dtype ``keys``, int32 or int64 (module docstring).

    ``xs`` is (P, n) and ``ys`` is (P, m), pair p being (xs[p], ys[p]);
    either may be a sequence of P equal-length series. ``band`` < 0
    disables the Sakoe-Chiba constraint; the caller guarantees the band
    is feasible (>= |n - m|), that every value is an integer in
    [0, vmax] and that packed_layout(n, m, vmax, keys) gives T >= 1.
    Returns (raw, plen, exact) as float64, int64 and bool arrays of
    length P; raw and plen hold _dtw_py's results where exact is true,
    and nothing of use where the pair's cost reached SATC, for the
    caller to run again.

    Key buffers are laid out (n + 1, P): position i + 1 holds cell
    (i, k - i) of every pair, so one diagonal is one contiguous block.
    Position 0 is row -1, always SATKEY. Positions outside a diagonal's
    cells stay SATKEY where a later diagonal can read them.
    """
    P, n, m = len(xs), len(xs[0]), len(ys[0])
    shift, period = packed_layout(n, m, vmax, keys)
    top = satkey(keys)
    bits = shift - 2
    # one copy each: every series is cast straight into its column
    x = np.empty((n, P), dtype=keys)  # x[i] is x_i << S of every pair
    np.stack(xs, axis=1, out=x, casting="unsafe")
    np.left_shift(x, shift, out=x)
    yr = np.empty((m, P), dtype=keys)  # yr[m - 1 - j] is y_j << S
    np.stack([y[::-1] for y in ys], axis=1, out=yr, casting="unsafe")
    np.left_shift(yr, shift, out=yr)
    key = np.full((3, n + 1, P), top, dtype=keys)
    np.subtract(x[0], yr[m - 1], out=key[0, 1])
    np.abs(key[0, 1], out=key[0, 1])
    width = min(n, m)
    step = np.empty((width, P), dtype=keys)
    best = np.empty((width, P), dtype=keys)
    other = np.empty((width, P), dtype=keys)
    vertical, horizontal, unrank = (1 << bits) + 1, (2 << bits) + 1, ~(3 << bits)
    for k in range(1, n + m - 1):
        if k % period == 0:
            np.minimum(key, top, out=key)
        lo = max(0, k - m + 1)
        hi = min(n - 1, k)
        if band >= 0:
            lo = max(lo, (k - band + 1) // 2)
            hi = min(hi, (k + band) // 2)
        cur, prev, prev2 = key[k % 3], key[(k - 1) % 3], key[(k - 2) % 3]
        # the row above the diagonal's first cell is out of the band or
        # the matrix; a stale key from diagonal k - 3 may sit there
        cur[lo] = top
        w = hi - lo + 1
        if w <= 0:
            continue
        c = step[:w]
        a = best[:w]
        t = other[:w]
        np.subtract(x[lo:hi + 1], yr[m - 1 - k + lo:m - k + hi], out=c)
        np.abs(c, out=c)
        np.add(prev[lo:hi + 1], vertical, out=a)
        np.minimum(prev2[lo:hi + 1], a, out=a)
        np.add(prev[lo + 1:hi + 2], horizontal, out=t)
        np.minimum(a, t, out=a)
        np.bitwise_and(a, unrank, out=a)
        np.add(a, c, out=cur[lo + 1:hi + 2])
    # a copy, so that the key buffers are freed on return
    last = key[(n + m - 2) % 3, n].astype(np.int64)
    plen = (n + m - 2 + (last & ((1 << bits) - 1))) // 2 + 1
    return (last >> shift).astype(np.float64), plen, last < top
