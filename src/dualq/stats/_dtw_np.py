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
length equal _dtw_py.dtw_pair bit for bit: same |x_i - y_j| + min sum,
same tie-break.

dtw_many keeps float64 costs: it does the oracle's IEEE double
arithmetic, operation for operation, with +inf outside the matrix and
the band, so it is exact on any finite input. dtw.dtw_norm_pairs runs
it for every group dtw_packed (below) cannot take and for every pair
dtw_packed saturates.

The choice is made by masked arithmetic on path lengths, not by nested
np.where: start from the horizontal length, add (vertical - horizontal)
where v is the minimum, then (diagonal - that) where d is, then 1, all
into preallocated buffers. The nested np.where allocated two arrays per
diagonal and took almost three times as long as the rest of the step; a
masked copy (np.copyto with where=) was slower still.

Lengths are int16 when n + m - 1 <= 32767 and int32 otherwise; only the
returned lengths are widened to int64. A cell of diagonal k has a path
of at most k + 1 cells, and a stale value left in a buffer comes from an
earlier diagonal, so every length read or written lies in [0, n + m - 1]
and every difference of two lengths, the only other value the select
holds, in [-(n + m - 1), n + m - 1]. So neither can wrap.
The choice itself is driven by the cost masks only, so the narrower
lengths change no result; they halve the bytes the select moves
(BENCH_dtw_int16.json).

dtw_packed is the same wavefront with no select at all: each cell holds
one int32 key, cost << S | V, where L = (n + m - 2).bit_length(), S =
L + 2 and V is the number of non-diagonal steps on the chosen path. A
cell of diagonal k has V <= k <= n + m - 2 < 2^L, so V fills the low L
bits and bits L and L + 1 stay free for a tie rank. One diagonal is
    c = |x_i * 2^S - y_j * 2^S|
    a = min(d, v + (1 << L) + 1, h + (2 << L) + 1) & ~(3 << L)
    cur = a + c
The three candidates carry ranks 0, 1 and 2, so they are distinct: the
minimum key has the minimum cost, and on a cost tie the lowest rank, d
before v before h, the order in which _dtw_py's backtrack tests them.
V never decides a comparison, since the rank sits above it. The + 1
counts the non-diagonal step and the mask clears the rank again, so the
winner's key is its predecessor's with V advanced. A path of D diagonal
and V other steps covers 2D + V = n + m - 2 diagonals, so the last
cell's path has plen = D + V + 1 = (n + m - 2 + V) // 2 + 1 cells.

Saturation. +inf outside the matrix and the band is SATKEY = 2^30, and
every stored key equals the true key when the true cost is below SATC =
2^(30 - S) (that key is below SATKEY), and is at least SATKEY otherwise.
Induction over diagonals: the predecessor a cell of cost below SATC
steps to costs no more, so its key is exact, and any other candidate is
either exact or at least SATKEY, above the winner's; when the cell's
true cost is at least SATC, every candidate is at least SATKEY (the
mask clears bits below S <= 28 only), and c >= 0. So a pair whose last
key is below SATKEY has the raw cost and path length of _dtw_py, bit for
bit, and the caller recomputes every other pair exactly with dtw_many.
Keys above SATKEY still grow, by less than U = (vmax + 1) << S a
diagonal for values in [0, vmax] (c <= vmax << S and each rank plus
step < 1 << S), and must stay below 2^31, temporaries included. So
every T = 2^30 // U - 2 diagonals all three buffers are clamped to
SATKEY, which changes no key below it; a key then stays below
2^30 + T * U < 2^31. The clamp is driven by k alone, before the
diagonal's work, so a diagonal skipped by the band does not move it.
packed_layout gives S and T; T < 1 means the group does not fit. A
diagonal takes 8 ufunc calls where dtw_many's takes 14
(BENCH_dtw_packed.json). dtw.packed_gcd_vmax sends a group here only
when its values, divided by their gcd g, fit the keys, and only when
every true cost is below 2^53, so that g times a reduced raw cost is
the oracle's float64 cost exactly.
"""

from __future__ import annotations

import numpy as np

IMPLEMENTATION = "numpy"

# +inf of dtw_packed's keys; a key at or above it is saturated
SATKEY = 1 << 30


def length_dtype(n: int, m: int) -> np.dtype:
    """The path-length dtype of n x m pairs: int16 when it holds the
    longest path, n + m - 1 cells, else int32 (module docstring)."""
    return np.dtype(np.int16 if n + m - 1 <= np.iinfo(np.int16).max else np.int32)


def dtw_many(xs, ys, band: int = -1) -> tuple[np.ndarray, np.ndarray]:
    """DTW raw cost and path length for P pairs of equal shape.

    ``xs`` is (P, n) and ``ys`` is (P, m), pair p being (xs[p], ys[p]);
    either may be a sequence of P equal-length series.
    ``band`` < 0 disables the Sakoe-Chiba constraint; the caller
    guarantees the band is feasible (>= |n - m|). Returns (raw, plen) as
    float64 and int64 arrays of length P.

    Diagonal buffers are laid out (n + 1, P): position i + 1 holds cell
    (i, k - i) of every pair, so one diagonal is one contiguous block.
    Position 0 is row -1, always +inf. Positions outside a diagonal's
    cells stay +inf where a later diagonal can read them.
    """
    P, n, m = len(xs), len(xs[0]), len(ys[0])
    # one copy each: every series is cast straight into its column
    x = np.empty((n, P))  # x[i] is x_i of every pair
    np.stack(xs, axis=1, out=x)
    yr = np.empty((m, P))  # yr[m - 1 - j] is y_j
    np.stack([y[::-1] for y in ys], axis=1, out=yr)
    ltype = length_dtype(n, m)
    cost = np.full((3, n + 1, P), np.inf)
    plen = np.zeros((3, n + 1, P), dtype=ltype)
    cost[0, 1] = np.abs(x[0] - yr[m - 1])
    plen[0, 1] = 1
    width = min(n, m)
    step = np.empty((width, P))
    best = np.empty((width, P))
    delta = np.empty((width, P), dtype=ltype)
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
        cur[lo] = np.inf
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


def packed_layout(n: int, m: int, vmax: int) -> tuple[int, int]:
    """(S, T) of dtw_packed for n x m pairs of values in [0, vmax]: a key
    is cost << S | V, and the key buffers are clamped every T diagonals.
    T < 1 means the keys cannot hold such pairs (module docstring)."""
    shift = (n + m - 2).bit_length() + 2
    return shift, SATKEY // ((vmax + 1) << shift) - 2


def dtw_packed(xs, ys, band: int,
               vmax: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """DTW raw cost and path length for P pairs of equal shape, in packed
    int32 keys (module docstring).

    ``xs``, ``ys`` and ``band`` are as for dtw_many. The caller
    guarantees that every value is an integer in [0, vmax] and that
    packed_layout(n, m, vmax) gives T >= 1. Returns (raw, plen, exact)
    as float64, int64 and bool arrays of length P; raw and plen hold
    _dtw_py's results where exact is true, and nothing of use where the
    pair's cost reached SATC, for the caller to recompute.
    """
    P, n, m = len(xs), len(xs[0]), len(ys[0])
    shift, period = packed_layout(n, m, vmax)
    bits = shift - 2
    x = np.empty((n, P), dtype=np.int32)  # x[i] is x_i << S of every pair
    np.stack(xs, axis=1, out=x, casting="unsafe")
    np.left_shift(x, shift, out=x)
    yr = np.empty((m, P), dtype=np.int32)  # yr[m - 1 - j] is y_j << S
    np.stack([y[::-1] for y in ys], axis=1, out=yr, casting="unsafe")
    np.left_shift(yr, shift, out=yr)
    key = np.full((3, n + 1, P), SATKEY, dtype=np.int32)
    np.subtract(x[0], yr[m - 1], out=key[0, 1])
    np.abs(key[0, 1], out=key[0, 1])
    width = min(n, m)
    step = np.empty((width, P), dtype=np.int32)
    best = np.empty((width, P), dtype=np.int32)
    other = np.empty((width, P), dtype=np.int32)
    vertical, horizontal, unrank = (1 << bits) + 1, (2 << bits) + 1, ~(3 << bits)
    for k in range(1, n + m - 1):
        if k % period == 0:
            np.minimum(key, SATKEY, out=key)
        lo = max(0, k - m + 1)
        hi = min(n - 1, k)
        if band >= 0:
            lo = max(lo, (k - band + 1) // 2)
            hi = min(hi, (k + band) // 2)
        cur, prev, prev2 = key[k % 3], key[(k - 1) % 3], key[(k - 2) % 3]
        cur[lo] = SATKEY
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
    last = key[(n + m - 2) % 3, n].astype(np.int64)
    plen = (n + m - 2 + (last & ((1 << bits) - 1))) // 2 + 1
    return (last >> shift).astype(np.float64), plen, last < SATKEY
