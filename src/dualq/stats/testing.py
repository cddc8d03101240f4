"""Exceedance testing and bootstrap confidence intervals.

The equivalence question "does corpus K behave like corpus M?" is
decided on pairwise distances:

* epsilon is the larger of the two within-corpus 95th percentiles, so
  the tolerance is calibrated by each system's own run-to-run spread;
* p_hat is the fraction of cross-corpus distances strictly above
  epsilon; equivalence is accepted (H0 of divergence rejected) when
  p_hat < 0.05.

Bootstrap confidence intervals resample whole runs within each corpus
independently, preserving group sizes, and recompute the entire
distance -> epsilon -> p_hat pipeline per replicate. The interval is
the 2.5th/97.5th percentile pair of replicates by 1-indexed order
statistics ceil(0.025 B) and floor(0.975 B); at B = 2000 those are
replicates 50 and 1950.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# perfbench/tracing.py wraps dtw_norm, within_matrix and cross_matrix by
# these names. build_distances calls within_matrix, so its wrapper times
# every distance; cross_matrix and the dtw_norm re-export stay only for
# the tracer, and nothing in the package calls them.
from .dtw import dtw_norm, dtw_norm_pairs  # noqa: F401

QUANTILE_LEVEL = 0.95
CI_LO_Q = 0.025
CI_HI_Q = 0.975
DECISION_THRESHOLD = 0.05
DEFAULT_B = 2000
BOOTSTRAP_ALGORITHM = "pcg64"
# Bootstrap replicates run through numpy a chunk at a time, as many per
# chunk as keep its largest block within 512 KB at 8 bytes a cell (64k
# cells): the int64 flat indices of a within gather, or the float32 cross
# mask, one cell per pair: 655 replicates at n = m = 10, 72 at 30, 6 at
# 100. At B = 2000, on benchmarks/bench_bootstrap.py's normal and tied
# corpora, half the budget was 5-32% slower and twice it 46-84% slower
# (1-8% faster on the tied corpora at n = 100), with tracemalloc peaks of
# 1.22-1.50 MB against 0.63-0.90 (three sessions, 2-core x86).
REPLICATE_BYTES = 1 << 19


class DegenerateGroupsError(Exception):
    """A corpus is too small for within-group distances (< 2 runs)."""


def quantile(values, q: float) -> float:
    """Linear-interpolation quantile at rank (n-1)*q.

    The epsilon threshold uses the same rule: for [1, 2, 3, 4] and
    q = 0.95 the result is 3.85.
    """
    arr = _finite(values).ravel()
    if arr.size == 0:
        raise ValueError("quantile of empty collection")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile level must be in [0, 1], got {q}")
    # a copy: _quantile_last reorders its input, and arr may be the caller's
    return float(_quantile_last(arr.copy(), q))


def _quantile_last(x, q: float):
    """``np.quantile(x, q, axis=-1, method="linear")`` of finite values, bit
    for bit: numpy's ``_lerp`` between the two order statistics of
    _order_stats.

    ``x`` is partitioned in place, so its callers pass arrays of their own:
    the condensed views of DistanceSets (fresh on every access) or
    quantile()'s copy."""
    return _lerp(*_order_stats(x, q))


def _order_stats(x, q: float):
    """The order statistics a and b at ranks lo and lo + 1 along the last
    axis, lo = int((len - 1) q), and the weight g of b: one partition of x
    in place at lo, b the least value after it."""
    v = (x.shape[-1] - 1) * q
    lo = int(v)
    x.partition(lo, axis=-1)
    a = x[..., lo]
    b = x[..., lo + 1:].min(axis=-1) if lo < x.shape[-1] - 1 else a
    return a, b, v - lo


def _lerp(a, b, g: float):
    if g >= 0.5:
        return b - (b - a) * (1 - g)
    return a + (b - a) * g


def _finite(values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if not np.isfinite(arr).all():
        raise ValueError("observations and quantile inputs must be finite")
    return arr


# ----------------------------------------------------------------------
# metric extraction from run records

@dataclass(frozen=True)
class Metric:
    name: str
    kind: str  # "scalar" | "timeseries"
    column: str | None = None

    def extract(self, record):
        if self.kind == "scalar":
            return record.avg_throughput_mbps
        return record.series(self.column)


METRICS = {
    "throughput": Metric("throughput", "scalar"),
    "queue_occupancy": Metric("queue_occupancy", "timeseries", "qocc_pkts"),
    "queue_bytes": Metric("queue_bytes", "timeseries", "qocc_bytes"),
    "ecn_marks": Metric("ecn_marks", "timeseries", "ecn_marks"),
    "drops": Metric("drops", "timeseries", "drops"),
}


def extract_observations(records, metric_name: str):
    """Pull one metric out of a corpus of RunRecords.

    Scalar metrics become a float array; time-series metrics become a
    list of float arrays.
    """
    try:
        metric = METRICS[metric_name]
    except KeyError:
        raise ValueError(
            f"unknown metric {metric_name!r}, expected one of {sorted(METRICS)}"
        ) from None
    obs = [metric.extract(r) for r in records]
    if metric.kind == "scalar":
        return np.asarray(obs, dtype=np.float64)
    return obs


# ----------------------------------------------------------------------
# distance matrices

def within_matrix(obs, band: int | None = None) -> np.ndarray:
    """Symmetric n x n distance matrix with a zero diagonal: |a - b| of
    scalar observations, normalized DTW of time series, over the pairs
    i < j in np.triu_indices order."""
    iu, ju = np.triu_indices(len(obs), 1)
    if np.ndim(obs[0]) == 0:
        a = _finite(obs)
        d = np.abs(a[iu] - a[ju])
    else:
        d = dtw_norm_pairs([obs[i] for i in iu], [obs[j] for j in ju], band)
    D = np.zeros((len(obs), len(obs)), dtype=np.float64)
    D[iu, ju] = d
    D[ju, iu] = d
    return D


def cross_matrix(obs_m, obs_k, band: int | None = None) -> np.ndarray:
    """The n x m distances between the corpora: the off-diagonal block of
    their pooled within_matrix."""
    return within_matrix([*obs_m, *obs_k], band)[:len(obs_m), len(obs_m):]


@dataclass(frozen=True)
class DistanceSets:
    """The pooled (n + m) x (n + m) distance matrix of two corpora, the n
    runs of M first; the within and cross blocks, and their condensed
    collections, are views derived from it."""

    pooled: np.ndarray
    n_m: int

    @property
    def matrix_mm(self) -> np.ndarray:
        return self.pooled[:self.n_m, :self.n_m]

    @property
    def matrix_kk(self) -> np.ndarray:
        return self.pooled[self.n_m:, self.n_m:]

    @property
    def matrix_mk(self) -> np.ndarray:
        return self.pooled[:self.n_m, self.n_m:]

    @property
    def within_m(self) -> np.ndarray:
        return self.matrix_mm[np.triu_indices(self.n_m, 1)]

    @property
    def within_k(self) -> np.ndarray:
        return self.matrix_kk[np.triu_indices(self.matrix_kk.shape[0], 1)]

    @property
    def cross(self) -> np.ndarray:
        return self.matrix_mk.ravel()


def build_distances(obs_m, obs_k, band: int | None = None) -> DistanceSets:
    """All pairwise distances of scalar or time-series observations."""
    n = len(obs_m)
    m = len(obs_k)
    if n < 2 or m < 2:
        raise DegenerateGroupsError(
            f"need at least 2 runs per corpus for within-group distances, "
            f"got {n} and {m}"
        )
    # one call for the within-M, within-K and cross pairs: the DTW kernel
    # runs one group per (n, m), 1.4-1.5x faster than three calls
    return DistanceSets(within_matrix([*obs_m, *obs_k], band), n)


# ----------------------------------------------------------------------
# exceedance test

@dataclass(frozen=True)
class TestResult:
    metric: str
    kind: str
    n_m: int
    n_k: int
    eps_within_m: float
    eps_within_k: float
    eps_max: float
    p_hat_max: float
    reject_h0: bool


def exceedance_test(ds: DistanceSets, metric: str = "", kind: str = "") -> TestResult:
    """Decide equivalence from one metric's distance sets.

    H0: the corpora diverge. It is rejected (equivalence accepted)
    only when the exceedance proportion is strictly below the decision
    threshold; a proportion of exactly 0.05 fails to reject.
    """
    eps_m = float(_quantile_last(ds.within_m, QUANTILE_LEVEL))
    eps_k = float(_quantile_last(ds.within_k, QUANTILE_LEVEL))
    p_hat = np.count_nonzero(ds.cross > max(eps_m, eps_k)) / ds.cross.size
    return TestResult(
        metric=metric,
        kind=kind,
        n_m=ds.matrix_mm.shape[0],
        n_k=ds.matrix_kk.shape[0],
        eps_within_m=eps_m,
        eps_within_k=eps_k,
        eps_max=max(eps_m, eps_k),
        p_hat_max=p_hat,
        reject_h0=bool(p_hat < DECISION_THRESHOLD),
    )


# ----------------------------------------------------------------------
# bootstrap

def percentile_ci(replicates):
    """CI from 1-indexed order statistics ceil(CI_LO_Q*B), floor(CI_HI_Q*B)."""
    s = np.sort(np.asarray(replicates, dtype=np.float64))
    B = s.size
    if B < 2:
        raise ValueError(f"need at least 2 replicates, got {B}")
    lo_rank = max(math.ceil(CI_LO_Q * B), 1)
    hi_rank = max(math.floor(CI_HI_Q * B), 1)
    return float(s[lo_rank - 1]), float(s[hi_rank - 1])


@dataclass(frozen=True)
class BootstrapResult:
    metric: str
    B: int
    seed: int
    algorithm: str
    p_hat_point: float
    ci_lo: float
    ci_hi: float
    significant: bool
    replicates_mean: float


def bootstrap_exceedance(
    ds: DistanceSets,
    B: int = DEFAULT_B,
    seed: int = 0,
    metric: str = "",
) -> BootstrapResult:
    """Resample runs (not distances) and recompute the full pipeline.

    Each replicate draws n runs with replacement from corpus M and m
    runs from corpus K independently; duplicated runs legitimately
    contribute zero within-distances. Distances are gathered from the
    precomputed matrices, so no DTW is recomputed. Replicates are
    evaluated in chunks sized by REPLICATE_BYTES; the draws keep the
    per-replicate stream, and every replicate is bit-identical to
    evaluating it alone.
    """
    if B < 2:
        raise ValueError(f"bootstrap needs B >= 2, got {B}")
    reps = _replicates(ds, B, np.random.Generator(np.random.PCG64(seed)))
    ci_lo, ci_hi = percentile_ci(reps)
    return BootstrapResult(
        metric=metric,
        B=B,
        seed=seed,
        algorithm=BOOTSTRAP_ALGORITHM,
        p_hat_point=exceedance_test(ds).p_hat_max,
        ci_lo=ci_lo,
        ci_hi=ci_hi,
        significant=bool(ci_hi < DECISION_THRESHOLD),
        replicates_mean=float(reps.mean()),
    )


def _replicates_per_chunk(n: int, m: int) -> int:
    """Replicates per numpy pass at n and m runs: REPLICATE_BYTES over the
    largest block of one replicate at 8 bytes a cell, at least one."""
    cells = max(n * m, n * (n - 1) // 2, m * (m - 1) // 2)
    return max(1, REPLICATE_BYTES // (cells * 8))


def _rank_codes(ds: DistanceSets):
    """The distinct distances of ds in ascending order, then its within-M,
    within-K and cross blocks with each distance coded as its index there:
    int16 when every code and every threshold (at most len(values)) fits,
    else int32."""
    values = np.unique(ds.pooled)
    dtype = np.int16 if len(values) <= np.iinfo(np.int16).max else np.int32
    return values, *(np.searchsorted(values, D).astype(dtype)
                     for D in (ds.matrix_mm, ds.matrix_kk, ds.matrix_mk))


def _within_eps(values, codes, runs, iu, ju):
    """Each replicate's within quantile: the codes (raveled, n x n) at the
    drawn runs' upper-triangle pairs, gathered through their flat indices,
    and the two order statistics decoded through values."""
    # take along axis 1, not runs[:, iu], which copies a column of a few
    # replicates per pair: 2.5x slower at 6 replicates of n = 100
    flat = np.take(runs * runs.shape[1], iu, axis=1)
    flat += np.take(runs, ju, axis=1)
    a, b, g = _order_stats(codes.take(flat), QUANTILE_LEVEL)
    return _lerp(values[a], values[b], g)


def _replicates(ds: DistanceSets, B: int, rng: np.random.Generator) -> np.ndarray:
    """The B replicate p_hat values, _replicates_per_chunk at a time.

    A chunk's runs are one ``rng.integers(0, high, (size, n + m))``, where
    ``high`` is n, or n n times then m m times when m != n: each element is
    one bounded draw from PCG64's buffered 32-bit stream, so values and
    generator state equal ``rng.integers(0, n, n)`` then
    ``rng.integers(0, m, m)`` per replicate.

    The replicates run on rank codes (_rank_codes): each distance is coded
    as its index in ``values``, the distinct distances in ascending order,
    in int16 or int32. Codes preserve order, so the two order statistics of
    a replicate's within codes, gathered through the flat indices of the
    upper-triangle pairs, decode through ``values`` to those of its within
    distances, and _quantile_last's interpolation between them gives eps
    bit for bit. A distance is above eps exactly when its code is at least
    t = searchsorted(values, eps, "right"), the number of values not above
    eps. The count above eps is cm . [codes_mk >= t] . ck on the
    un-gathered n x m cross codes, cm and ck the times each M and K run was
    drawn: each cell counts once per pair of draws that resamples it, as in
    the full resampled block. cm . mask sums integers of at most n in
    float32, exact below 2^24 runs, and the dot with ck integers of at most
    n m in float64, exact below 2^53. So the count, and the p_hat it is
    divided into, are exact.
    """
    values, codes_mm, codes_kk, codes_mk = _rank_codes(ds)
    codes_mm, codes_kk = codes_mm.ravel(), codes_kk.ravel()
    n, m = codes_mk.shape
    iu_n, ju_n = np.triu_indices(n, 1)
    iu_m, ju_m = np.triu_indices(m, 1)
    # a scalar bound draws the same values 3-4x faster than an array
    high = n if n == m else np.repeat([n, m], [n, m])
    per_chunk = _replicates_per_chunk(n, m)
    # a draw plus its shift is a bin of one bincount: each replicate's n + m
    # bins, the M runs' then the K runs'
    shift = np.arange(0, per_chunk * (n + m), n + m)[:, None] + np.repeat([0, n], [n, m])

    def above(draw):
        # a function, so that no block of a chunk outlives it
        size = len(draw)
        eps = np.maximum(_within_eps(values, codes_mm, draw[:, :n], iu_n, ju_n),
                         _within_eps(values, codes_kk, draw[:, n:], iu_m, ju_m))
        t = np.searchsorted(values, eps, "right").astype(codes_mk.dtype)
        counts = np.bincount((draw + shift[:size]).ravel(), minlength=size * (n + m))
        counts = counts.reshape(size, n + m)
        mask = (codes_mk >= t[:, None, None]).astype(np.float32)
        w = counts[:, None, :n].astype(np.float32) @ mask
        return np.einsum("sm,sm->s", w[:, 0], counts[:, n:])

    reps = np.empty(B, dtype=np.float64)
    for start in range(0, B, per_chunk):
        size = min(per_chunk, B - start)
        reps[start:start + size] = above(rng.integers(0, high, size=(size, n + m))) / (n * m)
    return reps


def improvement_check(optimized_ci: tuple[float, float],
                      default_ci: tuple[float, float]) -> bool:
    """Optimized beats default only when the intervals do not touch."""
    return optimized_ci[1] < default_ci[0]


def ci_width_curve(
    ds: DistanceSets,
    sizes,
    B: int = 500,
    seed: int = 0,
    metric: str = "",
) -> list[dict]:
    """Bootstrap CI width as a function of corpus size.

    For each n in sizes, the first n runs of each corpus are taken
    (their rows and columns of the pooled matrix) and the bootstrap
    repeated, all sizes drawing in turn from one generator seeded once.
    """
    n = ds.n_m
    m = ds.pooled.shape[0] - n
    rng = np.random.Generator(np.random.PCG64(seed))
    rows = []
    for size in sizes:
        size = int(size)
        if size < 2:
            raise ValueError(f"corpus slice must have >= 2 runs, got {size}")
        if size > n or size > m:
            raise ValueError(
                f"corpus slice {size} exceeds available runs ({n}, {m})"
            )
        runs = np.r_[:size, n:n + size]
        sub = DistanceSets(ds.pooled[np.ix_(runs, runs)], size)
        ci_lo, ci_hi = percentile_ci(_replicates(sub, B, rng))
        rows.append(
            {
                "metric": metric,
                "n": size,
                "B": B,
                "ci_lo": ci_lo,
                "ci_hi": ci_hi,
                "width": ci_hi - ci_lo,
            }
        )
    return rows
