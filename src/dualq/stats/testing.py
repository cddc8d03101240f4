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
# cells): the int64 weights of a within second pass, one per pair of a
# corpus's runs, or the float32 cross mask, one per cross pair (the
# bincount's n + m counts a replicate are fewer): 655 replicates at
# n = m = 10, 72 at 30, 6 at 100. At B = 2000, on
# benchmarks/bench_bootstrap.py's normal and tied corpora (two sessions,
# 2-core x86), half the budget was within 5% at n = 10 and 21-71% slower
# at 30 and 100; twice it was 11-15% slower at n = 10 but 13-38% faster at
# 30 and 100, with tracemalloc peaks of 0.9-1.4 MB against 0.5-0.8. The
# budget bounds memory, as test_peak_memory_stays_near_the_budget checks,
# so a larger one is a change of its own, measured end to end.
REPLICATE_BYTES = 1 << 19
# A replicate's within quantile is looked for first among its corpus's
# largest pairs: a prefix of WITHIN_PREFIX (P - lo) of the P pairs, P - lo
# being the rank from the top that eps needs (23 of 435 at n = 30). On
# bench_bootstrap.py's normal corpora factor 3 left 7.4% of the within
# quantiles to the second pass at n = 10, 3.6% at 30 and 0% at 100; factor
# 2 left 22%, 16% and 1%, factor 4 2.6%, 0.9% and 0%. Against the gather
# and partition it replaced, _replicates at B = 2000 was 17%, 30% and 41%
# faster at n = 10, 30 and 100 with factor 3, 14%, 22% and 43% with 2,
# 20%, 38% and 25% with 4 (15 alternating rounds, 2-core x86); perfbench's
# bootstrap-scalar run_s did not tell the three apart in 5 pairs each.
WITHIN_PREFIX = 3


class DegenerateGroupsError(Exception):
    """A corpus is too small for within-group distances (< 2 runs)."""


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
        a = np.asarray(obs, dtype=np.float64)
        if not np.isfinite(a).all():
            raise ValueError("observations must be finite")
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
    eps_m, eps_k = (
        float(_within_eps(_top_pairs(D), np.ones((len(D), 1), np.int64))[0])
        for D in (ds.matrix_mm, ds.matrix_kk)
    )
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
    contribute zero within-distances. Each replicate weighs the
    precomputed distances by how often it drew their runs, so no DTW is
    recomputed. Replicates are evaluated in chunks sized by
    REPLICATE_BYTES; the draws keep the per-replicate stream, and every
    replicate is bit-identical to evaluating it alone.
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
    """The distinct distances of ds in ascending order, and its cross block
    with each distance coded as its index there: int16 when every code and
    every threshold (at most len(values)) fits, else int32."""
    # np.unique would give the same values, but it imports numpy.ma
    v = np.sort(ds.pooled, axis=None)
    values = v[np.append(True, v[1:] != v[:-1])]
    dtype = np.int16 if len(values) <= np.iinfo(np.int16).max else np.int32
    return values, np.searchsorted(values, ds.matrix_mk).astype(dtype)


def _top_pairs(D):
    """The i < j distances of a corpus's distance matrix D largest first,
    with one 0.0 appended for the same-run slot pairs, and the two runs of
    each pair."""
    iu, ju = np.triu_indices(len(D), 1)
    within = D[iu, ju]
    order = np.argsort(within, kind="stable")[::-1]
    return np.append(within[order], 0.0), iu[order], ju[order]


def _reaching(counts, iu, ju, ranks):
    """For each column of draw counts c (one row per run, one column per
    replicate), the first position k along the pairs (iu, ju) where the
    cumulative weight c[iu] c[ju] reaches each of ranks, or len(iu) where it
    does not."""
    cum = counts[iu]
    cum *= counts[ju]
    cum.cumsum(axis=0, out=cum)
    return [np.add.reduce(cum < r, axis=0, dtype=np.intp) for r in ranks]


def _lerp(a, b, g: float):
    """np.quantile's linear interpolation between the order statistics a
    and b at weight g, bit for bit."""
    if g >= 0.5:
        return b - (b - a) * (1 - g)
    return a + (b - a) * g


def _within_eps(top, counts):
    """Each replicate's within quantile from its corpus's _top_pairs and
    the times each run was drawn (one column per replicate); exceedance_test
    takes its eps as the replicate that draws every run once."""
    dist, iu, ju = top
    P = len(iu)
    v = (P - 1) * QUANTILE_LEVEL
    lo = int(v)
    # ascending ranks lo and lo + 1 are the (P - lo)-th and (P - lo - 1)-th
    # largest; at P = 1 both are the one slot pair
    ranks = P - lo, max(P - lo - 1, 1)
    prefix = min(WITHIN_PREFIX * (P - lo), P)
    ia, ib = _reaching(counts, iu[:prefix], ju[:prefix], ranks)
    if prefix < P:
        left = np.flatnonzero(ia == prefix)
        if len(left):
            ia[left], ib[left] = _reaching(counts[:, left], iu, ju, ranks)
    return _lerp(dist[ia], dist[ib], v - lo)


def _replicates(ds: DistanceSets, B: int, rng: np.random.Generator) -> np.ndarray:
    """The B replicate p_hat values, _replicates_per_chunk at a time.

    A chunk's runs are one ``rng.integers(0, high, (size, n + m))``, where
    ``high`` is n, or n n times then m m times when m != n: each element is
    one bounded draw from PCG64's buffered 32-bit stream, so values and
    generator state equal ``rng.integers(0, n, n)`` then
    ``rng.integers(0, m, m)`` per replicate. cm and ck, the times each M
    and K run was drawn, come from one offset ``bincount`` of the draw.

    Within quantile. Of a corpus of n runs drawn c_a times each, a
    replicate's P = n (n - 1) / 2 slot pairs i < j hold the distance of
    runs a != b c_a c_b times, and 0.0, the matrix's diagonal, once for
    each of the P - sum c_a c_b pairs of slots that drew the same run.
    _top_pairs lists the corpus's P run pairs by distance, largest first,
    then one 0.0 for all the same-run slot pairs, so weighting each run
    pair by c_a c_b counts the same multiset of P distances as the gathered
    resampled block. With v = (P - 1) q and lo = int(v), the order
    statistic at ascending rank lo is the (P - lo)-th largest: the distance
    at the first position where the cumulative weight reaches P - lo; the
    one at lo + 1 is at the first where it reaches P - lo - 1 (at P = 1
    both are the one slot pair). Ties do not matter: equal distances are
    one value wherever the position falls among them. The weights are
    integers of at most n^2 / 4 and their sum over the run pairs is at most
    P, exact in int64; where the sum stays below a rank, the position is
    the appended 0.0. A first pass weighs a prefix of WITHIN_PREFIX (P - lo)
    pairs for the whole chunk: a position it finds short of the prefix's
    end is the whole list's, since the prefix's cumulative weights are the
    list's. A second pass weighs the whole list for the replicates whose
    cumulative weight the prefix left below P - lo. The two distances
    interpolate with g = v - lo by np.quantile's linear rule (_lerp), so
    eps is bit for bit the quantile of the resampled block.

    Cross count. The cross block runs on rank codes (_rank_codes): each
    distance is coded as its index in ``values``, the distinct distances
    in ascending order, in int16 or int32. A distance is above eps exactly
    when its code is at least t = searchsorted(values, eps, "right"), the
    number of values not above eps. The count above eps is
    cm . [codes_mk >= t] . ck on the un-gathered n x m cross codes: each
    cell counts once per pair of draws that resamples it, as in the full
    resampled block. cm . mask sums integers of at most n in float32,
    exact below 2^24 runs, and the dot with ck integers of at most n m in
    float64, exact below 2^53. So the count, and the p_hat it is divided
    into, are exact.
    """
    values, codes_mk = _rank_codes(ds)
    n, m = codes_mk.shape
    top_m, top_k = _top_pairs(ds.matrix_mm), _top_pairs(ds.matrix_kk)
    # a scalar bound draws the same values 3-4x faster than an array
    high = n if n == m else np.repeat([n, m], [n, m])
    per_chunk = _replicates_per_chunk(n, m)
    # a draw times per_chunk plus its shift is a bin of one bincount: one
    # row of per_chunk bins for each run, the M runs' then the K runs'
    shift = np.arange(per_chunk)[:, None] + np.repeat([0, n * per_chunk], [n, m])

    def above(draw):
        # a function, so that no block of a chunk outlives it
        size = len(draw)
        counts = np.bincount((draw * per_chunk + shift[:size]).ravel(),
                             minlength=(n + m) * per_chunk)
        counts = counts.reshape(n + m, per_chunk)[:, :size]
        cm, ck = counts[:n], counts[n:]
        eps = np.maximum(_within_eps(top_m, cm), _within_eps(top_k, ck))
        t = np.searchsorted(values, eps, "right").astype(codes_mk.dtype)
        mask = (codes_mk >= t[:, None, None]).astype(np.float32)
        w = cm.T[:, None, :].astype(np.float32) @ mask
        return np.einsum("sm,ms->s", w[:, 0], ck)

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
