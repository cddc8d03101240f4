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
# these names, so all three stay importable here. Nothing in the package
# calls dtw_norm, and build_distances reaches dtw_norm_pairs without the
# two matrix functions, so those wrappers time and count 0 DTW pairs.
from .dtw import dtw_norm, dtw_norm_pairs  # noqa: F401

QUANTILE_LEVEL = 0.95
CI_LO_Q = 0.025
CI_HI_Q = 0.975
DECISION_THRESHOLD = 0.05
DEFAULT_B = 2000
BOOTSTRAP_ALGORITHM = "pcg64"
# bootstrap replicates per numpy pass: at n = m = 30 one pass holds about
# 0.5 MB, at n = m = 100 about 4 MB
REPLICATE_CHUNK = 32


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
    return float(_quantile_last(arr, q))


def _quantile_last(x, q: float):
    """``np.quantile(x, q, axis=-1, method="linear")`` of finite values, bit
    for bit, from one partition at rank lo: the next order statistic is the
    least value after it. The interpolation is numpy's ``_lerp``."""
    v = (x.shape[-1] - 1) * q
    lo = int(v)
    g = v - lo
    part = np.partition(x, lo, axis=-1)
    a = part[..., lo]
    b = part[..., lo + 1:].min(axis=-1) if lo < x.shape[-1] - 1 else a
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

def _within_pairs(obs):
    """The pairs (obs[i], obs[j]), i < j, in np.triu_indices order."""
    iu, ju = np.triu_indices(len(obs), 1)
    return [obs[i] for i in iu], [obs[j] for j in ju]


def _cross_pairs(obs_m, obs_k):
    """The pairs (obs_m[i], obs_k[j]) in row-major order."""
    return [x for x in obs_m for _ in obs_k], list(obs_k) * len(obs_m)


def _symmetric(d, n: int) -> np.ndarray:
    """The n x n matrix with zero diagonal whose upper triangle is d."""
    D = np.zeros((n, n), dtype=np.float64)
    iu, ju = np.triu_indices(n, 1)
    D[iu, ju] = d
    D[ju, iu] = d
    return D


def within_matrix(obs, kind: str, band: int | None = None) -> np.ndarray:
    """Symmetric n x n distance matrix with a zero diagonal."""
    if kind == "scalar":
        arr = _finite(obs)
        return np.abs(arr[:, None] - arr[None, :])
    return _symmetric(dtw_norm_pairs(*_within_pairs(obs), band), len(obs))


def cross_matrix(obs_m, obs_k, kind: str, band: int | None = None) -> np.ndarray:
    if kind == "scalar":
        a = _finite(obs_m)
        b = _finite(obs_k)
        return np.abs(a[:, None] - b[None, :])
    d = dtw_norm_pairs(*_cross_pairs(obs_m, obs_k), band)
    return d.reshape(len(obs_m), len(obs_k))


@dataclass(frozen=True)
class DistanceSets:
    """The three distance matrices of two corpora; the condensed
    collections are views derived from them."""

    matrix_mm: np.ndarray
    matrix_kk: np.ndarray
    matrix_mk: np.ndarray

    @property
    def within_m(self) -> np.ndarray:
        return self.matrix_mm[np.triu_indices(self.matrix_mm.shape[0], 1)]

    @property
    def within_k(self) -> np.ndarray:
        return self.matrix_kk[np.triu_indices(self.matrix_kk.shape[0], 1)]

    @property
    def cross(self) -> np.ndarray:
        return self.matrix_mk.ravel()


def build_distances(obs_m, obs_k, kind: str, band: int | None = None) -> DistanceSets:
    """All pairwise distances needed by the test and the bootstrap."""
    n = len(obs_m)
    m = len(obs_k)
    if n < 2 or m < 2:
        raise DegenerateGroupsError(
            f"need at least 2 runs per corpus for within-group distances, "
            f"got {n} and {m}"
        )
    if kind == "scalar":
        return DistanceSets(
            within_matrix(obs_m, kind),
            within_matrix(obs_k, kind),
            cross_matrix(obs_m, obs_k, kind),
        )
    # one dtw_norm_pairs call for the within-M, within-K and cross pairs,
    # so the kernel sees one group of pairs per (n, m) instead of three
    wm, wk, mk = _within_pairs(obs_m), _within_pairs(obs_k), _cross_pairs(obs_m, obs_k)
    d = dtw_norm_pairs(wm[0] + wk[0] + mk[0], wm[1] + wk[1] + mk[1], band)
    a = len(wm[0])
    b = a + len(wk[0])
    return DistanceSets(_symmetric(d[:a], n), _symmetric(d[a:b], m),
                        d[b:].reshape(n, m))


# ----------------------------------------------------------------------
# exceedance test

def _p_hat(cross, eps) -> np.ndarray:
    """Share of cross distances strictly above eps, along the last axis."""
    above = np.count_nonzero(cross > np.expand_dims(eps, -1), axis=-1)
    return above / cross.shape[-1]


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
    p_hat = float(_p_hat(ds.cross, max(eps_m, eps_k)))
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
    rng: np.random.Generator | None = None,
) -> BootstrapResult:
    """Resample runs (not distances) and recompute the full pipeline.

    Each replicate draws n runs with replacement from corpus M and m
    runs from corpus K independently; duplicated runs legitimately
    contribute zero within-distances. Distances are gathered from the
    precomputed matrices, so no DTW is recomputed. Replicates are
    evaluated REPLICATE_CHUNK at a time; the draws keep the
    per-replicate stream, and every replicate is bit-identical to
    evaluating it alone.
    """
    if B < 2:
        raise ValueError(f"bootstrap needs B >= 2, got {B}")
    if rng is None:
        rng = np.random.Generator(np.random.PCG64(seed))
    reps = _replicates(ds, B, rng)
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


def _replicates(ds: DistanceSets, B: int, rng: np.random.Generator) -> np.ndarray:
    """The B replicate p_hat values, REPLICATE_CHUNK replicates per numpy pass.

    A chunk's runs are one ``rng.integers(0, high, (size, n + m))``, where
    ``high`` is n n times, then m m times: each element is one bounded draw
    from PCG64's buffered 32-bit stream, so values and generator state equal
    ``rng.integers(0, n, n)`` then ``rng.integers(0, m, m)`` per replicate,
    n == m or not. Within distances are gathered from the raveled matrices
    through the flat indices of the upper-triangle pairs, and the cross
    block through broadcast flat indices, one block after the other, so
    that a single gathered block is alive at a time.
    """
    Dmm, Dkk, Dmk = (d.ravel() for d in (ds.matrix_mm, ds.matrix_kk, ds.matrix_mk))
    n = ds.matrix_mm.shape[0]
    m = ds.matrix_kk.shape[0]
    iu_n, ju_n = np.triu_indices(n, 1)
    iu_m, ju_m = np.triu_indices(m, 1)
    high = np.repeat([n, m], [n, m])
    reps = np.empty(B, dtype=np.float64)
    for start in range(0, B, REPLICATE_CHUNK):
        size = min(REPLICATE_CHUNK, B - start)
        draw = rng.integers(0, high, size=(size, n + m))
        im, ik = draw[:, :n], draw[:, n:]
        eps = np.maximum(
            _quantile_last(Dmm.take(im[:, iu_n] * n + im[:, ju_n]), QUANTILE_LEVEL),
            _quantile_last(Dkk.take(ik[:, iu_m] * m + ik[:, ju_m]), QUANTILE_LEVEL))
        cross = Dmk.take((im * m)[:, :, None] + ik[:, None, :])
        reps[start:start + size] = _p_hat(cross.reshape(size, n * m), eps)
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
    (slicing the precomputed matrices) and the bootstrap repeated.
    """
    n = ds.matrix_mm.shape[0]
    m = ds.matrix_kk.shape[0]
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
        sub = DistanceSets(
            ds.matrix_mm[:size, :size],
            ds.matrix_kk[:size, :size],
            ds.matrix_mk[:size, :size],
        )
        res = bootstrap_exceedance(sub, B=B, seed=seed, metric=metric, rng=rng)
        rows.append(
            {
                "metric": metric,
                "n": size,
                "B": B,
                "ci_lo": res.ci_lo,
                "ci_hi": res.ci_hi,
                "width": res.ci_hi - res.ci_lo,
            }
        )
    return rows
