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

# dtw_norm stays importable from here: perfbench/tracing.py wraps it by
# this name. The matrices below use the batched dtw_norm_pairs.
from .dtw import dtw_norm, dtw_norm_pairs  # noqa: F401

QUANTILE_LEVEL = 0.95
DECISION_THRESHOLD = 0.05
DEFAULT_B = 2000
BOOTSTRAP_ALGORITHM = "pcg64"


class DegenerateGroupsError(Exception):
    """A corpus is too small for within-group distances (< 2 runs)."""


def quantile(values, q: float) -> float:
    """Linear-interpolation quantile at rank (n-1)*q.

    Pinned explicitly because the epsilon threshold depends on it:
    for [1, 2, 3, 4] and q = 0.95 the result is 3.85.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("quantile of empty collection")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile level must be in [0, 1], got {q}")
    return float(np.quantile(arr, q, method="linear"))


def scalar_distance(a: float, b: float) -> float:
    return abs(a - b)


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

def within_matrix(obs, kind: str, band: int | None = None) -> np.ndarray:
    """Symmetric n x n distance matrix with a zero diagonal."""
    n = len(obs)
    if kind == "scalar":
        arr = np.asarray(obs, dtype=np.float64)
        return np.abs(arr[:, None] - arr[None, :])
    D = np.zeros((n, n), dtype=np.float64)
    iu, ju = np.triu_indices(n, 1)
    d = dtw_norm_pairs([obs[i] for i in iu], [obs[j] for j in ju], band)
    D[iu, ju] = d
    D[ju, iu] = d
    return D


def cross_matrix(obs_m, obs_k, kind: str, band: int | None = None) -> np.ndarray:
    n = len(obs_m)
    m = len(obs_k)
    if kind == "scalar":
        a = np.asarray(obs_m, dtype=np.float64)
        b = np.asarray(obs_k, dtype=np.float64)
        return np.abs(a[:, None] - b[None, :])
    d = dtw_norm_pairs([x for x in obs_m for _ in range(m)], list(obs_k) * n, band)
    return d.reshape(n, m)


def _upper(D: np.ndarray) -> np.ndarray:
    return D[np.triu_indices(D.shape[0], 1)]


@dataclass(frozen=True)
class DistanceSets:
    """Condensed distance collections plus the matrices they came from."""

    within_m: np.ndarray
    within_k: np.ndarray
    cross: np.ndarray
    matrix_mm: np.ndarray
    matrix_kk: np.ndarray
    matrix_mk: np.ndarray


def build_distances(obs_m, obs_k, kind: str, band: int | None = None) -> DistanceSets:
    """All pairwise distances needed by the test and the bootstrap."""
    n = len(obs_m)
    m = len(obs_k)
    if n < 2 or m < 2:
        raise DegenerateGroupsError(
            f"need at least 2 runs per corpus for within-group distances, "
            f"got {n} and {m}"
        )
    Dmm = within_matrix(obs_m, kind, band)
    Dkk = within_matrix(obs_k, kind, band)
    Dmk = cross_matrix(obs_m, obs_k, kind, band)
    return DistanceSets(
        within_m=_upper(Dmm),
        within_k=_upper(Dkk),
        cross=Dmk.ravel(),
        matrix_mm=Dmm,
        matrix_kk=Dkk,
        matrix_mk=Dmk,
    )


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
    quantile_level: float = QUANTILE_LEVEL
    decision_threshold: float = DECISION_THRESHOLD


def exceedance_test(ds: DistanceSets, metric: str = "", kind: str = "") -> TestResult:
    """Decide equivalence from one metric's distance sets.

    H0: the corpora diverge. It is rejected (equivalence accepted)
    only when the exceedance proportion is strictly below the decision
    threshold; a proportion of exactly 0.05 fails to reject.
    """
    eps_m = quantile(ds.within_m, QUANTILE_LEVEL)
    eps_k = quantile(ds.within_k, QUANTILE_LEVEL)
    eps_max = max(eps_m, eps_k)
    p_hat = float(np.mean(ds.cross > eps_max))
    return TestResult(
        metric=metric,
        kind=kind,
        n_m=ds.matrix_mm.shape[0],
        n_k=ds.matrix_kk.shape[0],
        eps_within_m=eps_m,
        eps_within_k=eps_k,
        eps_max=eps_max,
        p_hat_max=p_hat,
        reject_h0=bool(p_hat < DECISION_THRESHOLD),
    )


# ----------------------------------------------------------------------
# bootstrap

def percentile_ci(replicates, lo_q: float = 0.025, hi_q: float = 0.975):
    """CI from 1-indexed order statistics ceil(lo_q*B), floor(hi_q*B)."""
    s = np.sort(np.asarray(replicates, dtype=np.float64))
    B = s.size
    if B < 2:
        raise ValueError(f"need at least 2 replicates, got {B}")
    lo_rank = max(math.ceil(lo_q * B), 1)
    hi_rank = max(math.floor(hi_q * B), 1)
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


def _exceedance_from_matrices(Dmm, Dkk, Dmk) -> float:
    w_m = _upper(Dmm)
    w_k = _upper(Dkk)
    eps = max(quantile(w_m, QUANTILE_LEVEL), quantile(w_k, QUANTILE_LEVEL))
    return float(np.mean(Dmk > eps))


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
    precomputed matrices, so no DTW is recomputed.
    """
    if B < 2:
        raise ValueError(f"bootstrap needs B >= 2, got {B}")
    if rng is None:
        rng = np.random.Generator(np.random.PCG64(seed))
    n = ds.matrix_mm.shape[0]
    m = ds.matrix_kk.shape[0]
    iu_n = np.triu_indices(n, 1)
    iu_m = np.triu_indices(m, 1)
    reps = np.empty(B, dtype=np.float64)
    for b in range(B):
        im = rng.integers(0, n, size=n)
        ik = rng.integers(0, m, size=m)
        dmm = ds.matrix_mm[np.ix_(im, im)][iu_n]
        dkk = ds.matrix_kk[np.ix_(ik, ik)][iu_m]
        cross = ds.matrix_mk[np.ix_(im, ik)]
        eps = max(quantile(dmm, QUANTILE_LEVEL), quantile(dkk, QUANTILE_LEVEL))
        reps[b] = np.mean(cross > eps)
    ci_lo, ci_hi = percentile_ci(reps)
    return BootstrapResult(
        metric=metric,
        B=B,
        seed=seed,
        algorithm=BOOTSTRAP_ALGORITHM,
        p_hat_point=_exceedance_from_matrices(
            ds.matrix_mm, ds.matrix_kk, ds.matrix_mk
        ),
        ci_lo=ci_lo,
        ci_hi=ci_hi,
        significant=bool(ci_hi < DECISION_THRESHOLD),
        replicates_mean=float(reps.mean()),
    )


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
            within_m=np.empty(0),
            within_k=np.empty(0),
            cross=np.empty(0),
            matrix_mm=ds.matrix_mm[:size, :size],
            matrix_kk=ds.matrix_kk[:size, :size],
            matrix_mk=ds.matrix_mk[:size, :size],
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
