"""Behavioral-equivalence statistics for emulation run corpora.

Distances between runs (absolute difference for scalar metrics,
path-normalized dynamic time warping for time series) feed an
exceedance test: a cross-corpus distance counts against equivalence
when it exceeds the larger of the two within-corpus 95th percentiles.
Bootstrap resampling of whole runs yields confidence intervals on the
exceedance proportion.
"""

from .dtw import IMPLEMENTATION, dtw_alignment, dtw_norm
from .testing import (
    DegenerateGroupsError,
    DistanceSets,
    TestResult,
    BootstrapResult,
    METRICS,
    bootstrap_exceedance,
    build_distances,
    ci_width_curve,
    exceedance_test,
    extract_observations,
    improvement_check,
    percentile_ci,
    quantile,
)

__all__ = [
    "IMPLEMENTATION",
    "dtw_alignment",
    "dtw_norm",
    "DegenerateGroupsError",
    "DistanceSets",
    "TestResult",
    "BootstrapResult",
    "METRICS",
    "bootstrap_exceedance",
    "build_distances",
    "ci_width_curve",
    "exceedance_test",
    "extract_observations",
    "improvement_check",
    "percentile_ci",
    "quantile",
]
