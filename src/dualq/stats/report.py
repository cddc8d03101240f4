"""On-disk report format for equivalence checks.

* test_result.json: per-metric exceedance test results.
* distances.csv: every pairwise distance with its group label
  (within_m, within_k, cross) for external plotting.
* bootstrap.json: per-metric confidence intervals and significance.
* ci_width.csv: CI width as a function of corpus size.

Each JSON report's top-level ``params`` object records the options the
command ran with (metrics and band, and for bootstrap.json also B, the
resample seed and the ci-width sizes), null where an option was not given.
Its ``inputs`` object names each input corpus, m and k, by its scenario
fingerprint and the sha256 of its manifest.json, which lists every run's
file digests; unlike ``corpora``, the input paths, neither depends on
where the corpus lies.
"""

from __future__ import annotations

import os
from dataclasses import asdict

from ..metrics import canonical_json
from .testing import (
    DECISION_THRESHOLD, QUANTILE_LEVEL, BootstrapResult, DistanceSets, TestResult,
)

TEST_RESULT_NAME = "test_result.json"
DISTANCES_NAME = "distances.csv"
BOOTSTRAP_NAME = "bootstrap.json"
CI_WIDTH_NAME = "ci_width.csv"


def _by_metric(results: list[TestResult] | list[BootstrapResult]) -> dict:
    """Every field of each result but its metric name, keyed by that name."""
    fields = [asdict(r) for r in results]
    return {f.pop("metric"): f for f in fields}


def write_test_results(
    out_dir: str,
    results: list[TestResult],
    distances: dict[str, DistanceSets],
    corpora: dict[str, str],
    inputs: dict[str, dict],
    params: dict,
) -> list[str]:
    payload = {
        "corpora": corpora,
        "inputs": inputs,
        "params": params,
        "quantile_level": QUANTILE_LEVEL,
        "decision_threshold": DECISION_THRESHOLD,
        "metrics": _by_metric(results),
    }
    with open(os.path.join(out_dir, TEST_RESULT_NAME), "w", encoding="ascii") as fh:
        fh.write(canonical_json(payload))
    rows = ["metric,label,value"]
    for metric in sorted(distances):
        ds = distances[metric]
        for label, values in (
            ("within_m", ds.within_m),
            ("within_k", ds.within_k),
            ("cross", ds.cross),
        ):
            rows.extend(f"{metric},{label},{float(v)!r}" for v in values)
    with open(os.path.join(out_dir, DISTANCES_NAME), "w", encoding="ascii") as fh:
        fh.write("\n".join(rows) + "\n")
    return [TEST_RESULT_NAME, DISTANCES_NAME]


def write_bootstrap_results(
    out_dir: str,
    results: list[BootstrapResult],
    corpora: dict[str, str],
    inputs: dict[str, dict],
    params: dict,
) -> list[str]:
    payload = {
        "corpora": corpora,
        "inputs": inputs,
        "params": params,
        "metrics": _by_metric(results),
    }
    with open(os.path.join(out_dir, BOOTSTRAP_NAME), "w", encoding="ascii") as fh:
        fh.write(canonical_json(payload))
    return [BOOTSTRAP_NAME]


def write_ci_width(out_dir: str, rows: list[dict]) -> list[str]:
    lines = ["metric,n,B,ci_lo,ci_hi,width"]
    lines.extend(
        f"{r['metric']},{r['n']},{r['B']},{r['ci_lo']!r},{r['ci_hi']!r},{r['width']!r}"
        for r in rows
    )
    with open(os.path.join(out_dir, CI_WIDTH_NAME), "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")
    return [CI_WIDTH_NAME]
