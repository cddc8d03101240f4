"""On-disk report format for equivalence checks.

* test_result.json: per-metric exceedance test results.
* distances.csv: every pairwise distance with its group label
  (within_m, within_k, cross) for external plotting.
* bootstrap.json: per-metric confidence intervals and significance.
* ci_width.csv: CI width as a function of corpus size.
"""

from __future__ import annotations

import os

from ..metrics import canonical_json
from .testing import BootstrapResult, DistanceSets, TestResult

TEST_RESULT_NAME = "test_result.json"
DISTANCES_NAME = "distances.csv"
BOOTSTRAP_NAME = "bootstrap.json"
CI_WIDTH_NAME = "ci_width.csv"


def write_test_results(
    out_dir: str,
    results: list[TestResult],
    distances: dict[str, DistanceSets],
    corpora: dict[str, str],
) -> list[str]:
    payload = {
        "corpora": corpora,
        "quantile_level": results[0].quantile_level if results else 0.95,
        "decision_threshold": results[0].decision_threshold if results else 0.05,
        "metrics": {
            r.metric: {
                "kind": r.kind,
                "n_m": r.n_m,
                "n_k": r.n_k,
                "eps_within_m": r.eps_within_m,
                "eps_within_k": r.eps_within_k,
                "eps_max": r.eps_max,
                "p_hat_max": r.p_hat_max,
                "reject_h0": r.reject_h0,
            }
            for r in results
        },
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
) -> list[str]:
    payload = {
        "corpora": corpora,
        "metrics": {
            r.metric: {
                "B": r.B,
                "seed": r.seed,
                "algorithm": r.algorithm,
                "p_hat_point": r.p_hat_point,
                "ci_lo": r.ci_lo,
                "ci_hi": r.ci_hi,
                "significant": r.significant,
                "replicates_mean": r.replicates_mean,
            }
            for r in results
        },
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
