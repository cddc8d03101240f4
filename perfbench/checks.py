"""Output checks made apart from the program.

Nothing here imports dualq. Every figure is recomputed from the files
the CLI wrote, by the rules the program documents:

* a corpus is a manifest of sha256 digests plus one directory per run
  holding ``meta.json``, ``series.csv`` and ``flows.csv``;
* a time-series distance is normalised DTW over |x_i - y_j|: the
  cumulative cost divided by the number of cells on the optimal path,
  with ties broken diagonal, then vertical, then horizontal;
* epsilon is the larger within-corpus 0.95 quantile (linear, rank
  (n-1)q), p_hat the share of cross distances strictly above it;
* a bootstrap replicate draws n runs from corpus M and then m runs from
  corpus K out of one PCG64(seed) stream; the interval is the pair of
  1-indexed order statistics ceil(0.025 B) and floor(0.975 B).

Each check returns a list of problems; an empty list means the output
is correct.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import re

import numpy as np

QUANTILE_LEVEL = 0.95
DECISION_THRESHOLD = 0.05
RUN_FILES = ("flows.csv", "meta.json", "series.csv")
SERIES_HEADER = "t_ns,qocc_pkts,qocc_bytes,ecn_marks,drops"
FLOWS_HEADER = "flow_id,kind,bytes,mbps"
DISTANCES_HEADER = "metric,label,value"
CI_WIDTH_HEADER = "metric,n,B,ci_lo,ci_hi,width"
# numpy >= 2 prints a float64 scalar's repr as np.float64(x)
_NP_REPR = re.compile(r"np\.float64\((.*)\)")


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def read_json(path: str):
    with open(path, "r", encoding="ascii") as fh:
        return json.load(fh)


def read_csv(path: str, header: str) -> list[list[str]]:
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"{path}: header is not {header!r}")
    return [line.split(",") for line in lines[1:]]


def close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


class Run:
    """One run directory, parsed strictly."""

    def __init__(self, path: str):
        self.path = path
        self.meta = read_json(os.path.join(path, "meta.json"))
        rows = read_csv(os.path.join(path, "series.csv"), SERIES_HEADER)
        cols = list(zip(*[[int(v) for v in row] for row in rows])) or [()] * 5
        self.t_ns, self.qocc_pkts, _, self.ecn_marks, self.drops = map(list, cols)
        self.flows = [
            (name, kind, int(nbytes), float(mbps))
            for name, kind, nbytes, mbps in read_csv(
                os.path.join(path, "flows.csv"), FLOWS_HEADER
            )
        ]

    @property
    def throughput_mbps(self) -> float:
        total = sum(f[2] for f in self.flows)
        return total * 8.0 / (self.meta["duration_ns"] * 1e-9) / 1e6


def run_ids(count: int) -> list[str]:
    return [f"run-{i:05d}" for i in range(count)]


def load_runs(corpus_dir: str, count: int) -> list[Run]:
    return [Run(os.path.join(corpus_dir, rid)) for rid in run_ids(count)]


# ----------------------------------------------------------------------
# corpora

def check_corpus(corpus_dir: str, seeds: list[int], fingerprint: str,
                 path: str | None = None) -> list[str]:
    """Manifest, file digests and per-run invariants of one corpus.

    ``path`` names the AQM path the workload was chosen for: "l_marks"
    requires L-queue step/coupled marks in every run, "drops" requires
    classic drops in every run.
    """
    where = os.path.basename(corpus_dir)
    problems = []
    manifest = read_json(os.path.join(corpus_dir, "manifest.json"))
    ids = run_ids(len(seeds))
    if manifest.get("kind") != "corpus":
        problems.append(f"{where}: manifest kind {manifest.get('kind')!r}")
    if manifest.get("fingerprint") != fingerprint:
        problems.append(f"{where}: manifest fingerprint differs from the scenario")
    if manifest.get("runs") != len(seeds) or manifest.get("seeds") != seeds:
        problems.append(f"{where}: manifest seeds {manifest.get('seeds')} != {seeds}")
    files = manifest.get("files", {})
    expected = {f"{rid}/{name}" for rid in ids for name in RUN_FILES}
    if set(files) != expected:
        problems.append(f"{where}: manifest lists {sorted(set(files) ^ expected)}")
    on_disk = sorted(e for e in os.listdir(corpus_dir) if e != "manifest.json")
    if on_disk != ids:
        problems.append(f"{where}: run directories {on_disk} != {ids}")
        return problems
    for rid in ids:
        names = sorted(os.listdir(os.path.join(corpus_dir, rid)))
        if names != sorted(RUN_FILES):
            problems.append(f"{where}/{rid}: files {names}")
    for rel, digest in sorted(files.items()):
        full = os.path.join(corpus_dir, rel)
        if not os.path.isfile(full) or sha256_file(full) != digest:
            problems.append(f"{where}: digest mismatch for {rel}")
    if problems:
        return problems
    for rid, seed in zip(ids, seeds):
        problems.extend(
            f"{where}/{rid}: {p}"
            for p in check_run(Run(os.path.join(corpus_dir, rid)), seed,
                               fingerprint, path)
        )
    return problems


def check_run(run: Run, seed: int, fingerprint: str, path: str | None) -> list[str]:
    meta = run.meta
    cfg = meta["config"]
    c = meta["summary"]["counters"]
    duration = meta["duration_ns"]
    tupdate = cfg["aqm"]["tupdate_ns"]
    mtu = cfg["link"]["mtu"]
    problems = []
    if meta["seed"] != seed or meta["rng"]["seed"] != seed:
        problems.append(f"seed {meta['seed']} != {seed}")
    if meta["fingerprint"] != fingerprint:
        problems.append("fingerprint differs from the scenario")
    if duration != cfg["duration_ns"]:
        problems.append("duration differs from the config echo")
    samples = duration // tupdate
    if len(run.t_ns) != samples or meta["summary"]["samples"] != samples:
        problems.append(f"{len(run.t_ns)} samples, expected {samples}")
    elif run.t_ns != [tupdate * (i + 1) for i in range(samples)]:
        problems.append("sample instants are not k * tupdate")
    final_q = run.qocc_pkts[-1] if run.qocc_pkts else 0
    if c["enqueued"] != c["dequeued"] + c["drops"] + final_q:
        problems.append(
            f"enqueued {c['enqueued']} != dequeued {c['dequeued']} + drops "
            f"{c['drops']} + final queue {final_q}"
        )
    if c["drops"] != c["drops_overflow"] + c["drops_aqm"]:
        problems.append("drops != overflow drops + AQM drops")
    if sum(run.ecn_marks) != c["ecn_marks_l"] + c["ecn_marks_c"]:
        problems.append("series mark deltas do not add up to the mark counters")
    if sum(run.drops) != c["drops"]:
        problems.append("series drop deltas do not add up to the drop counter")
    cap = cfg["link"]["rate_bps"] * duration // (8 * mtu * 10**9) + 1
    if c["dequeued"] > cap:
        problems.append(f"dequeued {c['dequeued']} exceeds link capacity {cap}")
    dur_s = duration * 1e-9
    for name, _, nbytes, mbps in run.flows:
        if nbytes <= 0:
            problems.append(f"flow {name} delivered no bytes")
        if mbps != nbytes * 8.0 / dur_s / 1e6:
            problems.append(f"flow {name} rate does not match its bytes")
    if sum(f[2] for f in run.flows) != c["dequeued"] * mtu:
        problems.append("delivered bytes != dequeued packets * mtu")
    if meta["summary"]["avg_throughput_mbps"] != run.throughput_mbps:
        problems.append("summary throughput does not match flows.csv")
    if path == "l_marks" and c["ecn_marks_l"] <= 0:
        problems.append("no L-queue marks on a run chosen for L marking")
    if path == "drops" and c["drops"] <= 0:
        problems.append("no drops on a run chosen for classic drops")
    return problems


# ----------------------------------------------------------------------
# statistics recomputed

def quantile(values, q: float = QUANTILE_LEVEL) -> float:
    """Linear quantile at rank (n-1)q, interpolated as numpy's lerp does."""
    s = np.sort(np.asarray(values, dtype=np.float64))
    h = (s.size - 1) * q
    lo = math.floor(h)
    hi = min(lo + 1, s.size - 1)
    g = h - lo
    a, b = float(s[lo]), float(s[hi])
    diff = b - a
    return b - diff * (1 - g) if g >= 0.5 else a + diff * g


def pair_index(n: int, m: int | None = None):
    """Pairs in the order distances.csv lists them.

    Within a corpus: i < j, row-major. Across corpora: every (i, j).
    """
    if m is None:
        return [(i, j) for i in range(n) for j in range(i + 1, n)]
    return [(i, j) for i in range(n) for j in range(m)]


def dtw_norm(x, y) -> float:
    """DTW cost over path length, path length carried forward.

    The program backtracks a full cost matrix; here each cell keeps the
    length of the path through the predecessor the backtrack would pick,
    so only two rows are held. Both follow the same tie-break.
    """
    n, m = len(x), len(y)
    prev_cost: list[float] = []
    prev_len: list[int] = []
    for i in range(n):
        xi = x[i]
        cost = [0.0] * m
        plen = [0] * m
        for j in range(m):
            c = abs(xi - y[j])
            if i == 0:
                if j == 0:
                    cost[0], plen[0] = c, 1
                else:
                    cost[j], plen[j] = cost[j - 1] + c, plen[j - 1] + 1
                continue
            if j == 0:
                cost[0], plen[0] = prev_cost[0] + c, prev_len[0] + 1
                continue
            d, v, h = prev_cost[j - 1], prev_cost[j], cost[j - 1]
            if d <= v and d <= h:
                best, steps = d, prev_len[j - 1]
            elif v <= h:
                best, steps = v, prev_len[j]
            else:
                best, steps = h, plen[j - 1]
            cost[j], plen[j] = c + best, steps + 1
        prev_cost, prev_len = cost, plen
    return prev_cost[-1] / prev_len[-1]


def exceedance(within_m, within_k, cross) -> tuple[float, float, float, float]:
    eps_m = quantile(within_m)
    eps_k = quantile(within_k)
    eps = max(eps_m, eps_k)
    p_hat = sum(1 for d in cross if d > eps) / len(cross)
    return eps_m, eps_k, eps, p_hat


def check_test_entry(entry: dict, kind: str, n: int, m: int,
                     within_m, within_k, cross) -> list[str]:
    eps_m, eps_k, eps, p_hat = exceedance(within_m, within_k, cross)
    problems = []
    if (entry["kind"], entry["n_m"], entry["n_k"]) != (kind, n, m):
        problems.append(f"kind/sizes {entry['kind']}, {entry['n_m']}, {entry['n_k']}")
    for key, mine in (("eps_within_m", eps_m), ("eps_within_k", eps_k),
                      ("eps_max", eps)):
        if not close(entry[key], mine, 1e-12):
            problems.append(f"{key} {entry[key]!r} != recomputed {mine!r}")
    if entry["p_hat_max"] != p_hat:
        problems.append(f"p_hat_max {entry['p_hat_max']!r} != recomputed {p_hat!r}")
    if entry["reject_h0"] != (p_hat < DECISION_THRESHOLD):
        problems.append("reject_h0 disagrees with p_hat")
    return problems


def read_distances(path: str):
    """Rows of distances.csv as {(metric, label): [values]}.

    Returns (rows, fault). A value that is not a plain number is the
    fault; it is then read through its np.float64(...) wrapper so that
    the remaining checks still run.
    """
    rows: dict[tuple[str, str], list[float]] = {}
    fault = None
    for metric, label, value in read_csv(path, DISTANCES_HEADER):
        try:
            v = float(value)
        except ValueError:
            fault = fault or f"distances.csv value {value!r} is not a number"
            wrapped = _NP_REPR.fullmatch(value)
            if wrapped is None:
                raise
            v = float(wrapped.group(1))
        rows.setdefault((metric, label), []).append(v)
    return rows, fault


def check_validate(report_dir: str, runs_a: list[Run], runs_b: list[Run],
                   corpora: dict[str, str], spot_seed: int,
                   spot_pairs: int) -> tuple[str | None, list[str]]:
    """Check one `validate --metrics throughput,queue_occupancy` report.

    Returns (fault, problems): fault is the strict-parse failure of
    distances.csv, counted as a failed operation; problems are wrong
    results.
    """
    n, m = len(runs_a), len(runs_b)
    problems = []
    result = read_json(os.path.join(report_dir, "test_result.json"))
    if result["corpora"] != corpora:
        problems.append(f"corpora {result['corpora']} != {corpora}")
    if (result["quantile_level"], result["decision_threshold"]) != (
        QUANTILE_LEVEL, DECISION_THRESHOLD
    ):
        problems.append("quantile level or decision threshold changed")
    metrics = result["metrics"]
    if sorted(metrics) != ["queue_occupancy", "throughput"]:
        return None, problems + [f"metrics {sorted(metrics)}"]
    rows, fault = read_distances(os.path.join(report_dir, "distances.csv"))
    within = pair_index(n)
    within_k = pair_index(m)
    cross = pair_index(n, m)
    if sorted(rows) != sorted(
        (metric, label) for metric in metrics
        for label in ("within_m", "within_k", "cross")
    ):
        return fault, problems + [f"distance groups {sorted(rows)}"]

    ta = [r.throughput_mbps for r in runs_a]
    tb = [r.throughput_mbps for r in runs_b]
    scalar = {
        "within_m": [abs(ta[i] - ta[j]) for i, j in within],
        "within_k": [abs(tb[i] - tb[j]) for i, j in within_k],
        "cross": [abs(ta[i] - tb[j]) for i, j in cross],
    }
    for label, mine in scalar.items():
        if rows[("throughput", label)] != mine:
            problems.append(f"throughput {label} distances differ from flows.csv")
    problems += [
        f"throughput: {p}"
        for p in check_test_entry(metrics["throughput"], "scalar", n, m,
                                  scalar["within_m"], scalar["within_k"],
                                  scalar["cross"])
    ]

    qo = {label: rows[("queue_occupancy", label)]
          for label in ("within_m", "within_k", "cross")}
    for label, pairs in (("within_m", within), ("within_k", within_k),
                         ("cross", cross)):
        if len(qo[label]) != len(pairs):
            problems.append(f"queue_occupancy {label}: {len(qo[label])} distances")
    if problems:
        return fault, problems
    problems += [
        f"queue_occupancy: {p}"
        for p in check_test_entry(metrics["queue_occupancy"], "timeseries", n, m,
                                  qo["within_m"], qo["within_k"], qo["cross"])
    ]
    # DTW spot checks on seed-chosen pairs, cycling through the groups
    rng = random.Random(spot_seed)
    groups = (("within_m", within, runs_a, runs_a), ("within_k", within_k, runs_b,
              runs_b), ("cross", cross, runs_a, runs_b))
    for s in range(spot_pairs):
        label, pairs, left, right = groups[s % 3]
        k = rng.randrange(len(pairs))
        i, j = pairs[k]
        mine = dtw_norm([float(v) for v in left[i].qocc_pkts],
                        [float(v) for v in right[j].qocc_pkts])
        if not close(qo[label][k], mine, 1e-9):
            problems.append(
                f"queue_occupancy {label} pair {i},{j}: {qo[label][k]!r} != "
                f"recomputed {mine!r}"
            )
    return fault, problems


# ----------------------------------------------------------------------
# bootstrap

def _replicates(rng, ta: np.ndarray, tb: np.ndarray, B: int) -> list[float]:
    n, m = ta.size, tb.size
    iu_n = np.triu_indices(n, 1)
    iu_m = np.triu_indices(m, 1)
    out = []
    for _ in range(B):
        x = ta[rng.integers(0, n, size=n)]
        y = tb[rng.integers(0, m, size=m)]
        eps = max(quantile(np.abs(x[:, None] - x[None, :])[iu_n]),
                  quantile(np.abs(y[:, None] - y[None, :])[iu_m]))
        out.append(int(np.count_nonzero(np.abs(x[:, None] - y[None, :]) > eps))
                   / (n * m))
    return out


def _order_stats(reps: list[float]) -> tuple[float, float]:
    s = sorted(reps)
    B = len(s)
    return s[max(math.ceil(0.025 * B), 1) - 1], s[max(math.floor(0.975 * B), 1) - 1]


def check_bootstrap(report_dir: str, runs_a: list[Run], runs_b: list[Run],
                    corpora: dict[str, str], B: int, seed: int,
                    sizes: list[int]) -> list[str]:
    """Check `bootstrap --metrics throughput -B B --ci-width sizes`."""
    problems = []
    ta = np.array([r.throughput_mbps for r in runs_a])
    tb = np.array([r.throughput_mbps for r in runs_b])
    n, m = ta.size, tb.size
    report = read_json(os.path.join(report_dir, "bootstrap.json"))
    if report["corpora"] != corpora:
        problems.append(f"corpora {report['corpora']} != {corpora}")
    if sorted(report["metrics"]) != ["throughput"]:
        return problems + [f"metrics {sorted(report['metrics'])}"]
    entry = report["metrics"]["throughput"]
    if (entry["B"], entry["seed"], entry["algorithm"]) != (B, seed, "pcg64"):
        problems.append(f"B/seed/algorithm {entry['B']}, {entry['seed']}, "
                        f"{entry['algorithm']}")
    _, _, _, point = exceedance(
        [abs(ta[i] - ta[j]) for i, j in pair_index(n)],
        [abs(tb[i] - tb[j]) for i, j in pair_index(m)],
        [abs(ta[i] - tb[j]) for i, j in pair_index(n, m)],
    )
    if entry["p_hat_point"] != point:
        problems.append(f"p_hat_point {entry['p_hat_point']!r} != {point!r}")
    reps = _replicates(np.random.Generator(np.random.PCG64(seed)), ta, tb, B)
    lo, hi = _order_stats(reps)
    if (entry["ci_lo"], entry["ci_hi"]) != (lo, hi):
        problems.append(f"CI [{entry['ci_lo']}, {entry['ci_hi']}] != [{lo}, {hi}]")
    if not 0.0 <= entry["ci_lo"] <= entry["ci_hi"] <= 1.0:
        problems.append("CI bounds outside 0 <= lo <= hi <= 1")
    if entry["significant"] != (entry["ci_hi"] < DECISION_THRESHOLD):
        problems.append("significant disagrees with ci_hi")
    if not close(entry["replicates_mean"], sum(reps) / B, 1e-9):
        problems.append("replicates_mean differs from the recomputed replicates")

    rows = read_csv(os.path.join(report_dir, "ci_width.csv"), CI_WIDTH_HEADER)
    if [(r[0], int(r[1]), int(r[2])) for r in rows] != [
        ("throughput", s, B) for s in sizes
    ]:
        return problems + [f"ci_width rows {[r[:3] for r in rows]}"]
    rng = np.random.Generator(np.random.PCG64(seed))
    for row, size in zip(rows, sizes):
        lo, hi, width = (float(v) for v in row[3:])
        mine = _order_stats(_replicates(rng, ta[:size], tb[:size], B))
        if (lo, hi) != mine or width != hi - lo:
            problems.append(f"ci_width n={size}: [{lo}, {hi}] != {list(mine)}")
    return problems
