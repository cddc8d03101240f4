"""Acceptance suite: one test per shipping criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines as they complete. Each test prints exactly one line of the form

    [criterion NN] <name>: PASS|FAIL (detail)

and then asserts, so the printed record matches the pytest outcome.
The statistical criteria run hundreds of full emulations; the whole
suite targets a few minutes on one CPU core.
"""

import math
import random
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from dualq import engine
from dualq.aqm import AqmConfig, DualPi2
from dualq.config import apply_overrides, build_scenario, preset_sections
from dualq.core import AT, ECN, Ecn, NS_PER_MS, Rng
from dualq.metrics import summarize
from dualq.runner import run_batch, run_one
from dualq.stats.testing import (
    bootstrap_exceedance,
    build_distances,
    ci_width_curve,
    exceedance_test,
    extract_observations,
    improvement_check,
    percentile_ci,
)

from _oracles import CountingAqm, dtw_oracle, kernel_alignment
from test_cli import tree_digest


# verdict lines, echoed by the conftest terminal-summary hook so they
# stay visible when pytest captures stdout
VERDICTS: list[str] = []


def report(num: int, name: str, ok: bool, detail: str = "") -> bool:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    line = f"[criterion {num:02d}] {name}: {verdict}{suffix}"
    VERDICTS.append(line)
    print(line, flush=True)
    return ok


def scenario(preset, flows=("scalable",), duration_s=30.0, overrides=(), **kw):
    sections = preset_sections(preset, flows=flows, duration_s=duration_s, **kw)
    apply_overrides(sections, list(overrides))
    return build_scenario(sections)


def throughputs(cfg, seeds):
    # two worker processes; map keeps seed order, and criterion 05 shows
    # that a run's result does not depend on the process it ran in
    seeds = list(seeds)
    with ProcessPoolExecutor(max_workers=2) as pool:
        records = pool.map(run_one, [cfg] * len(seeds), seeds,
                           [f"s{s}" for s in seeds])
        return [r.avg_throughput_mbps for r in records]


def test_criterion_01_dtw_matches_exhaustive_oracle():
    rng = random.Random(12345)
    t0 = time.monotonic()
    mismatches = 0
    for _ in range(1000):
        x = [float(rng.randint(0, 5)) for _ in range(rng.randint(1, 8))]
        y = [float(rng.randint(0, 5)) for _ in range(rng.randint(1, 8))]
        got = kernel_alignment(np.asarray(x), np.asarray(y))
        want = dtw_oracle(x, y)
        if got != want:
            mismatches += 1
    elapsed = time.monotonic() - t0
    ok = mismatches == 0 and elapsed < 30.0
    assert report(
        1,
        "dtw equals brute-force minimum on 1000 random pairs",
        ok,
        f"{mismatches} mismatches, {elapsed:.1f}s",
    )


def test_criterion_02_pi2_fixed_point_and_clamping():
    # queue delay pinned at the target: p' must not move at all
    a = DualPi2(AqmConfig(), Rng(1), 1500)
    a.p_prime = 0.25
    a.prev_qdelay_ns = a.cfg.target_ns
    probe = [0, 0, Ecn.ECT0, -1]
    now = a.cfg.tupdate_ns
    drift = 0
    for _ in range(10_000):
        a._c.clear()
        probe[AT] = now - a.cfg.target_ns
        a._c.append(probe)
        if a.pi2_update(now) != 0.25:
            drift += 1
        now += a.cfg.tupdate_ns

    # adversarial delay sequences: p' must stay inside [0, 1]
    rng = random.Random(7)
    escapes = 0
    for beta in (3.2, 1e6):
        b = DualPi2(AqmConfig(beta=beta, limit_bytes=10**12), Rng(2), 1500)
        now = 0
        for _ in range(10_000):
            now += b.cfg.tupdate_ns
            b._c.clear()
            qdelay = rng.randint(0, 200 * NS_PER_MS)
            probe[AT] = now - qdelay
            b._c.append(probe)
            p = b.pi2_update(now)
            if not 0.0 <= p <= 1.0:
                escapes += 1
    ok = drift == 0 and escapes == 0
    assert report(
        2,
        "pi2 fixed point exact over 1e4 updates, p' clamped to [0,1]",
        ok,
        f"{drift} drifts, {escapes} clamp escapes",
    )


class RecordingAqm(DualPi2):
    """Capture (sojourn, ecn) of every dequeued packet."""

    def __init__(self, cfg, rng, mtu):
        super().__init__(cfg, rng, mtu)
        self.seen = []

    def dequeue(self, now):
        pkt = super().dequeue(now)
        if pkt is not None:
            self.seen.append((now - pkt[AT], pkt[ECN]))
        return pkt


def test_criterion_03_step_marking_soundness(monkeypatch):
    # single scalable flow: every packet traverses the low-latency queue
    monkeypatch.setattr(engine, "DualPi2", RecordingAqm)
    cfg = scenario("low")
    out = engine.run_scenario(cfg, seed=0)
    thresh = cfg.aqm.step_thresh_ns
    over = [(s, e) for s, e in out.aqm.seen if s > thresh]
    violations = sum(1 for _, e in over if e is not Ecn.CE)
    ok = len(out.aqm.seen) > 10_000 and len(over) > 100 and violations == 0
    assert report(
        3,
        "every low-latency packet over the step threshold leaves CE-marked",
        ok,
        f"{len(over)} over threshold of {len(out.aqm.seen)} dequeued, "
        f"{violations} violations",
    )


def test_criterion_04_conservation(monkeypatch):
    # exercise single/dual flows, both link modes, and an overflow regime;
    # durations are multiples of tupdate so the last sample lands on the
    # horizon and the interval deltas must add up to the final counters,
    # and the run record derives the offered and delivered packets
    monkeypatch.setattr(engine, "DualPi2", CountingAqm)
    matrix = [
        scenario("low", duration_s=4.0),
        scenario("low", flows=("scalable", "cubic"), duration_s=4.0),
        scenario("medium", flows=("cubic",), duration_s=4.0, mode="smooth"),
        scenario("low", flows=("reno", "reno"), duration_s=4.0,
                 overrides=["aqm.limit_bytes=30000"]),
    ]
    failures = []
    for i, cfg in enumerate(matrix):
        out = engine.run_scenario(cfg, seed=3)
        a = out.aqm
        if a.offered != a.delivered + a.drops_total + a.backlog_pkts:
            failures.append(f"run{i}: packet ledger")
        rec = summarize(f"m{i}", 3, Rng.algorithm, cfg.fingerprint(), cfg.to_dict(), out)
        c = rec.counters
        if (c["enqueued"], c["dequeued"]) != (a.offered, a.delivered):
            failures.append(f"run{i}: derived counters")
        marks = rec.series("ecn_marks").sum()
        drops = rec.series("drops").sum()
        if marks != a.ecn_marks_l + a.ecn_marks_c:
            failures.append(f"run{i}: mark deltas")
        if drops != a.drops_total:
            failures.append(f"run{i}: drop deltas")
    assert report(
        4,
        "enqueued = dequeued + dropped + residual; deltas sum to counters",
        not failures,
        f"{len(matrix)} configs" if not failures else "; ".join(failures),
    )


def test_criterion_05_determinism(tmp_path):
    from dualq.metrics import write_run_dir

    cfg = scenario("low", flows=("scalable", "cubic"), duration_s=2.0)
    a = tmp_path / "a" / "run"
    b = tmp_path / "b" / "run"
    for d in (a, b):
        d.mkdir(parents=True)
        write_run_dir(run_one(cfg, 11, run_id="run"), str(d))
    single_ok = tree_digest(a) == tree_digest(b)

    serial = run_batch(cfg, runs=4, seed_base=0,
                       out_dir=str(tmp_path / "serial"), parallel=1)
    parallel = run_batch(cfg, runs=4, seed_base=0,
                         out_dir=str(tmp_path / "parallel"), parallel=2)
    batch_ok = tree_digest(serial) == tree_digest(parallel)
    assert report(
        5,
        "same config+seed gives byte-identical outputs, serial or parallel",
        single_ok and batch_ok,
        f"single={single_ok} batch={batch_ok}",
    )


def test_criterion_06_classic_link_utilization():
    t0 = time.monotonic()
    cfg = scenario("low", flows=("cubic",))
    rates = throughputs(cfg, range(20))
    elapsed = time.monotonic() - t0
    mean = sum(rates) / len(rates)
    ok = mean >= 10.2 and elapsed < 120.0
    assert report(
        6,
        "single cubic flow at 12 Mbps/20 ms averages >= 10.2 Mbps",
        ok,
        f"mean {mean:.3f} Mbps over 20 seeds, {elapsed:.1f}s",
    )


def test_criterion_07_wrr_byte_share():
    # every packet is the link's mtu, so bytes are mtu x packet counts
    mtu = 1500
    aqm = DualPi2(AqmConfig(limit_bytes=10**12), Rng(5), mtu)

    def feed(ecn, i):
        aqm.enqueue([0, i, ecn, -1], 0)

    feed(Ecn.NOT_ECT, 0)
    feed(Ecn.ECT1, 1)
    c_pkts = total_pkts = 0
    for i in range(2, 1_000_002):
        pkt = aqm.dequeue(0)
        total_pkts += 1
        if pkt[ECN] is Ecn.NOT_ECT:
            c_pkts += 1
            feed(Ecn.NOT_ECT, i)
        else:
            feed(Ecn.ECT1, i)
    share = mtu * c_pkts / (mtu * total_pkts)
    ok = 0.09 <= share <= 0.11
    assert report(
        7,
        "classic byte share over 1e6 packets within [0.09, 0.11]",
        ok,
        f"share {share:.5f}",
    )


def test_criterion_08_statistical_self_equivalence():
    t0 = time.monotonic()
    cfg = scenario("low", flows=("scalable", "cubic"))
    p_hats = []
    for rep in range(10):
        base = 1000 * rep
        obs_m = throughputs(cfg, range(base, base + 30))
        obs_k = throughputs(cfg, range(base + 500, base + 530))
        ds = build_distances(obs_m, obs_k)
        p_hats.append(exceedance_test(ds).p_hat_max)
    elapsed = time.monotonic() - t0
    median = float(np.median(p_hats))
    ok = median < 0.05 and elapsed < 600.0
    assert report(
        8,
        "same-config corpora test as equivalent (median p_hat < 0.05)",
        ok,
        f"median p_hat {median:.4f} over 10 reps, {elapsed:.0f}s",
    )


def test_criterion_09_bootstrap_vectors():
    # percentile CI picks order statistics 50 and 1950 of B=2000
    reps = np.arange(1, 2001, dtype=float)
    np.random.default_rng(0).shuffle(reps)
    ranks_ok = percentile_ci(reps) == (50.0, 1950.0)

    # identical corpora collapse every replicate to zero exceedance
    ds = build_distances([7.0] * 10, [7.0] * 10)
    res = bootstrap_exceedance(ds, B=500, seed=1)
    degen_ok = (res.ci_lo, res.ci_hi) == (0.0, 0.0)

    # reference interval pairs (default vs tuned) and their verdicts
    table_ok = (
        improvement_check((0.050, 0.169), (0.222, 0.470)) is True
        and improvement_check((0.000, 0.115), (0.338, 0.779)) is True
        and improvement_check((0.000, 0.280), (0.000, 0.018)) is False
    )
    ok = ranks_ok and degen_ok and table_ok
    assert report(
        9,
        "bootstrap order statistics, degenerate CI, improvement verdicts",
        ok,
        f"ranks={ranks_ok} degenerate={degen_ok} verdicts={table_ok}",
    )


def test_criterion_10_directional_sensitivity():
    seeds = range(20)
    shallow = scenario("medium")
    deep = scenario("medium", overrides=["aqm.step_thresh_ms=5"])
    mean_1 = float(np.mean(throughputs(shallow, seeds)))
    mean_5 = float(np.mean(throughputs(deep, seeds)))
    scalable_ok = mean_5 > mean_1

    tight = scenario("medium", flows=("cubic",))
    relaxed = scenario("medium", flows=("cubic",),
                       overrides=["aqm.target_ms=30"])
    mean_15 = float(np.mean(throughputs(tight, seeds)))
    mean_30 = float(np.mean(throughputs(relaxed, seeds)))
    classic_ok = mean_30 >= mean_15
    assert report(
        10,
        "wider step and target thresholds raise medium-preset throughput",
        scalable_ok and classic_ok,
        f"scalable 5ms {mean_5:.2f} vs 1ms {mean_1:.2f}; "
        f"cubic 30ms {mean_30:.2f} vs 15ms {mean_15:.2f} Mbps",
    )


def test_criterion_11_ci_width_convergence():
    rng = np.random.default_rng(42)
    make = lambda: rng.poisson(3.0, size=100).astype(np.float64)
    obs_m = [make() for _ in range(100)]
    obs_k = [make() for _ in range(100)]
    ds = build_distances(obs_m, obs_k)
    rows = ci_width_curve(ds, [20, 100], B=300, seed=2, metric="ecn_marks")
    width_20 = rows[0]["width"]
    width_100 = rows[1]["width"]
    ok = width_100 <= width_20
    assert report(
        11,
        "bootstrap CI width at n=100 is <= width at n=20",
        ok,
        f"width(20)={width_20:.4f} width(100)={width_100:.4f}",
    )


def test_criterion_12_bursty_vs_smooth_divergence():
    # a scalable-only workload never consults the random stream here, so
    # the service discipline is the only thing separating the corpora and
    # the cross-mode distance isolates the state-divergence mechanism
    def corpus(mode, base):
        cfg = scenario("medium", duration_s=10.0, mode=mode)
        return [run_one(cfg, base + s, run_id=f"s{s}") for s in range(20)]

    bursty = extract_observations(corpus("bursty", 0), "queue_occupancy")
    smooth = extract_observations(corpus("smooth", 100), "queue_occupancy")
    ds = build_distances(bursty, smooth)
    res = exceedance_test(ds, metric="queue_occupancy", kind="timeseries")
    mean_cross = float(ds.cross.mean())
    ok = res.p_hat_max >= 0.05 and mean_cross > res.eps_max
    assert report(
        12,
        "bursty and smooth service give distinguishable queue dynamics",
        ok,
        f"p_hat {res.p_hat_max:.4f}, mean cross {mean_cross:.4f}, "
        f"eps_max {res.eps_max:.4f}",
    )
