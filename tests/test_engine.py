"""Event loop: ordering, stop rule, conservation, determinism."""

import hashlib
import os

import pytest

from dualq.aqm import DualPi2
from dualq.config import apply_overrides, build_scenario, preset_sections
from dualq.core import AT, FLOW, NS_PER_MS, NS_PER_SEC, SEQ, Rng
from dualq.engine import run_scenario
from dualq.metrics import load_run_dir, summarize, write_run_dir
from dualq.runner import run_one
from dualq.traffic import INIT_CWND, ClassicSender, ScalableSender

from _oracles import CountingAqm, aqm_counts, run_scenario_oracle


def scenario(preset="low", flows=("cubic",), duration_s=5.0, params="default",
             sets=(), mode="bursty"):
    sections = preset_sections(
        preset, params=params, flows=flows, duration_s=duration_s, mode=mode
    )
    if any(s.startswith("delay.") for s in sets):
        del sections["delay"]  # fwd_ms/rev_ms replace the preset's rtt_ms
    apply_overrides(sections, list(sets))
    return build_scenario(sections)


def event_log(monkeypatch, cfg, seed=1):
    """Run cfg and return the (time, kind) of every engine callback in
    the order they ran: "arr" enqueue, "deq" dequeue, "upd" controller
    update, "ack" sender ack."""
    log = []

    def logged(owner, name, kind, t_arg):
        fn = getattr(owner, name)

        def wrapper(self, *args):
            log.append((args[t_arg], kind))
            return fn(self, *args)

        monkeypatch.setattr(owner, name, wrapper)

    logged(DualPi2, "enqueue", "arr", 1)
    logged(DualPi2, "dequeue", "deq", 0)
    logged(DualPi2, "pi2_update", "upd", 0)
    logged(ScalableSender, "on_ack", "ack", 2)
    logged(ClassicSender, "on_ack", "ack", 2)
    run_scenario(cfg, seed)
    return log


def delivery_log(monkeypatch, cfg, seed):
    """Run cfg and return (time, flow index, seq) of every delivery.

    The engine hands each packet dequeue returns to the receiver at the
    same instant, so the dequeue results are the deliveries."""
    log = []
    dequeue = DualPi2.dequeue

    def wrapper(self, now):
        pkt = dequeue(self, now)
        if pkt is not None:
            log.append((now, pkt[FLOW], pkt[SEQ]))
        return pkt

    monkeypatch.setattr(DualPi2, "dequeue", wrapper)
    run_scenario(cfg, seed)
    assert log
    return log


def kinds_by_time(log):
    by_t = {}
    for t, kind in log:
        by_t.setdefault(t, []).append(kind)
    return by_t


class TestTieOrder:
    # low preset, bursty: deliveries fall on millisecond boundaries, and
    # with 10 ms one-way delays so do acks, sends and arrivals, so
    # same-instant events are common

    def test_arrival_not_served_by_same_instant_link_event(self, monkeypatch):
        log = event_log(monkeypatch, scenario(flows=("scalable", "cubic"), duration_s=2.0))
        ties = 0
        for t, kinds in kinds_by_time(log).items():
            if "arr" in kinds and "deq" in kinds:
                ties += 1
                # every dequeue at t comes before the first arrival at t
                assert "deq" not in kinds[kinds.index("arr"):], t
        assert ties > 0

    def test_controller_samples_before_same_instant_arrivals(self, monkeypatch):
        log = event_log(monkeypatch, scenario(flows=("scalable", "cubic"), duration_s=2.0))
        ties = 0
        for t, kinds in kinds_by_time(log).items():
            if "upd" in kinds and "arr" in kinds:
                ties += 1
                assert kinds.index("upd") < kinds.index("arr"), t
        assert ties > 0

    def test_acks_after_same_instant_arrivals(self, monkeypatch):
        # what the tie order decides: the packets an ack at t sends are
        # enqueued at t + fwd, after every arrival at t that was sent
        # earlier, and ahead of those a same-instant wake-up sends;
        # fwd = 0 puts all of them at one instant. A scalable sender opens
        # its first round at its first ack on what its wake-up sent, so
        # each flow's first on_ack must come after exactly one pump
        sent = {}  # (flow, seq) -> (send time, 0 if an ack sent it, 1 if a wake-up)
        enqueued = []  # (time, flow, seq) in call order
        pumps = {}  # flow -> pumps so far
        first_ack = {}  # flow -> its pumps before its first on_ack

        def logged(cls):
            pump, on_ack = cls.pump, cls.on_ack

            def logged_pump(self, now, at):
                out = pump(self, now, at)
                # a sender's first pump is its wake-up, every later one an ack's
                kind = 0 if self.index in pumps else 1
                pumps[self.index] = pumps.get(self.index, 0) + 1
                sent.update(((p[FLOW], p[SEQ]), (now, kind)) for p in out)
                return out

            def logged_ack(self, seq, ce, now):
                first_ack.setdefault(self.index, pumps.get(self.index, 0))
                return on_ack(self, seq, ce, now)

            monkeypatch.setattr(cls, "pump", logged_pump)
            monkeypatch.setattr(cls, "on_ack", logged_ack)

        logged(ScalableSender)
        logged(ClassicSender)
        enqueue = DualPi2.enqueue

        def logged_enqueue(self, pkt, now):
            enqueued.append((now, pkt[FLOW], pkt[SEQ]))
            return enqueue(self, pkt, now)

        monkeypatch.setattr(DualPi2, "enqueue", logged_enqueue)
        for fwd_ms in (10, 0):
            sent.clear()
            enqueued.clear()
            pumps.clear()
            first_ack.clear()
            run_scenario(scenario(flows=("scalable", "cubic"), duration_s=1.0, sets=(
                f"delay.fwd_ms={fwd_ms}", "delay.rev_ms=10", "flow.cubic1.start_s=0.3",
            )), seed=1)
            by_t = {}
            for now, flow, seq in enqueued:
                t_sent, kind = sent[(flow, seq)]
                assert now == t_sent + fwd_ms * NS_PER_MS
                by_t.setdefault(now, []).append((t_sent, kind))
            ties = 0
            for now, keys in by_t.items():
                assert keys == sorted(keys), now
                ties += len({kind for _, kind in keys}) == 2
            assert ties > 0, fwd_ms
            assert first_ack == {0: 1, 1: 1}, fwd_ms

    @pytest.mark.parametrize("mode, sets", [
        # a wake-up inserts its window among arrivals that acks queued
        ("bursty", ("delay.fwd_ms=10", "delay.rev_ms=10", "flow.cubic1.start_s=0.5")),
        ("bursty", ("delay.fwd_ms=0", "delay.rev_ms=10", "flow.cubic1.start_s=0.3")),
        ("smooth", ("delay.fwd_ms=0.5", "delay.rev_ms=0.25",
                    "flow.cubic1.start_s=0.3")),
    ])
    def test_arrival_time_is_send_time_plus_fwd(self, monkeypatch, mode, sets):
        # the engine orders its arrivals FIFO by each packet's AT, which it
        # writes when it queues the packet; the AQM reads AT as the
        # enqueue time, so both must be the send time plus fwd
        sent = {}  # (flow, seq) -> send time
        checked = []  # flows of the packets enqueued

        for cls in (ScalableSender, ClassicSender):
            def logged_pump(self, now, at, _pump=cls.pump):
                out = _pump(self, now, at)
                sent.update(((p[FLOW], p[SEQ]), now) for p in out)
                return out

            monkeypatch.setattr(cls, "pump", logged_pump)
        enqueue = DualPi2.enqueue

        def logged_enqueue(self, pkt, now):
            assert pkt[AT] == now == sent[(pkt[FLOW], pkt[SEQ])] + fwd
            checked.append(pkt[FLOW])
            return enqueue(self, pkt, now)

        monkeypatch.setattr(DualPi2, "enqueue", logged_enqueue)
        cfg = scenario(flows=("scalable", "cubic"), duration_s=1.0, mode=mode,
                       sets=sets)
        fwd = cfg.delay.fwd_ns
        run_scenario(cfg, seed=1)
        assert set(checked) == {0, 1}

    def test_wake_up_after_same_instant_arrivals(self, monkeypatch):
        # a flow that starts at an instant holding arrivals, sent a round
        # trip earlier by the other flow's acks, pumps after they are queued
        log = []
        enqueue, pump = DualPi2.enqueue, ClassicSender.pump

        def logged_enqueue(self, pkt, now):
            log.append((now, "arr"))
            return enqueue(self, pkt, now)

        def logged_pump(self, now, at):
            if self.next_seq == 0:
                log.append((now, "wake"))
            return pump(self, now, at)

        monkeypatch.setattr(DualPi2, "enqueue", logged_enqueue)
        monkeypatch.setattr(ClassicSender, "pump", logged_pump)
        run_scenario(scenario(flows=("scalable", "cubic"), duration_s=1.1,
                              sets=("flow.cubic1.start_s=1.01",)), seed=21)
        kinds = kinds_by_time(log)[1_010_000_000]
        assert kinds[0] == "arr" and kinds[-1] == "wake"

    def test_nothing_runs_past_horizon(self, monkeypatch):
        horizon = int(0.8 * NS_PER_SEC)
        log = event_log(monkeypatch, scenario(flows=("scalable", "cubic"), duration_s=0.8))
        assert max(t for t, _ in log) == horizon
        at_horizon = set(kinds_by_time(log)[horizon])
        # the update at the horizon runs; arrivals and acks there do not
        assert "upd" in at_horizon
        assert not at_horizon & {"arr", "ack"}


class TestSampling:
    def test_sample_count_30s_16ms(self):
        out = run_scenario(scenario(duration_s=30.0), seed=1)
        assert len(out.samples) == 1875

    def test_sample_count_short(self):
        # 1 s / 16 ms -> 62 controller updates plus the sample at 1 s
        out = run_scenario(scenario(duration_s=1.0), seed=1)
        assert len(out.samples) == 63

    def test_sample_timestamps(self):
        out = run_scenario(scenario(duration_s=1.0), seed=1)
        assert [s.t_ns for s in out.samples] == [
            16_000_000 * (i + 1) for i in range(62)
        ] + [NS_PER_SEC]

    def test_exact_horizon_sample_included(self):
        # 0.8 s is exactly 50 update intervals: the final sample sits
        # at the horizon itself
        out = run_scenario(scenario(duration_s=0.8), seed=1)
        assert out.samples[-1].t_ns == 800_000_000
        assert len(out.samples) == 50


class TestConservation:
    def test_final_sample_is_end_state(self, monkeypatch):
        # 3 s is not a multiple of tupdate: the final sample must still
        # hold every packet enqueued and neither dequeued nor dropped
        monkeypatch.setattr("dualq.engine.DualPi2", CountingAqm)
        cfg = scenario("medium", ("scalable", "cubic"), duration_s=3.0)
        out = run_scenario(cfg, seed=1000)
        a = out.aqm
        assert out.samples[-1].t_ns == 3 * NS_PER_SEC
        assert a.offered == a.delivered + a.drops_total + out.samples[-1].qocc_pkts

    @pytest.mark.parametrize("flows", [("cubic",), ("scalable",), ("scalable", "cubic")])
    @pytest.mark.parametrize("mode", ["bursty", "smooth"])
    def test_packet_conservation(self, monkeypatch, flows, mode):
        monkeypatch.setattr("dualq.engine.DualPi2", CountingAqm)
        a = run_scenario(scenario(flows=flows, mode=mode), seed=7).aqm
        assert a.offered == a.delivered + a.drops_total + a.backlog_pkts

    def test_sample_deltas_sum_to_counters(self):
        out = run_scenario(scenario(flows=("scalable", "cubic")), seed=3)
        a = out.aqm
        marks = sum(s.ecn_marks for s in out.samples)
        drops = sum(s.drops for s in out.samples)
        assert marks == a.ecn_marks_l + a.ecn_marks_c
        assert drops == a.drops_total

    def test_delivered_never_exceeds_sent(self):
        out = run_scenario(scenario(flows=("scalable", "cubic")), seed=3)
        for sender, st in zip(out.senders, out.receiver.flows):
            assert st.arrivals <= sender.next_seq


class TestDeterminism:
    def test_same_seed_identical(self):
        cfg = scenario(flows=("scalable", "cubic"))
        a = run_scenario(cfg, seed=11)
        b = run_scenario(cfg, seed=11)
        assert a.samples == b.samples
        assert (aqm_counts(a.aqm), a.aqm.backlog_pkts) == (
            aqm_counts(b.aqm), b.aqm.backlog_pkts)
        assert [s.arrivals for s in a.receiver.flows] == [
            s.arrivals for s in b.receiver.flows
        ]

    def test_different_seed_differs(self):
        cfg = scenario(flows=("cubic",), duration_s=10.0)
        a = run_scenario(cfg, seed=1)
        b = run_scenario(cfg, seed=2)
        assert a.samples != b.samples

    def test_deliveries_in_flow_order(self, monkeypatch):
        log = delivery_log(monkeypatch, scenario(flows=("scalable", "cubic")), 5)
        last = {}
        for t, flow, seq in log:
            if flow in last:
                assert seq > last[flow]
            last[flow] = seq

    def test_no_deliveries_past_horizon(self, monkeypatch):
        log = delivery_log(monkeypatch, scenario(duration_s=2.0), 5)
        assert all(t <= 2 * NS_PER_SEC for t, *_ in log)


class TestTopology:
    def test_base_rtt_floor(self):
        # low preset: 20 ms RTT; smoothed RTT estimate can never be below it
        out = run_scenario(scenario(duration_s=5.0), seed=1)
        for sender in out.senders:
            assert sender.srtt_ns >= 20_000_000

    def test_flow_start_time_respected(self, monkeypatch):
        cfg = scenario(
            flows=("cubic", "cubic"),
            duration_s=5.0,
            sets=["flow.cubic1.start_s=2.5"],
        )
        first = {}
        for t, flow, seq in delivery_log(monkeypatch, cfg, 1):
            first.setdefault(flow, t)
        assert first[0] < 1 * NS_PER_SEC
        # second flow cannot deliver before start + one-way delay
        assert first[1] >= int(2.5 * NS_PER_SEC)

    def test_link_rate_caps_throughput(self):
        cfg = scenario(duration_s=10.0)
        out = run_scenario(cfg, seed=1)
        st = out.receiver.flows[0]
        mbps = st.arrivals * cfg.link.mtu * 8 / 10.0 / 1e6
        assert mbps <= 12.0 + 1e-9

    def test_smooth_mode_also_capped(self):
        cfg = scenario(duration_s=10.0, mode="smooth")
        out = run_scenario(cfg, seed=1)
        st = out.receiver.flows[0]
        assert st.arrivals * cfg.link.mtu * 8 / 10.0 / 1e6 <= 12.0 + 1e-9


class TestLossPath:
    def test_overflow_losses_detected_and_recovered(self):
        # tiny buffer forces overflow drops; the sender must keep going
        cfg = scenario(
            flows=("cubic",),
            duration_s=10.0,
            sets=["aqm.limit_bytes=20000"],
        )
        out = run_scenario(cfg, seed=2)
        assert out.aqm.drops_overflow > 0
        st = out.receiver.flows[0]
        # still delivers a sizable share of the link
        assert st.arrivals * cfg.link.mtu * 8 / 10.0 / 1e6 > 6.0


    @pytest.mark.xfail(strict=True, reason="no retransmission timer: a flow "
                       "that loses its whole window stalls (ROADMAP item 6)")
    @pytest.mark.parametrize("seed", [0, 1])
    def test_no_flow_stalls_after_losing_its_window(self, seed):
        # 8 cubic flows share a 6-packet buffer without classic ECN; flows
        # 1-7 lose their whole initial window, get no ack and no loss
        # signal, and keep all of it outstanding to the end, while flow 0
        # sends thousands of packets
        cfg = scenario(flows=("cubic",) * 8, duration_s=5.0,
                       sets=("aqm.ecn_classic=false", "aqm.limit_bytes=9000"))
        out = run_scenario(cfg, seed)
        assert all(s.next_seq > INIT_CWND for s in out.senders)


# Run directories pinned by sha256. The digests were taken from the heap
# engine this suite was written against, so any change to event order,
# sampling or sender state shows up here as a changed file.
# name: (preset, flows, duration_s, mode, overrides, seed, digests of
# meta.json, series.csv, flows.csv)
_SC = ("scalable", "cubic")
GOLDEN = {
    "low-bursty": (
        "low", _SC, 10.0, "bursty", (), 1,
        "2ac8ed081be14dd86987913c954a10dafa9529bb01fd9ded67032ae4ee0ecf2d",
        "b0afe2b9204bf0593c4ec3ccc0c716f174d31e6c50f3fab0c5c037d17b78d9f5",
        "37d4b657e048cef967e5baec5e055ab1333c3c627441fb00c53921c5a9ddf5e5",
    ),
    "low-smooth": (
        "low", _SC, 10.0, "smooth", (), 2,
        "db6e651b81ac7d0b16f8594040758effc21af699429dcf28e8b2f33995949e60",
        "9a62a5ce1dffced3e1dbd58d6f0f823f412aef8e00f47cd09f75eb2d985083b5",
        "52e987046af43f90e730e8a439eb0022e212a3356acd6485cf892b3f17875dff",
    ),
    "medium-bursty": (
        "medium", _SC, 10.0, "bursty", (), 3,
        "d45ca1e2e92af63335e39362ac8bcdce86be29ffd7d9de6ef3a1263ba8f37486",
        "e65ed3a224851399faa7279ae218a40baab8ed2ce18cfce5351feab774153893",
        "9dfb8dff70e918ba683a2f858a99bb55a9c6b7b34a5f24cfb3dbc77ef7c94f94",
    ),
    "medium-smooth": (
        "medium", _SC, 10.0, "smooth", (), 4,
        "5eb3a01c2675df2d583170a461409de9d34599d0a45b5ef2fbc9397002d15334",
        "45078ffaa6a0c2fa4515e5dd1bb58e553beebd9876490c6fd701f29b7c69ebdc",
        "3a99ed85654fc26335adb39aae57428b1c56b786e49fa3980d80b7756cc72e4a",
    ),
    "high-bursty": (
        "high", _SC, 10.0, "bursty", (), 5,
        "fa8314845021c2b4f75dbb164356cafb8550f3d175d08378196dbca24efeed3e",
        "3535c1b8dd423cd02c8cf869cb6b5e8375b67312e35c22c8b190cf9a3a1a3499",
        "aa23521ea465791932871ac641cdb587f46e96692830319fd99f7fbb5b375f5e",
    ),
    "high-smooth": (
        "high", _SC, 10.0, "smooth", (), 6,
        "5ad1f82ea010ea454be3fa6799c2769f50401baaf6e1b1464e683d3ab7f2b0d6",
        "ac637bf8b027c0d24a5062123ce0346d9a85c6be2c26d507ebed71c6a16e3b92",
        "2d518cc4c108a874771f345dfe67c65a399cc661cbcbe0513dc5cd2d6188accd",
    ),
    # PI2 drops (no classic ECN) and a flow that starts late and stops early
    "medium-smooth-cubic+reno-noecn-start-stop": (
        "medium", ("cubic", "reno"), 8.0, "smooth",
        ("aqm.ecn_classic=false", "flow.reno1.start_s=2.5", "flow.reno1.stop_s=7"),
        7,
        "d5abe70c403c254afaa4e5a088cc925897166b7b2bc63b60ddd0d84f4af7025f",
        "bf88881ca8e422e48f424ae548678acdd81095297f0279bbcbd595ee8a88f299",
        "ba206a4d41b28f5e3b7a17fe5d1a8a57729cb2fe6faf46f27585015c340177fa",
    ),
    # tail drops on a full buffer; 1 s is not a multiple of tupdate (16 ms),
    # so the run ends with an extra sample at the horizon
    "low-bursty-overflow-1s": (
        "low", _SC, 1.0, "bursty", ("aqm.limit_bytes=20000",), 8,
        "76400c2107c7d4227803957d3b1e2034bb852cf40f7f933a0db209d55e73bb83",
        "cf86ab15e053750d6edec5cfe6b78cb5933ccaf9df94ef2a1ae6ca6bce7d795e",
        "921e3787edac2bbd09fe05df6ef26d4a0485e9444a99c4a6cef89086089b127c",
    ),
    # a flow wakes at 0.5 s while the other flow's arrivals, sent by acks
    # up to rev + fwd = 20 ms ahead, are already queued
    "low-bursty-late-start": (
        "low", _SC, 10.0, "bursty", ("flow.cubic1.start_s=0.5",), 9,
        "0fc2e74fa6fc75b8193c5680f42c37207af3d45aff597442af6d761a01c5a3f5",
        "b57ff24073aa88f9cba368cb3cccd6bf228d0ef7ee7b9c9dbda49d83637d3734",
        "c4393024580d04aef719b663bd5798eb455872dd59fa107a5e96d19194160d87",
    ),
}


def golden_scenario(name):
    """(ScenarioConfig, seed) of one GOLDEN case."""
    preset, flows, duration_s, mode, sets, seed = GOLDEN[name][:6]
    return scenario(preset, flows, duration_s, mode=mode, sets=sets), seed


def golden_digests(name):
    meta, series, flows = GOLDEN[name][6:]
    return {"meta.json": meta, "series.csv": series, "flows.csv": flows}


def run_dir_digests(record, path):
    """Write one run record as a run directory; return {file name: sha256}."""
    names = write_run_dir(record, str(path))
    digests = {}
    for name in names:
        with open(os.path.join(path, name), "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


class TestGolden:
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_run_dir_digests(self, name, tmp_path):
        cfg, seed = golden_scenario(name)
        record = run_one(cfg, seed, "run-00000")
        assert run_dir_digests(record, tmp_path) == golden_digests(name)
        # the loader derives five counters and bounds the deliveries
        assert load_run_dir(str(tmp_path)).counters == record.counters


# The oracle grid: each case runs through the production engine and
# through tests/_oracles.run_scenario_oracle, the five-source merge loop
# with an ack FIFO, and every piece of end state must agree.
# id: (preset, flows, mode, overrides)
_STAGGER = ("flow.scalable0.start_s=0.3", "flow.scalable0.stop_s=2.6",
            "flow.cubic1.start_s=1.05", "flow.cubic1.stop_s=3.5")
ORACLE_GRID = {
    f"{preset}-{mode}-{'+'.join(flows)}": (preset, flows, mode, ())
    for preset in ("low", "medium")
    for mode in ("bursty", "smooth")
    for flows in (_SC, ("cubic", "reno"), ("scalable",))
}
for _mode in ("bursty", "smooth"):
    ORACLE_GRID.update({
        f"low-{_mode}-fwd0": ("low", _SC, _mode,
                              ("delay.fwd_ms=0", "delay.rev_ms=10")),
        f"low-{_mode}-rev0": ("low", _SC, _mode,
                              ("delay.fwd_ms=10", "delay.rev_ms=0")),
        f"low-{_mode}-fwd0-rev0": ("low", _SC, _mode,
                                   ("delay.fwd_ms=0", "delay.rev_ms=0")),
        f"low-{_mode}-subms": ("low", _SC, _mode,
                               ("delay.fwd_ms=0.3", "delay.rev_ms=0.45")),
        f"medium-{_mode}-staggered": ("medium", _SC, _mode, _STAGGER),
        # a horizon off the update and millisecond grids, with sends acked
        # before it that arrive after it
        f"low-{_mode}-horizon-subms": ("low", _SC, _mode, (
            "run.duration_s=3.9866", "delay.fwd_ms=10.3", "delay.rev_ms=10.45")),
    })
ORACLE_GRID.update({
    "low-bursty-staggered-rev0": ("low", _SC, "bursty",
                                  _STAGGER + ("delay.fwd_ms=10", "delay.rev_ms=0")),
    "low-bursty-noecn-9000": ("low", ("cubic", "reno", "cubic"), "bursty",
                              ("aqm.ecn_classic=false", "aqm.limit_bytes=9000")),
    "medium-smooth-noecn-9000": ("medium", _SC, "smooth",
                                 ("aqm.ecn_classic=false", "aqm.limit_bytes=9000")),
    # an idle smooth link that an arrival starts at its own instant: the
    # packets the other flow's wake-up sent for that instant, L-queue ones
    # among them, must follow the service
    "low-smooth-idle-subms": ("low", ("cubic", "scalable"), "smooth",
                              ("delay.fwd_ms=0.25", "delay.rev_ms=0.75")),
    # a flow starts at an instant that holds arrivals sent a round trip ago
    "low-bursty-start-on-arrivals": ("low", _SC, "bursty",
                                     ("flow.cubic1.start_s=1.01",)),
    "low-trace": ("low", _SC, "bursty", ("link.trace_file={trace}",)),
    "low-trace-subms": ("low", ("scalable", "reno"), "bursty",
                        ("link.trace_file={trace}", "delay.fwd_ms=0.5",
                         "delay.rev_ms=0")),
})


def sender_slots(sender):
    """Every __slots__ field of a sender, base class included."""
    names = [n for cls in type(sender).__mro__ for n in getattr(cls, "__slots__", ())]
    return {n: getattr(sender, n) for n in names}


class TestOracleGrid:
    @pytest.mark.parametrize("name", sorted(ORACLE_GRID))
    def test_engine_matches_oracle(self, name, tmp_path):
        preset, flows, mode, sets = ORACLE_GRID[name]
        trace = tmp_path / "link.trace"
        # 1.5 opportunities a ms on average, in uneven slugs, 97 ms period
        trace.write_text("".join(f"{ms}\n" * (ms * 7 % 4) for ms in range(1, 98)))
        sets = [s.format(trace=trace) for s in sets]
        cfg = scenario(preset, flows, duration_s=4.0, mode=mode, sets=sets)
        got = run_scenario(cfg, seed=21)
        want = run_scenario_oracle(cfg, seed=21)
        assert got.samples == want.samples
        a, b = got.aqm, want.aqm
        assert aqm_counts(a) == aqm_counts(b)
        # the record derives the counters the oracle counts itself
        record = summarize("run-00000", 21, Rng.algorithm, cfg.fingerprint(),
                           cfg.to_dict(), got)
        assert record.counters == {"enqueued": b.enq_total, "dequeued": b.deq_total,
                                   "drops": b.drops_total, **aqm_counts(b)}
        assert (a.p_prime, a.credit, cfg.link.mtu * a.backlog_pkts) == (
            b.p_prime, b.credit, b.backlog_bytes)
        assert got.receiver.flows == want.receiver.flows
        assert [sender_slots(x) for x in got.senders] == [
            sender_slots(x) for x in want.senders]
        # the case exercises the ack path (in the noecn-9000 cases some
        # flows stall with nothing acked: ROADMAP item 6)
        assert any(x.acked_total for x in got.senders)
