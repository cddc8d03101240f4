"""Sender window laws and the receiver's loss accounting."""

import pytest

from dualq.core import AT, ECN, FLOW, NS_PER_MS, SEQ, Ecn
from dualq.traffic import (
    CUBIC_BETA,
    CUBIC_C,
    FlowConfig,
    Receiver,
    ScalableSender,
    make_sender,
)


def scalable(name="s", start=0):
    return make_sender(FlowConfig(name, "scalable", start_ns=start), 0)


def classic(variant, name="c"):
    return make_sender(FlowConfig(name, variant), 0)


def ack_all(sender, now, ce=False):
    """Ack every outstanding packet in order at one instant."""
    for seq in sorted(sender.outstanding):
        sender.on_ack(seq, ce, now)


class TestPump:
    def test_window_fills_once(self):
        s = scalable()
        pkts = s.pump(0, 0)
        assert len(pkts) == 10  # initial window
        assert s.pump(0, 0) == []

    def test_sequences_and_ids(self):
        s = make_sender(FlowConfig("s", "scalable"), 3)
        pkts = s.pump(0, 5)
        assert [p[SEQ] for p in pkts] == list(range(10))
        assert all(p[FLOW] == s.index == 3 for p in pkts)
        assert all(p[ECN] is Ecn.ECT1 for p in pkts)
        assert all(p[AT] == 5 for p in pkts)

    def test_respects_start_and_stop(self):
        s = make_sender(
            FlowConfig("s", "scalable", start_ns=100, stop_ns=200), 0
        )
        assert s.pump(0, 0) == []
        assert len(s.pump(100, 100)) == 10
        ack_all(s, 150)
        assert s.pump(250, 250) == []

    def test_classic_sends_ect0(self):
        pkts = classic("reno").pump(0, 0)
        assert all(p[ECN] is Ecn.ECT0 for p in pkts)


class TestScalableLaw:
    def steady(self):
        s = scalable()
        s.slow_start = False
        return s

    def test_slow_start_doubles_per_rtt(self):
        s = scalable()
        s.pump(0, 0)
        ack_all(s, 20 * NS_PER_MS)
        assert s.cwnd == pytest.approx(20.0)
        s.pump(20 * NS_PER_MS, 20 * NS_PER_MS)
        ack_all(s, 40 * NS_PER_MS)
        assert s.cwnd == pytest.approx(40.0)

    def test_slow_start_exits_on_first_mark(self):
        s = scalable()
        s.pump(0, 0)
        s.on_ack(0, True, 20 * NS_PER_MS)
        assert s.slow_start is False

    def test_unmarked_round_adds_one(self):
        s = self.steady()
        s.cwnd = 30.0
        s.pump(0, 0)
        ack_all(s, 20 * NS_PER_MS, ce=False)
        assert s.cwnd == pytest.approx(31.0)

    def test_fully_marked_round_with_saturated_ewma_halves(self):
        s = self.steady()
        s.cwnd = 40.0
        s.mark_ewma = 1.0
        s.pump(0, 0)
        ack_all(s, 20 * NS_PER_MS, ce=True)
        # ewma stays 1 (fraction 1), cwnd scales by 1 - 1/2
        assert s.mark_ewma == pytest.approx(1.0)
        assert s.cwnd == pytest.approx(20.0)

    def test_ewma_gain_is_one_sixteenth(self):
        s = self.steady()
        s.cwnd = 16.0
        s.pump(0, 0)
        # mark exactly half the round
        seqs = sorted(s.outstanding)
        for i, seq in enumerate(seqs):
            s.on_ack(seq, i % 2 == 0, 20 * NS_PER_MS)
        assert s.mark_ewma == pytest.approx(0.5 / 16.0)
        assert s.cwnd == pytest.approx(16.0 * (1 - 0.5 / 32.0))

    def test_response_at_most_once_per_round(self):
        s = self.steady()
        s.cwnd = 10.0
        s.mark_ewma = 1.0
        s.pump(0, 0)
        seqs = sorted(s.outstanding)
        for seq in seqs[:-1]:
            s.on_ack(seq, True, 20 * NS_PER_MS)
        # round not closed yet: no decrease applied
        assert s.cwnd == pytest.approx(10.0)
        s.on_ack(seqs[-1], True, 20 * NS_PER_MS)
        assert s.cwnd == pytest.approx(5.0)

    def test_loss_counts_as_signal(self):
        s = self.steady()
        s.cwnd = 8.0
        s.mark_ewma = 1.0
        s.pump(0, 0)
        seqs = sorted(s.outstanding)
        s.on_loss(seqs[0], NS_PER_MS)
        for seq in seqs[1:]:
            s.on_ack(seq, False, 20 * NS_PER_MS)
        # the lost packet polluted the round: decrease fires
        assert s.cwnd < 8.0

    def test_cwnd_floor_one_packet(self):
        s = self.steady()
        s.cwnd = 1.0
        s.mark_ewma = 1.0
        s.pump(0, 0)
        ack_all(s, NS_PER_MS, ce=True)
        assert s.cwnd >= 1.0

    def test_unknown_ack_ignored(self):
        s = scalable()
        s.pump(0, 0)
        before = s.cwnd
        s.on_ack(999, True, NS_PER_MS)
        assert s.cwnd == before


class TestRenoLaw:
    def test_slow_start_then_congestion_avoidance(self):
        s = classic("reno")
        s.pump(0, 0)
        ack_all(s, 20 * NS_PER_MS)
        assert s.cwnd == pytest.approx(20.0)

    def test_halving_on_mark(self):
        s = classic("reno")
        s.slow_start = False
        s.cwnd = 30.0
        s.pump(0, 0)
        seqs = sorted(s.outstanding)
        s.on_ack(seqs[0], True, NS_PER_MS)
        assert s.cwnd == pytest.approx(15.0)

    def test_one_decrease_per_window(self):
        s = classic("reno")
        s.slow_start = False
        s.cwnd = 32.0
        s.pump(0, 0)
        seqs = sorted(s.outstanding)
        for seq in seqs:
            s.on_ack(seq, True, NS_PER_MS)
        # every ack carried CE but only the first may decrease
        assert s.cwnd == pytest.approx(16.0)

    def test_additive_increase_rate(self):
        s = classic("reno")
        s.slow_start = False
        s.cwnd = 10.0
        s.pump(0, 0)
        ack_all(s, 20 * NS_PER_MS)
        # ten acks at 1/cwnd each add roughly one packet
        assert 10.9 <= s.cwnd <= 11.1

    def test_loss_halves_too(self):
        s = classic("reno")
        s.slow_start = False
        s.cwnd = 20.0
        s.pump(0, 0)
        s.on_loss(sorted(s.outstanding)[0], NS_PER_MS)
        assert s.cwnd == pytest.approx(10.0)


class TestCubicLaw:
    def test_decrease_factor(self):
        s = classic("cubic")
        s.slow_start = False
        s.cwnd = 100.0
        s.pump(0, 0)
        s.on_ack(sorted(s.outstanding)[0], True, NS_PER_MS)
        assert s.cwnd == pytest.approx(70.0)
        assert s.w_max == pytest.approx(100.0)

    def test_k_formula(self):
        s = classic("cubic")
        s.slow_start = False
        s.cwnd = 100.0
        s.pump(0, 0)
        s.on_ack(sorted(s.outstanding)[0], True, NS_PER_MS)
        expected_k = (100.0 * (1 - CUBIC_BETA) / CUBIC_C) ** (1.0 / 3.0)
        assert s.k_s == pytest.approx(expected_k)

    def test_growth_follows_cubic_curve(self):
        s = classic("cubic")
        s.slow_start = False
        s.cwnd = 100.0
        s.pump(0, 0)
        seqs = sorted(s.outstanding)
        t0 = NS_PER_MS
        s.on_ack(seqs[0], True, t0)
        k = s.k_s
        # re-fill and ack later; cwnd must match C*(t-K)^3 + w_max
        for t_s in (1.0, 2.0, k, k + 1.0, k + 3.0):
            now = t0 + round(t_s * 1e9)
            s.pump(now, now)
            nxt = sorted(s.outstanding)[0]
            s.on_ack(nxt, False, now)
            expected = CUBIC_C * (t_s - k) ** 3 + 100.0
            assert s.cwnd == pytest.approx(max(expected, 70.0), rel=1e-6)

    def test_plateau_at_w_max(self):
        s = classic("cubic")
        s.slow_start = False
        s.cwnd = 50.0
        s.pump(0, 0)
        s.on_ack(sorted(s.outstanding)[0], True, 0)
        # at t = K the curve value is exactly w_max
        now = round(s.k_s * 1e9)
        s.pump(now, now)
        s.on_ack(sorted(s.outstanding)[0], False, now)
        assert s.cwnd == pytest.approx(50.0, rel=1e-9)

    def test_one_decrease_per_window(self):
        s = classic("cubic")
        s.slow_start = False
        s.cwnd = 64.0
        s.pump(0, 0)
        for seq in sorted(s.outstanding):
            s.on_ack(seq, True, NS_PER_MS)
        assert s.cwnd == pytest.approx(64.0 * CUBIC_BETA)


class TestReceiver:
    def pkt(self, seq, flow=0, ecn=Ecn.ECT1):
        return [flow, seq, ecn, -1]

    def test_counts_arrivals_and_ce(self):
        r = Receiver(1)
        r.on_deliver(self.pkt(0))
        ce, lost = r.on_deliver(self.pkt(1, ecn=Ecn.CE))
        assert ce is True
        assert lost == ()
        st = r.flows[0]
        assert st.arrivals == 2

    def test_gap_declared_after_three_later_arrivals(self):
        r = Receiver(1)
        r.on_deliver(self.pkt(0))
        # seq 1 missing
        _, lost = r.on_deliver(self.pkt(2))
        assert lost == ()
        _, lost = r.on_deliver(self.pkt(3))
        assert lost == ()
        _, lost = r.on_deliver(self.pkt(4))
        assert lost == (1,)

    def test_burst_gap_reported_together(self):
        r = Receiver(1)
        r.on_deliver(self.pkt(0))
        r.on_deliver(self.pkt(5))  # 1-4 missing
        r.on_deliver(self.pkt(6))
        _, lost = r.on_deliver(self.pkt(7))
        assert lost == (1, 2, 3, 4)

    def test_flows_independent(self):
        r = Receiver(2)
        r.on_deliver(self.pkt(0, flow=0))
        r.on_deliver(self.pkt(2, flow=0))
        for seq in (0, 1, 2, 3):
            _, lost = r.on_deliver(self.pkt(seq, flow=1))
            assert lost == ()
        assert r.flows[0].arrivals == 2
        assert r.flows[1].arrivals == 4

    def test_no_false_loss_without_gap(self):
        r = Receiver(1)
        for seq in range(100):
            _, lost = r.on_deliver(self.pkt(seq))
            assert lost == ()


class TestFlowConfig:
    def test_rejects_bad_kind(self):
        with pytest.raises(ValueError):
            FlowConfig("x", "vegas").validate()

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            FlowConfig("x", "reno", start_ns=10, stop_ns=5).validate()

    def test_rejects_awkward_names(self):
        with pytest.raises(ValueError):
            FlowConfig("a,b", "reno").validate()
