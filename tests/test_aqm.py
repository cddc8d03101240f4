"""Dual-queue AQM: classifier, controller, marking, scheduler."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from dualq.aqm import AqmConfig, DualPi2
from dualq.core import AT, ECN, NS_PER_MS, SEQ, Ecn, Rng, ms_to_ns


def mkpkt(i=0, ecn=Ecn.ECT0):
    return [0, i, ecn, -1]


def mkaqm(rng_seed=1, mtu=1500, **kw):
    return DualPi2(AqmConfig(**kw), Rng(rng_seed), mtu)


class TestConfig:
    def test_defaults(self):
        cfg = AqmConfig()
        assert cfg.target_ns == 15 * NS_PER_MS
        assert cfg.tupdate_ns == 16 * NS_PER_MS
        assert cfg.alpha == 0.16
        assert cfg.beta == 3.2
        assert cfg.step_thresh_ns == 1 * NS_PER_MS
        assert cfg.coupling_k == 2.0
        assert cfg.classic_protection == 0.10
        assert cfg.ecn_classic_enabled is True

    def test_default_limit_matches_250ms_at_12mbps(self):
        # 12 Mbit/s * 0.25 s / 8 = 375000 bytes
        assert AqmConfig().limit_bytes == 375_000

    @pytest.mark.parametrize(
        "field,value",
        [
            ("target_ns", 0),
            ("tupdate_ns", -1),
            ("step_thresh_ns", 0),
            ("alpha", 0.0),
            ("beta", -2.0),
            ("coupling_k", 0.5),
            ("limit_bytes", 0),
            ("classic_protection", 1.0),
            ("classic_protection", -0.1),
            ("alpha", float("nan")),
            ("alpha", float("inf")),
            ("beta", float("nan")),
            ("beta", float("inf")),
            ("coupling_k", float("nan")),
            ("coupling_k", float("inf")),
        ],
    )
    def test_validation_rejects(self, field, value):
        with pytest.raises(ValueError, match=field):
            AqmConfig(**{field: value})


class TestClassifier:
    def test_codepoint_routing(self):
        # ECT(1) and CE go to L, Not-ECT and ECT(0) to C
        for ecn, to_l in [(Ecn.ECT1, True), (Ecn.CE, True),
                          (Ecn.NOT_ECT, False), (Ecn.ECT0, False)]:
            a = mkaqm()
            assert a.enqueue(mkpkt(0, ecn), 0) is None
            assert (len(a._l), len(a._c)) == ((1, 0) if to_l else (0, 1)), ecn
            assert 1500 * a.backlog_pkts == 1500
            assert a.drops_overflow == 0

    def test_enqueue_routes_by_codepoint(self):
        a = mkaqm()
        a.enqueue(mkpkt(0, Ecn.ECT1), 0)
        a.enqueue(mkpkt(1, Ecn.CE), 0)
        a.enqueue(mkpkt(2, Ecn.NOT_ECT), 0)
        a.enqueue(mkpkt(3, Ecn.ECT0), 0)
        assert [p[SEQ] for p in a._l] == [0, 1]
        assert [p[SEQ] for p in a._c] == [2, 3]
        assert a.backlog_pkts == 4
        assert 1500 * a.backlog_pkts == 6000
        assert a.drops_overflow == 0


class TestOverflow:
    def test_drop_when_limit_exceeded(self):
        a = mkaqm(limit_bytes=3000)
        a.enqueue(mkpkt(0), 0)
        a.enqueue(mkpkt(1), 0)
        assert (1500 * a.backlog_pkts, a.backlog_pkts, a.drops_overflow) == (
            3000, 2, 0)
        # third 1500-byte packet would make 4500 > 3000
        a.enqueue(mkpkt(2), 0)
        assert a.drops_overflow == 1
        assert a.drops_total == 1
        assert a.backlog_pkts + a.drops_total == 3  # the packets offered
        assert a.backlog_pkts == 2
        assert 1500 * a.backlog_pkts == 3000

    def test_limit_shared_between_queues(self):
        a = mkaqm(limit_bytes=3000)
        a.enqueue(mkpkt(0, Ecn.ECT0), 0)
        a.enqueue(mkpkt(1, Ecn.ECT1), 0)
        a.enqueue(mkpkt(2, Ecn.ECT1), 0)
        a.enqueue(mkpkt(3, Ecn.ECT0), 0)
        # both late packets are dropped, whichever queue they were headed for
        assert (len(a._l), len(a._c)) == (1, 1)
        assert a.backlog_pkts == 2
        assert a.drops_overflow == 2

    def test_exactly_at_limit_accepted(self):
        a = mkaqm(limit_bytes=3000)
        a.enqueue(mkpkt(0), 0)
        a.enqueue(mkpkt(1), 0)
        assert 1500 * a.backlog_pkts == 3000
        assert a.backlog_pkts == 2
        assert a.drops_overflow == 0


class TestController:
    def test_worked_update(self):
        # alpha=0.16, beta=3.2, tupdate=16ms, target=15ms
        # p'=0.01, qdelay=25ms, prev=20ms -> 0.0260256
        a = mkaqm()
        a.p_prime = 0.01
        a.prev_qdelay_ns = ms_to_ns(20)
        a.enqueue(mkpkt(0, Ecn.ECT0), 0)
        p = a.pi2_update(ms_to_ns(25))
        assert p == pytest.approx(0.0260256, rel=1e-12)

    def test_empty_queue_measures_zero_delay(self):
        a = mkaqm()
        a.p_prime = 0.5
        a.prev_qdelay_ns = 0
        p = a.pi2_update(a.cfg.tupdate_ns)
        # qdelay 0, prev 0: p falls by alpha*tupdate*target
        expected = 0.5 + 0.16 * 0.016 * (0.0 - 0.015)
        assert p == pytest.approx(expected, rel=1e-12)

    def test_fixed_point_is_exact(self):
        # queue delay pinned at the target: p' must not move at all
        a = mkaqm()
        a.p_prime = 0.25
        a.prev_qdelay_ns = a.cfg.target_ns
        pkt = mkpkt(0, Ecn.ECT0)
        now = a.cfg.tupdate_ns
        for _ in range(10_000):
            a._c.clear()
            pkt[AT] = now - a.cfg.target_ns
            a._c.append(pkt)
            assert a.pi2_update(now) == 0.25
            now += a.cfg.tupdate_ns
        assert a.p_prime == 0.25

    def test_clamped_low(self):
        a = mkaqm()
        a.p_prime = 0.0001
        a.prev_qdelay_ns = ms_to_ns(40)
        # empty queue: huge negative beta term
        assert a.pi2_update(a.cfg.tupdate_ns) == 0.0

    def test_clamped_high(self):
        a = mkaqm(beta=1e9)
        a.p_prime = 0.9
        a.prev_qdelay_ns = 0
        a.enqueue(mkpkt(0, Ecn.ECT0), 0)
        assert a.pi2_update(ms_to_ns(30)) == 1.0

    def test_rejects_early_update(self):
        a = mkaqm()
        with pytest.raises(ValueError):
            a.pi2_update(a.cfg.tupdate_ns - 1)

    def test_schedule_advances(self):
        a = mkaqm()
        t = a.cfg.tupdate_ns
        a.pi2_update(t)
        assert a.next_update_ns == 2 * t
        a.pi2_update(2 * t)
        assert a.next_update_ns == 3 * t

    @given(
        p0=st.floats(0, 1),
        qd_ms=st.floats(0, 200),
        prev_ms=st.floats(0, 200),
    )
    @settings(max_examples=200)
    def test_output_always_in_unit_interval(self, p0, qd_ms, prev_ms):
        a = mkaqm()
        a.p_prime = p0
        a.prev_qdelay_ns = ms_to_ns(prev_ms)
        qd_ns = ms_to_ns(qd_ms)
        if qd_ns > 0:
            pkt = mkpkt(0, Ecn.ECT0)
            pkt[AT] = 0
            a._c.append(pkt)
            p = a.pi2_update(max(qd_ns, a.cfg.tupdate_ns))
        else:
            p = a.pi2_update(a.cfg.tupdate_ns)
        assert 0.0 <= p <= 1.0

    @given(p=st.floats(0, 1), k=st.floats(1, 10))
    def test_probability_ordering(self, p, k):
        # squared classic probability <= p' <= coupled probability
        p_c = p * p
        p_cl = min(k * p, 1.0)
        assert p_c <= p + 1e-15
        assert p <= p_cl + 1e-15


class TestClassicAction:
    def test_p_zero_always_passes(self):
        a = mkaqm()
        for i in range(50):
            a.enqueue(mkpkt(i, Ecn.ECT0), 0)
        for _ in range(50):
            assert a.dequeue(0) is not None
        assert a.drops_total == 0
        assert a.ecn_marks_c == 0

    def test_p_one_marks_ect0(self):
        a = mkaqm()
        a.p_prime = 1.0
        a.enqueue(mkpkt(0, Ecn.ECT0), 0)
        pkt = a.dequeue(0)
        assert pkt[ECN] is Ecn.CE
        assert a.ecn_marks_c == 1
        assert a.drops_total == 0

    def test_p_one_drops_not_ect(self):
        a = mkaqm()
        a.p_prime = 1.0
        for i in range(5):
            a.enqueue(mkpkt(i, Ecn.NOT_ECT), 0)
        assert a.dequeue(0) is None
        assert a.drops_aqm == 5
        assert a.backlog_pkts == 0

    def test_ecn_disabled_drops_ect0(self):
        a = mkaqm(ecn_classic_enabled=False)
        a.p_prime = 1.0
        for i in range(5):
            a.enqueue(mkpkt(i, Ecn.ECT0), 0)
        assert a.dequeue(0) is None
        assert a.drops_aqm == 5

    def test_drop_retry_serves_survivor(self):
        # deterministic seed: with p = 0.25 some heads drop, but the
        # dequeue must still return the first surviving packet
        a = mkaqm(rng_seed=11)
        a.p_prime = 0.5  # p_c = 0.25
        for i in range(200):
            a.enqueue(mkpkt(i, Ecn.NOT_ECT), 0)
        got = a.dequeue(0)
        assert got is not None
        # everything ahead of the survivor was dropped
        assert a.drops_aqm == got[SEQ]

    def test_squared_law_frequency(self):
        # p' = 0.3 -> drop probability must track 0.09, not 0.3
        a = mkaqm(rng_seed=5, limit_bytes=10**12)
        a.p_prime = 0.3
        n = 50_000
        for i in range(n):
            a.enqueue(mkpkt(i, Ecn.NOT_ECT), 0)
        served = 0
        while a.dequeue(0) is not None:
            served += 1
        frac = a.drops_aqm / n
        assert frac == pytest.approx(0.09, abs=0.01)
        assert served + a.drops_aqm == n


class TestL4sAction:
    def test_step_marks_on_sojourn_strictly_over_threshold(self):
        a = mkaqm()
        a.enqueue(mkpkt(0, Ecn.ECT1), 0)
        # exactly at threshold: no step mark, coupling p is 0
        pkt = a.dequeue(a.cfg.step_thresh_ns)
        assert pkt[ECN] is Ecn.ECT1
        a.enqueue(mkpkt(1, Ecn.ECT1), 0)
        pkt = a.dequeue(a.cfg.step_thresh_ns + 1)
        assert pkt[ECN] is Ecn.CE
        assert a.ecn_marks_l == 1

    def test_l_packets_never_dropped_by_marking(self):
        a = mkaqm(rng_seed=2, limit_bytes=10**9)
        a.p_prime = 1.0
        n = 1000
        for i in range(n):
            a.enqueue(mkpkt(i, Ecn.ECT1), 0)
        served = 0
        while a.dequeue(10 * NS_PER_MS) is not None:
            served += 1
        assert served == n
        assert a.drops_total == 0
        assert a.ecn_marks_l == n

    def test_coupled_marking_frequency(self):
        # p' = 0.2, k = 2 -> mark probability 0.4 for fresh packets
        a = mkaqm(rng_seed=9, limit_bytes=10**12)
        a.p_prime = 0.2
        n = 50_000
        for i in range(n):
            a.enqueue(mkpkt(i, Ecn.ECT1), 0)
        while a.dequeue(0) is not None:
            pass
        assert a.ecn_marks_l / n == pytest.approx(0.4, abs=0.01)

    def test_coupling_clamped_at_one(self):
        a = mkaqm()
        a.p_prime = 0.7  # k * p' = 1.4 -> clamp to 1
        n = 100
        for i in range(n):
            a.enqueue(mkpkt(i, Ecn.ECT1), 0)
        while a.dequeue(0) is not None:
            pass
        assert a.ecn_marks_l == n

    def test_ce_arrival_stays_ce_without_counting(self):
        a = mkaqm()
        a.p_prime = 1.0
        a.enqueue(mkpkt(0, Ecn.CE), 0)
        pkt = a.dequeue(0)
        assert pkt[ECN] is Ecn.CE
        assert a.ecn_marks_l == 0

    def test_coupling_draw_skipped_when_step_marks(self):
        # stream alignment: a step-marked packet must not consume a draw
        a = mkaqm(rng_seed=4)
        a.enqueue(mkpkt(0, Ecn.ECT1), 0)
        a.dequeue(5 * NS_PER_MS)  # step mark, no draw
        ref = Rng(4)
        assert a.rng.random() == ref.random()


class TestDraws:
    """The AQM's use of its random stream: one draw per C-head trial and
    per L packet the step does not mark, compared with ``random() < p``."""

    @pytest.mark.parametrize("p_prime", [0.0, 0.5, 1.0])
    def test_one_draw_per_c_head_trial(self, p_prime):
        a = mkaqm(rng_seed=7, limit_bytes=10**9)
        a.p_prime = p_prime
        for i in range(50):
            a.enqueue(mkpkt(i, Ecn.NOT_ECT), 0)
        pkt = a.dequeue(0)
        # every head dropped before the survivor took one trial, and so did
        # the survivor; with p' = 1 all 50 heads lose and none survives
        trials = 50 if pkt is None else a.drops_aqm + 1
        ref = Rng(7)
        for _ in range(trials):
            ref.random()
        assert a.rng.random() == ref.random()

    @pytest.mark.parametrize("p_prime", [0.0, 0.2, 1.0])
    def test_one_draw_per_non_step_l_trial(self, p_prime):
        a = mkaqm(rng_seed=8)
        a.p_prime = p_prime
        for i in range(5):
            a.enqueue(mkpkt(i, Ecn.ECT1), 0)
        for _ in range(5):
            a.dequeue(a.cfg.step_thresh_ns)  # sojourn at the threshold: no step
        ref = Rng(8)
        for _ in range(5):
            ref.random()
        assert a.rng.random() == ref.random()

    def test_no_draw_on_step_mark(self):
        a = mkaqm(rng_seed=4)
        for i in range(5):
            a.enqueue(mkpkt(i, Ecn.ECT1), 0)
        for _ in range(5):
            assert a.dequeue(a.cfg.step_thresh_ns + 1)[ECN] is Ecn.CE
        assert a.rng.random() == Rng(4).random()

    def test_edge_probabilities(self):
        # p = 0 never marks or drops, p = 1 always marks (ECT) or drops
        for p_prime, expect in ((0.0, 0), (1.0, 1000)):
            a = mkaqm(rng_seed=3, limit_bytes=10**9)
            a.p_prime = p_prime
            for i in range(1000):
                a.enqueue(mkpkt(i, Ecn.ECT0), 0)
                a.enqueue(mkpkt(i, Ecn.ECT1), 0)
                a.enqueue(mkpkt(i, Ecn.NOT_ECT), 0)
            while a.dequeue(0) is not None:
                pass
            assert (a.ecn_marks_c, a.ecn_marks_l, a.drops_aqm) == (expect,) * 3

    @given(seed=st.integers(0, 10**6), p_prime=st.floats(0.0, 1.0),
           ecn_classic=st.booleans(), mtu=st.sampled_from([64, 600, 1500]))
    @settings(max_examples=40, deadline=None)
    def test_matches_three_step_oracle(self, seed, p_prime, ecn_classic, mtu):
        import random as pyrandom

        from _oracles import DualPi2Oracle, aqm_counts

        cfg = AqmConfig(limit_bytes=40_000, ecn_classic_enabled=ecn_classic)
        a, b = DualPi2(cfg, Rng(seed), mtu), DualPi2Oracle(cfg, Rng(seed), mtu)
        a.p_prime = b.p_prime = p_prime
        traffic = pyrandom.Random(seed + 1)
        now = served = 0
        for i in range(600):
            ecn = traffic.choice(list(Ecn))
            a.enqueue([0, i, ecn, -1], now)
            b.enqueue([0, i, ecn, -1], now)
            for _ in range(traffic.randrange(3)):
                got, want = a.dequeue(now), b.dequeue(now)
                assert (got and (got[SEQ], got[ECN])) == (want and (want[SEQ], want[ECN]))
                served += got is not None
            now += traffic.randrange(2 * NS_PER_MS)
        assert aqm_counts(a) == aqm_counts(b)
        assert (b.enq_total, b.deq_total) == (600, served)
        assert (a.credit, mtu * a.backlog_pkts) == (b.credit, b.backlog_bytes)
        assert a.rng.random() == b.rng.random()


class TestPacketRule:
    """DualPi2 counts packets where the byte oracle keeps byte tallies:
    admitting while fewer than limit_bytes // mtu packets wait must be
    the byte limit, and the precomputed credit steps the per-packet
    products, for every mtu and every limit around a multiple of it."""

    @given(data=st.data(), seed=st.integers(0, 10**6),
           mtu=st.sampled_from([1, 576, 1500, 9000]),
           protection=st.floats(0.0, 1.0, exclude_max=True),
           ecn_classic=st.booleans(), p_prime=st.floats(0.0, 1.0))
    @settings(max_examples=300, deadline=None)
    def test_matches_byte_oracle(self, data, seed, mtu, protection,
                                 ecn_classic, p_prime):
        import random as pyrandom

        from _oracles import DualPi2Oracle, aqm_counts

        k = data.draw(st.integers(0, 12), label="k")
        limit = data.draw(st.one_of(
            st.integers(1, max(1, mtu - 1)),
            st.sampled_from([k * mtu - 1, k * mtu, k * mtu + 1]).filter(
                lambda n: n >= 1),
        ), label="limit_bytes")
        cfg = AqmConfig(limit_bytes=limit, classic_protection=protection,
                        ecn_classic_enabled=ecn_classic)
        a, b = DualPi2(cfg, Rng(seed), mtu), DualPi2Oracle(cfg, Rng(seed), mtu)
        a.p_prime = b.p_prime = p_prime
        traffic = pyrandom.Random(seed + 1)
        now = offered = served = 0
        for i in range(200):
            if traffic.random() < 0.6:
                ecn = traffic.choice(list(Ecn))
                a.enqueue([0, i, ecn, -1], now)
                b.enqueue([0, i, ecn, -1], now)
                offered += 1
            else:
                got, want = a.dequeue(now), b.dequeue(now)
                assert (got and (got[SEQ], got[ECN])) == (want and (want[SEQ], want[ECN]))
                served += got is not None
            assert ([p[SEQ] for p in a._c], [p[SEQ] for p in a._l]) == (
                [p[SEQ] for p in b._c], [p[SEQ] for p in b._l])
            assert aqm_counts(a) == aqm_counts(b)
            assert (b.enq_total, b.deq_total) == (offered, served)
            assert a.credit.hex() == b.credit.hex()
            assert mtu * a.backlog_pkts == b.backlog_bytes
            now += traffic.randrange(3 * NS_PER_MS)
        assert a.rng.random() == b.rng.random()


class TestScheduler:
    def fill(self, a, n_c, n_l, base_id=0):
        for i in range(n_c):
            a.enqueue(mkpkt(base_id + i, Ecn.ECT0), 0)
        for i in range(n_l):
            a.enqueue(mkpkt(base_id + n_c + i, Ecn.ECT1), 0)

    def test_l_served_first_without_credit(self):
        a = mkaqm()
        self.fill(a, 3, 3)
        first = a.dequeue(0)
        assert first[ECN] in (Ecn.ECT1, Ecn.CE)

    def test_single_backlog_serves_it(self):
        a = mkaqm()
        self.fill(a, 3, 0)
        assert a.dequeue(0)[ECN] is Ecn.ECT0
        a2 = mkaqm()
        self.fill(a2, 0, 3)
        assert a2.dequeue(0)[ECN] in (Ecn.ECT1, Ecn.CE)

    def test_single_backlog_resets_credit(self):
        a = mkaqm()
        self.fill(a, 0, 5)
        for _ in range(5):
            a.dequeue(0)
        assert a.credit == 0.0

    def test_empty_returns_none(self):
        assert mkaqm().dequeue(0) is None

    def test_classic_share_converges_to_protection(self):
        # both queues kept backlogged; per-byte share of C must sit
        # inside [0.09, 0.11] for classic_protection = 0.10
        a = mkaqm(limit_bytes=10**15)
        n = 200_000
        self.fill(a, n, n)
        c_pkts = sum(a.dequeue(0)[ECN] is Ecn.ECT0 for _ in range(n))
        # every packet is the 1500 bytes mkaqm passes as mtu
        share = 1500 * c_pkts / (1500 * n)
        assert 0.09 <= share <= 0.11

    def test_share_tracks_other_protection_values(self):
        for w in (0.05, 0.25):
            a = mkaqm(classic_protection=w, limit_bytes=10**15)
            n = 50_000
            self.fill(a, n, n)
            c_pkts = sum(a.dequeue(0)[ECN] is Ecn.ECT0 for _ in range(n))
            assert 1500 * c_pkts / (1500 * n) == pytest.approx(w, abs=0.02)


class TestConservation:
    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_enqueued_equals_dequeued_plus_drops_plus_backlog(self, seed):
        import random as pyrandom

        a = mkaqm(rng_seed=seed, limit_bytes=30_000)
        a.p_prime = 0.4
        traffic_rng = pyrandom.Random(seed + 1)
        now = served = 0
        for i in range(2000):
            ecn = traffic_rng.choice([Ecn.ECT0, Ecn.ECT1, Ecn.NOT_ECT])
            a.enqueue(mkpkt(i, ecn), now)
            if traffic_rng.random() < 0.5:
                served += a.dequeue(now) is not None
            now += 100_000
        assert 2000 == served + a.drops_total + a.backlog_pkts
        assert a.drops_total == a.drops_overflow + a.drops_aqm
