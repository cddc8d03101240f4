"""Time units, ECN codepoints, the packet layout, and the seeded RNG."""

import pytest

from dualq.core import (
    AT,
    ECN,
    FLOW,
    NS_PER_MS,
    NS_PER_SEC,
    SEQ,
    Ecn,
    Rng,
    ms_to_ns,
    s_to_ns,
)
from dualq.traffic import FlowConfig, make_sender


class TestTime:
    def test_conversions(self):
        assert ms_to_ns(15) == 15_000_000
        assert ms_to_ns(0.5) == 500_000
        assert s_to_ns(30) == 30 * NS_PER_SEC

    def test_long_run_no_wrap(self):
        # 1e4 seconds of nanoseconds stays an exact integer
        assert s_to_ns(10_000) == 10_000_000_000_000
        assert isinstance(s_to_ns(10_000), int)


class TestEcn:
    def test_wire_values(self):
        assert Ecn.NOT_ECT == 0b00
        assert Ecn.ECT1 == 0b01
        assert Ecn.ECT0 == 0b10
        assert Ecn.CE == 0b11

    def test_distinct(self):
        assert len({e.value for e in Ecn}) == 4


class TestPacket:
    def test_fields(self):
        # pump writes a packet's fields in the order the constants name,
        # with the arrival time it is given
        assert sorted((FLOW, SEQ, ECN, AT)) == list(range(4))
        p = make_sender(FlowConfig("s", "scalable"), 2).pump(0, 7)[9]
        assert len(p) == 4
        assert (p[FLOW], p[SEQ], p[ECN], p[AT]) == (2, 9, Ecn.ECT1, 7)


class TestRng:
    def test_same_seed_same_stream(self):
        a = Rng(42)
        b = Rng(42)
        assert [a.random() for _ in range(100)] == [b.random() for _ in range(100)]

    def test_different_seeds_differ(self):
        a = Rng(1)
        b = Rng(2)
        assert [a.random() for _ in range(10)] != [b.random() for _ in range(10)]

    def test_algorithm_recorded(self):
        assert Rng.algorithm == "mt19937"
        assert Rng(0).seed == 0

    def test_rejects_negative_seed(self):
        # random.Random seeds from abs(seed): -1 would replay seed 1
        with pytest.raises(ValueError, match="seed"):
            Rng(-1)

    def test_bernoulli_long_run_frequency(self):
        # the AQM draws each trial as random() < p, one draw per trial
        rng = Rng(12345)
        n = 1_000_000
        hits = sum(rng.random() < 0.5 for _ in range(n))
        assert abs(hits / n - 0.5) < 0.002
