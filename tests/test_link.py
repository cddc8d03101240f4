"""Delivery schedules, pacing arithmetic, and delay configuration."""

import pytest
from hypothesis import given, settings, strategies as st

from dualq.core import NS_PER_SEC
from dualq.link import (
    DelayConfig,
    DeliveryTrace,
    LinkConfig,
    LinkMode,
    SmoothPacer,
    most_deliveries,
)

from _oracles import deliveries_oracle


class TestConstantRateTrace:
    def test_50mbps_pattern(self):
        # 50 Mbps / (1500 B * 8 * 1000) = 25/6 per ms: 4,4,4,4,4,5 repeating
        tr = DeliveryTrace(50_000_000, 1500)
        counts = [tr.opportunities(ms) for ms in range(12)]
        assert counts == [4, 4, 4, 4, 4, 5] * 2

    def test_12mbps_is_one_per_ms(self):
        tr = DeliveryTrace(12_000_000, 1500)
        assert [tr.opportunities(ms) for ms in range(10)] == [1] * 10

    def test_fractional_rates_average_exactly(self):
        # over any full second the count must be exactly rate/(mtu*8)
        for rate in (12_000_000, 50_000_000, 200_000_000, 17_300_000):
            tr = DeliveryTrace(rate, 1500)
            total = sum(tr.opportunities(ms) for ms in range(1000))
            assert total == rate // (1500 * 8)

    @given(rate=st.integers(10**6, 10**9), start=st.integers(0, 10**7))
    @settings(max_examples=50)
    def test_window_sums_never_drift(self, rate, start):
        tr = DeliveryTrace(rate, 1500)
        den = 1500 * 8 * 1000
        total = sum(tr.opportunities(ms) for ms in range(start, start + 100))
        exact = (start + 100) * rate // den - start * rate // den
        assert total == exact


class TestFileTrace:
    def test_roundtrip(self, tmp_path):
        p = tmp_path / "t.trace"
        p.write_text("1\n1\n3\n4\n")
        tr = DeliveryTrace.from_file(str(p), 1500)
        # period 4: ms0 <- stamp 4, ms1 gets two, ms3 one
        assert [tr.opportunities(ms) for ms in range(4)] == [1, 2, 0, 1]
        # repeats with period = last timestamp
        assert tr.opportunities(4) == 1
        assert tr.opportunities(5) == 2

    def test_mean_rate_estimate(self, tmp_path):
        p = tmp_path / "t.trace"
        p.write_text("\n".join(str(i + 1) for i in range(1000)) + "\n")
        tr = DeliveryTrace.from_file(str(p), 1500)
        assert tr.rate_bps == 12_000_000

    @pytest.mark.parametrize("body", ["", "abc\n", "-1\n", "5\n3\n", "0\n"])
    def test_rejects_malformed(self, tmp_path, body):
        p = tmp_path / "bad.trace"
        p.write_text(body)
        with pytest.raises(ValueError):
            DeliveryTrace.from_file(str(p), 1500)


class TestSmoothPacer:
    def test_exact_spacing_for_divisible_rate(self):
        # 12 Mbps, 1500 B -> exactly 1 ms per packet
        pacer = SmoothPacer(12_000_000, 1500)
        assert [pacer.next_interval_ns() for _ in range(5)] == [1_000_000] * 5

    def test_remainder_carry_has_no_drift(self):
        # 50 Mbps, 1500 B -> 240000 ns exactly
        pacer = SmoothPacer(50_000_000, 1500)
        assert pacer.next_interval_ns() == 240_000
        # awkward rate: n intervals must sum to floor(n*bits*1e9/rate)
        pacer = SmoothPacer(17_333_333, 1500)
        n = 10_000
        total = sum(pacer.next_interval_ns() for _ in range(n))
        assert total == n * 1500 * 8 * NS_PER_SEC // 17_333_333

    @given(rate=st.integers(10**6, 10**9), n=st.integers(1, 2000))
    @settings(max_examples=50)
    def test_aggregate_exactness(self, rate, n):
        pacer = SmoothPacer(rate, 1500)
        total = sum(pacer.next_interval_ns() for _ in range(n))
        assert total == n * 1500 * 8 * NS_PER_SEC // rate


class TestConfigs:
    def test_delay_validation(self):
        DelayConfig(0, 0)
        with pytest.raises(ValueError):
            DelayConfig(-1, 0)

    def test_link_make_trace(self):
        link = LinkConfig(rate_bps=12_000_000, mode=LinkMode.BURSTY)
        assert link.make_trace().opportunities(0) == 1

    def test_link_validation(self):
        with pytest.raises(ValueError):
            LinkConfig(rate_bps=0)
        with pytest.raises(ValueError):
            LinkConfig(rate_bps=10**6, mtu=0)
        LinkConfig(mode=LinkMode.BURSTY, trace_file="t.trace")
        with pytest.raises(ValueError, match="trace_file"):
            LinkConfig(mode=LinkMode.SMOOTH, trace_file="t.trace")


class TestMostDeliveries:
    @given(rate=st.integers(1, 10**9), mode=st.sampled_from(["bursty", "smooth"]),
           mtu=st.sampled_from([1, 576, 1500, 9000]),
           duration=st.integers(1, 50_000_000))
    @settings(max_examples=60, deadline=None)
    def test_closed_form_counts_every_service(self, rate, mode, mtu, duration):
        # the service-by-service count stays short: at most 6,251 services
        rate = min(rate, 10**6 * mtu)
        assert most_deliveries(rate, mode, mtu, duration) == deliveries_oracle(
            rate, mode, mtu, duration)

    @pytest.mark.parametrize("mode, most", [(LinkMode.BURSTY, 30_000),
                                            (LinkMode.SMOOTH, 30_001)])
    def test_12mbps_for_30s(self, mode, most):
        # one packet a millisecond from 1 ms on; smooth service starts at 0
        assert most_deliveries(12_000_000, mode, 1500, 30 * NS_PER_SEC) == most
