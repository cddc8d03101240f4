"""Bottleneck link models and fixed propagation delay.

Two service disciplines are provided:

* BURSTY delivers packets in millisecond slugs: each elapsed
  millisecond grants an integer number of delivery opportunities
  (one MTU each), unused opportunities expire. This reproduces the
  cellular-style trace-driven behavior of record-and-replay shells.
* SMOOTH spaces packets exactly mtu*8/rate apart with integer-ns
  remainder carry, the idealized fluid pacing.

A constant-rate schedule needs no materialized table: the number of
opportunities in millisecond t is the difference of a rounded linear
function, computed in exact integer arithmetic.
"""

from __future__ import annotations

import enum
import os
from dataclasses import dataclass

from .core import NS_PER_MS, NS_PER_SEC


class LinkMode(enum.Enum):
    BURSTY = "bursty"
    SMOOTH = "smooth"


class DeliveryTrace:
    """Delivery opportunities per millisecond.

    Either synthesized from a constant rate or loaded from a trace file
    containing one integer millisecond timestamp per line (repeated
    timestamps grant several opportunities in that millisecond). File
    traces repeat with a period equal to their last timestamp.
    """

    __slots__ = ("rate_bps", "_den", "_counts", "_period_ms")

    def __init__(self, rate_bps: int, mtu: int):
        if rate_bps <= 0:
            raise ValueError(f"rate_bps must be positive, got {rate_bps}")
        if mtu <= 0:
            raise ValueError(f"mtu must be positive, got {mtu}")
        self.rate_bps = rate_bps
        # opportunities in ms t = floor((t+1)*rate/den) - floor(t*rate/den)
        self._den = mtu * 8 * 1000
        self._counts: list[int] | None = None
        self._period_ms = 0

    @classmethod
    def from_file(cls, path: str, mtu: int) -> "DeliveryTrace":
        stamps: list[int] = []
        with open(path, "r", encoding="ascii") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    stamp = int(line)
                except ValueError as exc:
                    raise ValueError(
                        f"{path}:{lineno}: not an integer: {line!r}"
                    ) from exc
                if stamp < 0:
                    raise ValueError(f"{path}:{lineno}: negative timestamp {stamp}")
                if stamps and stamp < stamps[-1]:
                    raise ValueError(
                        f"{path}:{lineno}: timestamps must be non-decreasing"
                    )
                stamps.append(stamp)
        if not stamps:
            raise ValueError(f"{path}: empty trace")
        period = stamps[-1]
        if period <= 0:
            raise ValueError(f"{path}: last timestamp must be positive")
        counts = [0] * period
        for stamp in stamps:
            # the final stamp defines the period and wraps to ms 0
            counts[stamp % period] += 1
        mean_rate = round(len(stamps) * mtu * 8 * 1000 / period)
        trace = cls(max(mean_rate, 1), mtu)
        trace._counts = counts
        trace._period_ms = period
        return trace

    def opportunities(self, ms: int) -> int:
        """Number of MTU-sized delivery opportunities in millisecond ms."""
        if self._counts is not None:
            return self._counts[ms % self._period_ms]
        rate = self.rate_bps
        den = self._den
        return (ms + 1) * rate // den - ms * rate // den


@dataclass(frozen=True)
class LinkConfig:
    rate_bps: int = 12_000_000
    mode: LinkMode = LinkMode.BURSTY
    mtu: int = 1500
    trace_file: str | None = None

    def make_trace(self) -> DeliveryTrace:
        if self.trace_file is not None:
            return DeliveryTrace.from_file(self.trace_file, self.mtu)
        return DeliveryTrace(self.rate_bps, self.mtu)

    def validate(self) -> None:
        if self.trace_file is None and self.rate_bps <= 0:
            raise ValueError(f"rate_bps must be positive, got {self.rate_bps}")
        if self.mtu <= 0:
            raise ValueError(f"mtu must be positive, got {self.mtu}")
        if self.trace_file is not None and self.mode is LinkMode.SMOOTH:
            # SmoothPacer paces at rate_bps; it has no use for a trace
            raise ValueError("trace_file is for bursty links only, not mode = smooth")
        if self.trace_file is not None and os.path.exists(self.trace_file):
            # malformed is a config error; missing fails when the run starts
            DeliveryTrace.from_file(self.trace_file, self.mtu)


class SmoothPacer:
    """Exact per-packet service interval for SMOOTH mode.

    interval = mtu*8/rate seconds, kept exact by carrying the integer
    remainder of (bits * 1e9) / rate from one packet to the next, so n
    services span exactly floor(n*bits*1e9/rate) nanoseconds in
    aggregate with no rounding drift.
    """

    __slots__ = ("_bits_ns", "_rate", "_carry")

    def __init__(self, rate_bps: int, mtu: int):
        if rate_bps <= 0:
            raise ValueError(f"rate_bps must be positive, got {rate_bps}")
        self._bits_ns = mtu * 8 * NS_PER_SEC
        self._rate = rate_bps
        self._carry = 0

    def next_interval_ns(self) -> int:
        total = self._bits_ns + self._carry
        step, self._carry = divmod(total, self._rate)
        return step


def most_deliveries(rate_bps: int, mode, mtu: int, duration_ns: int) -> int:
    """Packets a link of mode (a LinkMode or its value) delivers at most in
    duration_ns: BURSTY serves opportunities(k) at k ms for k >= 1, SMOOTH
    its i-th packet floor(i * mtu * 8e9 / rate_bps) ns or more after 0."""
    if LinkMode(mode) is LinkMode.SMOOTH:
        return ((duration_ns + 1) * rate_bps - 1) // (mtu * 8 * NS_PER_SEC) + 1
    den = mtu * 8 * 1000  # the opportunities of ms 1 .. k telescope
    return (duration_ns // NS_PER_MS + 1) * rate_bps // den - rate_bps // den


@dataclass(frozen=True)
class DelayConfig:
    """One-way propagation delays, nanoseconds."""

    fwd_ns: int = 10 * NS_PER_MS
    rev_ns: int = 10 * NS_PER_MS

    def validate(self) -> None:
        if self.fwd_ns < 0 or self.rev_ns < 0:
            raise ValueError(
                f"propagation delays cannot be negative: {self.fwd_ns}, {self.rev_ns}"
            )
