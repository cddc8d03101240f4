"""Shared primitives: time units, ECN codepoints, packets, seeded RNG.

Time is integer nanoseconds everywhere. Floats appear only inside the
controller arithmetic and in reported summaries, never in the clock, so
event ordering can never drift with accumulated rounding error.
"""

from __future__ import annotations

import enum
import random

NS_PER_MS = 1_000_000
NS_PER_SEC = 1_000_000_000


def ms_to_ns(ms: float) -> int:
    """Convert milliseconds to integer nanoseconds (rounded to nearest)."""
    return round(ms * NS_PER_MS)


def s_to_ns(s: float) -> int:
    """Convert seconds to integer nanoseconds (rounded to nearest)."""
    return round(s * NS_PER_SEC)


class Ecn(enum.IntEnum):
    """ECN codepoints with their two-bit wire values."""

    NOT_ECT = 0b00
    ECT1 = 0b01
    ECT0 = 0b10
    CE = 0b11


class Packet:
    """One packet in flight.

    A plain slotted class rather than a dataclass: packets are created
    and destroyed millions of times per run and attribute access is on
    the hot path. ``flow`` is the sending flow's index in the
    scenario's flow list and ``seq`` its flow-local sequence number.
    A packet carries no size: every packet is the link's mtu, as in
    Mahimahi, whose delivery opportunities are one MTU each.
    """

    __slots__ = ("flow", "seq", "ecn", "enqueued_at")

    def __init__(self, flow: int, seq: int, ecn: Ecn):
        self.flow = flow
        self.seq = seq
        self.ecn = ecn
        self.enqueued_at = -1

    def __repr__(self):
        return f"Packet(flow={self.flow}, seq={self.seq}, ecn={self.ecn.name})"


class Rng:
    """Seeded random stream for one emulation run.

    Wraps the stdlib Mersenne Twister: a single scalar draw is cheaper
    here than through numpy's Generator, and the AQM consumes draws one
    at a time. The algorithm name is recorded in run metadata so a
    future backend change cannot silently impersonate old runs.
    """

    __slots__ = ("seed", "_random", "random")

    algorithm = "mt19937"

    def __init__(self, seed: int):
        # random.Random seeds from abs(seed): -1 would replay seed 1
        if seed < 0:
            raise ValueError(f"seed must be >= 0, got {seed}")
        self.seed = seed
        self._random = random.Random(seed)
        # bound method cached for hot-path callers
        self.random = self._random.random
