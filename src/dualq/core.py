"""Shared primitives: time units, ECN codepoints, the packet layout, seeded RNG.

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


# A packet in flight is a mutable list [flow, seq, ecn, at] indexed by these
# constants: pump builds one with a list display for each packet sent, which
# costs less than any constructor call, and the AQM marks CE in place. flow
# is the sender's index in the scenario's flow list, seq its flow-local
# sequence number, at its arrival time at the bottleneck (send time + fwd),
# which the AQM stamps again as the enqueue time, the same instant. A packet
# has no size: each is the link's mtu, as a Mahimahi delivery opportunity is.
FLOW, SEQ, ECN, AT = range(4)


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
