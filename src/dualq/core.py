"""Shared primitives: time units, ECN codepoints, packets, seeded RNG.

Time is integer nanoseconds everywhere. Floats appear only inside the
controller arithmetic and in reported summaries, never in the clock, so
event ordering can never drift with accumulated rounding error.
"""

from __future__ import annotations

import enum
import random

NS_PER_US = 1_000
NS_PER_MS = 1_000_000
NS_PER_SEC = 1_000_000_000


def ms_to_ns(ms: float) -> int:
    """Convert milliseconds to integer nanoseconds (rounded to nearest)."""
    return round(ms * NS_PER_MS)


def s_to_ns(s: float) -> int:
    """Convert seconds to integer nanoseconds (rounded to nearest)."""
    return round(s * NS_PER_SEC)


def ns_to_s(ns: int) -> float:
    return ns * 1e-9


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
    the hot path.
    """

    __slots__ = ("id", "flow", "size", "ecn", "created_at", "enqueued_at", "seq")

    def __init__(
        self,
        id: int,
        flow: str,
        size: int,
        ecn: Ecn,
        created_at: int,
        seq: int = 0,
    ):
        self.id = id
        self.flow = flow
        self.size = size
        self.ecn = ecn
        self.created_at = created_at
        self.enqueued_at = -1
        self.seq = seq

    def __repr__(self):
        return (
            f"Packet(id={self.id}, flow={self.flow!r}, size={self.size}, "
            f"ecn={self.ecn.name}, seq={self.seq})"
        )


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
        self.seed = seed
        self._random = random.Random(seed)
        # bound method cached for hot-path callers
        self.random = self._random.random

    def bernoulli(self, p: float) -> bool:
        """One trial; consumes exactly one draw regardless of p."""
        return self.random() < p
