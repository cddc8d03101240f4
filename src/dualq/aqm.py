"""Coupled dual-queue AQM.

Two FIFO queues share one buffer in front of the link:

* the L queue holds scalable (ECT(1)/CE) traffic and signals congestion
  early with a shallow sojourn-time step plus a coupled probability;
* the C queue holds classic (Not-ECT/ECT(0)) traffic governed by a
  proportional-integral controller whose output p' is squared before
  being applied, because classic senders halve their window per signal.

The coupling k * p' lets classic load inflate the L marking rate so the
two congestion-control families converge to comparable per-flow rates.
A weighted round-robin credit scheduler gives L priority while
guaranteeing the C queue a configurable minimum share of link bytes.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

from .core import AT, ECN, NS_PER_MS, Ecn, Rng

# enum member lookups cost several times a global load on the per-packet path
_CE = Ecn.CE
_ECT0 = Ecn.ECT0


@dataclass(frozen=True)
class AqmConfig:
    """Controller and scheduler parameters.

    Durations are integer nanoseconds. pi2_update applies the PI gains
    once every tupdate, on delays and tupdate in seconds:
    p' += alpha * tupdate * (qdelay - target) + beta * (qdelay - prev_qdelay).
    So alpha is in 1/s^2 (p' rises alpha * (qdelay - target) a second,
    whatever tupdate is), and beta is in 1/s, applied per update
    unscaled. Whether beta should also be scaled by tupdate is open
    (ROADMAP item 12).
    """

    target_ns: int = 15 * NS_PER_MS
    tupdate_ns: int = 16 * NS_PER_MS
    alpha: float = 0.16
    beta: float = 3.2
    step_thresh_ns: int = 1 * NS_PER_MS
    coupling_k: float = 2.0
    limit_bytes: int = 375_000
    classic_protection: float = 0.10
    ecn_classic_enabled: bool = True

    def __post_init__(self) -> None:
        for name in ("alpha", "beta", "coupling_k"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.target_ns <= 0:
            raise ValueError(f"target_ns must be positive, got {self.target_ns}")
        if self.tupdate_ns <= 0:
            raise ValueError(f"tupdate_ns must be positive, got {self.tupdate_ns}")
        if self.step_thresh_ns <= 0:
            raise ValueError(
                f"step_thresh_ns must be positive, got {self.step_thresh_ns}"
            )
        if self.alpha <= 0 or self.beta <= 0:
            raise ValueError(
                f"alpha and beta must be positive, got {self.alpha}, {self.beta}"
            )
        if self.coupling_k < 1.0:
            raise ValueError(f"coupling_k must be >= 1, got {self.coupling_k}")
        if self.limit_bytes <= 0:
            raise ValueError(f"limit_bytes must be positive, got {self.limit_bytes}")
        if not 0.0 <= self.classic_protection < 1.0:
            raise ValueError(
                "classic_protection must be in [0, 1), "
                f"got {self.classic_protection}"
            )


class DualPi2:
    """The coupled dual-queue AQM instance for one link, of mtu >= 1.

    All mutation happens through enqueue / dequeue / pi2_update; the
    counters are monotone and never reset so interval deltas can be
    derived by sampling them.
    """

    __slots__ = (
        "cfg",
        "rng",
        "_limit_pkts",
        "_debit",
        "_accrual",
        "p_prime",
        "prev_qdelay_ns",
        "next_update_ns",
        "credit",
        "_c",
        "_l",
        "enq_total",
        "deq_total",
        "drops_overflow",
        "drops_aqm",
        "ecn_marks_l",
        "ecn_marks_c",
    )

    def __init__(self, cfg: AqmConfig, rng: Rng, mtu: int):
        self.cfg = cfg
        self.rng = rng
        self._limit_pkts = cfg.limit_bytes // mtu
        # credit a C packet costs, and an L packet earns C, while both wait
        self._debit = mtu * (1.0 - cfg.classic_protection)
        self._accrual = mtu * cfg.classic_protection
        self.p_prime = 0.0
        self.prev_qdelay_ns = 0
        self.next_update_ns = cfg.tupdate_ns
        # bytes the C queue is owed; positive means C is behind its share
        self.credit = 0.0
        self._c: deque[list] = deque()
        self._l: deque[list] = deque()
        self.enq_total = 0
        self.deq_total = 0
        self.drops_overflow = 0
        self.drops_aqm = 0
        self.ecn_marks_l = 0
        self.ecn_marks_c = 0

    # ------------------------------------------------------------------
    # state inspection

    @property
    def backlog_pkts(self) -> int:
        return len(self._c) + len(self._l)

    @property
    def drops_total(self) -> int:
        return self.drops_overflow + self.drops_aqm

    def qdelay_ns(self, now: int) -> int:
        """Sojourn time of the C-queue head, 0 when the queue is empty."""
        if self._c:
            return now - self._c[0][AT]
        return 0

    def counters(self) -> dict[str, int]:
        return {
            "enqueued": self.enq_total,
            "dequeued": self.deq_total,
            "drops": self.drops_total,
            "drops_overflow": self.drops_overflow,
            "drops_aqm": self.drops_aqm,
            "ecn_marks_l": self.ecn_marks_l,
            "ecn_marks_c": self.ecn_marks_c,
        }

    # ------------------------------------------------------------------
    # ingress

    def enqueue(self, pkt: list, now: int) -> None:
        """Classify and queue one packet, or drop it on buffer overflow.

        ECT(1) (0b01) and CE (0b11) identify scalable traffic and go to
        the L queue; the low bit is the discriminator. Both queues share
        a buffer of limit_bytes // mtu whole packets; a packet that
        would overflow it is dropped at the tail no matter which queue
        it was headed for.
        """
        self.enq_total += 1
        if len(self._c) + len(self._l) >= self._limit_pkts:
            self.drops_overflow += 1
            return
        pkt[AT] = now
        if pkt[ECN] & 1:
            self._l.append(pkt)
        else:
            self._c.append(pkt)

    # ------------------------------------------------------------------
    # controller

    def pi2_update(self, now: int) -> float:
        """Advance the PI controller one step and return the new p'.

        p' <- clamp(p' + alpha * tupdate * (qdelay - target)
                       + beta  * (qdelay - prev_qdelay), 0, 1)

        with delays in seconds. When qdelay equals the target and has
        not moved, both correction terms are exactly 0.0, so p' is a
        true fixed point (bit-for-bit, not merely approximately).
        """
        if now < self.next_update_ns:
            raise ValueError(
                f"pi2_update at {now} ns before schedule {self.next_update_ns} ns"
            )
        qdelay_ns = self.qdelay_ns(now)
        qdelay = qdelay_ns * 1e-9
        cfg = self.cfg
        p = (
            self.p_prime
            + cfg.alpha * (cfg.tupdate_ns * 1e-9) * (qdelay - cfg.target_ns * 1e-9)
            + cfg.beta * (qdelay - self.prev_qdelay_ns * 1e-9)
        )
        if p < 0.0:
            p = 0.0
        elif p > 1.0:
            p = 1.0
        self.p_prime = p
        self.prev_qdelay_ns = qdelay_ns
        self.next_update_ns += cfg.tupdate_ns
        return p

    # ------------------------------------------------------------------
    # egress

    def dequeue(self, now: int) -> list | None:
        """Pick the next packet for the link, applying AQM actions.

        Scheduling: when both queues are backlogged the C queue is
        served only while it holds positive byte credit, which each L
        packet served raises by classic_protection x mtu and each C
        packet lowers by the rest of its mtu; with a single backlog the
        credit resets so a returning competitor starts from parity.

        C queue: each head faces an independent trial at p_c = p'^2; a
        losing ECT(0) packet is CE-marked and forwarded, any other loser
        is dropped and the next head tried. Drops that empty the C queue
        hand the turn to the L queue.

        L queue: a sojourn strictly over the step threshold marks;
        otherwise the packet faces one trial at k * p' (a draw in [0, 1)
        is below any p >= 1, so no clamp is needed). Marking never drops:
        L overload shows up as CE on every packet, not as loss.
        """
        queue_c = self._c
        queue_l = self._l
        cfg = self.cfg
        if queue_c and (not queue_l or self.credit > 0.0):
            p_c = self.p_prime * self.p_prime
            draw = self.rng.random
            while queue_c:
                pkt = queue_c.popleft()
                if draw() < p_c:
                    if cfg.ecn_classic_enabled and pkt[ECN] == _ECT0:
                        pkt[ECN] = _CE
                        self.ecn_marks_c += 1
                    else:
                        self.drops_aqm += 1
                        continue
                self.deq_total += 1
                if queue_l:
                    self.credit -= self._debit
                else:
                    self.credit = 0.0
                return pkt
            if not queue_l:
                self.credit = 0.0
                return None
        elif not queue_l:
            return None
        pkt = queue_l.popleft()
        if (now - pkt[AT] > cfg.step_thresh_ns
                or self.rng.random() < cfg.coupling_k * self.p_prime):
            if pkt[ECN] != _CE:
                pkt[ECN] = _CE
                self.ecn_marks_l += 1
        self.deq_total += 1
        if queue_c:
            self.credit += self._accrual
        else:
            self.credit = 0.0
        return pkt
