"""Traffic sources and sink.

Three window-based senders cover the two congestion-control families
the AQM distinguishes:

* ScalableSender: per-packet CE feedback folded into a low-pass mark
  fraction, window scaled by half the smoothed fraction once per RTT
  (the DCTCP law). Sends ECT(1), so the AQM steers it into the L queue.
* ClassicSender "reno": AIMD with +1 per RTT and a 0.5 multiplicative
  decrease. Sends ECT(0).
* ClassicSender "cubic": window follows W(t) = C*(t-K)^3 + W_max after
  each decrease to beta*W, with K = cbrt(W_max*(1-beta)/C). Also ECT(0).

The receiver acknowledges every delivery immediately and echoes CE.
Loss detection is idealized: a sequence gap is declared lost after
three later packets of the same flow arrive. There are no
retransmissions and no timers; a congestion signal feeds the window
and the packet simply does not count toward goodput.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .core import ECN, FLOW, SEQ, Ecn

# enum member lookups cost several times a global load on the per-packet path
_CE = Ecn.CE
SCALABLE_EWMA_GAIN = 1.0 / 16.0
CUBIC_C = 0.4
CUBIC_BETA = 0.7
INIT_CWND = 10.0

SENDER_KINDS = ("scalable", "reno", "cubic")


@dataclass(frozen=True)
class FlowConfig:
    name: str
    kind: str
    start_ns: int = 0
    stop_ns: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in SENDER_KINDS:
            raise ValueError(f"flow {self.name!r}: kind must be one of "
                             f"{SENDER_KINDS}, got {self.kind!r}")
        if self.start_ns < 0:
            raise ValueError(f"start_ns cannot be negative, got {self.start_ns}")
        if self.stop_ns is not None and self.stop_ns <= self.start_ns:
            raise ValueError(
                f"stop_ns {self.stop_ns} must be after start_ns {self.start_ns}"
            )
        if not self.name or any(c in self.name for c in ",/\\\n\t "):
            raise ValueError(f"flow name {self.name!r} must be a simple token")


class _SenderBase:
    """Window bookkeeping shared by both families."""

    __slots__ = (
        "flow",
        "kind",
        "index",
        "start_ns",
        "stop_ns",
        "cwnd",
        "next_seq",
        "outstanding",
        "slow_start",
        "srtt_ns",
        "acked_total",
        "signals_total",
    )

    def __init__(self, cfg: FlowConfig, index: int):
        self.flow = cfg.name
        self.kind = cfg.kind
        self.index = index
        self.start_ns = cfg.start_ns
        self.stop_ns = cfg.stop_ns
        self.cwnd = INIT_CWND
        self.next_seq = 0
        # seq -> send time; membership defines the in-flight set
        self.outstanding: dict[int, int] = {}
        self.slow_start = True
        self.srtt_ns = 0
        self.acked_total = 0
        self.signals_total = 0

    def pump(self, now: int, at: int) -> list[list]:
        """Emit packets, arriving at the bottleneck at ``at``, until the
        window is full; none outside [start, stop)."""
        out: list[list] = []
        stop = self.stop_ns
        if now < self.start_ns or (stop is not None and now >= stop):
            return out
        outstanding = self.outstanding
        limit = self.cwnd
        if len(outstanding) >= limit:
            return out
        seq = self.next_seq
        flow = self.index
        ecn = self.ecn
        while len(outstanding) < limit:
            outstanding[seq] = now
            out.append([flow, seq, ecn, at])
            seq += 1
        self.next_seq = seq
        return out


class ScalableSender(_SenderBase):
    """Shallow-threshold scalable window (the DCTCP response).

    Every ACK reports whether the packet carried CE. Per round (one
    window, delimited by the ack of the newest packet sent when the
    previous round closed), the CE fraction updates an EWMA with gain
    1/16; a round containing any signal scales cwnd by (1 - ewma/2),
    otherwise cwnd grows by one packet. Slow start doubles per RTT
    (one packet per ACK) until the first signal. Idealized losses
    count as signals.
    """

    __slots__ = ("mark_ewma", "round_last_seq", "round_acked", "round_marked")

    ecn = Ecn.ECT1

    def __init__(self, cfg: FlowConfig, index: int):
        super().__init__(cfg, index)
        self.mark_ewma = 0.0
        self.round_last_seq = -1
        self.round_acked = 0
        self.round_marked = 0

    def on_ack(self, seq: int, ce: bool, now: int) -> None:
        sent_at = self.outstanding.pop(seq, None)
        if sent_at is None:
            return
        self.acked_total += 1
        # smoothed RTT, gain 1/8; the first sample seeds it
        sample = now - sent_at
        srtt = self.srtt_ns
        self.srtt_ns = sample if srtt == 0 else srtt + ((sample - srtt) >> 3)
        self.round_acked += 1
        if ce:
            self.round_marked += 1
            self.signals_total += 1
        if self.slow_start:
            self.cwnd += 1.0
            if ce:
                self.slow_start = False
        last = self.round_last_seq
        if last < 0:
            # the opening round is the window the wake-up sent: nothing
            # else pumps before a flow's first ack
            last = self.round_last_seq = self.next_seq - 1
        if seq >= last:
            self._close_round()

    def on_loss(self, seq: int, now: int) -> None:
        if self.outstanding.pop(seq, None) is None:
            return
        self.round_acked += 1
        self.round_marked += 1
        self.signals_total += 1
        self.slow_start = False

    def _close_round(self) -> None:
        if self.round_acked:
            frac = self.round_marked / self.round_acked
            self.mark_ewma += SCALABLE_EWMA_GAIN * (frac - self.mark_ewma)
            if not self.slow_start:
                if self.round_marked:
                    self.cwnd = max(1.0, self.cwnd * (1.0 - self.mark_ewma / 2.0))
                else:
                    self.cwnd += 1.0
        self.round_last_seq = self.next_seq - 1
        self.round_acked = 0
        self.round_marked = 0


class ClassicSender(_SenderBase):
    """Classic window: Reno AIMD or the cubic growth curve.

    Both react at most once per RTT to a congestion signal (CE echo or
    idealized loss): acks for packets sent before the last decrease
    cannot trigger another one.
    """

    __slots__ = ("ssthresh", "w_max", "epoch_start_ns", "k_s", "recover_seq")

    ecn = Ecn.ECT0

    def __init__(self, cfg: FlowConfig, index: int):
        super().__init__(cfg, index)
        self.ssthresh = float("inf")
        self.w_max = 0.0
        self.epoch_start_ns: int | None = None
        self.k_s = 0.0
        self.recover_seq = -1

    def on_ack(self, seq: int, ce: bool, now: int) -> None:
        sent_at = self.outstanding.pop(seq, None)
        if sent_at is None:
            return
        self.acked_total += 1
        sample = now - sent_at
        srtt = self.srtt_ns
        self.srtt_ns = sample if srtt == 0 else srtt + ((sample - srtt) >> 3)
        if ce:
            if seq > self.recover_seq:
                self._decrease(now)
            # inside recovery a further CE neither shrinks nor grows
            return
        if self.slow_start:
            self.cwnd += 1.0
            if self.cwnd >= self.ssthresh:
                self.slow_start = False
            return
        if self.kind == "reno":
            self.cwnd += 1.0 / self.cwnd
        else:
            self._cubic_growth(now)

    def on_loss(self, seq: int, now: int) -> None:
        if self.outstanding.pop(seq, None) is None:
            return
        if seq > self.recover_seq:
            self._decrease(now)

    def _decrease(self, now: int) -> None:
        self.signals_total += 1
        self.slow_start = False
        w = self.cwnd
        if self.kind == "cubic":
            self.w_max = w
            self.cwnd = max(1.0, w * CUBIC_BETA)
            self.epoch_start_ns = now
            self.k_s = (self.w_max * (1.0 - CUBIC_BETA) / CUBIC_C) ** (1.0 / 3.0)
        else:
            self.cwnd = max(1.0, w * 0.5)
            self.ssthresh = self.cwnd
        # acks up to the current send frontier belong to this decrease
        self.recover_seq = self.next_seq - 1

    def _cubic_growth(self, now: int) -> None:
        if self.epoch_start_ns is None:
            self.cwnd += 1.0 / self.cwnd
            return
        t = (now - self.epoch_start_ns) * 1e-9
        dt = t - self.k_s
        w = CUBIC_C * dt * dt * dt + self.w_max
        if w > self.cwnd:
            self.cwnd = w


def make_sender(cfg: FlowConfig, index: int) -> _SenderBase:
    if cfg.kind == "scalable":
        return ScalableSender(cfg, index)
    return ClassicSender(cfg, index)


@dataclass
class FlowStats:
    """Per-flow delivery accounting at the receiver."""

    highest_seq: int = -1
    arrivals: int = 0
    # (missing seq, arrival count at which it is declared lost)
    gaps: deque = field(default_factory=deque)


class Receiver:
    """Counts packets delivered (mtu bytes each), echoes CE, reports losses.

    A missing sequence number is declared lost once three packets with
    higher sequence numbers of the same flow have arrived (the third
    duplicate-ack rule without modeling acks for the gap itself).
    """

    __slots__ = ("flows",)

    def __init__(self, n_flows: int):
        # indexed by a packet's FLOW, i.e. by sender index
        self.flows = [FlowStats() for _ in range(n_flows)]

    def on_deliver(self, pkt: list) -> tuple[bool, tuple[int, ...]]:
        """Account one delivery; return (ce_echo, sequences now lost)."""
        st = self.flows[pkt[FLOW]]
        arrivals = st.arrivals = st.arrivals + 1
        ce = pkt[ECN] == _CE
        seq = pkt[SEQ]
        highest = st.highest_seq
        gaps = st.gaps
        if seq > highest:
            if seq > highest + 1:
                deadline = arrivals + 2
                for missing in range(highest + 1, seq):
                    gaps.append((missing, deadline))
            st.highest_seq = seq
        if gaps and gaps[0][1] <= arrivals:
            found: list[int] = []
            while gaps and gaps[0][1] <= arrivals:
                found.append(gaps.popleft()[0])
            return ce, tuple(found)
        return ce, ()
