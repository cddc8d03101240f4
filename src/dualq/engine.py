"""Deterministic event engine wiring senders, AQM, link, and receiver.

Topology (one direction of interest):

    sender --fwd delay--> AQM/queue --link service--> receiver
       ^                                                 |
       +------------------rev delay----------(ack)-------+

Every event source is already in time order, so the loop merges them
instead of keeping one priority queue:

* packet arrivals are send time + the constant forward delay, and sends
  happen at the current time, so the arrivals FIFO fills in time order;
* acks are delivery time + the constant reverse delay: a second FIFO.
  An ack carries the packet's flow index (``Packet.flow``), which is
  also the sender's index in the run's sender list;
* the link and the controller each have at most one pending event, a
  scalar next time (``inf`` when none is pending);
* flow wake-ups, one per flow at its start time, sit in a small heap.

Simultaneous events run in a fixed order:

    link delivery < controller update < packet arrival < ack < flow wake-up

so a delivery opportunity at time t serves the queue as it stood before
any packet arriving at t, the controller samples the queue before the
same-instant arrivals, and acks are handled last. Within one FIFO,
events at the same instant keep the order they were created in.

The run stops at the first event later than the horizon, or at the
horizon itself when it is an arrival, an ack or a wake-up: a link
delivery and a controller update at exactly the horizon still run.
Samples are taken at every controller update, and the final sample is
always taken at the horizon, so it is the frozen end state of the run:
when the duration is not a multiple of tupdate, one more sample is taken
at the horizon after the loop, without a controller update.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from heapq import heapify, heappop

from .aqm import DualPi2
from .core import NS_PER_MS, Rng
from .link import LinkMode, SmoothPacer
from .metrics import SampleCollector
from .traffic import Receiver, make_sender

_NONE = float("inf")


@dataclass
class RunOutput:
    """Everything observable from one emulation run."""

    duration_ns: int
    samples: list
    aqm: DualPi2
    receiver: Receiver
    senders: list


def run_scenario(cfg, seed: int) -> RunOutput:
    """Execute one seeded run of a scenario and return its artifacts.

    ``cfg`` is a ScenarioConfig (see config module). The same (cfg,
    seed) pair always produces identical outputs: the only randomness
    is the AQM's seeded stream, and the event order is total.
    """
    rng = Rng(seed)
    aqm = DualPi2(cfg.aqm, rng)
    senders = [make_sender(fc, i, cfg.link.mtu) for i, fc in enumerate(cfg.flows)]
    receiver = Receiver(len(senders))
    collector = SampleCollector()
    trace = cfg.link.make_trace()
    smooth = cfg.link.mode is LinkMode.SMOOTH
    pacer = SmoothPacer(cfg.link.rate_bps, cfg.link.mtu) if smooth else None

    duration = cfg.duration_ns
    fwd = cfg.delay.fwd_ns
    rev = cfg.delay.rev_ns
    tupdate = cfg.aqm.tupdate_ns
    opportunities = trace.opportunities
    on_deliver = receiver.on_deliver
    enqueue = aqm.enqueue
    dequeue = aqm.dequeue

    arrivals: deque = deque()  # (t, pkt)
    acks: deque = deque()  # (t, flow index, seq, ce, lost)
    push_arrival = arrivals.append
    push_ack = acks.append
    wakes = [(sender.start_ns, i) for i, sender in enumerate(senders)]
    heapify(wakes)
    wake_t = wakes[0][0] if wakes else _NONE
    # the link has a pending event only while the queue is backlogged
    link_t = _NONE
    upd_t = tupdate if tupdate <= duration else _NONE
    # SMOOTH: earliest instant the link may serve the next packet
    next_free_ns = 0

    while True:
        # the earliest pending event; on a tie the source tested first wins
        t = link_t
        src = 0
        if upd_t < t:
            t = upd_t
            src = 1
        if arrivals and arrivals[0][0] < t:
            t = arrivals[0][0]
            src = 2
        if acks and acks[0][0] < t:
            t = acks[0][0]
            src = 3
        if wake_t < t:
            t = wake_t
            src = 4
        if t > duration or (t == duration and src > 1):
            break

        if src == 2:
            enqueue(arrivals.popleft()[1], t)
            if link_t == _NONE and aqm.backlog_pkts:
                if smooth:
                    link_t = next_free_ns if next_free_ns > t else t
                else:
                    link_t = (t // NS_PER_MS + 1) * NS_PER_MS

        elif src == 3:
            _, sender_idx, seq, ce, lost = acks.popleft()
            sender = senders[sender_idx]
            for missing in lost:
                sender.on_loss(missing, t)
            sender.on_ack(seq, ce, t)
            at = t + fwd
            for pkt in sender.pump(t):
                push_arrival((at, pkt))

        elif src == 0:
            at = t + rev
            budget = 1 if smooth else opportunities(t // NS_PER_MS)
            while budget > 0:
                pkt = dequeue(t)
                if pkt is None:
                    break
                budget -= 1
                ce, lost = on_deliver(pkt)
                push_ack((at, pkt.flow, pkt.seq, ce, lost))
                if smooth:
                    next_free_ns = t + pacer.next_interval_ns()
            if aqm.backlog_pkts:
                link_t = next_free_ns if smooth else t + NS_PER_MS
            else:
                link_t = _NONE

        elif src == 1:
            aqm.pi2_update(t)
            collector.take(t, aqm)
            upd_t = t + tupdate
            if upd_t > duration:
                upd_t = _NONE

        else:
            sender = senders[heappop(wakes)[1]]
            wake_t = wakes[0][0] if wakes else _NONE
            at = t + fwd
            for pkt in sender.pump(t):
                push_arrival((at, pkt))

    if duration % tupdate:
        collector.take(duration, aqm)
    return RunOutput(
        duration_ns=duration,
        samples=collector.samples,
        aqm=aqm,
        receiver=receiver,
        senders=senders,
    )
