"""Deterministic event engine wiring senders, AQM, link, and receiver.

Topology (one direction of interest):

    sender --fwd delay--> AQM/queue --link service--> receiver
       ^                                                 |
       +------------------rev delay----------(ack)-------+

The loop chooses among three event sources, each already in time order,
instead of keeping one priority queue:

* the link and the controller each have at most one pending event, a
  scalar next time (``inf`` when none is pending);
* flow wake-ups, one per flow at its start time, sit in a small heap.

Acks are not events. When a link service delivers a packet at t, its
sender (``senders[pkt[FLOW]]``) runs ``on_loss``, ``on_ack`` and ``pump``
at once with now = at = t + rev, and ``pump`` stamps the packets it sends
to arrive at at + fwd, their AT. That is exactly what an ack FIFO, served
after same-instant arrivals, would compute:

* a sender's state is touched only by its own acks, losses and
  wake-up, and reaches the rest of the run only through the packets it
  sends, which arrive fwd after the ack time;
* acks of one flow leave the link in delivery order and all take the
  same rev, so each sender gets the same calls, with the same
  arguments, in the same order;
* only a flow wake-up at tw can queue an arrival earlier than one
  already queued, so it inserts its packets after the last queued
  arrival at or before tw + fwd. Every ack at or before tw has run by
  then, so wake-ups still follow same-instant acks.

Arrivals are not events either. They wait in one FIFO, in the order of
their AT, and before the loop handles an event at t it enqueues each one
before t, and each one at t too when the event is a wake-up. An arrival
touches only the queue and, when it finds the link idle, the link's next
time, so this is the order of a loop that merged arrivals as events:
an arrival that starts the link at or before t makes that link service
the event, and draining stops at its instant.

Simultaneous events run in a fixed order:

    link delivery < controller update < packet arrival < flow wake-up

so a delivery opportunity at time t serves the queue as it stood before
any packet arriving at t, and the controller samples the queue before
the same-instant arrivals. Within one source, events at the same
instant keep the order they were created in.

The run stops at the first event later than the horizon, or at the
horizon itself when it is a wake-up: a link delivery and a controller
update at exactly the horizon still run, every arrival before the horizon
is enqueued and none at or after it, and an ack is handled only before
the horizon. Samples are taken at every
controller update, and the final sample is always taken at the horizon,
so it is the frozen end state of the run: when the duration is not a
multiple of tupdate, one more sample is taken at the horizon after the
loop, without a controller update.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from heapq import heapify, heappop

from .aqm import DualPi2
from .core import AT, FLOW, NS_PER_MS, SEQ, Rng
from .link import LinkMode, SmoothPacer
from .metrics import SampleCollector
from .traffic import Receiver, make_sender

_NONE = float("inf")


@dataclass
class RunOutput:
    """Everything observable from one emulation run."""

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
    aqm = DualPi2(cfg.aqm, Rng(seed), cfg.link.mtu)
    senders = [make_sender(fc, i) for i, fc in enumerate(cfg.flows)]
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

    arrivals: deque = deque()  # packets, by their arrival time AT
    push_arrivals = arrivals.extend
    queue_c = aqm._c
    queue_l = aqm._l
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
        if wake_t < t:
            t = wake_t
            src = 2
        # queue the arrivals before t (at t too before a wake-up), none at or
        # past the horizon; one that starts the link at or before t makes the
        # link the event, and the arrivals at its instant follow it
        lim = t + (src == 2) if t < duration else duration
        while arrivals and arrivals[0][AT] < lim:
            pkt = arrivals.popleft()
            a = pkt[AT]
            enqueue(pkt, a)
            if link_t == _NONE and (queue_c or queue_l):
                if smooth:
                    link_t = next_free_ns if next_free_ns > a else a
                else:
                    link_t = (a // NS_PER_MS + 1) * NS_PER_MS
                if link_t <= t:
                    t, src, lim = link_t, 0, min(lim, link_t)
        if t > duration or (t == duration and src == 2):
            break

        if src == 0:
            at = t + rev
            acked = at < duration
            arrive = at + fwd
            budget = 1 if smooth else opportunities(t // NS_PER_MS)
            while budget > 0:
                pkt = dequeue(t)
                if pkt is None:
                    break
                budget -= 1
                ce, lost = on_deliver(pkt)
                if smooth:
                    next_free_ns = t + pacer.next_interval_ns()
                if acked:
                    sender = senders[pkt[FLOW]]
                    if lost:
                        for missing in lost:
                            sender.on_loss(missing, at)
                    sender.on_ack(pkt[SEQ], ce, at)
                    push_arrivals(sender.pump(at, arrive))
            if queue_c or queue_l:
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
            # after every queued arrival at or before at
            i = len(arrivals)
            while i and arrivals[i - 1][AT] > at:
                i -= 1
            for pkt in reversed(sender.pump(t, at)):
                arrivals.insert(i, pkt)

    if duration % tupdate:
        collector.take(duration, aqm)
    return RunOutput(collector.samples, aqm, receiver, senders)
