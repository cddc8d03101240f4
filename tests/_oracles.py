"""Independent reference implementations used by the test suite.

These deliberately avoid the production algorithms: the DTW oracle
enumerates every monotone warping path instead of running the dynamic
program, so agreement between the two is evidence, not tautology.
``kernel_alignment`` reads one pair's result off the production code in
the DTW oracle's shape, for the tests that compare the two.
``run_scenario_oracle`` is the event engine as it was before acks were
handled at delivery: acks are a fifth event source with their own FIFO.
``run_record_oracle`` lists the invariants a run record breaks, each
stated on its own, and counts the link's services one by one
(``deliveries_oracle``) instead of in closed form.
"""

from __future__ import annotations

import math
from collections import deque
from heapq import heapify, heappop

import numpy as np

from dualq.aqm import DualPi2
from dualq.core import AT, ECN, FLOW, NS_PER_MS, SEQ, Ecn, Rng
from dualq.engine import RunOutput
from dualq.link import DeliveryTrace, LinkMode, SmoothPacer
from dualq.metrics import SampleCollector
from dualq.stats._dtw_np import dtw_packed
from dualq.stats.dtw import dtw_norm, packed_route
from dualq.traffic import Receiver, make_sender


def dtw_oracle(x, y):
    """Exhaustive DTW: minimum path cost over all monotone paths.

    Walks every path from (0,0) to (n-1,m-1) with steps {(1,1), (1,0),
    (0,1)}, recording the best prefix cost reaching each cell, then
    recovers the reported path length with the same diagonal >
    vertical > horizontal tie-break the implementation documents.
    Exponential, fine for the short integer series it is used on.
    Returns (raw_cost, path_len, normalized_cost).
    """
    n, m = len(x), len(y)
    inf = math.inf
    best_prefix = [[inf] * m for _ in range(n)]
    total_best = [inf]

    def walk(i: int, j: int, acc: float) -> None:
        acc = acc + abs(x[i] - y[j])
        if acc < best_prefix[i][j]:
            best_prefix[i][j] = acc
        if i == n - 1 and j == m - 1:
            if acc < total_best[0]:
                total_best[0] = acc
            return
        if i + 1 < n and j + 1 < m:
            walk(i + 1, j + 1, acc)
        if i + 1 < n:
            walk(i + 1, j, acc)
        if j + 1 < m:
            walk(i, j + 1, acc)

    walk(0, 0, 0.0)
    raw = total_best[0]
    i, j = n - 1, m - 1
    plen = 1
    while i > 0 or j > 0:
        if i > 0 and j > 0:
            d = best_prefix[i - 1][j - 1]
            v = best_prefix[i - 1][j]
            h = best_prefix[i][j - 1]
            if d <= v and d <= h:
                i, j = i - 1, j - 1
            elif v <= h:
                i -= 1
            else:
                j -= 1
        elif i > 0:
            i -= 1
        else:
            j -= 1
        plen += 1
    return raw, plen, raw / plen


def kernel_alignment(x, y, band=None):
    """(raw_cost, path_len, normalized_cost) of one pair, as dtw_oracle.

    Raw cost and path length come from the packed kernel on a batch of
    one, on the route ``packed_route`` gives the pair (int64 keys again
    if int32 ones saturate), the normalized cost from ``dtw_norm``, the
    checked entry point.
    """
    xa = np.asarray(x, dtype=np.float64)
    ya = np.asarray(y, dtype=np.float64)
    lo, vmax, keys = packed_route([xa], [ya])
    b = -1 if band is None else band
    raw, plen, exact = dtw_packed([xa - lo], [ya - lo], b, vmax, keys)
    if not exact[0]:
        raw, plen, _ = dtw_packed([xa - lo], [ya - lo], b, vmax, np.int64)
    return float(raw[0]), int(plen[0]), dtw_norm(x, y, band)


def quantile_oracle(values, q: float) -> float:
    """Linear-interpolation quantile at fractional rank (n-1)*q."""
    s = sorted(float(v) for v in values)
    if not s:
        raise ValueError("empty")
    pos = (len(s) - 1) * q
    lo = math.floor(pos)
    hi = math.ceil(pos)
    if lo == hi:
        return s[lo]
    frac = pos - lo
    return s[lo] * (1 - frac) + s[hi] * frac


def bootstrap_replicates_oracle(ds, B: int, rng) -> np.ndarray:
    """Bootstrap replicates evaluated one at a time.

    Per replicate: draw n runs of corpus M, then m runs of corpus K,
    gather the resampled matrices with ``np.ix_``, take each corpus's
    0.95 linear quantile of its upper-triangle distances, and return the
    share of cross distances strictly above the larger one.
    """
    n = ds.matrix_mm.shape[0]
    m = ds.matrix_kk.shape[0]
    iu_n = np.triu_indices(n, 1)
    iu_m = np.triu_indices(m, 1)
    reps = np.empty(B, dtype=np.float64)
    for b in range(B):
        im = rng.integers(0, n, size=n)
        ik = rng.integers(0, m, size=m)
        eps_m = float(np.quantile(ds.matrix_mm[np.ix_(im, im)][iu_n], 0.95,
                                  method="linear"))
        eps_k = float(np.quantile(ds.matrix_kk[np.ix_(ik, ik)][iu_m], 0.95,
                                  method="linear"))
        reps[b] = np.mean(ds.matrix_mk[np.ix_(im, ik)] > max(eps_m, eps_k))
    return reps


class DualPi2Oracle(DualPi2):
    """DualPi2 with the scheduler and the two queue actions as three steps,
    on byte arithmetic.

    Same draws, in the same order, as the production ``dequeue``: one per
    C-head trial, one per L packet the step does not mark. Where DualPi2
    counts packets, this class keeps its own mtu and a byte tally per
    queue, each packet being mtu bytes: a packet is admitted unless the
    tallies plus its bytes would exceed limit_bytes, and the credit moves
    by the packet's bytes times the protection share on every packet
    served.
    """

    __slots__ = ("mtu", "c_bytes", "l_bytes")

    def __init__(self, cfg, rng, mtu):
        super().__init__(cfg, rng, mtu)
        self.mtu = mtu
        self.c_bytes = 0
        self.l_bytes = 0

    @property
    def backlog_bytes(self):
        return self.c_bytes + self.l_bytes

    def enqueue(self, pkt, now):
        self.enq_total += 1
        size = self.mtu
        if self.c_bytes + self.l_bytes + size > self.cfg.limit_bytes:
            self.drops_overflow += 1
            return
        pkt[AT] = now
        if pkt[ECN] & 1:
            self._l.append(pkt)
            self.l_bytes += size
        else:
            self._c.append(pkt)
            self.c_bytes += size

    def dequeue(self, now):
        while True:
            if not self._c:
                if not self._l:
                    return None
                self.credit = 0.0
                return self._take_l(now)
            if not self._l:
                self.credit = 0.0
                pkt = self._take_c(now)
                if pkt is None:
                    continue
                return pkt
            if self.credit > 0.0:
                pkt = self._take_c(now)
                if pkt is None:
                    continue
                self.credit -= self.mtu * (1.0 - self.cfg.classic_protection)
                return pkt
            pkt = self._take_l(now)
            self.credit += self.mtu * self.cfg.classic_protection
            return pkt

    def _take_c(self, now):
        p_c = self.p_prime * self.p_prime
        while self._c:
            pkt = self._c.popleft()
            self.c_bytes -= self.mtu
            if self.rng.random() < p_c:
                if self.cfg.ecn_classic_enabled and pkt[ECN] == Ecn.ECT0:
                    pkt[ECN] = Ecn.CE
                    self.ecn_marks_c += 1
                else:
                    self.drops_aqm += 1
                    continue
            self.deq_total += 1
            return pkt
        return None

    def _take_l(self, now):
        pkt = self._l.popleft()
        self.l_bytes -= self.mtu
        if now - pkt[AT] > self.cfg.step_thresh_ns:
            mark = True
        else:
            p_cl = self.cfg.coupling_k * self.p_prime
            if p_cl > 1.0:
                p_cl = 1.0
            mark = self.rng.random() < p_cl
        if mark and pkt[ECN] != Ecn.CE:
            pkt[ECN] = Ecn.CE
            self.ecn_marks_l += 1
        self.deq_total += 1
        return pkt


_NONE = float("inf")


def run_scenario_oracle(cfg, seed: int) -> RunOutput:
    """One run of cfg through a five-source merge loop with DualPi2Oracle.

    Sources: link, controller update, arrivals FIFO, acks FIFO (delivery
    time + rev), flow wake-ups. On a tie the source tested first wins;
    the run stops at the first event past the horizon, or at the horizon
    itself for an arrival, an ack or a wake-up.
    """
    rng = Rng(seed)
    aqm = DualPi2Oracle(cfg.aqm, rng, cfg.link.mtu)
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

    arrivals: deque = deque()  # (t, pkt)
    acks: deque = deque()  # (t, flow index, seq, ce, lost)
    push_arrival = arrivals.append
    push_ack = acks.append
    wakes = [(sender.start_ns, i) for i, sender in enumerate(senders)]
    heapify(wakes)
    wake_t = wakes[0][0] if wakes else _NONE
    link_t = _NONE
    upd_t = tupdate if tupdate <= duration else _NONE
    next_free_ns = 0

    while True:
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
            for pkt in sender.pump(t, at):
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
                push_ack((at, pkt[FLOW], pkt[SEQ], ce, lost))
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
            for pkt in sender.pump(t, at):
                push_arrival((at, pkt))

    if duration % tupdate:
        collector.take(duration, aqm)
    return RunOutput(
        samples=collector.samples,
        aqm=aqm,
        receiver=receiver,
        senders=senders,
    )


def deliveries_oracle(rate_bps: int, mode: str, mtu: int, duration_ns: int) -> int:
    """The most packets a link without a trace file delivers by
    duration_ns, counted service by service: a bursty link serves
    opportunities(k) at each k ms from 1 ms on, a smooth one a packet at 0
    and then one each pacer interval."""
    if mode == "smooth":
        pacer = SmoothPacer(rate_bps, mtu)
        t = served = 0
        while t <= duration_ns:
            served += 1
            t += pacer.next_interval_ns()
        return served
    trace = DeliveryTrace(rate_bps, mtu)
    return sum(trace.opportunities(ms) for ms in range(1, duration_ns // NS_PER_MS + 1))


COUNTER_NAMES = {"enqueued", "dequeued", "drops", "drops_overflow", "drops_aqm",
                 "ecn_marks_l", "ecn_marks_c"}


def run_record_oracle(record) -> list[str]:
    """The invariants of a run the engine wrote that record breaks, by name;
    [] if it keeps them all."""
    cfg = record.config
    link, aqm = cfg["link"], cfg["aqm"]
    duration, tupdate, mtu = cfg["duration_ns"], aqm["tupdate_ns"], link["mtu"]
    t_ns, qocc, marks, drops = (record.samples[:, i].tolist() for i in range(4))
    due = [k * tupdate for k in range(1, duration // tupdate + 1)]
    if duration % tupdate:
        due.append(duration)
    c = record.counters
    packets = [f.packets for f in record.flows]
    if set(c) != COUNTER_NAMES or any(type(v) is not int for v in c.values()):
        return ["the seven integer counters"]
    broken = [name for name, holds in (
        ("sample schedule", t_ns == due),
        ("enqueued = dequeued + drops + final qocc_pkts",
         c["enqueued"] == c["dequeued"] + c["drops"] + qocc[-1]),
        ("drops = drops_overflow + drops_aqm = series drops",
         c["drops"] == c["drops_overflow"] + c["drops_aqm"] == sum(drops)),
        ("ecn_marks_l + ecn_marks_c = series marks",
         c["ecn_marks_l"] + c["ecn_marks_c"] == sum(marks)),
        ("dequeued = the flows' packets", c["dequeued"] == sum(packets)),
        ("the flows config.flows lists, in order",
         [(f.flow, f.kind) for f in record.flows]
         == [(f.get("name"), f.get("kind")) for f in cfg.get("flows", [])]),
        ("non-negative counts", min(qocc + marks + drops + packets
                                    + list(c.values())) >= 0),
        ("qocc_pkts <= limit_bytes // mtu", max(qocc) <= aqm["limit_bytes"] // mtu),
    ) if not holds]
    if link.get("trace_file") is None:
        rate, mode = link.get("rate_bps"), link.get("mode")
        if type(rate) is not int or rate <= 0 or mode not in ("bursty", "smooth"):
            broken.append("a positive int rate_bps and a bursty or smooth mode")
        elif c["dequeued"] > deliveries_oracle(rate, mode, mtu, duration):
            broken.append("delivery bound")
    return broken
