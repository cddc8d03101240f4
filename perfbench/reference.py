"""A fixed piece of pure-Python work that tracks the machine's speed.

The machines this benchmark runs on share their host, and their speed
drifts by tens of percent over tens of seconds; slow periods outlast a
whole run, so no median within a run removes them. The benchmark times
this reference before every set-up, after every set-up batch, before
every round and after the last, and scales each timed span of the
program by REF_NOMINAL_S over the mean of the reference passes inside
it and next to it: a span is reported at the speed at which the
reference takes REF_NOMINAL_S. The reference is the benchmark's own
code and never calls the program, so a change to the program moves the
scaled times by exactly as much as it moves the raw ones; the raw times
stay in the run record.

Its three parts, about a third of the time each, resemble the program's
hot paths, because the drift slows different code by different amounts:
an event loop of heap pushes and pops over small slotted objects with a
deque and a dict (the engine, AQM and traffic layers), a
dynamic-programming sweep over float lists (the DTW kernel), and
resampling with numpy on small arrays (the bootstrap).
"""

from __future__ import annotations

import statistics
import time
from collections import deque
from heapq import heappop, heappush

import numpy as np

REF_NOMINAL_S = 0.1


class _Item:
    __slots__ = ("key", "size", "mark", "at")


def _event_loop(n: int) -> int:
    heap: list = []
    ring: deque = deque()
    table: dict = {}
    acc = 0
    for i in range(n):
        item = _Item()
        item.key = i
        item.size = 1500
        item.mark = i & 3
        item.at = i * 7
        heappush(heap, (item.at % 4093, i, item))
        ring.append(item)
        table[i & 511] = item
        if len(ring) > 48:
            acc += ring.popleft().size
        if len(heap) > 128:
            done = heappop(heap)[2]
            if done.mark == 3:
                acc -= done.size
    return acc


def _grid(n: int) -> float:
    xs = [float((i * 37) % 23) for i in range(n)]
    prev = [0.0] * n
    for j in range(1, n):
        prev[j] = prev[j - 1] + abs(xs[0] - xs[j])
    for i in range(1, n):
        xi = xs[i]
        row = [prev[0] + abs(xi - xs[0])] + [0.0] * (n - 1)
        for j in range(1, n):
            d, v, h = prev[j - 1], prev[j], row[j - 1]
            best = d if d <= v and d <= h else (v if v <= h else h)
            row[j] = abs(xi - xs[j]) + best
        prev = row
    return prev[-1]


def _resample(reps: int) -> float:
    rng = np.random.Generator(np.random.PCG64(1))
    values = np.linspace(10.0, 12.0, 30)
    iu = np.triu_indices(30, 1)
    acc = 0.0
    for _ in range(reps):
        x = values[rng.integers(0, 30, size=30)]
        y = values[rng.integers(0, 30, size=30)]
        eps = float(np.quantile(np.abs(x[:, None] - x[None, :])[iu], 0.95))
        acc += float(np.mean(np.abs(x[:, None] - y[None, :]) > eps))
    return acc


class SpeedLog:
    """Reference passes on the perf_counter clock."""

    def __init__(self):
        self.passes: list[tuple[float, float]] = []  # (mid-point, duration)

    def sample(self) -> float:
        """Time one pass of the reference work; returns its duration."""
        t0 = time.perf_counter()
        _event_loop(28_000)
        _grid(450)
        _resample(300)
        t1 = time.perf_counter()
        self.passes.append(((t0 + t1) / 2, t1 - t0))
        return t1 - t0

    def scaled(self, start: float, end: float, wall: float) -> float:
        """wall, spent between start and end, at the nominal speed: scaled
        by the passes inside the span and the nearest one on each side."""
        refs = ([d for t, d in self.passes if t <= start][-1:]
                + [d for t, d in self.passes if start < t < end]
                + [d for t, d in self.passes if t >= end][:1])
        return wall * REF_NOMINAL_S / statistics.mean(refs)

    def median(self) -> float:
        return statistics.median(d for _, d in self.passes)
