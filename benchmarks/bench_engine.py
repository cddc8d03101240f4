"""Time the event engine per preset and link mode, checking every run's output.

Usage:
    PYTHONPATH=src python3 benchmarks/bench_engine.py [--repeat 3]

Runs the six preset x mode cases of the golden-hash test
(``tests/test_engine.py`` GOLDEN: scalable+cubic, 10 s simulated, one
seed each) --repeat times and reports, per case, the median wall time
of one ``runner.run_one`` (the engine plus the in-memory summary),
events/s and delivered packets/s at that median.

The host's speed drifts by more than a 10% engine change, so each case
also reports its median scaled to the reference speed, as perfbench
does: a ``perfbench/reference.py`` pass runs before each case's first
timed run and after every timed run, and ``SpeedLog.scaled`` scales each
run by the passes around it. Compare scaled_s across builds; wall_s is
the raw time.

Events are what the engine handles one at a time: the link services
(one per millisecond while backlogged on a bursty link, one per packet
on a smooth one), controller updates and flow wake-ups its loop chooses
among, and the packet arrivals it drains from its FIFO into the AQM
before each of them. Acks are not events: each runs inside the link
service that delivers its packet. Events are counted in one extra,
untimed run with counting wrappers on the functions each event calls.

Every timed run is written as a run directory and its sha256 digests
must equal the golden test's, or the script exits non-zero.
"""

import argparse
import os
import statistics
import sys
import tempfile
import time
from contextlib import contextmanager

from dualq import engine
from dualq.aqm import DualPi2
from dualq.link import DeliveryTrace
from dualq.runner import run_one

_ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path[:0] = [os.path.join(_ROOT, "tests"), os.path.join(_ROOT, "perfbench")]
from reference import SpeedLog  # noqa: E402
from test_engine import golden_digests, golden_scenario, run_dir_digests  # noqa: E402

CASES = [f"{preset}-{mode}" for preset in ("low", "medium", "high")
         for mode in ("bursty", "smooth")]

# (owner, function, counter): every engine event calls exactly one of
# enqueue (arrival), pi2_update (update), the engine module's heappop
# (wake-up), and, for link services, opportunities (bursty) or dequeue
# (smooth, once each)
_COUNTED = [
    (DualPi2, "enqueue", "arrival"),
    (DualPi2, "pi2_update", "update"),
    (engine, "heappop", "wake"),
    (DeliveryTrace, "opportunities", "link-bursty"),
    (DualPi2, "dequeue", "link-smooth"),
]


@contextmanager
def counting():
    counts = dict.fromkeys((name for _, _, name in _COUNTED), 0)
    saved = []
    for owner, attr, name in _COUNTED:
        fn = getattr(owner, attr)
        saved.append((owner, attr, vars(owner).get(attr)))

        def wrapper(*args, _fn=fn, _name=name):
            counts[_name] += 1
            return _fn(*args)

        setattr(owner, attr, wrapper)
    try:
        yield counts
    finally:
        for owner, attr, original in reversed(saved):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)


def count_events(cfg, seed, mode):
    with counting() as c:
        run_one(cfg, seed, "run-00000")
    return c["arrival"] + c["update"] + c["wake"] + c[f"link-{mode}"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=3,
                        help="timed runs per case; the median is reported")
    args = parser.parse_args()

    print(f"{'case':<14} {'wall_s':>7} {'scaled_s':>8} {'events':>8} "
          f"{'events/s':>9} {'pkts':>7} {'pkt/s':>8}")
    mismatched = []
    speed = SpeedLog()
    with tempfile.TemporaryDirectory() as tmp:
        for name in CASES:
            cfg, seed = golden_scenario(name)
            spans = []
            speed.sample()
            for _ in range(args.repeat):
                t0 = time.perf_counter()
                record = run_one(cfg, seed, "run-00000")
                t1 = time.perf_counter()
                speed.sample()
                spans.append((t0, t1, t1 - t0))
                if run_dir_digests(record, tmp) != golden_digests(name):
                    mismatched.append(name)
            wall = statistics.median(w for _, _, w in spans)
            scaled = statistics.median(speed.scaled(*span) for span in spans)
            events = count_events(cfg, seed, name.split("-")[1])
            pkts = record.counters["dequeued"]
            print(f"{name:<14} {wall:>7.3f} {scaled:>8.3f} {events:>8} "
                  f"{events / wall:>9.0f} {pkts:>7} {pkts / wall:>8.0f}")
    if mismatched:
        raise SystemExit("run directories differ from the golden digests: "
                         + ", ".join(sorted(set(mismatched))))


if __name__ == "__main__":
    main()
