"""Time the event engine per preset and link mode, checking every run's output.

Usage:
    PYTHONPATH=src python3 benchmarks/bench_engine.py [--repeat 3]

Runs the six preset x mode cases of the golden-hash test
(``tests/test_engine.py`` GOLDEN: scalable+cubic, 10 s simulated, one
seed each) --repeat times and reports, per case, the median wall time
of one ``runner.run_one`` (the engine plus the in-memory summary),
events/s and delivered packets/s at that median.

Events are what the engine handles one at a time: packet arrivals,
controller updates, flow wake-ups and link services (one per
millisecond while backlogged on a bursty link, one per packet on a
smooth one). Acks are not events: each runs inside the link service
that delivers its packet. Events are counted in one extra, untimed run
with counting wrappers on the functions each event calls.

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

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "..", "tests"))
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

    print(f"{'case':<14} {'wall_s':>7} {'events':>8} {'events/s':>9} "
          f"{'pkts':>7} {'pkt/s':>8}")
    mismatched = []
    with tempfile.TemporaryDirectory() as tmp:
        for name in CASES:
            cfg, seed = golden_scenario(name)
            walls = []
            for _ in range(args.repeat):
                t0 = time.perf_counter()
                record = run_one(cfg, seed, "run-00000")
                walls.append(time.perf_counter() - t0)
                if run_dir_digests(record, tmp) != golden_digests(name):
                    mismatched.append(name)
            wall = statistics.median(walls)
            events = count_events(cfg, seed, name.split("-")[1])
            pkts = record.counters["dequeued"]
            print(f"{name:<14} {wall:>7.3f} {events:>8} {events / wall:>9.0f} "
                  f"{pkts:>7} {pkts / wall:>8.0f}")
    if mismatched:
        raise SystemExit("run directories differ from the golden digests: "
                         + ", ".join(sorted(set(mismatched))))


if __name__ == "__main__":
    main()
