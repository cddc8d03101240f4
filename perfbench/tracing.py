"""Spans and per-layer counts, recorded from outside the program.

The tracer replaces public functions and methods at the names their
callers look up (``dualq.runner.run_scenario``, ``DualPi2.enqueue``, ...)
with wrappers, and restores them afterwards. Two kinds of wrapper:

* a span wrapper records (id, name, start, end, parent, child time) for
  calls made a few hundred times per command at most;
* a call wrapper, for the per-packet hot path, adds its call count and
  nanoseconds to a per-name total and to the child time of the span
  that is open, instead of keeping one record per call.

A span's self time is its duration minus its child time, which covers
both its child spans and the hot calls made directly under it. Spans
stay in memory until ``dump`` writes them out.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager

_clock = time.perf_counter_ns


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [id, name, start_ns, end_ns, parent, child_ns]
        self.calls: dict[str, list[int]] = {}  # name -> [calls, ns, measured]
        self._stack: list[int] = []
        self._child_ns = 0
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # recording

    def _open(self, name: str) -> list:
        rec = [len(self.spans), name, _clock(), 0,
               self._stack[-1] if self._stack else None, self._child_ns]
        self.spans.append(rec)
        self._stack.append(rec[0])
        self._child_ns = 0
        return rec

    def _close(self, rec: list) -> None:
        rec[3] = _clock()
        saved = rec[5]
        rec[5] = self._child_ns
        self._stack.pop()
        self._child_ns = saved + (rec[3] - rec[2])

    @contextmanager
    def region(self, name: str):
        """A span around code of the benchmark itself (a command, set-up)."""
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def span(self, name: str, fn, measure=None):
        """Wrap fn so that each call is a span; measure(args, kwargs, result)
        returns a count added to the name's total."""
        stat = self.calls.setdefault(name, [0, 0, 0])

        def wrapper(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            stat[0] += 1
            stat[1] += rec[3] - rec[2]
            if measure is not None:
                stat[2] += measure(args, kwargs, result)
            return result

        return wrapper

    def call(self, name: str, fn, measure=None):
        """Wrap a hot-path fn: totals only, no span record per call."""
        stat = self.calls.setdefault(name, [0, 0, 0])
        tracer = self

        if measure is None:
            def wrapper(*args):
                t0 = _clock()
                result = fn(*args)
                dt = _clock() - t0
                stat[0] += 1
                stat[1] += dt
                tracer._child_ns += dt
                return result
        else:
            def wrapper(*args):
                t0 = _clock()
                result = fn(*args)
                dt = _clock() - t0
                stat[0] += 1
                stat[1] += dt
                stat[2] += measure(args, result)
                tracer._child_ns += dt
                return result

        return wrapper

    def count(self, name: str, fn):
        """Wrap fn to count its calls only; its time stays with the caller."""
        stat = self.calls.setdefault(name, [0, 0, 0])

        def wrapper(*args):
            stat[0] += 1
            return fn(*args)

        return wrapper

    # ------------------------------------------------------------------
    # installing wrappers

    def patch(self, owner, attr: str, wrapper) -> None:
        """Install wrapper as owner.attr; the original comes back on uninstall.

        The original is read with ``vars`` so that a method inherited from
        a base class is patched on the subclass named, not on the base.
        """
        self._patches.append((owner, attr, vars(owner).get(attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # reading

    def self_ns(self, name: str) -> int:
        return sum(s[3] - s[2] - s[5] for s in self.spans if s[1] == name)

    def dump(self) -> dict:
        return {
            "spans": [
                {"id": s[0], "name": s[1], "start_ns": s[2], "end_ns": s[3],
                 "parent": s[4], "self_ns": s[3] - s[2] - s[5]}
                for s in self.spans
            ],
            "calls": {k: {"calls": v[0], "ns": v[1], "measured": v[2]}
                      for k, v in sorted(self.calls.items())},
        }


def install(tracer: Tracer, modules: dict) -> None:
    """Wrap every layer of the program at the names its callers use.

    ``modules`` maps module names (``dualq.cli`` ...) to the imported
    modules, so the wrappers land on the objects the run will use.
    """
    cli = modules["dualq.cli"]
    runner = modules["dualq.runner"]
    engine = modules["dualq.engine"]
    testing = modules["dualq.stats.testing"]
    config = modules["dualq.config"]
    aqm = modules["dualq.aqm"]
    link = modules["dualq.link"]
    traffic = modules["dualq.traffic"]
    metrics = modules["dualq.metrics"]
    t = tracer
    patch = t.patch

    def aqm_signals(args, kwargs, out):
        a = out.aqm
        t.calls.setdefault("aqm.drops", [0, 0, 0])[2] += a.drops_total
        t.calls.setdefault("aqm.ecn_marks", [0, 0, 0])[2] += (
            a.ecn_marks_l + a.ecn_marks_c
        )
        return 0

    def bytes_written(args, kwargs, names):
        return sum(os.path.getsize(os.path.join(args[1], n)) for n in names)

    # engine: one run, and the events it pops off its heap
    patch(runner, "run_scenario",
          t.span("engine.run_scenario", runner.run_scenario, aqm_signals))
    patch(engine, "heappop", t.count("engine.events", engine.heappop))
    # aqm
    for meth in ("enqueue", "dequeue", "pi2_update"):
        patch(aqm.DualPi2, meth, t.call(f"aqm.{meth}", getattr(aqm.DualPi2, meth)))
    # link: one pacer call per packet (smooth), one trace call per ms (bursty)
    patch(link.SmoothPacer, "next_interval_ns",
          t.call("link", link.SmoothPacer.next_interval_ns))
    patch(link.DeliveryTrace, "opportunities",
          t.call("link", link.DeliveryTrace.opportunities))
    # traffic
    for cls in (traffic.ScalableSender, traffic.ClassicSender):
        patch(cls, "pump", t.call("traffic.pump", cls.pump,
                                  lambda args, out: len(out)))
        patch(cls, "on_ack", t.call("traffic.on_ack", cls.on_ack))
        patch(cls, "on_loss", t.call("traffic.on_loss", cls.on_loss))
    patch(traffic.Receiver, "on_deliver",
          t.call("traffic.on_deliver", traffic.Receiver.on_deliver))
    # metrics
    patch(metrics.SampleCollector, "take",
          t.call("metrics.take", metrics.SampleCollector.take))
    patch(runner, "summarize", t.span("metrics.summarize", runner.summarize))
    patch(runner, "write_run_dir",
          t.span("metrics.write_run_dir", runner.write_run_dir, bytes_written))
    patch(runner, "load_run_dir", t.span("metrics.load_run_dir", runner.load_run_dir))
    # runner
    patch(runner, "sha256_file", t.span("runner.hash", runner.sha256_file))
    patch(runner, "verify_corpus", t.span("runner.verify_corpus", runner.verify_corpus))
    patch(cli, "load_corpus", t.span("runner.load_corpus", cli.load_corpus))
    patch(cli, "run_batch", t.span("runner.run_batch", cli.run_batch))
    # stats.dtw: the distance matrices and every DTW pair in them
    patch(testing, "within_matrix",
          t.span("stats.dtw.within_matrix", testing.within_matrix))
    patch(testing, "cross_matrix",
          t.span("stats.dtw.cross_matrix", testing.cross_matrix))
    patch(testing, "dtw_norm",
          t.call("stats.dtw.pair", testing.dtw_norm,
                 lambda args, out: len(args[0]) * len(args[1])))
    # stats.testing
    patch(cli, "exceedance_test",
          t.span("stats.testing.exceedance_test", cli.exceedance_test))
    replicates = t.span(
        "stats.testing.bootstrap", testing.bootstrap_exceedance,
        lambda args, kwargs, out: out.B,
    )
    patch(cli, "bootstrap_exceedance", replicates)
    patch(testing, "bootstrap_exceedance", replicates)
    patch(cli, "ci_width_curve",
          t.span("stats.testing.ci_width_curve", cli.ci_width_curve))
    # stats.report
    for name in ("write_test_results", "write_bootstrap_results", "write_ci_width"):
        patch(cli, name, t.span("stats.report.write", getattr(cli, name)))
    # config
    build = t.span("config.build_scenario", config.build_scenario)
    patch(cli, "build_scenario", build)
    patch(config, "build_scenario", build)


def layer_metrics(parts: list[tuple[Tracer, float]]) -> dict[str, tuple[float, str]]:
    """Per-layer figures as {name: (value, unit)}.

    ``parts`` pairs each tracer with a weight: the set-up tracer counts
    once, the tracer of n traced commands counts 1/n, so the figures
    describe one set-up plus one timed command.
    """
    s = 1e-9
    totals: dict[str, list[float]] = {}
    for tr, w in parts:
        for name, stat in tr.calls.items():
            acc = totals.setdefault(name, [0.0, 0.0, 0.0])
            for k in range(3):
                acc[k] += w * stat[k]

    def total(name):
        return totals.get(name, (0.0, 0.0, 0.0))

    def ns(name):
        return total(name)[1]

    def calls(name):
        return total(name)[0]

    def measured(name):
        return total(name)[2]

    engine_self_ns = sum(w * tr.self_ns("engine.run_scenario") for tr, w in parts)
    link_calls, link_ns, _ = total("link")
    pairs, _, cells = total("stats.dtw.pair")
    dtw_ns = ns("stats.dtw.within_matrix") + ns("stats.dtw.cross_matrix")
    replicates = measured("stats.testing.bootstrap")
    return {
        "engine.run_scenario_s": (ns("engine.run_scenario") * s, "s"),
        "engine.self_s": (engine_self_ns * s, "s"),
        "engine.events": (calls("engine.events"), "count"),
        "aqm.enqueue_calls": (calls("aqm.enqueue"), "count"),
        "aqm.enqueue_ns": (ns("aqm.enqueue"), "ns"),
        "aqm.dequeue_calls": (calls("aqm.dequeue"), "count"),
        "aqm.dequeue_ns": (ns("aqm.dequeue"), "ns"),
        "aqm.pi2_update_ns": (ns("aqm.pi2_update"), "ns"),
        "aqm.drops": (measured("aqm.drops"), "count"),
        "aqm.ecn_marks": (measured("aqm.ecn_marks"), "count"),
        "link.calls": (link_calls, "count"),
        "link.ns_per_call": (link_ns / link_calls if link_calls else 0.0, "ns"),
        "traffic.packets_sent": (measured("traffic.pump"), "count"),
        "traffic.pump_ns": (ns("traffic.pump"), "ns"),
        "traffic.on_ack_ns": (ns("traffic.on_ack"), "ns"),
        "traffic.on_loss_calls": (calls("traffic.on_loss"), "count"),
        "traffic.on_deliver_ns": (ns("traffic.on_deliver"), "ns"),
        "metrics.take_ns": (ns("metrics.take"), "ns"),
        "metrics.summarize_s": (ns("metrics.summarize") * s, "s"),
        "metrics.write_run_dir_s": (ns("metrics.write_run_dir") * s, "s"),
        "metrics.bytes_written": (measured("metrics.write_run_dir"), "bytes"),
        "metrics.load_run_dir_s": (ns("metrics.load_run_dir") * s, "s"),
        "runner.hash_s": (ns("runner.hash") * s, "s"),
        "runner.verify_corpus_s": (ns("runner.verify_corpus") * s, "s"),
        "runner.load_corpus_s": (ns("runner.load_corpus") * s, "s"),
        "stats.dtw.pairs": (pairs, "count"),
        "stats.dtw.cells": (cells, "count"),
        "stats.dtw.s": (dtw_ns * s, "s"),
        "stats.dtw.ns_per_cell": (dtw_ns / cells if cells else 0.0, "ns"),
        "stats.testing.exceedance_s": (ns("stats.testing.exceedance_test") * s, "s"),
        "stats.testing.bootstrap_s": (ns("stats.testing.bootstrap") * s, "s"),
        "stats.testing.replicate_us": (
            ns("stats.testing.bootstrap") * 1e-3 / replicates if replicates else 0.0,
            "us",
        ),
        "stats.testing.ci_width_curve_s": (
            ns("stats.testing.ci_width_curve") * s, "s"
        ),
        "stats.report.write_s": (ns("stats.report.write") * s, "s"),
        "config.build_scenario_s": (ns("config.build_scenario") * s, "s"),
    }


def write(path: str, phases: dict[str, Tracer]) -> None:
    with open(path, "w", encoding="ascii") as fh:
        json.dump({name: t.dump() for name, t in phases.items()}, fh)
