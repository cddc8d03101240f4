"""The perfbench tracer's wrappers land on names the program still has.

``perfbench/tracing.py`` patches functions and methods by name
(``dualq.engine.heappop``, ``dualq.stats.testing.within_matrix``, ...);
a rename in the program would otherwise surface only as an
``AttributeError`` in a traced benchmark run.
"""

import importlib
import os
import sys

import dualq.cli  # noqa: F401  (imports every module the tracer wraps)
from dualq.config import build_scenario, preset_sections

PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench")


def test_install_resolves_every_wrapped_name(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    tracing = importlib.import_module("tracing")
    modules = {name: mod for name, mod in sys.modules.items()
               if name == "dualq" or name.startswith("dualq.")}
    before = {name: dict(vars(mod)) for name, mod in modules.items()}
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer, modules)
        testing = modules["dualq.stats.testing"]
        assert testing.within_matrix is not before[testing.__name__]["within_matrix"]
    finally:
        tracer.uninstall()
    assert {name: dict(vars(mod)) for name, mod in modules.items()} == before


def test_corpus_load_is_traced(tmp_path, monkeypatch):
    # perfbench's corpus-load figures come from these spans; a loader that
    # stopped calling through the wrapped names would zero them silently
    corpus = str(tmp_path / "corpus")
    assert dualq.cli.main(["batch", "--preset", "low", "--duration", "0.5",
                           "--runs", "2", "--out", corpus]) == 0
    monkeypatch.syspath_prepend(PERFBENCH)
    tracing = importlib.import_module("tracing")
    modules = {name: mod for name, mod in sys.modules.items()
               if name == "dualq" or name.startswith("dualq.")}
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer, modules)
        assert len(dualq.cli.load_corpus(corpus)) == 2
    finally:
        tracer.uninstall()
    for name in ("runner.load_corpus", "runner.verify_corpus", "runner.hash",
                 "metrics.load_run_dir"):
        assert tracer.calls[name][0] >= 1, name


def test_packet_path_is_traced(monkeypatch):
    # perfbench's per-packet figures count calls of the wrapped methods; a
    # packet path that went round them would zero those figures silently
    sections = preset_sections("low", params="default", flows=("scalable", "cubic"),
                               duration_s=0.5, mode="bursty")
    cfg = build_scenario(sections)
    monkeypatch.syspath_prepend(PERFBENCH)
    tracing = importlib.import_module("tracing")
    modules = {name: mod for name, mod in sys.modules.items()
               if name == "dualq" or name.startswith("dualq.")}
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer, modules)
        out = modules["dualq.runner"].run_scenario(cfg, 1)
    finally:
        tracer.uninstall()
    calls = tracer.calls
    assert out.aqm.deq_total > 0
    assert calls["aqm.enqueue"][0] == out.aqm.enq_total
    assert calls["traffic.on_deliver"][0] == out.aqm.deq_total
    assert calls["traffic.pump"][2] == sum(s.next_seq for s in out.senders)


def test_distances_are_traced(tmp_path, monkeypatch):
    # perfbench's stats.dtw.s times the within_matrix spans; a distance
    # path that went round the wrapped name would zero it silently
    m, k = str(tmp_path / "m"), str(tmp_path / "k")
    for corpus, seed_base in ((m, "0"), (k, "100")):
        assert dualq.cli.main(["batch", "--preset", "low", "--duration", "0.5",
                               "--runs", "2", "--seed-base", seed_base,
                               "--out", corpus]) == 0
    monkeypatch.syspath_prepend(PERFBENCH)
    tracing = importlib.import_module("tracing")
    testing = sys.modules["dualq.stats.testing"]
    modules = {name: mod for name, mod in sys.modules.items()
               if name == "dualq" or name.startswith("dualq.")}
    kernel_calls = []
    kernel = testing.dtw_norm_pairs

    def timed_kernel(*args):
        kernel_calls.append(tracing._clock())
        return kernel(*args)

    monkeypatch.setattr(testing, "dtw_norm_pairs", timed_kernel)
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer, modules)
        assert dualq.cli.main(["validate", m, k, "--metrics",
                               "throughput,queue_occupancy",
                               "--out", str(tmp_path / "rep")]) == 0
    finally:
        tracer.uninstall()
    spans = [s for s in tracer.spans if s[1] == "stats.dtw.within_matrix"]
    assert len(spans) == 2  # one per metric: throughput, then queue_occupancy
    _, _, start, end, _, _ = spans[1]
    assert end > start
    # the series metric's DTW ran inside its span
    assert len(kernel_calls) == 1 and start < kernel_calls[0] < end
