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
