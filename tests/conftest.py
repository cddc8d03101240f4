"""Make the shared oracle helpers importable from any test module."""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture()
def dtw_kernel_calls(monkeypatch):
    """Each call dtw_norm_pairs makes into a DTW kernel, as (name, pairs,
    last argument): the cost dtype of dtw_many, the vmax of dtw_packed."""
    from dualq.stats import dtw

    calls = []
    for name in ("dtw_many", "dtw_packed"):
        def recorded(xs, ys, *args, name=name, real=getattr(dtw, name)):
            calls.append((name, len(xs), args[-1]))
            return real(xs, ys, *args)
        monkeypatch.setattr(dtw, name, recorded)
    return calls


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance verdict lines after the captured test output."""
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "VERDICTS", None) if mod else None
    if not lines:
        return
    terminalreporter.section("acceptance criteria")
    for line in lines:
        terminalreporter.write_line(line)
