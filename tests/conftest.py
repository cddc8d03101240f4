"""Make the shared oracle helpers importable from any test module."""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture()
def dtw_kernel_calls(monkeypatch):
    """Each call dtw_norm_pairs makes into a DTW kernel: ("dtw_many",
    pairs), or ("dtw_packed", pairs, (g, vmax)) with the route
    packed_gcd_vmax gave the call's group."""
    from dualq.stats import dtw

    calls, route = [], [None]
    real_route, real_many, real_packed = (dtw.packed_gcd_vmax, dtw.dtw_many,
                                          dtw.dtw_packed)

    def packed_gcd_vmax(xs, ys):
        route[0] = real_route(xs, ys)
        return route[0]

    def dtw_many(xs, ys, *args):
        calls.append(("dtw_many", len(xs)))
        return real_many(xs, ys, *args)

    def dtw_packed(xs, ys, *args):
        calls.append(("dtw_packed", len(xs), route[0]))
        return real_packed(xs, ys, *args)

    for fn in (packed_gcd_vmax, dtw_many, dtw_packed):
        monkeypatch.setattr(dtw, fn.__name__, fn)
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
