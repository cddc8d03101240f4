"""Make the shared oracle helpers importable from any test module."""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture()
def dtw_kernel_calls(monkeypatch):
    """Each call dtw_norm_pairs makes into the DTW kernel, as
    ("dtw_packed", pairs, keys) with the key dtype, np.int32 or
    np.int64."""
    from dualq.stats import dtw

    calls, real = [], dtw.dtw_packed

    def dtw_packed(xs, ys, band, vmax, keys):
        calls.append(("dtw_packed", len(xs), keys))
        return real(xs, ys, band, vmax, keys)

    monkeypatch.setattr(dtw, "dtw_packed", dtw_packed)
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
