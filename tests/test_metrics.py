"""Sampling, run records, and the on-disk run format."""

import json

import numpy as np
import pytest

from dualq.config import build_scenario, preset_sections
from dualq.engine import run_scenario
from dualq.core import Rng
from dualq.metrics import (
    FlowSummary,
    RunRecord,
    canonical_json,
    load_run_dir,
    summarize,
    write_run_dir,
)


def small_record(**kw):
    defaults = dict(
        run_id="r0",
        seed=1,
        rng_algorithm="mt19937",
        fingerprint="ab" * 32,
        duration_ns=30_000_000_000,
        config={"duration_ns": 30_000_000_000, "link": {"mtu": 1500}},
        flows=[FlowSummary("a", "cubic", 45_000_000)],
        # balanced: 2 packets still queued, 1 AQM drop and 3 marks, as
        # the series says
        counters={"enqueued": 30_003, "dequeued": 30_000, "drops": 1,
                  "drops_overflow": 0, "drops_aqm": 1,
                  "ecn_marks_l": 2, "ecn_marks_c": 1},
        samples=np.array([
            [16_000_000, 1, 1500, 0, 0],
            [32_000_000, 2, 3000, 3, 1],
        ], dtype=np.int64),
    )
    defaults.update(kw)
    return RunRecord(**defaults)


class TestThroughput:
    def test_45mb_in_30s_is_12mbps(self):
        rec = small_record()
        assert rec.avg_throughput_mbps == pytest.approx(12.0, rel=1e-12)

    def test_cumulative_is_sum_of_flows(self):
        rec = small_record(
            flows=[
                FlowSummary("a", "cubic", 30_000_000),
                FlowSummary("b", "scalable", 15_000_000),
            ]
        )
        per_flow = sum(rec.mbps(f.bytes) for f in rec.flows)
        assert rec.avg_throughput_mbps == pytest.approx(per_flow, rel=1e-12)

    def test_series_columns(self):
        rec = small_record()
        assert rec.series("qocc_pkts").tolist() == [1.0, 2.0]
        assert rec.series("ecn_marks").tolist() == [0.0, 3.0]


class TestSummarize:
    def test_from_real_run(self):
        cfg = build_scenario(preset_sections("low", duration_s=2.0))
        out = run_scenario(cfg, seed=4)
        rec = summarize("x", 4, Rng.algorithm, cfg.fingerprint(),
                        cfg.to_dict(), out)
        assert rec.seed == 4
        assert rec.rng_algorithm == "mt19937"
        assert rec.samples.dtype == np.int64
        assert rec.samples.tolist() == [list(s) for s in out.samples]
        assert rec.counters == out.aqm.counters()
        total = sum(f.bytes for f in rec.flows)
        assert rec.avg_throughput_mbps == pytest.approx(
            total * 8 / 2.0 / 1e6, rel=1e-12
        )


class TestRoundTrip:
    def test_write_load_identity(self, tmp_path):
        rec = small_record()
        d = tmp_path / "run"
        names = write_run_dir(rec, str(d))
        assert sorted(names) == ["flows.csv", "meta.json", "series.csv"]
        back = load_run_dir(str(d))
        assert back.run_id == rec.run_id
        assert back.seed == rec.seed
        assert back.fingerprint == rec.fingerprint
        assert back.samples.dtype == np.int64
        assert np.array_equal(back.samples, rec.samples)
        assert back.flows == rec.flows
        assert back.counters == rec.counters
        assert back.config == rec.config

    def test_write_is_deterministic(self, tmp_path):
        rec = small_record()
        d1 = tmp_path / "a"
        d2 = tmp_path / "b"
        write_run_dir(rec, str(d1))
        write_run_dir(rec, str(d2))
        for name in ("meta.json", "series.csv", "flows.csv"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_float_round_trip_exact(self, tmp_path):
        # mbps uses repr: parsing it back must give the derived float
        rec = small_record(flows=[FlowSummary("a", "cubic", 12_345_000)])
        d = tmp_path / "run"
        write_run_dir(rec, str(d))
        back = load_run_dir(str(d))
        stored = float((d / "flows.csv").read_text().splitlines()[1].split(",")[3])
        assert stored == rec.mbps(12_345_000) == back.mbps(back.flows[0].bytes)

    def test_meta_is_valid_sorted_json(self, tmp_path):
        rec = small_record()
        d = tmp_path / "run"
        write_run_dir(rec, str(d))
        text = (d / "meta.json").read_text()
        meta = json.loads(text)
        assert meta["rng"]["algorithm"] == "mt19937"
        assert text == canonical_json(meta)

    def test_load_rejects_foreign_header(self, tmp_path):
        rec = small_record()
        d = tmp_path / "run"
        write_run_dir(rec, str(d))
        series = d / "series.csv"
        series.write_text("time,stuff\n1,2\n")
        with pytest.raises(ValueError):
            load_run_dir(str(d))

    def test_load_rejects_comment_line(self, tmp_path):
        # series.csv has no comments: a '#' line is malformed, not skipped
        rec = small_record()
        d = tmp_path / "run"
        write_run_dir(rec, str(d))
        series = d / "series.csv"
        series.write_text(series.read_text() + "# 48000000,0,0,0,0\n")
        with pytest.raises(ValueError):
            load_run_dir(str(d))

    def test_load_rejects_qocc_bytes_off_mtu_times_qocc_pkts(self, tmp_path):
        # every packet is mtu bytes, so a byte backlog one off the packet
        # backlog times mtu is named by its line; the text is still the
        # writer's for the values it holds
        rec = small_record()
        rec.samples[1, 2] += 1
        d = tmp_path / "run"
        write_run_dir(rec, str(d))
        with pytest.raises(ValueError, match=r"series\.csv:3: '32000000,2,3001,3,1' "
                                             r"breaks qocc_bytes = mtu 1500 x "
                                             r"qocc_pkts$"):
            load_run_dir(str(d))

    def test_load_rejects_flow_bytes_off_a_multiple_of_mtu(self, tmp_path):
        # every delivered packet is mtu bytes; the row is otherwise the
        # writer's text for the values it holds
        rec = small_record(flows=[FlowSummary("a", "cubic", 30_000_000),
                                  FlowSummary("b", "cubic", 15_000_001)])
        d = tmp_path / "run"
        write_run_dir(rec, str(d))
        row = (d / "flows.csv").read_text().splitlines()[2]
        with pytest.raises(ValueError) as exc:
            load_run_dir(str(d))
        assert str(exc.value) == (f"{d / 'flows.csv'}:3: {row!r} delivers bytes "
                                  "that are not a multiple of mtu 1500")

    @pytest.mark.parametrize("link", [{}, {"mtu": "1500"}, {"mtu": True},
                                      {"mtu": 0}, {"mtu": 1 << 63}])
    def test_load_rejects_meta_without_an_int_mtu(self, tmp_path, link):
        rec = small_record(config={"duration_ns": 30_000_000_000, "link": link})
        d = tmp_path / "run"
        write_run_dir(rec, str(d))
        with pytest.raises(ValueError, match=r"meta\.json: config\.link\.mtu is "):
            load_run_dir(str(d))


class TestCanonicalJson:
    def test_sorted_and_stable(self):
        a = canonical_json({"b": 1, "a": [1.5, 2]})
        b = canonical_json({"a": [1.5, 2], "b": 1})
        assert a == b
        assert a.index('"a"') < a.index('"b"')
