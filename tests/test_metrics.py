"""Sampling, run records, and the on-disk run format."""

import json
import os
import re
import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dualq.config import apply_overrides, build_scenario, preset_sections
from dualq.engine import run_scenario
from dualq.core import Rng
from dualq.link import most_deliveries
from dualq.runner import run_one
from dualq.metrics import (
    META_NAME,
    RUN_FILES,
    FlowSummary,
    RunRecord,
    canonical_json,
    load_run_dir,
    summarize,
    write_run_dir,
)

from _oracles import run_record_oracle


# two controller samples, at 16 and 32 ms; a buffer of 5 packets; a 12 Gbps
# link, which delivers at most 32,000 packets in the 32 ms
CONFIG = {"duration_ns": 32_000_000,
          "link": {"mtu": 1500, "rate_bps": 12_000_000_000, "mode": "bursty"},
          "aqm": {"tupdate_ns": 16_000_000, "limit_bytes": 7_500}}
# 30 s on a 12 Mbps link: exactly 30,000 packets at most
CONFIG_30S = {**CONFIG, "duration_ns": 30_000_000_000,
              "link": {**CONFIG["link"], "rate_bps": 12_000_000}}


def small_record(**kw):
    defaults = dict(
        run_id="r0",
        seed=1,
        rng_algorithm="mt19937",
        fingerprint="ab" * 32,
        config=CONFIG,
        flows=[FlowSummary("a", "cubic", 30_000)],
        # balanced: 2 packets still queued, 1 AQM drop and 3 marks, as
        # the series says
        counters={"enqueued": 30_003, "dequeued": 30_000, "drops": 1,
                  "drops_overflow": 0, "drops_aqm": 1,
                  "ecn_marks_l": 2, "ecn_marks_c": 1},
        samples=np.array([
            [16_000_000, 1, 0, 0],
            [32_000_000, 2, 3, 1],
        ], dtype=np.int64),
    )
    defaults.update(kw)
    return RunRecord(**defaults)


class TestThroughput:
    def test_45mb_in_30s_is_12mbps(self):
        # 30,000 packets of 1500 bytes
        rec = small_record(config=CONFIG_30S)
        assert rec.avg_throughput_mbps == pytest.approx(12.0, rel=1e-12)

    def test_cumulative_is_sum_of_flows(self):
        rec = small_record(
            config=CONFIG_30S,
            flows=[
                FlowSummary("a", "cubic", 20_000),
                FlowSummary("b", "scalable", 10_000),
            ]
        )
        per_flow = sum(rec.mbps(f.packets) for f in rec.flows)
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
        total = sum(f.packets for f in rec.flows)
        assert rec.avg_throughput_mbps == pytest.approx(
            total * cfg.link.mtu * 8 / 2.0 / 1e6, rel=1e-12
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
        rec = small_record(flows=[FlowSummary("a", "cubic", 8_230)],
                           counters={**small_record().counters, "enqueued": 8_233,
                                     "dequeued": 8_230})
        d = tmp_path / "run"
        write_run_dir(rec, str(d))
        back = load_run_dir(str(d))
        stored = float((d / "flows.csv").read_text().splitlines()[1].split(",")[3])
        assert stored == rec.mbps(8_230) == back.mbps(back.flows[0].packets)

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
        # backlog times mtu is named by its line; a record cannot hold it,
        # so the row is edited in the file, as the writer's text for its
        # values
        d = tmp_path / "run"
        write_run_dir(small_record(), str(d))
        series = d / "series.csv"
        series.write_text(series.read_text().replace("32000000,2,3000,",
                                                     "32000000,2,3001,"))
        with pytest.raises(ValueError, match=r"series\.csv:3: '32000000,2,3001,3,1' "
                                             r"breaks qocc_bytes = mtu 1500 x "
                                             r"qocc_pkts$"):
            load_run_dir(str(d))

    def test_load_rejects_flow_bytes_off_a_multiple_of_mtu(self, tmp_path):
        # every delivered packet is mtu bytes; a record cannot hold the
        # row, so it is edited in the file, as the writer's text for its
        # values
        rec = small_record(flows=[FlowSummary("a", "cubic", 20_000),
                                  FlowSummary("b", "cubic", 10_000)])
        d = tmp_path / "run"
        write_run_dir(rec, str(d))
        flows = d / "flows.csv"
        lines = flows.read_text().splitlines()
        row = f"b,cubic,15000001,{15_000_001 * 8.0 / (32_000_000 * 1e-9) / 1e6!r}"
        flows.write_text("\n".join(lines[:2] + [row]) + "\n")
        with pytest.raises(ValueError) as exc:
            load_run_dir(str(d))
        assert str(exc.value) == (f"{d / 'flows.csv'}:3: {row!r} delivers bytes "
                                  "that are not a multiple of mtu 1500")

    @pytest.mark.parametrize("link", [{}, {"mtu": "1500"}, {"mtu": True},
                                      {"mtu": 0}, {"mtu": 1 << 63}])
    def test_load_rejects_meta_without_an_int_mtu(self, tmp_path, link):
        # the writer derives bytes from the mtu, so the meta.json it wrote
        # is edited to hold the bad one
        d = tmp_path / "run"
        write_run_dir(small_record(), str(d))
        meta = json.loads((d / "meta.json").read_text())
        meta["config"]["link"] = link
        (d / "meta.json").write_text(canonical_json(meta))
        with pytest.raises(ValueError, match=r"meta\.json: config\.link\.mtu is "):
            load_run_dir(str(d))


class TestNegativeCounts:
    """Every count the engine writes is a count: the writer writes a record
    with a negative one as consistently as any other, and the loader must
    refuse it, naming the file and, in a CSV, the line."""

    @pytest.mark.parametrize("column, values, line", [
        # the series' sums and final backlog stay those the counters balance
        (1, [-1, 2], 2),  # qocc_pkts
        (2, [4, -1], 3),  # ecn_marks
        (3, [2, -1], 3),  # drops
    ])
    def test_series_count(self, tmp_path, column, values, line):
        samples = small_record().samples.copy()
        samples[:, column] = values
        d = tmp_path / "run"
        write_run_dir(small_record(samples=samples), str(d))
        with pytest.raises(ValueError, match=rf"series\.csv:{line}: .* negative"):
            load_run_dir(str(d))

    def test_flow_bytes(self, tmp_path):
        d = tmp_path / "run"
        write_run_dir(small_record(flows=[FlowSummary("a", "cubic", 30_000),
                                          FlowSummary("b", "cubic", -351)]), str(d))
        with pytest.raises(ValueError, match=r"flows\.csv:3: .* negative"):
            load_run_dir(str(d))

    def test_counter(self, tmp_path):
        # drops = drops_overflow + drops_aqm = the series' drops still holds
        counters = {**small_record().counters, "drops_overflow": -1, "drops_aqm": 2}
        d = tmp_path / "run"
        write_run_dir(small_record(counters=counters), str(d))
        with pytest.raises(ValueError, match=r"meta\.json: .*negative"):
            load_run_dir(str(d))


class TestCountersFromTheRun:
    """The loader derives five of the seven counters from flows.csv and
    series.csv, so a stored counter that the run does not give is refused."""

    def test_flows_beyond_the_dequeued_count(self, tmp_path):
        # a low 0.5 s run whose first flow's packets were multiplied by 10
        # and written back by the writer, which recomputes every rate: it
        # loaded at 87.8 Mbps on a 12 Mbps link, flows.csv holding 3,657
        # packets against dequeued 489
        sections = preset_sections("low", flows=("scalable", "cubic"),
                                   duration_s=0.5)
        record = run_one(build_scenario(sections), 1, "run-00001")
        record.flows[0].packets *= 10
        d = tmp_path / "run"
        write_run_dir(record, str(d))
        with pytest.raises(ValueError, match=r"meta\.json: .*summary\.counters\."
                                             r"dequeued"):
            load_run_dir(str(d))


class TestDeliveryBound:
    """On a link without a trace file, no run delivers more packets than the
    link serves in its duration: 30,000 in CONFIG_30S's 30 s at 12 Mbps on a
    bursty link, one more on a smooth one, which serves at 0 too."""

    @staticmethod
    def record(mode, packets, **link):
        # small_record's two samples, at 15 and 30 s
        config = {**CONFIG_30S, "link": {**CONFIG_30S["link"], "mode": mode, **link},
                  "aqm": {**CONFIG_30S["aqm"], "tupdate_ns": 15 * 10**9}}
        samples = small_record().samples.copy()
        samples[:, 0] = [15 * 10**9, 30 * 10**9]
        counters = {**small_record().counters, "enqueued": packets + 3,
                    "dequeued": packets}
        return small_record(config=config, counters=counters, samples=samples,
                            flows=[FlowSummary("a", "cubic", packets)])

    @pytest.mark.parametrize("mode, most", [("bursty", 30_000), ("smooth", 30_001)])
    def test_a_record_at_the_bound_loads(self, tmp_path, mode, most):
        d = tmp_path / "run"
        write_run_dir(self.record(mode, most), str(d))
        assert load_run_dir(str(d)).counters["dequeued"] == most

    @pytest.mark.parametrize("mode, most", [("bursty", 30_000), ("smooth", 30_001)])
    def test_one_packet_over_is_refused(self, tmp_path, mode, most):
        d = tmp_path / "run"
        write_run_dir(self.record(mode, most + 1), str(d))
        with pytest.raises(ValueError, match=rf"meta\.json: summary\.counters\."
                                             rf"dequeued is {most + 1}, more than "
                                             rf"the link's {most} deliveries$"):
            load_run_dir(str(d))

    def test_a_trace_file_sets_the_service_not_the_rate(self, tmp_path):
        # rate_bps may then be anything the config takes, 0 included
        d = tmp_path / "run"
        write_run_dir(self.record("bursty", 30_001, rate_bps=0,
                                  trace_file="sha256:" + "0" * 64), str(d))
        assert load_run_dir(str(d)).counters["dequeued"] == 30_001

    @pytest.mark.parametrize("link, what", [
        ({"rate_bps": 12e6}, r"config\.link\.rate_bps is 12000000\.0, not int"),
        ({"rate_bps": 0}, r"config\.link\.rate_bps is 0, not a positive int64"),
        ({"mode": "fluid"}, r"'fluid' is not a valid LinkMode"),
        ({"mode": None}, r"None is not a valid LinkMode"),
    ])
    def test_rate_and_mode_are_checked(self, tmp_path, link, what):
        d = tmp_path / "run"
        write_run_dir(small_record(), str(d))
        meta = json.loads((d / "meta.json").read_text())
        meta["config"]["link"].update(link)
        (d / "meta.json").write_text(canonical_json(meta))
        with pytest.raises(ValueError, match=rf"meta\.json: {what}$"):
            load_run_dir(str(d))


class TestBlankLine:
    """np.loadtxt skips a blank line and numbers its rows without it, so a
    blank line anywhere but the end is itself the error, named by its line;
    behind it, a bad row would be named by the line before its own."""

    @pytest.mark.parametrize("at, edit, line", [
        # after the header, in front of a row whose qocc_bytes is off
        (1, ("32000000,2,3000,", "32000000,2,3001,"), 2),
        # after the header, in front of a negative value
        (1, ("32000000,2,3000,3,1", "32000000,2,3000,3,-1"), 2),
        # between the rows, and a second one at the end
        (2, ("", ""), 3),
        (3, ("", ""), 4),
    ])
    def test_named_by_its_own_line(self, tmp_path, at, edit, line):
        d = tmp_path / "run"
        write_run_dir(small_record(), str(d))
        series = d / "series.csv"
        lines = series.read_text().replace(*edit).split("\n")
        lines.insert(at, "")
        series.write_text("\n".join(lines))
        with pytest.raises(ValueError, match=rf"series\.csv:{line}: blank line$"):
            load_run_dir(str(d))

    def test_named_without_the_final_newline(self, tmp_path):
        # the header, a blank line and the two rows: as many lines as the
        # writer's file, but the last is a row
        d = tmp_path / "run"
        write_run_dir(small_record(), str(d))
        series = d / "series.csv"
        lines = series.read_text().split("\n")
        series.write_text("\n".join(lines[:1] + [""] + lines[1:-1]))
        with pytest.raises(ValueError, match=r"series\.csv:2: blank line$"):
            load_run_dir(str(d))


class TestBufferBound:
    """The AQM admits at most limit_bytes // mtu packets, so no sample
    queues more."""

    def test_one_packet_over_is_named_by_its_line(self, tmp_path):
        # CONFIG's buffer holds 5 packets; the writer keeps qocc_bytes =
        # mtu x qocc_pkts and the counters balance the final backlog
        samples = small_record().samples.copy()
        samples[1, 1] = 6
        counters = {**small_record().counters, "enqueued": 30_007}
        d = tmp_path / "run"
        write_run_dir(small_record(samples=samples, counters=counters), str(d))
        with pytest.raises(ValueError, match=r"series\.csv:3: '32000000,6,9000,3,1' "
                                             r"queues more than the buffer's "
                                             r"limit_bytes // mtu = 5 packets$"):
            load_run_dir(str(d))

    def test_a_run_at_the_limit_loads(self, tmp_path):
        # a 20,000-byte buffer holds 13 packets; with tupdate off the
        # millisecond grid, some samples fall between link services and
        # find the buffer full
        sections = preset_sections("low", params="default",
                                   flows=("scalable", "cubic"), duration_s=1.0,
                                   mode="bursty")
        apply_overrides(sections, ["aqm.limit_bytes=20000", "aqm.tupdate_ms=16.5"])
        record = run_one(build_scenario(sections), 8, "run-00000")
        assert record.samples[:, 1].max() == 13
        d = tmp_path / "run"
        write_run_dir(record, str(d))
        assert np.array_equal(load_run_dir(str(d)).samples, record.samples)

    @pytest.mark.parametrize("value", [None, "20000", True, 0, 1 << 63])
    def test_limit_bytes_is_a_positive_int64(self, tmp_path, value):
        d = tmp_path / "run"
        write_run_dir(small_record(), str(d))
        meta = json.loads((d / "meta.json").read_text())
        meta["config"]["aqm"]["limit_bytes"] = value
        (d / "meta.json").write_text(canonical_json(meta))
        with pytest.raises(ValueError,
                           match=r"meta\.json: config\.aqm\.limit_bytes is "):
            load_run_dir(str(d))


@st.composite
def records(draw):
    """A record the engine could have written: samples on the controller
    schedule, flows that a link of the config's rate and mode can deliver,
    counters that balance with both, any mtu and packet counts."""
    mtu = draw(st.sampled_from([1, 576, 1500, 9000]))
    tupdate = draw(st.integers(2, 10**9))
    ticks = draw(st.integers(0, 30))
    # a duration that tupdate divides, or one that leaves a horizon sample
    duration = ticks * tupdate + draw(st.sampled_from([0, 1, tupdate - 1]))
    if duration == 0:
        duration = tupdate
    times = list(range(tupdate, duration + 1, tupdate))
    if duration % tupdate:
        times.append(duration)
    column = st.lists(st.integers(0, 10**6), min_size=len(times),
                      max_size=len(times))
    qocc, marks, drops = draw(column), draw(column), draw(column)
    # a buffer that holds the largest backlog, with up to two packets spare
    most = mtu * max(qocc, default=0)
    limit_bytes = draw(st.integers(max(most, 1), most + 2 * mtu))
    drops_aqm = draw(st.integers(0, sum(drops)))
    marks_l = draw(st.integers(0, sum(marks)))
    link = {"mtu": mtu, "rate_bps": draw(st.integers(1, 10**12)),
            "mode": draw(st.sampled_from(["bursty", "smooth"]))}
    # each of up to three flows delivers at most a third of what the link can
    share = most_deliveries(link["rate_bps"], link["mode"], mtu, duration) // 3
    kinds = st.sampled_from(["scalable", "cubic", "reno"])
    flows = [FlowSummary(f"f{i}", kind, packets) for i, (kind, packets) in
             enumerate(draw(st.lists(st.tuples(kinds, st.integers(0, share)),
                                     min_size=1, max_size=3)))]
    dequeued = sum(f.packets for f in flows)
    return small_record(
        seed=draw(st.integers(0, 2**31)),
        config={"duration_ns": duration, "link": link,
                "aqm": {"tupdate_ns": tupdate, "limit_bytes": limit_bytes}},
        flows=flows,
        counters={"enqueued": dequeued + sum(drops) + qocc[-1],
                  "dequeued": dequeued, "drops": sum(drops),
                  "drops_overflow": sum(drops) - drops_aqm, "drops_aqm": drops_aqm,
                  "ecn_marks_l": marks_l, "ecn_marks_c": sum(marks) - marks_l},
        samples=np.array([times, qocc, marks, drops], dtype=np.int64).T.copy(),
    )


class TestConfigTypes:
    @pytest.mark.parametrize("section", [None, "aqm"])
    @pytest.mark.parametrize("value", [None, "16000000", True, 0, 1 << 63])
    def test_load_rejects_a_duration_or_tupdate_not_a_positive_int64(
            self, tmp_path, section, value):
        # the loader reads both from the config to check the series and
        # the rates; they were never type-checked
        d = tmp_path / "run"
        write_run_dir(small_record(), str(d))
        meta = json.loads((d / "meta.json").read_text())
        owner = meta["config"][section] if section else meta["config"]
        key = "tupdate_ns" if section else "duration_ns"
        owner[key] = value
        (d / "meta.json").write_text(canonical_json(meta))
        dotted = ".".join(filter(None, ("config", section, key)))
        with pytest.raises(ValueError, match=rf"meta\.json: {dotted} is "):
            load_run_dir(str(d))


class TestRoundTripProperty:
    @given(rec=records())
    @settings(max_examples=60, deadline=None)
    def test_load_gives_the_record_and_rewrite_the_bytes(self, rec):
        with tempfile.TemporaryDirectory() as tmp:
            first, second = os.path.join(tmp, "a"), os.path.join(tmp, "b")
            write_run_dir(rec, first)
            back = load_run_dir(first)
            assert back.samples.dtype == np.int64
            assert np.array_equal(back.samples, rec.samples)
            assert ({k: v for k, v in vars(back).items() if k != "samples"}
                    == {k: v for k, v in vars(rec).items() if k != "samples"})
            write_run_dir(back, second)
            for name in ("meta.json", "series.csv", "flows.csv"):
                with open(os.path.join(first, name), "rb") as a, \
                        open(os.path.join(second, name), "rb") as b:
                    assert a.read() == b.read()


def _leaves(doc, at=()):
    """The key paths of doc's numbers, strings, booleans and nulls."""
    if isinstance(doc, dict):
        return [p for key, value in doc.items() for p in _leaves(value, at + (key,))]
    if isinstance(doc, list):
        return [p for i, value in enumerate(doc) for p in _leaves(value, at + (i,))]
    return [at]


def _retyped(value):
    """value as a JSON value of another type: true as 1, 1 as 1.0, and so on."""
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, int):
        return float(value)
    if isinstance(value, float):
        return int(value) if value.is_integer() else str(value)
    return 0 if value is None else None


@st.composite
def one_value_changed(draw, text, name):
    """text with one value changed: a digit, a sign, a JSON type (in a CSV,
    a value written as a float), or a line dropped or duplicated."""
    kind = draw(st.sampled_from(["digit", "sign", "type", "drop", "duplicate"]))
    if kind in ("drop", "duplicate"):
        lines = text.split("\n")
        i = draw(st.integers(0, len(lines) - 2))  # the last line is ""
        lines[i:i + 1] = [] if kind == "drop" else [lines[i]] * 2
        return "\n".join(lines)
    if kind == "type" and name == META_NAME:
        meta = json.loads(text)
        *keys, last = draw(st.sampled_from(_leaves(meta)))
        owner = meta
        for key in keys:
            owner = owner[key]
        owner[last] = _retyped(owner[last])
        return canonical_json(meta)
    number = draw(st.sampled_from(list(re.finditer(r"\d+", text))))
    start, end = number.span()
    if kind == "digit":
        at = draw(st.integers(start, end - 1))
        digit = draw(st.sampled_from([d for d in "0123456789" if d != text[at]]))
        return text[:at] + digit + text[at + 1:]
    if kind == "sign":
        if text[start - 1] == "-":
            return text[:start - 1] + text[start:]
        return text[:start] + "-" + text[start:]
    return text[:end] + ".0" + text[end:]


@pytest.fixture(scope="module")
def run_dirs(tmp_path_factory):
    """Three engine runs written once: low bursty scalable+cubic, medium
    smooth cubic+reno without classic ECN, and a low bursty 1 s run whose
    20,000-byte buffer overflows."""
    root = tmp_path_factory.mktemp("runs")
    cases = [("low", ("scalable", "cubic"), "bursty", 0.5, []),
             ("medium", ("cubic", "reno"), "smooth", 0.5, ["aqm.ecn_classic=false"]),
             ("low", ("scalable", "cubic"), "bursty", 1.0, ["aqm.limit_bytes=20000"])]
    dirs = []
    for i, (preset, flows, mode, duration, sets) in enumerate(cases):
        sections = preset_sections(preset, flows=flows, mode=mode, duration_s=duration)
        apply_overrides(sections, sets)
        dirs.append(str(root / f"run-{i:05d}"))
        write_run_dir(run_one(build_scenario(sections), i, f"run-{i:05d}"), dirs[-1])
    return dirs


class TestOneValueChanged:
    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_refused_by_a_file_or_a_run_the_engine_could_write(self, run_dirs, data):
        # a rule that spans files names one of them: a flows.csv count that
        # stays a multiple of mtu is named at meta.json, whose totals it
        # breaks, a smaller meta.json limit_bytes at the series.csv row it
        # cuts; so the error must name a file of the run, any of the three
        source = data.draw(st.sampled_from(run_dirs))
        name = data.draw(st.sampled_from(RUN_FILES))
        with open(os.path.join(source, name), encoding="ascii") as fh:
            changed = data.draw(one_value_changed(fh.read(), name))
        with tempfile.TemporaryDirectory() as tmp:
            run = os.path.join(tmp, "run")
            shutil.copytree(source, run)
            with open(os.path.join(run, name), "w", encoding="ascii") as fh:
                fh.write(changed)
            try:
                record = load_run_dir(run)
            except ValueError as exc:
                assert any(os.path.join(run, n) in str(exc) for n in RUN_FILES), exc
            else:
                assert run_record_oracle(record) == []


class TestCanonicalJson:
    def test_sorted_and_stable(self):
        a = canonical_json({"b": 1, "a": [1.5, 2]})
        b = canonical_json({"a": [1.5, 2], "b": 1})
        assert a == b
        assert a.index('"a"') < a.index('"b"')
