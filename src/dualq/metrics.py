"""Measurement sampling, run summaries, and on-disk run format.

A RunRecord counts packets and takes the mtu and the duration from its
config; only the files hold bytes. A run directory has three files:

* ``meta.json``: config echo, seed, RNG algorithm, config fingerprint,
  config.duration_ns again, and the summary (throughput, counters).
* ``series.csv``: one row per controller interval with the queue
  occupancy at the sample instant, in packets and mtu x packets bytes,
  and the mark/drop deltas since the previous sample; in memory,
  ``RunRecord.samples``, one int64 column per TraceSample field.
* ``flows.csv``: per-flow delivered bytes and average throughput.

Serialization is canonical (sorted keys, repr floats, newline-free
row format), so identical runs produce byte-identical directories.
``_meta``, ``_series_lines`` and ``_flows_lines`` state the format of
each file once, for writer and loader both. The loader reads the
counters drops_overflow and ecn_marks_l and derives the other five:
dequeued = the flows' packets, drops = the series' drops, drops_aqm =
drops - drops_overflow, ecn_marks_c = the series' marks - ecn_marks_l,
enqueued = dequeued + drops + the final qocc_pkts. A loaded run has:

* each field read of its type (``int`` refuses ``bool``); the mtu,
  duration_ns, tupdate_ns, limit_bytes and, without a trace file,
  rate_bps positive int64s, and the link's mode bursty or smooth;
* series.csv as the writer's text, else ``_series_fault`` names the
  first line the writer would not write; no row queuing more than
  limit_bytes // mtu packets, the most the AQM admits;
* flows.csv's bytes non-negative multiples of mtu, one row for each
  config.flows entry, a list of objects with a str name and kind;
* meta.json, as parsed values of the writer's JSON types (``1``, ``1.0``
  and ``true`` differ), and flows.csv, as text, what the writer gives
  for the record they describe: every derived value (the counters,
  ``duration_ns``, ``rng.seed``, ``summary.samples``, every rate);
* series.csv's t_ns at the engine's sample times: k * tupdate_ns for
  k = 1 .. duration_ns // tupdate_ns, then duration_ns if tupdate_ns
  does not divide it;
* no negative counter, and without a trace file dequeued at most what
  the link delivers in duration_ns (``link.most_deliveries``).
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from itertools import chain, zip_longest
from math import inf
from typing import NamedTuple, NoReturn, get_type_hints

import numpy as np

from .link import most_deliveries


class TraceSample(NamedTuple):
    """Queue state at one controller tick plus deltas since the last."""

    t_ns: int
    qocc_pkts: int
    ecn_marks: int
    drops: int


class SampleCollector:
    """Samples AQM counters at every controller update.

    Marks and drops are stored as interval deltas; their sums equal
    the AQM's cumulative counters at the final sample by construction,
    which the conservation checks exploit.
    """

    __slots__ = ("samples", "_marks_prev", "_drops_prev")

    def __init__(self):
        self.samples: list[TraceSample] = []
        self._marks_prev = 0
        self._drops_prev = 0

    def take(self, t_ns: int, aqm) -> None:
        marks = aqm.ecn_marks_l + aqm.ecn_marks_c
        drops = aqm.drops_total
        self.samples.append(TraceSample(
            t_ns=t_ns,
            qocc_pkts=aqm.backlog_pkts,
            ecn_marks=marks - self._marks_prev,
            drops=drops - self._drops_prev,
        ))
        self._marks_prev = marks
        self._drops_prev = drops


@dataclass
class FlowSummary:
    flow: str
    kind: str
    packets: int


@dataclass
class RunRecord:
    """One run's results in memory; mirrors the on-disk format.

    ``samples`` is an int64 (samples, 4) array, one column per
    TraceSample field; ``config`` holds the link's mtu and the duration."""

    run_id: str
    seed: int
    rng_algorithm: str
    fingerprint: str
    config: dict
    flows: list[FlowSummary]
    counters: dict
    samples: np.ndarray

    def mbps(self, packets: int) -> float:
        """Average rate, in Mbit/s, of packets of mtu bytes delivered over the run."""
        return (packets * self.config["link"]["mtu"] * 8.0
                / (self.config["duration_ns"] * 1e-9) / 1e6)

    @property
    def avg_throughput_mbps(self) -> float:
        return self.mbps(sum(f.packets for f in self.flows))

    def series(self, column: str) -> np.ndarray:
        """One sample column as a float array, in time order."""
        col = TraceSample._fields.index(column)
        return self.samples[:, col].astype(np.float64)


def summarize(run_id: str, seed: int, rng_algorithm: str, fingerprint: str,
              config: dict, output) -> RunRecord:
    """Condense a RunOutput into a RunRecord."""
    flows = [
        FlowSummary(flow=sender.flow, kind=sender.kind, packets=st.arrivals)
        for sender, st in zip(output.senders, output.receiver.flows)
    ]
    return RunRecord(
        run_id=run_id,
        seed=seed,
        rng_algorithm=rng_algorithm,
        fingerprint=fingerprint,
        config=config,
        flows=flows,
        counters=output.aqm.counters(),
        samples=np.fromiter(
            chain.from_iterable(output.samples), np.int64,
            count=len(TraceSample._fields) * len(output.samples),
        ).reshape(-1, len(TraceSample._fields)),
    )


# ----------------------------------------------------------------------
# on-disk format

META_NAME = "meta.json"
SERIES_NAME = "series.csv"
FLOWS_NAME = "flows.csv"
RUN_FILES = (META_NAME, SERIES_NAME, FLOWS_NAME)

_SERIES_HEADER = "t_ns,qocc_pkts,qocc_bytes,ecn_marks,drops"

# where meta.json keeps each RunRecord field the loader reads (see _meta)
_META_KEYS = {"run_id": "run_id", "seed": "seed", "rng_algorithm": "rng.algorithm",
              "fingerprint": "fingerprint", "config": "config"}
_FIELD_TYPES = get_type_hints(RunRecord)
_STORED_KEYS = {"drops_overflow": "summary.counters.drops_overflow",
                "ecn_marks_l": "summary.counters.ecn_marks_l"}
_POW10 = 10 ** np.arange(1, 19, dtype=np.int64)


def canonical_json(obj) -> str:
    """Stable, diff-friendly JSON: sorted keys, no float formatting tricks."""
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=True) + "\n"


def _meta(record: RunRecord) -> dict:
    """meta.json: the record's stored fields and the values derived from them."""
    return {
        "run_id": record.run_id,
        "seed": record.seed,
        "rng": {"algorithm": record.rng_algorithm, "seed": record.seed},
        "fingerprint": record.fingerprint,
        "duration_ns": record.config["duration_ns"],
        "config": record.config,
        "summary": {
            "avg_throughput_mbps": record.avg_throughput_mbps,
            "counters": record.counters,
            "samples": len(record.samples),
        },
    }


def _flows_lines(record: RunRecord) -> list[str]:
    """flows.csv's lines: the header, then each flow with its derived
    bytes and rate."""
    mtu = record.config["link"]["mtu"]
    return ["flow_id,kind,bytes,mbps"] + [
        f"{f.flow},{f.kind},{f.packets * mtu},{record.mbps(f.packets)!r}"
        for f in record.flows
    ]


def _series_lines(record: RunRecord) -> list[str]:
    """series.csv's lines: the header, then one row per sample with its
    derived qocc_bytes."""
    mtu = record.config["link"]["mtu"]
    return [_SERIES_HEADER] + [f"{t},{qp},{qp * mtu},{marks},{drops}"
                               for t, qp, marks, drops in record.samples.tolist()]


def write_run_dir(record: RunRecord, path: str) -> tuple[str, ...]:
    """Write one run directory; returns the file names written, RUN_FILES."""
    os.makedirs(path, exist_ok=True)
    texts = (canonical_json(_meta(record)), "\n".join(_series_lines(record)) + "\n",
             "\n".join(_flows_lines(record)) + "\n")
    for name, text in zip(RUN_FILES, texts):
        with open(os.path.join(path, name), "w", encoding="ascii") as fh:
            fh.write(text)
    return RUN_FILES


def differing(found, want, at=()) -> list[str]:
    """The dotted keys at which two parsed JSON values differ, a list entry
    keyed by its index (... is absent); leaves of different types differ,
    so 1, 1.0 and true are three values."""
    if found is want:  # as the loader's record holds meta.json's config
        return []
    if type(found) is dict is type(want):
        return [key for name in sorted(found.keys() | want.keys()) for key in
                differing(found.get(name, ...), want.get(name, ...), at + (name,))]
    if type(found) is list is type(want):
        return [key for i, (f, w) in enumerate(zip_longest(found, want, fillvalue=...))
                for key in differing(f, w, at + (str(i),))]
    return [] if type(found) is type(want) and found == want else [".".join(at)]


def typed_fields(doc, keys: dict[str, str], types: dict) -> dict:
    """The value at each of keys' dotted paths in the parsed JSON doc, by
    field name; one not of its field's type in types (an int refuses a
    bool) raises ValueError naming its dotted key."""
    fields = {}
    for name, dotted in keys.items():
        value = doc
        for key in dotted.split("."):
            value = value.get(key) if isinstance(value, dict) else None
        if not isinstance(value, types[name]) or isinstance(value, bool):
            raise ValueError(f"{dotted} is {value!r}, not {types[name].__name__}")
        fields[name] = value
    return fields


def _positive(doc, *keys: str) -> list[int]:
    """The ints at dotted keys in the JSON doc; ValueError unless positive int64s."""
    values = typed_fields(doc, dict(zip(keys, keys)), dict.fromkeys(keys, int))
    for key, value in values.items():
        if not 0 < value < 1 << 63:
            raise ValueError(f"{key} is {value}, not a positive int64")
    return list(values.values())


def _check_lines(path: str, lines: list[str], written: list[str], start=1) -> None:
    """Raise ValueError at the first of lines, path's from line start on,
    that is not the writer's."""
    for lineno, (line, want) in enumerate(zip_longest(lines, written), start=start):
        if line != want:
            raise ValueError(f"{path}:{lineno}: {line!r}, where the writer "
                             f"derives {want!r} from the run's fields")


def _read_ascii(path: str) -> str:
    """path's text, read as bytes (a carriage return is a character the
    writer never writes, not a newline); a byte outside ASCII raises
    ValueError naming path:line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("ascii")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"{path}:{lineno}: byte {data[exc.start]:#04x} is not "
                         "ASCII") from None


def _series_fault(path: str, lines: list[str], mtu: int) -> NoReturn:
    """Raise ValueError naming the first of series.csv's lines that the
    writer would not write, or its final line if no row is at fault."""
    _check_lines(path, lines[:1], [_SERIES_HEADER])
    for lineno, line in enumerate(lines[1:] if lines[-1] else lines[1:-1], start=2):
        at = f"{path}:{lineno}: {line!r}"
        if not line:
            raise ValueError(f"{path}:{lineno}: blank line")
        try:
            values = [int(value) for value in line.split(",")]
        except ValueError:
            values = []
        if len(values) != len(TraceSample._fields) + 1 or max(values) >= 1 << 63:
            raise ValueError(f"{at} is not 5 comma-separated integers")
        if min(values) < 0:
            raise ValueError(f"{at} holds a negative value")
        if values[2] != mtu * values[1]:
            raise ValueError(f"{at} breaks qocc_bytes = mtu {mtu} x qocc_pkts")
        _check_lines(path, [line], [",".join(map(str, values))], lineno)
    raise ValueError(f"{path}:{len(lines)}: {lines[-1]!r} does not end in a newline")


def load_run_dir(path: str) -> RunRecord:
    """Read a run directory that satisfies the module docstring's list;
    anything else raises ValueError naming the file (and line, in a CSV)."""
    meta_path, series_path, flows_path = (os.path.join(path, n) for n in RUN_FILES)
    try:
        with open(meta_path, "r", encoding="ascii") as fh:
            meta = json.load(fh)
        fields = typed_fields(meta, _META_KEYS, _FIELD_TYPES)
        mtu, duration, tupdate, limit_bytes = _positive(
            meta, "config.link.mtu", "config.duration_ns", "config.aqm.tupdate_ns",
            "config.aqm.limit_bytes")
        link = meta["config"]["link"]  # a dict, as it holds the mtu
        most = inf if link.get("trace_file") is not None else most_deliveries(
            *_positive(meta, "config.link.rate_bps"), link.get("mode"), mtu, duration)
        stored = typed_fields(meta, _STORED_KEYS, dict.fromkeys(_STORED_KEYS, int))
        named = meta["config"].get("flows")  # flows.csv's names and kinds, in order
        if not (isinstance(named, list) and named and all(
                isinstance(f, dict) and isinstance(f.get("name"), str)
                and isinstance(f.get("kind"), str) for f in named)):
            raise ValueError(f"config.flows is {named!r}, not a non-empty list of "
                             "flows with a str name and kind")
    except ValueError as exc:
        raise ValueError(f"{meta_path}: {exc}") from None
    series_text = _read_ascii(series_path)
    series = series_text.split("\n")
    if not any(series[1:]):  # np.loadtxt would warn and report its own shape
        raise ValueError(f"{series_path} has no data rows")
    try:
        # comments=None: a '#' line is malformed input, not a comment
        parsed = np.loadtxt(series, delimiter=",", dtype=np.int64, ndmin=2,
                            comments=None, skiprows=1)
        _, qocc_pkts, qocc_bytes, ecn_marks, drops = parsed.T
        pkts, rest = np.divmod(qocc_bytes, mtu)  # exact; qocc_pkts * mtu may wrap
        # a row holds at least the writer's characters for its values, so a file
        # of the writer's length is its text: 10 a row (5 digits, 4 commas, a
        # newline) and further digits, counted exactly (log10 misrounds near 10**k)
        size = (len(_SERIES_HEADER) + 1 + 10 * len(parsed)
                + int(np.searchsorted(_POW10, parsed, side="right").sum()))
        if (series[0] != _SERIES_HEADER or series[-1] or len(series_text) != size
                or np.count_nonzero((pkts != qocc_pkts) | rest)):
            raise ValueError("not the writer's text")
    except ValueError:
        _series_fault(series_path, series, mtu)
    # series.csv is the writer's text: row r is the file's line r + 2
    if len(parsed) != meta["summary"].get("samples"):
        raise ValueError(f"{series_path} holds {parsed.shape} rows x columns, "
                         f"meta.json declares {(meta['summary'].get('samples'), 5)}")
    limit = limit_bytes // mtu
    if qocc_pkts.max() > limit:
        row = np.flatnonzero(qocc_pkts > limit)[0]
        raise ValueError(f"{series_path}:{row + 2}: {series[row + 1]!r} queues more "
                         f"than the buffer's limit_bytes // mtu = {limit} packets")
    lines = _read_ascii(flows_path).split("\n")
    rows, counts = lines[1:-1], []
    for lineno, line in enumerate(rows, start=2):
        try:
            _, _, nbytes, _ = line.split(",")
            packets, rest = divmod(int(nbytes), mtu)
        except ValueError as exc:
            raise ValueError(f"{flows_path}:{lineno}: malformed ({exc})") from None
        if packets < 0 or rest:
            raise ValueError(f"{flows_path}:{lineno}: {line!r} delivers " + (
                "a negative count of bytes" if packets < 0 else
                f"bytes that are not a multiple of mtu {mtu}"))
        counts.append(packets)
    if len(rows) != len(named):
        raise ValueError(f"{flows_path}:{min(len(rows), len(named)) + 2}: {len(rows)} "
                         f"rows, where config.flows lists {len(named)} flows")
    flows = [FlowSummary(f["name"], f["kind"], n) for f, n in zip(named, counts)]
    dequeued, dropped = sum(f.packets for f in flows), int(drops.sum())
    counters = {**stored, "enqueued": dequeued + dropped + int(qocc_pkts[-1]),
                "dequeued": dequeued, "drops": dropped,
                "drops_aqm": dropped - stored["drops_overflow"],
                "ecn_marks_c": int(ecn_marks.sum()) - stored["ecn_marks_l"]}
    # the record keeps the measured columns; the writer derives qocc_bytes
    record = RunRecord(flows=flows, counters=counters, samples=parsed[:, [0, 1, 3, 4]],
                       **fields)
    keys = differing(meta, _meta(record))
    if keys:
        raise ValueError(f"{meta_path}: {', '.join(keys)}: "
                         "not what the writer derives from the run's fields")
    _check_lines(flows_path, lines, _flows_lines(record) + [""])
    # the engine samples at k x tupdate for k = 1 .. duration // tupdate, then at
    # the horizon if tupdate does not divide it; listed to one past the rows read
    ticks = min(duration // tupdate, len(parsed) + 1)
    due = tupdate * np.arange(1, ticks + 1, dtype=np.int64)  # <= duration
    if duration % tupdate:
        due = np.append(due, duration)
    rows = min(len(due), len(parsed))
    late = np.flatnonzero(parsed[:rows, 0] != due[:rows])
    if late.size or len(due) != len(parsed):
        lineno = (late[0] if late.size else rows) + 2
        raise ValueError(f"{series_path}:{lineno}: {series[lineno - 1]!r} breaks "
                         f"the sample schedule: t_ns = k x tupdate_ns {tupdate} up "
                         f"to duration_ns {duration}, then duration_ns")
    for name, value in counters.items():
        if value < 0 or name == "dequeued" and value > most:
            raise ValueError(f"{meta_path}: summary.counters.{name} is {value}, " + (
                "negative" if value < 0 else f"more than the link's {most} deliveries"))
    return record


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()
