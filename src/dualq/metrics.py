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
each file once, for writer and loader both. A loaded run must satisfy:

* each stored field has its RunRecord type (``int`` refuses ``bool``),
  and config.link.mtu, config.duration_ns, config.aqm.tupdate_ns and
  config.aqm.limit_bytes are positive int64s;
* series.csv has no blank line but its last;
* no series.csv value, flows.csv byte count or counter is negative;
* no series.csv row queues more than limit_bytes // mtu packets, the
  most the AQM admits;
* every series.csv row has qocc_bytes = mtu * qocc_pkts and every
  flows.csv row's bytes are a multiple of mtu: every packet is mtu bytes;
* meta.json, as parsed values of the writer's JSON types (``1``, ``1.0``
  and ``true`` differ), and flows.csv and series.csv, as text, equal
  what the writer gives for the record they describe, so every derived
  value (``duration_ns``, ``rng.seed``, ``summary.samples`` and every
  rate) is checked and series.csv holds ``summary.samples`` rows;
* series.csv's t_ns are the engine's sample times: k * tupdate_ns for
  k = 1 .. duration_ns // tupdate_ns, then duration_ns if tupdate_ns
  does not divide it;
* the counters are exactly DualPi2.counters()'s ints, and enqueued =
  dequeued + drops + the final qocc_pkts, drops = drops_overflow +
  drops_aqm = the series' drops, and ecn_marks_l + ecn_marks_c = the
  series' marks.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from itertools import chain, zip_longest
from typing import NamedTuple, get_type_hints

import numpy as np

from .aqm import AqmConfig, DualPi2
from .core import Rng


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

# where meta.json keeps each RunRecord field it stores (see _meta)
_META_KEYS = {"run_id": "run_id", "seed": "seed", "rng_algorithm": "rng.algorithm",
              "fingerprint": "fingerprint", "config": "config",
              "counters": "summary.counters"}
_FIELD_TYPES = get_type_hints(RunRecord)
# the names DualPi2.counters() reports, read off a fresh queue
_COUNTER_NAMES = DualPi2(AqmConfig(), Rng(0), 1).counters().keys()
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
    if isinstance(found, dict) and isinstance(want, dict):
        return [key for name in sorted(found.keys() | want.keys()) for key in
                differing(found.get(name, ...), want.get(name, ...), at + (name,))]
    if isinstance(found, list) and isinstance(want, list):
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


def _check_lines(path: str, lines: list[str], written: list[str]) -> None:
    """Raise ValueError at the first line of path that is not the writer's."""
    for lineno, (line, want) in enumerate(zip_longest(lines, written + [""]), start=1):
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


def _series_row_error(path: str, lines: list[str], exc: ValueError) -> ValueError:
    """The error of np.loadtxt's exc on series.csv's lines, naming path:line
    of the first non-empty line after the header that np.loadtxt, reading
    it alone, does not take for one integer a column."""
    width = _SERIES_HEADER.count(",") + 1
    for lineno, line in enumerate(lines[1:], start=2):
        try:
            if not line or np.loadtxt([line], delimiter=",", dtype=np.int64,
                                      comments=None).size == width:
                continue
        except ValueError:
            pass
        return ValueError(f"{path}:{lineno}: {line!r} is not {width} "
                          "comma-separated integers")
    return ValueError(f"{path}: malformed ({exc})")


def load_run_dir(path: str) -> RunRecord:
    """Read a run directory that satisfies the module docstring's list;
    anything else raises ValueError naming the file (and line, in a CSV)."""
    meta_path, series_path, flows_path = (os.path.join(path, n) for n in RUN_FILES)
    config_keys = {"mtu": "config.link.mtu", "duration_ns": "config.duration_ns",
                   "tupdate_ns": "config.aqm.tupdate_ns",
                   "limit_bytes": "config.aqm.limit_bytes"}
    try:
        with open(meta_path, "r", encoding="ascii") as fh:
            meta = json.load(fh)
        fields = typed_fields(meta, _META_KEYS, _FIELD_TYPES)
        config = typed_fields(meta, config_keys, dict.fromkeys(config_keys, int))
        for name, dotted in config_keys.items():
            if not 0 < config[name] < 1 << 63:
                raise ValueError(f"{dotted} is {config[name]}, not a positive int64")
    except ValueError as exc:
        raise ValueError(f"{meta_path}: {exc}") from None
    mtu = config["mtu"]
    series_text = _read_ascii(series_path)
    series = series_text.split("\n")
    if not any(series[1:]):
        # np.loadtxt would warn on stderr and report its own shape
        raise ValueError(f"{series_path} has no data rows")
    samples = meta["summary"].get("samples")
    # np.loadtxt skips a blank line, and its row numbers with it; a file of
    # the declared rows plus header and final newline that holds one anyway
    # is a row short, which the shape check below rejects
    if (series[-1] or len(series) - 2 != samples) and "\n\n" in series_text:
        raise ValueError(f"{series_path}:{series.index('', 1) + 1}: blank line")
    try:
        # comments=None: a '#' line is malformed input, not a comment
        parsed = np.loadtxt(series, delimiter=",", dtype=np.int64, ndmin=2,
                            comments=None, skiprows=1)
    except ValueError as exc:
        # numpy counts rows its own way; name the file's line instead
        raise _series_row_error(series_path, series, exc) from None
    declared = (samples, _SERIES_HEADER.count(",") + 1)
    if parsed.shape != declared:
        raise ValueError(f"{series_path} holds {parsed.shape} rows x "
                         f"columns, meta.json declares {declared}")
    _, qocc_pkts, qocc_bytes, ecn_marks, drops = parsed.T
    pkts, rest = np.divmod(qocc_bytes, mtu)  # exact; qocc_pkts * mtu may wrap
    wrong = np.flatnonzero((pkts != qocc_pkts) | (rest != 0))
    if wrong.size:
        raise ValueError(f"{series_path}:{wrong[0] + 2}: {series[wrong[0] + 1]!r} "
                         f"breaks qocc_bytes = mtu {mtu} x qocc_pkts")
    limit = config["limit_bytes"] // mtu
    if qocc_pkts.max() > limit:
        row = np.flatnonzero(qocc_pkts > limit)[0]
        raise ValueError(f"{series_path}:{row + 2}: {series[row + 1]!r} queues more "
                         f"than the buffer's limit_bytes // mtu = {limit} packets")
    lines = _read_ascii(flows_path).split("\n")
    flows = []
    for lineno, line in enumerate(lines[1:-1], start=2):
        try:
            flow, kind, nbytes, _ = line.split(",")
            packets, rest = divmod(int(nbytes), mtu)
        except ValueError as exc:
            raise ValueError(f"{flows_path}:{lineno}: malformed ({exc})") from None
        if packets < 0 or rest:
            raise ValueError(f"{flows_path}:{lineno}: {line!r} delivers " + (
                "a negative count of bytes" if packets < 0 else
                f"bytes that are not a multiple of mtu {mtu}"))
        flows.append(FlowSummary(flow, kind, packets))
    # the record keeps the measured columns; the writer derives qocc_bytes
    record = RunRecord(flows=flows, samples=parsed[:, [0, 1, 3, 4]], **fields)
    keys = differing(meta, _meta(record))
    if keys:
        raise ValueError(f"{meta_path}: {', '.join(keys)}: "
                         "not what the writer derives from the run's fields")
    _check_lines(flows_path, lines, _flows_lines(record))
    # each row holds at least the writer's characters for its values, so a
    # file of the writer's length is its text: 10 characters a row (5 digits,
    # 4 commas, a newline) plus further digits, counted exactly (log10
    # misrounds near 10**k); a minus sign goes uncounted, so a file holding a
    # negative value, which no time or count is, is longer and lands here
    size = (len(_SERIES_HEADER) + 1 + 10 * len(parsed)
            + int(np.searchsorted(_POW10, parsed, side="right").sum()))
    if series[0] != _SERIES_HEADER or series[-1] != "" or len(series_text) != size:
        if parsed.min() < 0:
            row = np.flatnonzero(parsed.min(axis=1) < 0)[0]
            raise ValueError(f"{series_path}:{row + 2}: {series[row + 1]!r} holds "
                             "a negative value")
        _check_lines(series_path, series, _series_lines(record))
    # the engine samples at k x tupdate for k = 1 .. duration // tupdate, then at
    # the horizon if tupdate does not divide it; listed to one past the rows read
    duration, tupdate = config["duration_ns"], config["tupdate_ns"]
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
    c = record.counters
    if c.keys() != _COUNTER_NAMES or any(type(v) is not int or v < 0
                                         for v in c.values()):
        raise ValueError(f"{meta_path}: summary.counters must map exactly "
                         f"{', '.join(_COUNTER_NAMES)} to non-negative ints")
    broken = [identity for identity, holds in (
        ("enqueued = dequeued + drops + final qocc_pkts",
         c["enqueued"] == c["dequeued"] + c["drops"] + int(qocc_pkts[-1])),
        ("drops = drops_overflow + drops_aqm = series drops",
         c["drops"] == c["drops_overflow"] + c["drops_aqm"] == int(drops.sum())),
        ("ecn_marks_l + ecn_marks_c = series ecn_marks",
         c["ecn_marks_l"] + c["ecn_marks_c"] == int(ecn_marks.sum())),
    ) if not holds]
    if broken:
        raise ValueError(f"{meta_path}: summary.counters break {'; '.join(broken)}")
    return record


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()
