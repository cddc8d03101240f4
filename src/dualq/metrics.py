"""Measurement sampling, run summaries, and on-disk run format.

A run directory contains exactly three files:

* ``meta.json``: config echo, seed, RNG algorithm, config fingerprint,
  and the scalar summary (throughput, counters).
* ``series.csv``: one row per controller interval with the queue
  occupancy at the sample instant and the mark/drop deltas since the
  previous sample; in memory, ``RunRecord.samples``, an int64 array
  with one column per TraceSample field.
* ``flows.csv``: per-flow delivered bytes and average throughput.

Serialization is canonical (sorted keys, repr floats, newline-free
row format), so identical runs produce byte-identical directories.
``_meta`` and ``_flows_lines`` state the format of meta.json and
flows.csv once, for writer and loader both. A loaded run must satisfy:

* each stored field has its RunRecord type (``int`` refuses ``bool``);
* meta.json, as parsed values, and flows.csv, line by line, equal what
  the writer gives for the record they describe, so every derived
  value (``rng.seed``, ``summary.samples`` and every rate) is checked;
* series.csv has its header and ``summary.samples`` rows of 5 ints;
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
    qocc_bytes: int
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
            qocc_bytes=aqm.backlog_bytes,
            ecn_marks=marks - self._marks_prev,
            drops=drops - self._drops_prev,
        ))
        self._marks_prev = marks
        self._drops_prev = drops


@dataclass
class FlowSummary:
    flow: str
    kind: str
    bytes: int


@dataclass
class RunRecord:
    """One run's results in memory; mirrors the on-disk format.

    ``samples`` is series.csv as an int64 (samples, 5) array."""

    run_id: str
    seed: int
    rng_algorithm: str
    fingerprint: str
    duration_ns: int
    config: dict
    flows: list[FlowSummary]
    counters: dict
    samples: np.ndarray

    def mbps(self, nbytes: int) -> float:
        """Average rate, in Mbit/s, of nbytes delivered over the run."""
        return nbytes * 8.0 / (self.duration_ns * 1e-9) / 1e6

    @property
    def avg_throughput_mbps(self) -> float:
        return self.mbps(sum(f.bytes for f in self.flows))

    def series(self, column: str) -> np.ndarray:
        """One sample column as a float array, in time order."""
        col = TraceSample._fields.index(column)
        return self.samples[:, col].astype(np.float64)


def summarize(run_id: str, seed: int, rng_algorithm: str, fingerprint: str,
              config: dict, output) -> RunRecord:
    """Condense a RunOutput into a RunRecord."""
    flows = [
        FlowSummary(flow=sender.flow, kind=sender.kind, bytes=st.bytes)
        for sender, st in zip(output.senders, output.receiver.flows)
    ]
    return RunRecord(
        run_id=run_id,
        seed=seed,
        rng_algorithm=rng_algorithm,
        fingerprint=fingerprint,
        duration_ns=output.duration_ns,
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

_SERIES_HEADER = ",".join(TraceSample._fields)

# where meta.json keeps each RunRecord field it stores (see _meta)
_META_KEYS = {"run_id": "run_id", "seed": "seed", "rng_algorithm": "rng.algorithm",
              "fingerprint": "fingerprint", "duration_ns": "duration_ns",
              "config": "config", "counters": "summary.counters"}
_FIELD_TYPES = get_type_hints(RunRecord)
# the names DualPi2.counters() reports, read off a fresh queue
_COUNTER_NAMES = DualPi2(AqmConfig(), Rng(0)).counters().keys()


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
        "duration_ns": record.duration_ns,
        "config": record.config,
        "summary": {
            "avg_throughput_mbps": record.avg_throughput_mbps,
            "counters": record.counters,
            "samples": len(record.samples),
        },
    }


def _flows_lines(record: RunRecord) -> list[str]:
    """flows.csv's lines: the header, then each flow with its derived rate."""
    return ["flow_id,kind,bytes,mbps"] + [
        f"{f.flow},{f.kind},{f.bytes},{record.mbps(f.bytes)!r}" for f in record.flows
    ]


def write_run_dir(record: RunRecord, path: str) -> list[str]:
    """Write one run directory; returns the file names written."""
    os.makedirs(path, exist_ok=True)
    with open(os.path.join(path, META_NAME), "w", encoding="ascii") as fh:
        fh.write(canonical_json(_meta(record)))
    rows = [_SERIES_HEADER]
    rows.extend(f"{t},{qp},{qb},{marks},{drops}"
                for t, qp, qb, marks, drops in record.samples.tolist())
    with open(os.path.join(path, SERIES_NAME), "w", encoding="ascii") as fh:
        fh.write("\n".join(rows) + "\n")
    with open(os.path.join(path, FLOWS_NAME), "w", encoding="ascii") as fh:
        fh.write("\n".join(_flows_lines(record)) + "\n")
    return [META_NAME, SERIES_NAME, FLOWS_NAME]


def _differing(found, want, at=()) -> list[str]:
    """The dotted keys at which two parsed JSON values differ (... is absent)."""
    if isinstance(found, dict) and isinstance(want, dict):
        return [key for name in sorted(found.keys() | want.keys()) for key in
                _differing(found.get(name, ...), want.get(name, ...), at + (name,))]
    return [] if found == want else [".".join(at)]


def load_run_dir(path: str) -> RunRecord:
    """Read a run directory that satisfies the module docstring's list;
    anything else raises ValueError naming the file (and line, in flows.csv)."""
    meta_path = os.path.join(path, META_NAME)
    try:
        with open(meta_path, "r", encoding="ascii") as fh:
            meta = json.load(fh)
    except ValueError as exc:
        raise ValueError(
            f"{meta_path}: malformed ({type(exc).__name__}: {exc})"
        ) from None
    fields = {}
    for name, dotted in _META_KEYS.items():
        value, field_type = meta, _FIELD_TYPES[name]
        for key in dotted.split("."):
            value = value.get(key) if isinstance(value, dict) else None
        if not isinstance(value, field_type) or isinstance(value, bool):
            raise ValueError(f"{meta_path}: {dotted} is {value!r}, "
                             f"not {field_type.__name__}")
        fields[name] = value
    if fields["duration_ns"] <= 0:
        raise ValueError(f"{meta_path}: duration_ns is not positive")
    with open(os.path.join(path, SERIES_NAME), "r", encoding="ascii") as fh:
        header = fh.readline().strip()
        if header != _SERIES_HEADER:
            raise ValueError(f"{path}: unexpected series header {header!r}")
        # comments=None: a '#' line is malformed input, not a comment
        samples = np.loadtxt(fh, delimiter=",", dtype=np.int64, ndmin=2,
                             comments=None)
    declared = (meta["summary"].get("samples"), len(TraceSample._fields))
    if samples.shape != declared:
        raise ValueError(f"{path}: {SERIES_NAME} holds {samples.shape} rows x "
                         f"columns, meta.json declares {declared}")
    flows_path = os.path.join(path, FLOWS_NAME)
    with open(flows_path, "r", encoding="ascii") as fh:
        lines = fh.read().split("\n")
    flows = []
    for lineno, line in enumerate(lines[1:-1], start=2):
        try:
            flow, kind, nbytes, _ = line.split(",")
            flows.append(FlowSummary(flow, kind, int(nbytes)))
        except ValueError as exc:
            raise ValueError(f"{flows_path}:{lineno}: malformed ({exc})") from None
    record = RunRecord(flows=flows, samples=samples, **fields)
    written = _flows_lines(record) + [""]
    for lineno, (line, want) in enumerate(zip_longest(lines, written), start=1):
        if line != want:
            raise ValueError(f"{flows_path}:{lineno}: {line!r}, where the writer "
                             f"derives {want!r} from the run's fields")
    expected = _meta(record)
    if meta != expected:
        raise ValueError(f"{meta_path}: {', '.join(_differing(meta, expected))}: "
                         "not what the writer derives from the run's fields")
    c = record.counters
    if c.keys() != _COUNTER_NAMES or any(type(v) is not int for v in c.values()):
        raise ValueError(f"{meta_path}: summary.counters must map exactly "
                         f"{', '.join(_COUNTER_NAMES)} to ints")
    _, qocc_pkts, _, ecn_marks, drops = samples.T
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
