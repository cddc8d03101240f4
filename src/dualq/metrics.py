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
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple

import numpy as np


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
    mbps: float


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

    @property
    def avg_throughput_mbps(self) -> float:
        total = sum(f.bytes for f in self.flows)
        return total * 8.0 / (self.duration_ns * 1e-9) / 1e6

    def series(self, column: str) -> np.ndarray:
        """One sample column as a float array, in time order."""
        col = TraceSample._fields.index(column)
        return self.samples[:, col].astype(np.float64)


def summarize(run_id: str, seed: int, rng_algorithm: str, fingerprint: str,
              config: dict, output) -> RunRecord:
    """Condense a RunOutput into a RunRecord."""
    dur_s = output.duration_ns * 1e-9
    flows = []
    for sender, st in zip(output.senders, output.receiver.flows):
        flows.append(
            FlowSummary(
                flow=sender.flow,
                kind=sender.kind,
                bytes=st.bytes,
                mbps=st.bytes * 8.0 / dur_s / 1e6,
            )
        )
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
_FLOWS_HEADER = "flow_id,kind,bytes,mbps"


def canonical_json(obj) -> str:
    """Stable, diff-friendly JSON: sorted keys, no float formatting tricks."""
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=True) + "\n"


def write_run_dir(record: RunRecord, path: str) -> list[str]:
    """Write one run directory; returns the file names written."""
    os.makedirs(path, exist_ok=True)
    meta = {
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
    with open(os.path.join(path, META_NAME), "w", encoding="ascii") as fh:
        fh.write(canonical_json(meta))
    rows = [_SERIES_HEADER]
    rows.extend(f"{t},{qp},{qb},{marks},{drops}"
                for t, qp, qb, marks, drops in record.samples.tolist())
    with open(os.path.join(path, SERIES_NAME), "w", encoding="ascii") as fh:
        fh.write("\n".join(rows) + "\n")
    rows = [_FLOWS_HEADER]
    rows.extend(f"{f.flow},{f.kind},{f.bytes},{f.mbps!r}" for f in record.flows)
    with open(os.path.join(path, FLOWS_NAME), "w", encoding="ascii") as fh:
        fh.write("\n".join(rows) + "\n")
    return [META_NAME, SERIES_NAME, FLOWS_NAME]


def load_run_dir(path: str) -> RunRecord:
    """Read a run directory; malformed content raises ValueError naming its file."""
    meta_path = os.path.join(path, META_NAME)
    try:
        with open(meta_path, "r", encoding="ascii") as fh:
            meta = json.load(fh)
        rows = meta["summary"]["samples"]
        fields = dict(
            run_id=meta["run_id"],
            seed=meta["seed"],
            rng_algorithm=meta["rng"]["algorithm"],
            fingerprint=meta["fingerprint"],
            duration_ns=meta["duration_ns"],
            config=meta["config"],
            counters=meta["summary"]["counters"],
        )
    except (ValueError, KeyError, TypeError) as exc:
        raise ValueError(
            f"{meta_path}: malformed ({type(exc).__name__}: {exc})"
        ) from None
    with open(os.path.join(path, SERIES_NAME), "r", encoding="ascii") as fh:
        header = fh.readline().strip()
        if header != _SERIES_HEADER:
            raise ValueError(f"{path}: unexpected series header {header!r}")
        # comments=None: a '#' line is malformed input, not a comment
        samples = np.loadtxt(fh, delimiter=",", dtype=np.int64, ndmin=2,
                             comments=None)
    declared = (rows, len(TraceSample._fields))
    if samples.shape != declared:
        raise ValueError(f"{path}: {SERIES_NAME} holds {samples.shape} rows x "
                         f"columns, meta.json declares {declared}")
    flows = []
    flows_path = os.path.join(path, FLOWS_NAME)
    with open(flows_path, "r", encoding="ascii") as fh:
        header = fh.readline().strip()
        if header != _FLOWS_HEADER:
            raise ValueError(f"{path}: unexpected flows header {header!r}")
        for lineno, line in enumerate(fh, start=2):
            try:
                flow, kind, nbytes, mbps = line.strip().split(",")
                rate = float(mbps)
                if not math.isfinite(rate):
                    raise ValueError(f"not a finite rate: {mbps!r}")
                flows.append(FlowSummary(flow, kind, int(nbytes), rate))
            except ValueError as exc:
                raise ValueError(f"{flows_path}:{lineno}: malformed ({exc})") from None
    return RunRecord(flows=flows, samples=samples, **fields)


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()
