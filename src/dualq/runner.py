"""Run orchestration: output layout, batches, manifests, corpus loading.

A corpus directory holds one subdirectory per run plus a manifest
listing the sha256 of every emitted file. Every command that writes
does so inside output_dir, one transaction: if it fails or is
interrupted, its whole output directory is removed, so a partial
corpus or report can never masquerade as a complete one.
"""

from __future__ import annotations

import json
import os
import shutil
from collections.abc import Iterator
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from typing import get_type_hints

from .config import ConfigError, ScenarioConfig
from .core import Rng
from .engine import run_scenario
from .stats.report import BOOTSTRAP_NAME, TEST_RESULT_NAME
from .metrics import (
    META_NAME,
    RUN_FILES,
    RunRecord,
    canonical_json,
    differing,
    load_run_dir,
    sha256_file,
    summarize,
    typed_fields,
    write_run_dir,
)

MANIFEST_NAME = "manifest.json"
SWEEP_SUMMARY_NAME = "sweep_summary.csv"
# --force replaces a non-empty directory only if one of these files, which
# dualq writes at the root of its outputs, shows it is an earlier output;
# a corpus is never an output directory (see output_dir)
OUTPUT_MARKERS = (META_NAME, TEST_RESULT_NAME, BOOTSTRAP_NAME, SWEEP_SUMMARY_NAME)


class RunnerError(Exception):
    """Filesystem or orchestration failure (exit code 2 at the CLI)."""


_run_id = "run-{:05d}".format  # a corpus's run directory names, by index


def enclosing_corpus(path: str) -> str | None:
    """The nearest directory at or above realpath(path) holding a corpus manifest."""
    here = os.path.realpath(path)
    while True:
        try:
            with open(os.path.join(here, MANIFEST_NAME), encoding="ascii") as fh:
                manifest = json.load(fh)
        except (OSError, ValueError):
            manifest = None  # no manifest here, or not JSON
        if isinstance(manifest, dict) and manifest.get("kind") == "corpus":
            return here
        if here == os.path.dirname(here):
            return None
        here = os.path.dirname(here)


@contextmanager
def output_dir(path: str, force: bool) -> Iterator[str]:
    """Create an output directory, refusing to clobber prior results, and
    yield it; remove it if the body raises anything, an interrupt included.

    A path that is, or lies inside, a corpus is a ConfigError, --force
    or not: a directory inside a corpus makes it unloadable. With force,
    an earlier dualq output (a directory holding one of OUTPUT_MARKERS)
    or an empty directory is replaced; any other non-empty directory is
    left untouched. The earlier output is gone before the body runs, so
    a failed command leaves no directory at all.
    """
    corpus = enclosing_corpus(path)
    if corpus is not None:
        raise ConfigError(f"--out {path}: is or lies inside the corpus {corpus}")
    if os.path.exists(path):
        names = os.listdir(path)
        if names and not force:
            raise RunnerError(
                f"output directory {path} is not empty; pass --force to replace it"
            )
        if names and not any(name in OUTPUT_MARKERS for name in names):
            raise RunnerError(
                f"output directory {path} holds no dualq output "
                f"({', '.join(OUTPUT_MARKERS)}); --force will not delete it"
            )
        shutil.rmtree(path)
    os.makedirs(path, exist_ok=True)
    try:
        yield path
    except BaseException:
        shutil.rmtree(path, ignore_errors=True)
        raise


def run_one(cfg: ScenarioConfig, seed: int, run_id: str) -> RunRecord:
    """Execute one run and summarize it in memory."""
    output = run_scenario(cfg, seed)
    return summarize(
        run_id=run_id,
        seed=seed,
        rng_algorithm=Rng.algorithm,
        fingerprint=cfg.fingerprint(),
        config=cfg.to_dict(),
        output=output,
    )


def _run_and_write(cfg: ScenarioConfig, seed: int, run_id: str,
                   corpus_dir: str) -> dict[str, str]:
    """Worker: one run written to corpus_dir/run_id; returns file hashes."""
    record = run_one(cfg, seed, run_id)
    run_dir = os.path.join(corpus_dir, run_id)
    return {f"{run_id}/{name}": sha256_file(os.path.join(run_dir, name))
            for name in write_run_dir(record, run_dir)}


def _manifest(fingerprint: str, seed_base: int, runs: int, algorithm: str,
              files: dict) -> dict:
    """manifest.json: the corpus's scenario, seeds and RNG, and the sha256
    of every file of every run, looked up in files (None if absent)."""
    return {
        "kind": "corpus",
        "fingerprint": fingerprint,
        "runs": runs,
        "seed_base": seed_base,
        "seeds": list(range(seed_base, seed_base + runs)),
        "rng": {"algorithm": algorithm},
        "files": {rel: files.get(rel) for rel in (
            f"{_run_id(i)}/{name}" for i in range(runs) for name in RUN_FILES)},
    }


# where manifest.json keeps each argument of _manifest
_MANIFEST_KEYS = {"fingerprint": "fingerprint", "seed_base": "seed_base",
                  "runs": "runs", "algorithm": "rng.algorithm", "files": "files"}
_MANIFEST_TYPES = get_type_hints(_manifest)


def run_batch(cfg: ScenarioConfig, runs: int, seed_base: int, out_dir: str,
              parallel: int = 1, force: bool = False) -> str:
    """Run a corpus of seeded runs; returns the corpus directory.

    Seeds are seed_base, seed_base+1, ...; run ids are zero-padded
    indexes, so corpus content is a pure function of (config, runs,
    seed_base) regardless of parallelism or completion order.
    """
    if runs < 1:
        raise RunnerError(f"runs must be >= 1, got {runs}")
    if parallel < 1:
        raise RunnerError(f"parallel must be >= 1, got {parallel}")
    with output_dir(out_dir, force) as corpus_dir:
        jobs = [(cfg, seed_base + i, _run_id(i), corpus_dir) for i in range(runs)]
        files: dict[str, str] = {}
        if parallel == 1:
            for job in jobs:
                files.update(_run_and_write(*job))
        else:
            with ProcessPoolExecutor(max_workers=parallel) as pool:
                for result in pool.map(_run_and_write, *zip(*jobs)):
                    files.update(result)
        manifest = _manifest(cfg.fingerprint(), seed_base, runs, Rng.algorithm, files)
        with open(os.path.join(corpus_dir, MANIFEST_NAME), "w", encoding="ascii") as fh:
            fh.write(canonical_json(manifest))
    return corpus_dir


def verify_corpus(corpus_dir: str) -> dict:
    """Return the corpus's manifest if it is what _manifest builds from its
    own fields and every file it lists has its digest; else RunnerError.
    The manifest is checked before any file is hashed."""
    manifest_path = os.path.join(corpus_dir, MANIFEST_NAME)
    try:
        with open(manifest_path, "r", encoding="ascii") as fh:
            manifest = json.load(fh)
        fields = typed_fields(manifest, _MANIFEST_KEYS, _MANIFEST_TYPES)
    except (OSError, ValueError) as exc:
        raise RunnerError(f"cannot read manifest {manifest_path}: {exc}") from exc
    runs, files = fields["runs"], fields["files"]
    if not 0 < runs <= len(files):  # which also bounds the manifest rebuilt
        raise RunnerError(f"{manifest_path}: runs is {runs}, not between 1 and "
                          f"the {len(files)} files listed")
    wrong = differing(manifest, _manifest(**fields))
    if wrong:
        raise RunnerError(f"{manifest_path}: {', '.join(wrong)}: not what the "
                          f"writer writes for runs {runs} and seed_base "
                          f"{fields['seed_base']}")
    bad = []
    for rel, digest in files.items():
        try:
            if sha256_file(os.path.join(corpus_dir, rel)) != digest:
                bad.append(f"hash mismatch for {rel}")
        except FileNotFoundError:
            bad.append(f"missing file {rel}")
    if bad:
        raise RunnerError(f"corpus {corpus_dir} failed verification: " + "; ".join(bad))
    return manifest


def load_corpus(corpus_dir: str) -> list[RunRecord]:
    """Load exactly the runs the verified manifest lists, in run-id order; a
    run directory it does not list, or a run whose fingerprint, seed or RNG
    algorithm is not the manifest's, raises RunnerError."""
    manifest = verify_corpus(corpus_dir)
    run_ids = [_run_id(i) for i in range(manifest["runs"])]
    unlisted = sorted(name for name in os.listdir(corpus_dir) if name not in run_ids
                      and os.path.isdir(os.path.join(corpus_dir, name)))
    if unlisted:
        raise RunnerError(f"corpus {corpus_dir} holds run directories its manifest "
                          f"does not list: {', '.join(unlisted)}")
    records = []
    for run_id, seed in zip(run_ids, manifest["seeds"]):
        record = load_run_dir(os.path.join(corpus_dir, run_id))
        for field, listed in (("fingerprint", manifest["fingerprint"]), ("seed", seed),
                              ("rng_algorithm", manifest["rng"]["algorithm"])):
            if getattr(record, field) != listed:
                raise RunnerError(f"{os.path.join(corpus_dir, run_id, META_NAME)}: "
                                  f"{field} is {getattr(record, field)!r}, the "
                                  f"manifest lists {listed!r}")
        records.append(record)
    return records
