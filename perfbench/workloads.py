"""The four workloads: set-up, the timed command, and its checks.

Each workload drives the program only through ``dualq.cli.main`` with
the argument lists a user would type, in this process, one command at
a time (``--parallel 1``). A round is one command; every round of a
run repeats the same command on the same inputs, so rounds of one run
must produce byte-identical outputs.

Seeds: the workload seed S gives corpus seeds 1000*S, 1000*S+1, ...
for the first corpus (and for the corpus-* batches), 1000*S+500, ...
for the second, and S itself as the bootstrap resampling seed.
"""

from __future__ import annotations

import gc
import importlib
import io
import os
import shutil
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, replace

import checks
import reference
import tracing


@dataclass(frozen=True)
class Spec:
    kind: str  # "corpus" | "validate" | "bootstrap"
    preset: str
    flows: str
    mode: str
    duration: float
    runs: int  # runs per batch command (corpus) or per input corpus (stats)
    overrides: tuple[str, ...] = ()
    path: str | None = None  # AQM path a corpus workload must take
    replicates: int = 0
    ci_width: tuple[int, ...] = ()
    spot_pairs: int = 0  # queue_occupancy pairs recomputed by the checker


WORKLOADS = {
    "corpus-bursty": Spec("corpus", "medium", "scalable+cubic", "bursty", 30.0, 1,
                          path="l_marks"),
    "corpus-smooth-drop": Spec("corpus", "medium", "cubic+reno", "smooth", 30.0, 1,
                               overrides=("aqm.ecn_classic=false",), path="drops"),
    "validate-series": Spec("validate", "medium", "scalable+cubic", "bursty", 10.0, 6,
                            spot_pairs=3),
    "bootstrap-scalar": Spec("bootstrap", "low", "scalable+cubic", "bursty", 10.0, 30,
                             replicates=2000, ci_width=(10, 20, 30)),
}

# the same workloads shrunk to seconds, for the benchmark's own tests
SMOKE = {
    "corpus-bursty": dict(duration=2.0, runs=1),
    "corpus-smooth-drop": dict(duration=2.0, runs=1),
    "validate-series": dict(duration=2.0, runs=3),
    "bootstrap-scalar": dict(duration=2.0, runs=6, replicates=200, ci_width=(2, 4, 6)),
}


class SetupError(Exception):
    """The program could not build a workload's inputs."""


def import_program() -> dict:
    """Import dualq afresh, so that every set-up pays the import."""
    for name in [m for m in sys.modules if m == "dualq" or m.startswith("dualq.")]:
        del sys.modules[name]
    importlib.import_module("dualq.cli")
    return {m: mod for m, mod in sys.modules.items() if m.startswith("dualq")}


@dataclass
class Round:
    out: str
    start: float  # perf_counter at the start and end of the command
    end: float
    code: int
    traced: bool = False

    @property
    def wall_s(self) -> float:
        return self.end - self.start


class Workload:
    def __init__(self, name: str, seed: int, smoke: bool, work_dir: str):
        spec = WORKLOADS[name]
        if smoke:
            spec = replace(spec, **SMOKE[name])
        self.name = name
        self.spec = spec
        self.seed = seed
        self.work = work_dir
        self.seeds_a = list(range(1000 * seed, 1000 * seed + spec.runs))
        self.seeds_b = list(range(1000 * seed + 500, 1000 * seed + 500 + spec.runs))
        self.modules: dict = {}
        self.fingerprint = ""
        self.corpora: dict[str, str] = {}
        self.batches: list[tuple[str, float, float]] = []  # (corpus, start, end)
        self.speed = reference.SpeedLog()

    # ------------------------------------------------------------------
    # driving the CLI

    def scenario_args(self) -> list[str]:
        s = self.spec
        args = ["--preset", s.preset, "--flows", s.flows, "--mode", s.mode,
                "--duration", repr(s.duration)]
        for item in s.overrides:
            args += ["--set", item]
        return args

    def cli(self, argv: list[str]) -> tuple[float, float, int]:
        """Run one command; returns (start, end, exit code)."""
        out, err = io.StringIO(), io.StringIO()
        main = self.modules["dualq.cli"].main
        with redirect_stdout(out), redirect_stderr(err):
            t0 = time.perf_counter()
            code = main(argv)
            t1 = time.perf_counter()
        if code:
            print(f"dualq {' '.join(argv)} exited {code}: {err.getvalue()}",
                  file=sys.stderr)
        return t0, t1, code

    def batch_argv(self, seeds: list[int], out: str) -> list[str]:
        return ["batch", *self.scenario_args(), "--runs", str(len(seeds)),
                "--seed-base", str(seeds[0]), "--parallel", "1", "--out", out]

    # ------------------------------------------------------------------
    # set-up: import, scenario build, and the input corpora of the stats
    # workloads

    def setup(self, rep: int,
              tracer: tracing.Tracer | None = None) -> tuple[float, float, float]:
        """One set-up; returns (start, end, wall time). The reference passes
        made after each input corpus are not part of the wall time."""
        # start every set-up and round from a collected heap, as a fresh
        # process would, so that the garbage of the one before (a whole
        # set of dropped modules, after a re-import) is not charged to it
        gc.collect()
        self.speed.sample()
        t0 = time.perf_counter()
        untimed = 0.0
        self.modules = import_program()
        if tracer is not None:
            tracing.install(tracer, self.modules)
        try:
            config = self.modules["dualq.config"]
            s = self.spec
            sections = config.preset_sections(
                s.preset, flows=config.parse_flow_shorthand(s.flows), mode=s.mode,
                duration_s=s.duration,
            )
            config.apply_overrides(sections, list(s.overrides))
            self.fingerprint = config.build_scenario(sections).fingerprint()
            if s.kind != "corpus":
                base = os.path.join(self.work, f"setup-{rep}")
                corpora = {"m": os.path.join(base, "a"), "k": os.path.join(base, "b")}
                for key, seeds in (("m", self.seeds_a), ("k", self.seeds_b)):
                    b0, b1, code = self.cli(self.batch_argv(seeds, corpora[key]))
                    if code:
                        raise SetupError(f"batch for corpus {key} exited {code}")
                    self.batches.append((key, b0, b1))
                    # a set-up of a stats workload takes seconds; bracket
                    # each batch so the references track the machine over it
                    untimed += self.speed.sample()
        finally:
            if tracer is not None:
                tracer.uninstall()
        t1 = time.perf_counter()
        if self.spec.kind != "corpus":
            if self.corpora:
                shutil.rmtree(os.path.dirname(self.corpora["m"]))
            self.corpora = corpora
        return t0, t1, t1 - t0 - untimed

    # ------------------------------------------------------------------
    # the timed command

    def command(self, i: int) -> tuple[list[str], str]:
        s = self.spec
        if s.kind == "corpus":
            out = os.path.join(self.work, f"round-{i}")
            return self.batch_argv(self.seeds_a, out), out
        out = os.path.join(self.work, f"report-{i}")
        a, b = self.corpora["m"], self.corpora["k"]
        if s.kind == "validate":
            return ["validate", a, b, "--metrics", "throughput,queue_occupancy",
                    "--out", out], out
        return ["bootstrap", a, b, "--metrics", "throughput",
                "-B", str(s.replicates),
                "--ci-width", ",".join(str(n) for n in s.ci_width),
                "--resample-seed", str(self.seed), "--out", out], out

    def round(self, i: int, tracer: tracing.Tracer | None = None) -> Round:
        argv, out = self.command(i)
        gc.collect()
        self.speed.sample()
        if tracer is None:
            return Round(out, *self.cli(argv))
        tracing.install(tracer, self.modules)
        try:
            with tracer.region(f"cli.{argv[0]}"):
                t0, t1, code = self.cli(argv)
        finally:
            tracer.uninstall()
        return Round(out, t0, t1, code, traced=True)

    # ------------------------------------------------------------------
    # checks, outside every timed region

    def check(self, rounds: list[Round]) -> tuple[int, int, list[str]]:
        """Returns (attempted, failed, problems) over all rounds."""
        s = self.spec
        # an operation is one emulated run, or one stats command
        per = s.runs if s.kind == "corpus" else 1
        attempted = per * len(rounds)
        done = [r for r in rounds if r.code == 0]
        failed = per * (len(rounds) - len(done))
        problems: list[str] = []
        if s.kind == "corpus":
            for r in done:
                problems += checks.check_corpus(r.out, self.seeds_a, self.fingerprint,
                                                s.path)
            problems += _same_files(done, ["manifest.json"])
            return attempted, failed, problems
        problems += checks.check_corpus(self.corpora["m"], self.seeds_a,
                                        self.fingerprint)
        problems += checks.check_corpus(self.corpora["k"], self.seeds_b,
                                        self.fingerprint)
        if not done or problems:
            return attempted, failed, problems
        runs_a = checks.load_runs(self.corpora["m"], s.runs)
        runs_b = checks.load_runs(self.corpora["k"], s.runs)
        if s.kind == "validate":
            fault, found = checks.check_validate(
                done[0].out, runs_a, runs_b, self.corpora, self.seed, s.spot_pairs
            )
            problems += found + _same_files(done, ["test_result.json",
                                                   "distances.csv"])
            if fault is not None:
                # every round wrote the same bytes, so every round has the fault
                print(f"{self.name}: {fault}", file=sys.stderr)
                failed += len(done)
        else:
            problems += checks.check_bootstrap(
                done[0].out, runs_a, runs_b, self.corpora, s.replicates, self.seed,
                list(s.ci_width),
            )
            problems += _same_files(done, ["bootstrap.json", "ci_width.csv"])
        return attempted, failed, problems

    # ------------------------------------------------------------------
    # figures

    def packets(self, run_dirs: list[str]) -> int:
        return sum(
            checks.read_json(os.path.join(d, "meta.json"))["summary"]["counters"][
                "dequeued"]
            for d in run_dirs
        )

    def end_to_end(self, setups: list[tuple[float, float, float]], rounds: list[Round],
                   peak_rss_mb: float) -> tuple[dict, dict]:
        """End-to-end metrics, and the figures kept in the record only; each
        as {name: (value, unit)}. Every time is scaled to the reference
        speed span by span (reference.SpeedLog.scaled), then the median
        is taken."""
        s = self.spec
        scaled = self.speed.scaled
        ids = checks.run_ids(s.runs)
        run_s = statistics.median(scaled(r.start, r.end, r.wall_s) for r in rounds)
        if s.kind == "corpus":
            # the engine runs in the timed batch
            sim_rate = s.runs * s.duration / run_s
            pkt_rate = self.packets(
                [os.path.join(rounds[0].out, rid) for rid in ids]) / run_s
        else:
            # the engine runs in the set-up batches, one per input corpus
            packets = {key: self.packets([os.path.join(d, rid) for rid in ids])
                       for key, d in self.corpora.items()}
            batch_s = [(key, scaled(b0, b1, b1 - b0)) for key, b0, b1 in self.batches]
            sim_rate = statistics.median(s.runs * s.duration / w for _, w in batch_s)
            pkt_rate = statistics.median(packets[key] / w for key, w in batch_s)
        metrics = {
            "setup_s": (statistics.median(scaled(*setup) for setup in setups), "s"),
            "run_s": (run_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "sim_rate": (sim_rate, "sim_s/s"),
            "pkt_rate": (pkt_rate, "pkt/s"),
        }
        n = s.runs
        extra = {
            "setup_s_unscaled": (statistics.median(w for _, _, w in setups), "s"),
            "run_s_unscaled": (statistics.median(r.wall_s for r in rounds), "s"),
            "reference_s": (self.speed.median(), "s"),
        }
        if s.kind == "validate":
            extra["pairs_per_s"] = (n * (n - 1) + n * n) / run_s, "pairs/s"
        if s.kind == "bootstrap":
            extra["replicates_per_s"] = (
                s.replicates * (1 + len(s.ci_width)) / run_s, "1/s")
        return metrics, extra


def _same_files(rounds: list[Round], names: list[str]) -> list[str]:
    """Every round of a run repeats one command, so outputs must match."""
    problems = []
    for r in rounds[1:]:
        for name in names:
            a = checks.sha256_file(os.path.join(rounds[0].out, name))
            if checks.sha256_file(os.path.join(r.out, name)) != a:
                problems.append(f"{name} of {r.out} differs from the first round")
    return problems
