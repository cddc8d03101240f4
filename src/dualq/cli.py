"""Command-line interface.

Subcommands:

* emulate: one seeded run written to a run directory.
* batch: a corpus of seeded runs with a hash manifest.
* validate: equivalence test between two corpora.
* bootstrap: confidence intervals for the exceedance proportion.
* sweep: one AQM parameter across values, a corpus per value.
* presets: list operating points and parameter sets.

Exit codes: 0 success, 1 configuration error, 2 runtime error,
3 statistical check undefined (corpus too small for within-group
distances).
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .aqm import AqmConfig
from .config import (
    AQM_KEYS,
    PARAM_SETS,
    PRESETS,
    REFINED,
    ConfigError,
    ScenarioConfig,
    apply_overrides,
    build_scenario,
    parse_flow_shorthand,
    parse_float,
    parse_ms,
    preset_sections,
    sections_from_ini,
)
from .core import NS_PER_MS
from .metrics import sha256_file, write_run_dir
from .runner import (
    MANIFEST_NAME,
    SWEEP_SUMMARY_NAME,
    RunnerError,
    load_corpus,
    output_dir,
    run_batch,
    run_one,
)
from .stats.report import write_bootstrap_results, write_ci_width, write_test_results
from .stats.testing import (
    DEFAULT_B,
    DegenerateGroupsError,
    METRICS,
    bootstrap_exceedance,
    build_distances,
    ci_width_curve,
    exceedance_test,
    extract_observations,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2
EXIT_UNDEFINED = 3

# the least value of each integer flag, checked before any command runs; a
# seed must not be negative, as random.Random would take -1 for 1
INT_FLAG_MIN = {
    "seed": 0, "seed_base": 0, "resample_seed": 0, "runs": 1, "parallel": 1,
    "replicates": 2, "band": 0,
}

# the [aqm] keys that take any real number
SWEEP_PARAMS = tuple(
    key for key, (_, parse) in AQM_KEYS.items() if parse in (parse_float, parse_ms)
)


def _add_scenario_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="scenario INI file")
    p.add_argument("--preset", choices=sorted(PRESETS), help="operating point")
    p.add_argument(
        "--params", choices=PARAM_SETS, help="AQM parameter set for presets"
    )
    p.add_argument(
        "--flows", help="flow kinds for presets, e.g. scalable or scalable+cubic"
    )
    p.add_argument(
        "--mode", choices=["bursty", "smooth"],
        help="link service discipline for presets",
    )
    p.add_argument("--duration", type=float, help="run length in seconds")
    p.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="SECTION.KEY=VALUE",
        dest="overrides",
        help="override any config value",
    )


def _scenario_from_args(args) -> ScenarioConfig:
    if args.config and args.preset:
        raise ConfigError("give either --config or --preset, not both")
    given = {
        k: getattr(args, k) for k in ("params", "flows", "mode")
        if getattr(args, k) is not None
    }
    if args.config:
        if given:
            flags = ", ".join(f"--{k}" for k in given)
            raise ConfigError(f"{flags}: for --preset only; set it in the config file")
        sections = sections_from_ini(args.config)
        if args.duration is not None:
            run = sections.setdefault("run", {})
            if "duration_s" in run:
                raise ConfigError(
                    "--duration: the config file sets run.duration_s already"
                )
            run["duration_s"] = repr(args.duration)
    elif args.preset:
        if "flows" in given:
            given["flows"] = parse_flow_shorthand(given["flows"])
        sections = preset_sections(args.preset, duration_s=args.duration, **given)
    else:
        raise ConfigError("choose a scenario with --preset or --config")
    apply_overrides(sections, args.overrides)
    return build_scenario(sections)


def _entries(flag: str, raw: str) -> list[str]:
    """The stripped entries of flag's comma-separated value; an empty or
    blank entry, a trailing comma's included, is a config error."""
    entries = [e.strip() for e in raw.split(",")]
    if "" in entries:
        raise ConfigError(f"{flag}: empty entry in {raw!r}")
    return entries


def _parse_stats_flags(args) -> list[str]:
    """Check the flags validate and bootstrap share; return the metric names.

    Runs before any corpus is loaded, so a bad flag costs nothing.
    """
    names = _entries("--metrics", args.metrics)
    for i, name in enumerate(names):
        if name not in METRICS:
            raise ConfigError(
                f"unknown metric {name!r}, expected one of {sorted(METRICS)}"
            )
        if name in names[:i]:
            raise ConfigError(f"--metrics: {name!r} given twice")
    if args.band is not None and all(METRICS[n].kind == "scalar" for n in names):
        raise ConfigError(
            "--band: applies to time-series metrics only, and none is chosen"
        )
    return names


def _parse_sizes(raw: str) -> list[int]:
    """The --ci-width corpus sizes: integers >= 2."""
    try:
        sizes = [int(s) for s in _entries("--ci-width", raw)]
    except ValueError:
        raise ConfigError(f"--ci-width: not a list of integers: {raw!r}") from None
    if min(sizes) < 2:
        raise ConfigError(f"--ci-width: give corpus sizes >= 2, got {raw!r}")
    for i, size in enumerate(sizes):
        if size in sizes[:i]:
            raise ConfigError(f"--ci-width: {size} given twice")
    return sizes


def _load_corpora(args):
    """Load the two input corpora of validate and bootstrap;
    return their paths, what identifies each (inputs) and their runs.

    An --out equal to, inside or containing either corpus is a config
    error, raised before the corpora are loaded and before output_dir
    could delete one of them. So is a --band narrower than the gap
    between the runs' series lengths, which no DTW pair could span.
    """
    corpora = {"m": args.corpus_m, "k": args.corpus_k}
    out = os.path.realpath(args.out)
    for path in corpora.values():
        real = os.path.realpath(path)
        if os.path.commonpath([out, real]) in (out, real):
            raise ConfigError(f"--out {args.out}: overlaps the input corpus {path}")
    records = {key: load_corpus(path) for key, path in corpora.items()}
    if args.band is not None:
        lengths = [len(r.samples) for r in (*records["m"], *records["k"])]
        lo, hi = min(lengths), max(lengths)
        if args.band < hi - lo:
            raise ConfigError(f"--band {args.band} cannot align series of {lo} and "
                              f"{hi} samples; need at least {hi - lo}")
    inputs = {
        key: {"fingerprint": records[key][0].fingerprint,
              "manifest_sha256": sha256_file(os.path.join(path, MANIFEST_NAME))}
        for key, path in corpora.items()
    }
    return corpora, inputs, records["m"], records["k"]


def _distance_sets(args, records_m, records_k, metrics):
    """Yield (metric, kind, DistanceSets) for each chosen metric in turn.

    A corpus whose within distances are all 0 gives eps no run-to-run
    spread, so p_hat can only be 0 or 1; that is warned about on stderr.
    """
    for name in metrics:
        kind = METRICS[name].kind
        obs_m = extract_observations(records_m, name)
        obs_k = extract_observations(records_k, name)
        ds = build_distances(obs_m, obs_k, band=args.band)
        for corpus, within in ((args.corpus_m, ds.matrix_mm), (args.corpus_k, ds.matrix_kk)):
            if not within.any():
                print(f"warning: {corpus}: every within-corpus {name} distance is 0, "
                      "so eps has no run-to-run spread", file=sys.stderr)
        yield name, kind, ds


def cmd_emulate(args) -> int:
    cfg = _scenario_from_args(args)
    with output_dir(args.out, args.force) as out_dir:
        record = run_one(cfg, args.seed, run_id=os.path.basename(out_dir.rstrip("/")))
        write_run_dir(record, out_dir)
    print(f"run written to {out_dir}")
    print(f"  seed {args.seed}  fingerprint {record.fingerprint[:16]}")
    print(f"  avg throughput {record.avg_throughput_mbps:.3f} Mbps")
    for f, packets in zip(record.config["flows"], record.packets):
        print(f"  flow {f['name']} ({f['kind']}): {record.mbps(packets):.3f} Mbps")
    return EXIT_OK


def cmd_batch(args) -> int:
    cfg = _scenario_from_args(args)
    corpus_dir = run_batch(
        cfg,
        runs=args.runs,
        seed_base=args.seed_base,
        out_dir=args.out,
        parallel=args.parallel,
        force=args.force,
    )
    print(f"corpus of {args.runs} runs written to {corpus_dir}")
    print(f"  seeds {args.seed_base}..{args.seed_base + args.runs - 1}")
    print(f"  fingerprint {cfg.fingerprint()[:16]}")
    return EXIT_OK


def cmd_validate(args) -> int:
    metrics = _parse_stats_flags(args)
    corpora, inputs, records_m, records_k = _load_corpora(args)
    with output_dir(args.out, args.force) as out_dir:
        results = []
        distances = {}
        for name, kind, ds in _distance_sets(args, records_m, records_k, metrics):
            res = exceedance_test(ds, metric=name, kind=kind)
            results.append(res)
            distances[name] = ds
            verdict = "equivalent" if res.reject_h0 else "not equivalent"
            print(
                f"{name}: eps_max={res.eps_max:.6g} p_hat={res.p_hat_max:.6g} "
                f"-> {verdict}"
            )
        write_test_results(out_dir, results, distances, corpora, inputs,
                           {"metrics": metrics, "band": args.band})
    print(f"report written to {out_dir}")
    return EXIT_OK


def cmd_bootstrap(args) -> int:
    metrics = _parse_stats_flags(args)
    sizes = None if args.ci_width is None else _parse_sizes(args.ci_width)
    corpora, inputs, records_m, records_k = _load_corpora(args)
    if sizes and max(sizes) > min(len(records_m), len(records_k)):
        raise ConfigError(
            f"--ci-width: size {max(sizes)} exceeds the corpora's run counts "
            f"({len(records_m)}, {len(records_k)})"
        )
    with output_dir(args.out, args.force) as out_dir:
        results = []
        width_rows = []
        for name, _, ds in _distance_sets(args, records_m, records_k, metrics):
            res = bootstrap_exceedance(
                ds, B=args.replicates, seed=args.resample_seed, metric=name
            )
            results.append(res)
            print(
                f"{name}: p_hat={res.p_hat_point:.6g} "
                f"ci=[{res.ci_lo:.6g}, {res.ci_hi:.6g}] "
                f"significant={'yes' if res.significant else 'no'}"
            )
            if sizes:
                width_rows.extend(
                    ci_width_curve(
                        ds, sizes, B=args.replicates, seed=args.resample_seed,
                        metric=name,
                    )
                )
        params = {"metrics": metrics, "band": args.band, "B": args.replicates,
                  "resample_seed": args.resample_seed, "ci_width": sizes}
        files = write_bootstrap_results(out_dir, results, corpora, inputs, params)
        if width_rows:
            files += write_ci_width(out_dir, width_rows)
    print(f"report written to {out_dir} ({', '.join(files)})")
    return EXIT_OK


def cmd_sweep(args) -> int:
    values = _entries("--values", args.values)
    # every value is parsed and its scenario checked before anything is
    # written; two values that build one scenario would run it twice
    scenarios = {}
    for v in values:
        sweep_args = argparse.Namespace(**vars(args))
        sweep_args.overrides = list(args.overrides) + [f"aqm.{args.param}={v}"]
        cfg = _scenario_from_args(sweep_args)
        fp = cfg.fingerprint()
        if fp in scenarios:
            raise ConfigError(
                f"--values: {v!r} gives the scenario of {scenarios[fp][0]!r}"
            )
        scenarios[fp] = (v, cfg)
    with output_dir(args.out, args.force) as out_dir:
        summary = ["param,value,runs,mean_mbps,p2_5_mbps,p97_5_mbps"]
        for v, cfg in scenarios.values():
            sub = os.path.join(out_dir, f"{args.param}-{v}")
            run_batch(
                cfg,
                runs=args.runs,
                seed_base=args.seed_base,
                out_dir=sub,
                parallel=args.parallel,
            )
            records = load_corpus(sub)
            rates = [r.avg_throughput_mbps for r in records]
            mean = sum(rates) / len(rates)
            lo = float(np.quantile(rates, 0.025))
            hi = float(np.quantile(rates, 0.975))
            summary.append(f"{args.param},{v},{len(rates)},{mean!r},{lo!r},{hi!r}")
            print(f"{args.param}={v}: mean {mean:.3f} Mbps  [{lo:.3f}, {hi:.3f}]")
        path = os.path.join(out_dir, SWEEP_SUMMARY_NAME)
        with open(path, "w", encoding="ascii") as fh:
            fh.write("\n".join(summary) + "\n")
    print(f"sweep written to {out_dir}")
    return EXIT_OK


def cmd_presets(args) -> int:
    print("operating points:")
    for name, p in PRESETS.items():
        print(
            f"  {name:<8} {p.rate_bps / 1e6:6.0f} Mbps  base RTT {p.rtt_ms:5.1f} ms"
        )
    aqm = AqmConfig()
    print("parameter sets (step threshold / target):")
    print(
        f"  default  {aqm.step_thresh_ns / NS_PER_MS:g} ms"
        f" / {aqm.target_ns / NS_PER_MS:g} ms"
    )
    refined = ", ".join(f"{n} {s:g} ms / {t:g} ms" for n, (s, t) in REFINED.items())
    print(f"  refined  {refined}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dualq",
        description="dual-queue AQM link emulator and equivalence statistics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("emulate", help="run one seeded emulation")
    _add_scenario_args(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="run directory")
    p.add_argument("--force", action="store_true", help="replace existing output")
    p.set_defaults(func=cmd_emulate)

    p = sub.add_parser("batch", help="run a corpus of seeded emulations")
    _add_scenario_args(p)
    p.add_argument("--runs", type=int, required=True)
    p.add_argument("--seed-base", type=int, default=0)
    p.add_argument("--parallel", type=int, default=1)
    p.add_argument("--out", required=True, help="corpus directory")
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_batch)

    p = sub.add_parser("validate", help="equivalence test between two corpora")
    p.add_argument("corpus_m", help="reference corpus directory")
    p.add_argument("corpus_k", help="candidate corpus directory")
    p.add_argument("--metrics", default="throughput")
    p.add_argument("--band", type=int, default=None,
                   help="optional Sakoe-Chiba band for time-series distances")
    p.add_argument("--out", required=True, help="report directory")
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("bootstrap", help="bootstrap CIs for the exceedance rate")
    p.add_argument("corpus_m")
    p.add_argument("corpus_k")
    p.add_argument("--metrics", default="throughput")
    p.add_argument("--replicates", "-B", type=int, default=DEFAULT_B)
    p.add_argument("--resample-seed", type=int, default=0)
    p.add_argument("--ci-width", default=None, metavar="N1,N2,...",
                   help="also compute CI width at these corpus sizes")
    p.add_argument("--band", type=int, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_bootstrap)

    p = sub.add_parser("sweep", help="sweep one AQM parameter")
    _add_scenario_args(p)
    p.add_argument("--param", required=True, choices=sorted(SWEEP_PARAMS))
    p.add_argument("--values", required=True, help="comma-separated values")
    p.add_argument("--runs", type=int, default=20)
    p.add_argument("--seed-base", type=int, default=0)
    p.add_argument("--parallel", type=int, default=1)
    p.add_argument("--out", required=True)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("presets", help="list operating points")
    p.set_defaults(func=cmd_presets)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for name, least in INT_FLAG_MIN.items():
            value = getattr(args, name, None)
            if value is not None and value < least:
                flag = "--" + name.replace("_", "-")
                raise ConfigError(f"{flag} must be >= {least}, got {value}")
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DegenerateGroupsError as exc:
        print(f"check undefined: {exc}", file=sys.stderr)
        return EXIT_UNDEFINED
    except (RunnerError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
