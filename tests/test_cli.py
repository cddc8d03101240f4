"""End-to-end command-line behavior: run dirs, corpora, reports, exit codes."""

import hashlib
import json
import os
import shutil

import pytest

from dualq.cli import (
    EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, EXIT_UNDEFINED, SWEEP_PARAMS, main,
)
from dualq.metrics import canonical_json
from dualq.runner import RunnerError, load_corpus, verify_corpus
from dualq.stats.testing import METRICS, build_distances, extract_observations


def run_cli(*argv):
    return main(list(argv))


def emulate(out, *extra):
    return run_cli(
        "emulate", "--preset", "low", "--duration", "0.5", "--out", str(out), *extra
    )


def batch(out, runs, *extra, flows="scalable+cubic"):
    return run_cli(
        "batch",
        "--preset",
        "low",
        "--flows",
        flows,
        "--duration",
        "0.5",
        "--runs",
        str(runs),
        "--out",
        str(out),
        *extra,
    )


def tree_digest(root):
    """Hash of every file path and its content under root."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            full = os.path.join(dirpath, name)
            h.update(os.path.relpath(full, root).encode())
            with open(full, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


class TestEmulate:
    def test_writes_run_dir(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert emulate(out) == EXIT_OK
        assert (out / "meta.json").is_file()
        assert (out / "series.csv").is_file()
        assert (out / "flows.csv").is_file()
        meta = json.loads((out / "meta.json").read_text())
        assert meta["seed"] == 0
        assert meta["rng"]["algorithm"] == "mt19937"
        assert "fingerprint" in meta
        assert "avg throughput" in capsys.readouterr().out

    def test_refuses_existing_output(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert emulate(out) == EXIT_OK
        assert emulate(out) == EXIT_RUNTIME
        assert "not empty" in capsys.readouterr().err

    def test_force_overwrites(self, tmp_path):
        out = tmp_path / "run"
        assert emulate(out) == EXIT_OK
        first = tree_digest(out)
        assert emulate(out, "--force", "--seed", "7") == EXIT_OK
        assert tree_digest(out) != first

    def test_same_seed_same_bytes(self, tmp_path):
        # run_id comes from the directory basename, so keep it equal
        a, b = tmp_path / "a" / "run", tmp_path / "b" / "run"
        assert emulate(a, "--seed", "3") == EXIT_OK
        assert emulate(b, "--seed", "3") == EXIT_OK
        assert tree_digest(a) == tree_digest(b)

    def test_set_overrides_change_fingerprint(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert emulate(a) == EXIT_OK
        assert emulate(b, "--set", "aqm.coupling_k=4") == EXIT_OK
        meta_a = json.loads((a / "meta.json").read_text())
        meta_b = json.loads((b / "meta.json").read_text())
        assert meta_a["fingerprint"] != meta_b["fingerprint"]
        assert meta_b["config"]["aqm"]["coupling_k"] == 4.0

    def test_preset_flag_defaults_keep_fingerprint(self, tmp_path):
        # taken when --params, --flows and --mode had argparse defaults
        assert emulate(tmp_path / "run") == EXIT_OK
        meta = json.loads((tmp_path / "run" / "meta.json").read_text())
        assert meta["fingerprint"] == (
            "edf3a4e09fe47e9d98d8d1cce7e7db0d57fc5b1b9e7e93a65ba4134a9a685d0c"
        )

    def test_config_file_scenario(self, tmp_path):
        ini = tmp_path / "s.ini"
        ini.write_text(
            "[link]\nrate_mbps = 12\n[delay]\nrtt_ms = 20\n"
            "[flow.a]\nkind = scalable\n"
        )
        out = tmp_path / "run"
        code = run_cli(
            "emulate", "--config", str(ini), "--duration", "0.5",
            "--out", str(out),
        )
        assert code == EXIT_OK
        meta = json.loads((out / "meta.json").read_text())
        assert meta["config"]["duration_ns"] == 500_000_000

    def test_flow_starting_after_horizon_gets_zero_row(self, tmp_path):
        out = tmp_path / "run"
        code = run_cli(
            "emulate", "--preset", "low", "--flows", "scalable+cubic",
            "--duration", "1", "--set", "flow.cubic1.start_s=5",
            "--out", str(out),
        )
        assert code == EXIT_OK
        rows = (out / "flows.csv").read_text().splitlines()
        assert rows[0] == "flow_id,kind,bytes,mbps"
        assert rows[1].startswith("scalable0,scalable,")
        assert rows[1] != "scalable0,scalable,0,0.0"
        assert rows[2:] == ["cubic1,cubic,0,0.0"]

    def test_force_refuses_directory_without_dualq_output(self, tmp_path, capsys):
        out = tmp_path / "precious"
        out.mkdir()
        (out / "a.txt").write_text("keep me")
        assert emulate(out, "--force") == EXIT_RUNTIME
        assert "--force" in capsys.readouterr().err
        assert os.listdir(out) == ["a.txt"]
        assert (out / "a.txt").read_text() == "keep me"

    def test_force_on_empty_directory(self, tmp_path):
        out = tmp_path / "run"
        out.mkdir()
        assert emulate(out, "--force") == EXIT_OK
        assert (out / "meta.json").is_file()

    def test_output_root_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DUALQ_OUTPUT_ROOT", str(tmp_path))
        assert emulate("nested/run") == EXIT_OK
        assert (tmp_path / "nested" / "run" / "meta.json").is_file()


class TestExitCodes:
    def test_missing_scenario_is_config_error(self, tmp_path, capsys):
        code = run_cli("emulate", "--out", str(tmp_path / "x"))
        assert code == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_both_scenario_sources_is_config_error(self, tmp_path):
        ini = tmp_path / "s.ini"
        ini.write_text("[flow.a]\nkind = scalable\n")
        code = run_cli(
            "emulate", "--preset", "low", "--config", str(ini),
            "--out", str(tmp_path / "x"),
        )
        assert code == EXIT_CONFIG

    def test_bad_override_is_config_error(self, tmp_path):
        code = emulate(tmp_path / "x", "--set", "aqm.alpha=-1")
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize(
        "override",
        [
            "run.duraton_s=9",
            "link.moed=smooth",
            "delay.rtt=30",
            "aqm.alfa=0.5",
            "flow.scalable0.stop_ms=5",
        ],
    )
    def test_unknown_key_is_config_error(self, tmp_path, capsys, override):
        code = emulate(tmp_path / "x", "--set", override)
        assert code == EXIT_CONFIG
        assert "unknown key" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_typo_in_config_file_is_config_error(self, tmp_path):
        ini = tmp_path / "s.ini"
        ini.write_text("[link]\nmoed = smooth\n[flow.a]\nkind = scalable\n")
        code = run_cli(
            "emulate", "--config", str(ini), "--duration", "0.5",
            "--out", str(tmp_path / "x"),
        )
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize(
        "override",
        [
            "flow.scalable0.stop_s=abc",
            "run.duration_s=inf",
            "aqm.alpha=nan",
            "aqm.beta=nan",
            "aqm.coupling_k=nan",
            "aqm.alpha=inf",
        ],
    )
    def test_unparsable_value_is_config_error(self, tmp_path, capsys, override):
        code = emulate(tmp_path / "x", "--set", override)
        assert code == EXIT_CONFIG
        key = override.partition("=")[0]
        assert f"bad value for {key}" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "flag", [["--mode", "smooth"], ["--flows", "cubic"], ["--params", "refined"]]
    )
    def test_preset_flag_with_config_is_config_error(self, tmp_path, capsys, flag):
        ini = tmp_path / "s.ini"
        ini.write_text("[flow.a]\nkind = scalable\n")
        code = run_cli(
            "emulate", "--config", str(ini), "--duration", "0.5", *flag,
            "--out", str(tmp_path / "x"),
        )
        assert code == EXIT_CONFIG
        assert flag[0] in capsys.readouterr().err

    def test_duration_with_config_duration_is_config_error(self, tmp_path, capsys):
        ini = tmp_path / "s.ini"
        ini.write_text("[run]\nduration_s = 2\n[flow.a]\nkind = scalable\n")
        code = run_cli(
            "emulate", "--config", str(ini), "--duration", "0.5",
            "--out", str(tmp_path / "x"),
        )
        assert code == EXIT_CONFIG
        assert "--duration" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_smooth_link_with_trace_file_is_config_error(self, tmp_path, capsys):
        # SmoothPacer paces at link.rate_bps; a trace would be ignored
        trace = tmp_path / "t.trace"
        trace.write_text("4\n")
        code = emulate(tmp_path / "x", "--mode", "smooth",
                       "--set", f"link.trace_file={trace}")
        assert code == EXIT_CONFIG
        assert "trace_file" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_missing_trace_file_is_runtime_error(self, tmp_path, capsys):
        code = emulate(tmp_path / "x", "--set",
                       f"link.trace_file={tmp_path / 'missing.trace'}")
        assert code == EXIT_RUNTIME
        assert "missing.trace" in capsys.readouterr().err
        # the failed run takes its output directory with it
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "command", [emulate, lambda out, *extra: batch(out, 2, *extra)],
        ids=["emulate", "batch"],
    )
    def test_malformed_trace_file_is_config_error(self, tmp_path, capsys, command):
        trace = tmp_path / "bad.trace"
        trace.write_text("1\nabc\n4\n")
        code = command(tmp_path / "x", "--set", f"link.trace_file={trace}")
        assert code == EXIT_CONFIG
        assert "not an integer" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["bootstrap", "--ci-width", "10,x"],
            ["bootstrap", "--ci-width", "1"],
            ["bootstrap", "--ci-width", ","],
            ["bootstrap", "-B", "1"],
            ["bootstrap", "--band", "-1"],
            ["bootstrap", "--metrics", "latency"],
            ["validate", "--band", "-3", "--metrics", "queue_occupancy"],
            ["validate", "--metrics", "latency"],
            ["bootstrap", "--resample-seed", "-1"],
            ["validate", "--metrics", "throughput,throughput"],
            ["bootstrap", "--metrics",
             "queue_occupancy,throughput, queue_occupancy", "--ci-width", "2"],
            ["bootstrap", "--ci-width", "2,2"],
        ],
    )
    def test_bad_stats_flag_is_config_error_before_loading(self, tmp_path, capsys,
                                                            argv):
        # the corpora do not exist: a flag error must be found first
        code = run_cli(argv[0], str(tmp_path / "no_m"), str(tmp_path / "no_k"),
                       *argv[1:], "--out", str(tmp_path / "rep"))
        assert code == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "rep").exists()

    @pytest.mark.parametrize("command", ["validate", "bootstrap"])
    @pytest.mark.parametrize("metrics", [None, "throughput"])
    def test_band_without_series_metric_is_config_error(self, tmp_path, capsys,
                                                        command, metrics):
        # the band shapes time-series distances only; with scalar metrics
        # alone it would be ignored. The corpora do not exist, so the flag
        # must be rejected before anything is loaded.
        extra = [] if metrics is None else ["--metrics", metrics]
        code = run_cli(command, str(tmp_path / "no_m"), str(tmp_path / "no_k"),
                       *extra, "--band", "5", "--out", str(tmp_path / "rep"))
        assert code == EXIT_CONFIG
        assert "--band" in capsys.readouterr().err
        assert not (tmp_path / "rep").exists()

    @pytest.mark.parametrize("command", ["validate", "bootstrap"])
    def test_band_with_one_series_metric_passes_flag_checks(self, tmp_path,
                                                            capsys, command):
        # one time-series metric among scalar ones is enough: the flags are
        # accepted and the missing corpus is what fails
        code = run_cli(command, str(tmp_path / "no_m"), str(tmp_path / "no_k"),
                       "--metrics", "throughput,queue_occupancy", "--band", "5",
                       "--out", str(tmp_path / "rep"))
        assert code == EXIT_RUNTIME
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv",
        [
            ["emulate", "--seed", "-1"],
            ["batch", "--runs", "2", "--seed-base", "-1"],
            ["batch", "--runs", "0"],
            ["batch", "--runs", "2", "--parallel", "0"],
            ["sweep", "--param", "alpha", "--values", "0.1", "--runs", "0"],
            ["sweep", "--param", "alpha", "--values", "0.1", "--parallel", "0"],
            ["sweep", "--param", "alpha", "--values", "0.1", "--seed-base", "-1"],
        ],
    )
    def test_bad_count_or_seed_is_config_error_before_writing(self, tmp_path,
                                                              capsys, argv):
        # random.Random seeds from abs(seed), so seed -1 would replay seed 1
        out = tmp_path / "out"
        code = run_cli(argv[0], "--preset", "low", "--duration", "0.2",
                       *argv[1:], "--out", str(out))
        assert code == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_corpus_is_runtime_error(self, tmp_path, capsys):
        code = run_cli(
            "validate", str(tmp_path / "no_m"), str(tmp_path / "no_k"),
            "--out", str(tmp_path / "rep"),
        )
        assert code == EXIT_RUNTIME
        capsys.readouterr()

    def test_single_run_corpus_is_undefined(self, tmp_path, capsys):
        m, k = tmp_path / "m", tmp_path / "k"
        assert batch(m, 1) == EXIT_OK
        assert batch(k, 1, "--seed-base", "50") == EXIT_OK
        code = run_cli(
            "validate", str(m), str(k), "--out", str(tmp_path / "rep")
        )
        assert code == EXIT_UNDEFINED
        assert "check undefined" in capsys.readouterr().err
        assert not (tmp_path / "rep").exists()


class TestBatch:
    def test_manifest_covers_every_file(self, tmp_path):
        out = tmp_path / "corpus"
        assert batch(out, 3) == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        listed = set(manifest["files"])
        on_disk = set()
        for dirpath, _, filenames in os.walk(out):
            for name in filenames:
                rel = os.path.relpath(os.path.join(dirpath, name), out)
                if rel != "manifest.json":
                    on_disk.add(rel)
        assert listed == on_disk
        assert verify_corpus(str(out))["runs"] == 3

    def test_seeds_distinct_and_recorded(self, tmp_path):
        out = tmp_path / "corpus"
        assert batch(out, 3, "--seed-base", "100") == EXIT_OK
        records = load_corpus(str(out))
        assert [r.seed for r in records] == [100, 101, 102]
        assert len({r.fingerprint for r in records}) == 1

    def test_parallel_matches_serial_bytes(self, tmp_path):
        serial, parallel = tmp_path / "serial", tmp_path / "parallel"
        assert batch(serial, 4) == EXIT_OK
        assert batch(parallel, 4, "--parallel", "2") == EXIT_OK
        assert tree_digest(serial) == tree_digest(parallel)

    def test_tampered_corpus_fails_verification(self, tmp_path, capsys):
        out = tmp_path / "corpus"
        assert batch(out, 2) == EXIT_OK
        victim = out / "run-00000" / "series.csv"
        victim.write_text(victim.read_text() + "1,1,1,1,1\n")
        code = run_cli(
            "validate", str(out), str(out), "--out", str(tmp_path / "rep")
        )
        assert code == EXIT_RUNTIME
        assert "hash mismatch" in capsys.readouterr().err

    def test_interrupted_batch_leaves_nothing(self, tmp_path, monkeypatch):
        import dualq.runner as runner

        real = runner._run_and_write
        calls = []

        def interrupt_second(*job):
            calls.append(job)
            if len(calls) == 2:
                raise KeyboardInterrupt
            return real(*job)

        monkeypatch.setattr(runner, "_run_and_write", interrupt_second)
        out = tmp_path / "corpus"
        with pytest.raises(KeyboardInterrupt):
            batch(out, 3)
        assert not out.exists()

    def test_failed_manifest_write_leaves_nothing(self, tmp_path, monkeypatch,
                                                  capsys):
        import dualq.runner as runner

        def disk_full(obj):
            raise OSError("no space left on device")

        monkeypatch.setattr(runner, "canonical_json", disk_full)
        out = tmp_path / "corpus"
        assert batch(out, 2) == EXIT_RUNTIME
        assert "no space left" in capsys.readouterr().err
        assert not out.exists()


class TestCorpusRuns:
    """load_corpus reads exactly the runs its manifest lists."""

    def test_unlisted_run_dir_is_rejected(self, tmp_path, capsys):
        corpus, other = tmp_path / "corpus", tmp_path / "other"
        assert batch(corpus, 3, flows="scalable") == EXIT_OK
        assert batch(other, 1, flows="cubic") == EXIT_OK
        shutil.copytree(other / "run-00000", corpus / "run-00099")
        with pytest.raises(RunnerError, match="run-00099"):
            load_corpus(str(corpus))
        code = run_cli(
            "validate", str(corpus), str(corpus), "--out", str(tmp_path / "rep")
        )
        assert code == EXIT_RUNTIME
        assert "run-00099" in capsys.readouterr().err

    def test_run_count_must_match_manifest(self, tmp_path):
        corpus = tmp_path / "corpus"
        assert batch(corpus, 3) == EXIT_OK
        path = corpus / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["runs"] = 4
        path.write_text(json.dumps(manifest))
        with pytest.raises(RunnerError, match="runs"):
            load_corpus(str(corpus))

    def test_run_fingerprint_must_match_manifest(self, tmp_path):
        corpus = tmp_path / "corpus"
        assert batch(corpus, 2) == EXIT_OK
        path = corpus / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["fingerprint"] = "0" * len(manifest["fingerprint"])
        path.write_text(json.dumps(manifest))
        with pytest.raises(RunnerError, match="fingerprint"):
            load_corpus(str(corpus))

    def test_series_row_count_must_match_meta(self, tmp_path, capsys):
        # a row removed by hand, the manifest re-hashed to match
        corpus = tmp_path / "corpus"
        assert batch(corpus, 2) == EXIT_OK
        series = corpus / "run-00001" / "series.csv"
        rows = series.read_text().splitlines(keepends=True)
        series.write_text("".join(rows[:-1]))
        path = corpus / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["files"]["run-00001/series.csv"] = hashlib.sha256(
            series.read_bytes()).hexdigest()
        path.write_text(canonical_json(manifest))
        with pytest.raises(ValueError, match=r"declares \(32, 5\)"):
            load_corpus(str(corpus))
        code = run_cli(
            "validate", str(corpus), str(corpus), "--out", str(tmp_path / "rep")
        )
        assert code == EXIT_RUNTIME
        assert "series.csv holds (31, 5)" in capsys.readouterr().err

    def test_runs_load_in_run_id_order(self, tmp_path):
        corpus = tmp_path / "corpus"
        assert batch(corpus, 3, "--seed-base", "7") == EXIT_OK
        records = load_corpus(str(corpus))
        assert [r.run_id for r in records] == ["run-00000", "run-00001", "run-00002"]
        assert [r.seed for r in records] == [7, 8, 9]


class TestValidate:
    @pytest.fixture()
    def corpora(self, tmp_path):
        m, k = tmp_path / "m", tmp_path / "k"
        assert batch(m, 4) == EXIT_OK
        assert batch(k, 4, "--seed-base", "100") == EXIT_OK
        return m, k

    def test_report_files(self, corpora, tmp_path, capsys):
        m, k = corpora
        rep = tmp_path / "rep"
        code = run_cli(
            "validate", str(m), str(k),
            "--metrics", "throughput,queue_occupancy",
            "--out", str(rep),
        )
        assert code == EXIT_OK
        payload = json.loads((rep / "test_result.json").read_text())
        assert set(payload["metrics"]) == {"throughput", "queue_occupancy"}
        for r in payload["metrics"].values():
            assert 0.0 <= r["p_hat_max"] <= 1.0
            assert r["reject_h0"] in (True, False)
            assert r["n_m"] == 4 and r["n_k"] == 4
        lines = (rep / "distances.csv").read_text().splitlines()
        assert lines[0] == "metric,label,value"
        written = {}
        for line in lines[1:]:
            metric, label, value = line.split(",")
            written.setdefault((metric, label), []).append(float(value))
        records_m, records_k = load_corpus(str(m)), load_corpus(str(k))
        for metric in ("throughput", "queue_occupancy"):
            ds = build_distances(extract_observations(records_m, metric),
                                 extract_observations(records_k, metric),
                                 METRICS[metric].kind)
            for label in ("within_m", "within_k", "cross"):
                assert written[(metric, label)] == getattr(ds, label).tolist()
        out_text = capsys.readouterr().out
        assert "throughput:" in out_text

    def test_same_corpus_is_equivalent(self, corpora, tmp_path):
        m, _ = corpora
        rep = tmp_path / "rep"
        code = run_cli("validate", str(m), str(m), "--out", str(rep))
        assert code == EXIT_OK
        payload = json.loads((rep / "test_result.json").read_text())
        res = payload["metrics"]["throughput"]
        assert res["p_hat_max"] == 0.0
        assert res["reject_h0"] is True

    def test_unknown_metric_is_config_error(self, corpora, tmp_path):
        m, k = corpora
        code = run_cli(
            "validate", str(m), str(k), "--metrics", "latency",
            "--out", str(tmp_path / "rep"),
        )
        assert code == EXIT_CONFIG


class TestBootstrap:
    def test_report_files(self, tmp_path):
        m, k = tmp_path / "m", tmp_path / "k"
        assert batch(m, 4) == EXIT_OK
        assert batch(k, 4, "--seed-base", "100") == EXIT_OK
        rep = tmp_path / "rep"
        code = run_cli(
            "bootstrap", str(m), str(k),
            "--replicates", "200",
            "--ci-width", "2,4",
            "--out", str(rep),
        )
        assert code == EXIT_OK
        payload = json.loads((rep / "bootstrap.json").read_text())
        res = payload["metrics"]["throughput"]
        assert res["B"] == 200
        assert res["algorithm"] == "pcg64"
        assert 0.0 <= res["ci_lo"] <= res["ci_hi"] <= 1.0
        lines = (rep / "ci_width.csv").read_text().splitlines()
        assert lines[0] == "metric,n,B,ci_lo,ci_hi,width"
        assert len(lines) == 3

    @pytest.mark.parametrize("sizes", ["5", "2,4"])
    def test_ci_width_above_run_count_is_config_error(self, tmp_path, capsys,
                                                      sizes):
        m, k = tmp_path / "m", tmp_path / "k"
        assert batch(m, 3) == EXIT_OK
        assert batch(k, 3, "--seed-base", "100") == EXIT_OK
        capsys.readouterr()
        rep = tmp_path / "rep"
        code = run_cli("bootstrap", str(m), str(k), "-B", "50",
                       "--ci-width", sizes, "--out", str(rep))
        assert code == EXIT_CONFIG
        out, err = capsys.readouterr()
        assert "--ci-width" in err
        # rejected before the bootstrap runs and before the report exists
        assert "p_hat" not in out
        assert not rep.exists()

    def test_force_replaces_earlier_report(self, tmp_path):
        m, k = tmp_path / "m", tmp_path / "k"
        assert batch(m, 3) == EXIT_OK
        assert batch(k, 3, "--seed-base", "100") == EXIT_OK
        rep = tmp_path / "rep"
        args = ("bootstrap", str(m), str(k), "--out", str(rep))
        assert run_cli(*args, "-B", "50", "--ci-width", "2") == EXIT_OK
        assert run_cli(*args, "-B", "60") == EXIT_RUNTIME
        assert run_cli(*args, "-B", "60", "--force") == EXIT_OK
        payload = json.loads((rep / "bootstrap.json").read_text())
        assert payload["metrics"]["throughput"]["B"] == 60
        assert sorted(os.listdir(rep)) == ["bootstrap.json"]

    def test_infeasible_band_leaves_no_report(self, tmp_path, capsys):
        # band 0 is lockstep, which corpora of different lengths cannot be
        m, k = tmp_path / "m", tmp_path / "k"
        assert batch(m, 3) == EXIT_OK
        assert batch(k, 3, "--duration", "0.6", "--seed-base", "100") == EXIT_OK
        capsys.readouterr()
        rep = tmp_path / "rep"
        code = run_cli("bootstrap", str(m), str(k), "-B", "50", "--metrics",
                       "queue_occupancy", "--band", "0", "--out", str(rep))
        assert code == EXIT_RUNTIME
        assert "band" in capsys.readouterr().err
        assert not rep.exists()


class TestOutOverlapsCorpus:
    """An --out equal to, inside or containing an input corpus is a config
    error found before anything is deleted; --force once let validate and
    bootstrap delete the corpus they had just loaded."""

    @pytest.fixture()
    def sweep(self, tmp_path):
        # two corpora inside a sweep directory, which carries its own marker
        out = tmp_path / "sweep"
        assert run_cli(
            "sweep", "--preset", "low", "--duration", "0.2", "--runs", "2",
            "--param", "alpha", "--values", "0.1,0.2", "--out", str(out),
        ) == EXIT_OK
        return out

    @pytest.mark.parametrize("command", ["validate", "bootstrap"])
    @pytest.mark.parametrize("out", [
        "alpha-0.1",
        "alpha-0.2",
        "alpha-0.2/../alpha-0.1",
        "alpha-0.1/rep",
        ".",
    ])
    def test_overlapping_out_is_config_error(self, sweep, capsys, command, out):
        before = tree_digest(sweep)
        capsys.readouterr()
        code = run_cli(command, str(sweep / "alpha-0.1"), str(sweep / "alpha-0.2"),
                       "--metrics", "throughput,queue_occupancy",
                       "--out", str(sweep / out), "--force")
        assert code == EXIT_CONFIG
        out_text, err = capsys.readouterr()
        assert "--out" in err and "p_hat" not in out_text
        assert tree_digest(sweep) == before
        assert len(load_corpus(str(sweep / "alpha-0.1"))) == 2

    def test_sibling_with_corpus_prefix_is_accepted(self, sweep):
        # alpha-0.1x shares a name prefix with alpha-0.1 but not a path
        rep = sweep.parent / "alpha-0.1x"
        assert run_cli("validate", str(sweep / "alpha-0.1"),
                       str(sweep / "alpha-0.2"), "--out", str(rep)) == EXIT_OK
        assert (rep / "test_result.json").is_file()


class TestReportPins:
    """Exact report bytes on two fixed-seed 3-run corpora.

    The duration is a multiple of tupdate, so the final sample sits at
    the horizon either way. The ``corpora`` key of the JSON reports holds
    absolute paths, so only their ``metrics`` objects are pinned."""

    PINNED = {
        "distances.csv":
            "e1b4819694f2d33a3250219c749e56ce20dc9b81d3558254acae812633dea478",
        "ci_width.csv":
            "eb94051420c85c128955df5055d2013aa2c487d56e9d25eafb2e8dacc9b4375b",
        "test_result.json":
            "995cba4133eaf6e0ad56c4e0ef4481b0baaf4aa041fcbf4279119cd2c9c2e2b7",
        "bootstrap.json":
            "b30962d49f99a9ff26371254ba379a53ffeef86d0c46eaec8dd01178a7e8aaaa",
    }

    def test_report_digests(self, tmp_path):
        m, k = tmp_path / "m", tmp_path / "k"
        for out, seed_base in ((m, "0"), (k, "100")):
            assert run_cli(
                "batch", "--preset", "low", "--flows", "scalable+cubic",
                "--duration", "0.8", "--runs", "3", "--seed-base", seed_base,
                "--out", str(out),
            ) == EXIT_OK
        metrics = ("--metrics", "throughput,queue_occupancy")
        assert run_cli("validate", str(m), str(k), *metrics,
                       "--out", str(tmp_path / "v")) == EXIT_OK
        assert run_cli("bootstrap", str(m), str(k), *metrics, "-B", "200",
                       "--ci-width", "2,3", "--out", str(tmp_path / "b")) == EXIT_OK

        def file_digest(path):
            return hashlib.sha256(path.read_bytes()).hexdigest()

        def metrics_digest(path):
            payload = json.loads(path.read_text())["metrics"]
            return hashlib.sha256(canonical_json(payload).encode()).hexdigest()

        assert {
            "distances.csv": file_digest(tmp_path / "v" / "distances.csv"),
            "ci_width.csv": file_digest(tmp_path / "b" / "ci_width.csv"),
            "test_result.json": metrics_digest(tmp_path / "v" / "test_result.json"),
            "bootstrap.json": metrics_digest(tmp_path / "b" / "bootstrap.json"),
        } == self.PINNED


class TestSweep:
    def test_summary_csv(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        code = run_cli(
            "sweep",
            "--preset", "low",
            "--flows", "scalable+cubic",
            "--duration", "0.5",
            "--param", "step_thresh_ms",
            "--values", "1,5",
            "--runs", "2",
            "--out", str(out),
        )
        assert code == EXIT_OK
        lines = (out / "sweep_summary.csv").read_text().splitlines()
        assert lines[0] == "param,value,runs,mean_mbps,p2_5_mbps,p97_5_mbps"
        assert len(lines) == 3
        assert (out / "step_thresh_ms-1" / "manifest.json").is_file()
        assert (out / "step_thresh_ms-5" / "manifest.json").is_file()
        assert "step_thresh_ms=1" in capsys.readouterr().out

    def test_one_run_interval_is_the_run(self, tmp_path):
        # the quantiles of a single rate are that rate, bit for bit
        out = tmp_path / "sweep"
        code = run_cli(
            "sweep", "--preset", "low", "--duration", "0.2", "--runs", "1",
            "--param", "alpha", "--values", "0.1", "--out", str(out),
        )
        assert code == EXIT_OK
        rate = load_corpus(str(out / "alpha-0.1"))[0].avg_throughput_mbps
        row = (out / "sweep_summary.csv").read_text().splitlines()[1]
        assert row.split(",") == ["alpha", "0.1", "1"] + [repr(rate)] * 3

    def test_sweepable_params(self):
        assert sorted(SWEEP_PARAMS) == [
            "alpha", "beta", "classic_protection", "coupling_k",
            "step_thresh_ms", "target_ms", "tupdate_ms",
        ]

    def test_non_numeric_value_is_config_error(self, tmp_path):
        code = run_cli(
            "sweep", "--preset", "low", "--param", "alpha",
            "--values", "fast", "--out", str(tmp_path / "x"),
        )
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("bad", ["nan", "-1", "0.1", "0.10", "1e-1"])
    def test_bad_later_value_writes_nothing(self, tmp_path, bad):
        # a value repeated, or equal in number, would run one scenario twice
        out = tmp_path / "sweep"
        code = run_cli(
            "sweep", "--preset", "low", "--duration", "0.2", "--runs", "1",
            "--param", "alpha", "--values", f"0.1,{bad}", "--out", str(out),
        )
        assert code == EXIT_CONFIG
        assert not out.exists()

    def test_interrupted_sweep_leaves_nothing(self, tmp_path, monkeypatch):
        import dualq.cli as cli

        real = cli.run_batch
        calls = []

        def interrupt_second(*args, **kwargs):
            calls.append(args)
            if len(calls) == 2:
                raise KeyboardInterrupt
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "run_batch", interrupt_second)
        out = tmp_path / "sweep"
        argv = ("sweep", "--preset", "low", "--duration", "0.2", "--runs", "1",
                "--param", "alpha", "--values", "0.1,0.2", "--out", str(out))
        with pytest.raises(KeyboardInterrupt):
            run_cli(*argv)
        assert not out.exists()
        monkeypatch.setattr(cli, "run_batch", real)
        assert run_cli(*argv) == EXIT_OK


class TestPresets:
    def test_lists_operating_points(self, capsys):
        assert run_cli("presets") == EXIT_OK
        out = capsys.readouterr().out
        assert "low" in out and "medium" in out and "high" in out
        assert "12 Mbps" in out
        assert "default  1 ms / 15 ms" in out
        assert "high 10 ms / 45 ms" in out
