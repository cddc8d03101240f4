"""End-to-end command-line behavior: run dirs, corpora, reports, exit codes."""

import hashlib
import itertools
import json
import os
import shutil

import numpy as np
import pytest

from dualq.cli import (
    EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, EXIT_UNDEFINED, SWEEP_PARAMS, main,
)
from dualq.metrics import canonical_json, load_run_dir, write_run_dir
from dualq.runner import RunnerError, load_corpus, verify_corpus
from dualq.stats import _dtw_py, dtw
from dualq.stats.testing import build_distances, extract_observations


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


def rehash(corpus, rel):
    """Record the current sha256 of corpus/rel in the corpus manifest, so
    that only the file's content is wrong."""
    path = corpus / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["files"][rel] = hashlib.sha256((corpus / rel).read_bytes()).hexdigest()
    path.write_text(canonical_json(manifest))


def counters_plus(**delta):
    """A meta.json edit that adds delta to the named summary counters."""
    def change(meta):
        for name, by in delta.items():
            meta["summary"]["counters"][name] += by
    return change


def drop_edited_series(manifest, corpus):
    """A manifest edit: run-00000/series.csv gets a changed qocc_bytes and
    loses its digest, so that no hash check would see the change."""
    series = corpus / "run-00000" / "series.csv"
    rows = series.read_text().split("\n")
    t, qp, qb, marks, drops = rows[1].split(",")
    rows[1] = ",".join([t, qp, str(int(qb) + 123456), marks, drops])
    series.write_text("\n".join(rows))
    del manifest["files"]["run-00000/series.csv"]


def list_notes(manifest, corpus):
    """A manifest edit: a file the writer never writes, listed with its
    true digest."""
    notes = corpus / "run-00000" / "notes.txt"
    notes.write_text("kept by hand\n")
    manifest["files"]["run-00000/notes.txt"] = hashlib.sha256(
        notes.read_bytes()).hexdigest()


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

    def test_relative_paths_resolve_against_cwd(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert emulate("nested/run") == EXIT_OK
        assert (tmp_path / "nested" / "run" / "meta.json").is_file()
        assert batch("m", 2) == EXIT_OK
        assert batch("k", 2, "--seed-base", "9") == EXIT_OK
        assert run_cli("validate", "m", "k", "--out", "rep") == EXIT_OK
        assert run_cli("bootstrap", "m", "k", "-B", "50", "--out", "boot") == EXIT_OK
        assert (tmp_path / "rep" / "test_result.json").is_file()
        assert (tmp_path / "boot" / "bootstrap.json").is_file()


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

    @pytest.mark.parametrize("flows", ["scalable++cubic", "scalable+"])
    def test_empty_flows_entry_is_config_error(self, tmp_path, capsys, flows):
        code = emulate(tmp_path / "x", "--flows", flows)
        assert code == EXIT_CONFIG
        assert "--flows: empty entry" in capsys.readouterr().err
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
            ["validate", "--metrics", "throughput,,queue_occupancy"],
            ["validate", "--metrics", "throughput,queue_occupancy,"],
            ["bootstrap", "--ci-width", "10,,20"],
            ["bootstrap", "--ci-width", "10, ,20"],
            ["validate", "--metrics", "queue_bytes"],
            ["bootstrap", "--metrics", "throughput,queue_bytes"],
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
            ["sweep", "--param", "alpha", "--values", "0.1,,0.2"],
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
        manifest = (serial / "manifest.json").read_bytes()
        assert (parallel / "manifest.json").read_bytes() == manifest
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
        rehash(corpus, "run-00001/series.csv")
        with pytest.raises(ValueError, match=r"declares \(32, 5\)"):
            load_corpus(str(corpus))
        code = run_cli(
            "validate", str(corpus), str(corpus), "--out", str(tmp_path / "rep")
        )
        assert code == EXIT_RUNTIME
        assert "series.csv holds (31, 5)" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["validate", "bootstrap"])
    @pytest.mark.parametrize("manifest", [
        "[]", '"corpus"', "{", '{"kind": "corpus", "runs": 2, "files": []}',
    ], ids=["list", "string", "not-json", "files-list"])
    def test_malformed_manifest_is_data_error(self, tmp_path, capsys, command,
                                              manifest):
        # a manifest that parses but is not an object, or whose files is
        # not one, crashed with AttributeError: exit 1, the config-error code
        corpus = tmp_path / "corpus"
        assert batch(corpus, 2) == EXIT_OK
        path = corpus / "manifest.json"
        path.write_text(manifest)
        with pytest.raises(RunnerError, match="manifest"):
            load_corpus(str(corpus))
        capsys.readouterr()
        rep = tmp_path / "rep"
        assert run_cli(command, str(corpus), str(corpus), "--out",
                       str(rep)) == EXIT_RUNTIME
        assert str(path) in capsys.readouterr().err
        assert not rep.exists()

    @pytest.mark.parametrize("command", ["validate", "bootstrap"])
    def test_meta_without_summary_is_data_error(self, tmp_path, capsys, command):
        # meta.json re-hashed in the manifest, so only its content is wrong
        corpus = tmp_path / "corpus"
        assert batch(corpus, 2) == EXIT_OK
        meta_path = corpus / "run-00001" / "meta.json"
        meta = json.loads(meta_path.read_text())
        del meta["summary"]
        meta_path.write_text(canonical_json(meta))
        rehash(corpus, "run-00001/meta.json")
        with pytest.raises(ValueError, match="summary"):
            load_corpus(str(corpus))
        capsys.readouterr()
        rep = tmp_path / "rep"
        assert run_cli(command, str(corpus), str(corpus), "--out",
                       str(rep)) == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert str(meta_path) in err and "summary" in err
        assert not rep.exists()

    @pytest.mark.parametrize("command", ["validate", "bootstrap"])
    @pytest.mark.parametrize("row, line", [
        ("extra,row\n", 4),
        ("0,scalable,1x0,1.5\n", 4),
        ("1,cubic,100,fast\n", 3),
        ("1,cubic,100,nan\n", 3),
    ], ids=["field-count", "bytes", "mbps", "mbps-nan"])
    def test_malformed_flows_row_is_data_error(self, tmp_path, capsys, command,
                                               row, line):
        # a bare tuple unpack gave "not enough values to unpack (expected
        # 4, got 2)", naming neither the file nor the run
        corpus = tmp_path / "corpus"
        assert batch(corpus, 2) == EXIT_OK
        flows = corpus / "run-00001" / "flows.csv"
        rows = flows.read_text().splitlines(keepends=True)
        rows.insert(line - 1, row)
        flows.write_text("".join(rows))
        rehash(corpus, "run-00001/flows.csv")
        where = f"{flows}:{line}"
        with pytest.raises(ValueError) as exc:
            load_corpus(str(corpus))
        assert where in str(exc.value)
        capsys.readouterr()
        rep = tmp_path / "rep"
        assert run_cli(command, str(corpus), str(corpus), "--out",
                       str(rep)) == EXIT_RUNTIME
        assert where in capsys.readouterr().err
        assert not rep.exists()

    @staticmethod
    def assert_refused(tmp_path, capsys, command, corpus, where, what):
        """load_corpus and command refuse corpus with a message naming
        where (a file, or file:line) and what; command writes no --out."""
        with pytest.raises((ValueError, RunnerError)) as exc:
            load_corpus(str(corpus))
        assert where in str(exc.value) and what in str(exc.value)
        capsys.readouterr()
        rep = tmp_path / "rep"
        assert run_cli(command, str(corpus), str(corpus), "--out",
                       str(rep)) == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert where in err and what in err
        assert not rep.exists()

    @staticmethod
    def edit_meta(corpus, change):
        """Apply change to run-00001's parsed meta.json, write it back
        canonically and re-hash it; returns the file's path."""
        path = corpus / "run-00001" / "meta.json"
        meta = json.loads(path.read_text())
        change(meta)
        path.write_text(canonical_json(meta))
        rehash(corpus, "run-00001/meta.json")
        return path

    @pytest.mark.parametrize("command", ["validate", "bootstrap"])
    @pytest.mark.parametrize("change, what", [
        (lambda m: m.update(extra=1), "extra"),
        (lambda m: m["summary"].update(extra=None), "summary.extra"),
        (lambda m: m.update(duration_ns=str(m["duration_ns"])), "duration_ns"),
        # run-00001 has seed 1, and True == 1 in Python
        (lambda m: m.update(seed=True), "seed"),
        (lambda m: m.update(run_id=1), "run_id"),
        (lambda m: m["rng"].update(algorithm=None), "rng.algorithm"),
        (lambda m: m.update(config=[]), "config"),
        (lambda m: m.update(duration_ns=0), "duration_ns"),
        (lambda m: m["rng"].update(seed=99), "rng.seed"),
        (lambda m: m["summary"].update(avg_throughput_mbps=1.0),
         "summary.avg_throughput_mbps"),
        # derived values of the wrong JSON type: True == 1 == 1.0 in Python
        (lambda m: m["rng"].update(seed=True), "rng.seed"),
        (lambda m: m["summary"].update(samples=float(m["summary"]["samples"])),
         "summary.samples"),
    ], ids=["extra-key", "extra-summary-key", "duration-str", "seed-bool",
            "run-id-int", "rng-algorithm-null", "config-list", "duration-zero",
            "rng-seed", "avg-throughput", "rng-seed-bool", "samples-float"])
    def test_meta_the_writer_would_not_write_is_data_error(
            self, tmp_path, capsys, command, change, what):
        # each loaded silently, or crashed with a TypeError (exit 1)
        corpus = tmp_path / "corpus"
        assert batch(corpus, 2) == EXIT_OK
        path = self.edit_meta(corpus, change)
        self.assert_refused(tmp_path, capsys, command, corpus, str(path), what)

    @pytest.mark.parametrize("command", ["validate", "bootstrap"])
    @pytest.mark.parametrize("change, what", [
        (lambda m: m["summary"].update(counters={"enqueued": 1}), "counters"),
        (lambda m: m["summary"]["counters"].update(drops_aqm=0.0), "counters"),
        (counters_plus(enqueued=1), "summary.counters.enqueued"),
        (counters_plus(drops_overflow=1), "summary.counters.drops_aqm"),
        # drop counters that agree with each other but not with the series
        (counters_plus(enqueued=1, drops=1, drops_aqm=1),
         "summary.counters.drops, "),
        (counters_plus(ecn_marks_c=1), "summary.counters.ecn_marks_c"),
        # counters that balance among themselves but exceed the flows' packets
        (counters_plus(enqueued=1, dequeued=1), "summary.counters.dequeued"),
    ], ids=["names", "float", "ledger", "drop-split", "drop-deltas",
            "mark-deltas", "beyond-flows"])
    def test_unbalanced_counters_are_data_error(self, tmp_path, capsys, command,
                                                change, what):
        corpus = tmp_path / "corpus"
        assert batch(corpus, 2) == EXIT_OK
        path = self.edit_meta(corpus, change)
        self.assert_refused(tmp_path, capsys, command, corpus, str(path), what)

    @pytest.mark.parametrize("command", ["validate", "bootstrap"])
    def test_flows_beyond_the_dequeued_count_are_data_error(self, tmp_path, capsys,
                                                            command):
        # run-00001 (low, 0.5 s, seed 1) with its first flow's packets x10,
        # written back by the writer, which recomputes every rate: it loaded
        # at 87.8 Mbps on a 12 Mbps link, 3,657 packets against dequeued 489
        corpus = tmp_path / "corpus"
        assert batch(corpus, 2) == EXIT_OK
        run = corpus / "run-00001"
        record = load_run_dir(str(run))
        record.flows[0].packets *= 10
        write_run_dir(record, str(run))
        for name in ("meta.json", "flows.csv"):
            rehash(corpus, f"run-00001/{name}")
        self.assert_refused(tmp_path, capsys, command, corpus,
                            str(run / "meta.json"), "summary.counters.dequeued")

    @pytest.mark.parametrize("command", ["validate", "bootstrap"])
    @pytest.mark.parametrize("line", [2, 3])
    def test_wrong_flows_rate_is_data_error(self, tmp_path, capsys, command,
                                            line):
        # a finite rate that bytes and duration_ns do not give
        corpus = tmp_path / "corpus"
        assert batch(corpus, 2) == EXIT_OK
        flows = corpus / "run-00001" / "flows.csv"
        rows = flows.read_text().splitlines(keepends=True)
        rows[line - 1] = rows[line - 1].rsplit(",", 1)[0] + ",1.5\n"
        flows.write_text("".join(rows))
        rehash(corpus, "run-00001/flows.csv")
        self.assert_refused(tmp_path, capsys, command, corpus,
                            f"{flows}:{line}", "1.5")

    @pytest.mark.parametrize("command", ["validate", "bootstrap"])
    def test_meta_duration_off_the_config_is_data_error(self, tmp_path, capsys,
                                                        command):
        # a low 1 s run whose meta.json says 2 s, with its summary and
        # flows.csv rates recomputed for 2 s, loaded at half its throughput
        corpus = tmp_path / "corpus"
        assert batch(corpus, 2, "--duration", "1") == EXIT_OK
        flows = corpus / "run-00001" / "flows.csv"
        lines = flows.read_text().splitlines()
        rows = [line.split(",") for line in lines[1:]]

        def mbps(nbytes):
            return nbytes * 8.0 / (2_000_000_000 * 1e-9) / 1e6

        flows.write_text("\n".join([lines[0]] + [
            f"{flow},{kind},{b},{mbps(int(b))!r}" for flow, kind, b, _ in rows
        ]) + "\n")
        rehash(corpus, "run-00001/flows.csv")

        def change(meta):
            assert meta["config"]["duration_ns"] == 1_000_000_000
            meta["duration_ns"] = 2_000_000_000
            meta["summary"]["avg_throughput_mbps"] = mbps(
                sum(int(b) for _, _, b, _ in rows))

        path = self.edit_meta(corpus, change)
        self.assert_refused(tmp_path, capsys, command, corpus, str(path),
                            "duration_ns, summary.avg_throughput_mbps")

    @pytest.mark.parametrize("command", ["validate", "bootstrap"])
    def test_series_off_the_sample_schedule_is_data_error(self, tmp_path, capsys,
                                                          command):
        # samples fall at k x tupdate (16 ms) up to the horizon, then at the
        # horizon when 16 ms does not divide it; each edit below loaded
        corpus = tmp_path / "corpus"
        assert batch(corpus, 2) == EXIT_OK
        series = corpus / "run-00001" / "series.csv"
        text = series.read_text()
        rows = [row.split(",") for row in text.splitlines()[1:]]
        assert [int(row[0]) for row in rows[-2:]] == [496_000_000, 500_000_000]

        # an off-schedule t_ns column: 3, 10, 17, ...
        lines = text.splitlines()
        series.write_text("\n".join(lines[:1] + [
            ",".join([str(3 + 7 * k)] + row[1:]) for k, row in enumerate(rows)
        ]) + "\n")
        rehash(corpus, "run-00001/series.csv")
        self.assert_refused(tmp_path, capsys, command, corpus, f"{series}:2",
                            "sample schedule")

        # no sample at the 500 ms horizon, with meta.json and its counters
        # restated for the rows left
        series.write_text("\n".join(lines[:-1]) + "\n")
        rehash(corpus, "run-00001/series.csv")
        _, _, _, marks, drops = map(int, rows[-1])

        def change(meta):
            meta["summary"]["samples"] -= 1
            c = meta["summary"]["counters"]
            for parts, delta in ((("drops_aqm", "drops_overflow"), drops),
                                 (("ecn_marks_l", "ecn_marks_c"), marks)):
                for part in parts:
                    take = min(delta, c[part])
                    c[part] -= take
                    delta -= take
            c["drops"] = c["drops_aqm"] + c["drops_overflow"]
            c["enqueued"] = c["dequeued"] + c["drops"] + int(rows[-2][1])

        self.edit_meta(corpus, change)
        self.assert_refused(tmp_path, capsys, command, corpus,
                            f"{series}:{len(rows) + 1}", "sample schedule")

        # 512 ms is 32 x 16 ms: the last tick is the horizon, sampled once
        exact = tmp_path / "exact"
        assert batch(exact, 2, "--duration", "0.512") == EXIT_OK
        records = load_corpus(str(exact))
        assert [r.samples[-2:, 0].tolist() for r in records] == [
            [496_000_000, 512_000_000]] * 2
        assert [len(r.samples) for r in records] == [32, 32]

    @pytest.mark.parametrize("command", ["validate", "bootstrap"])
    @pytest.mark.parametrize("change, what", [
        (lambda m: m.update(seed=99, rng={"algorithm": "mt19937", "seed": 99}),
         "seed"),
        (lambda m: m["rng"].update(algorithm="pcg64"), "rng_algorithm"),
    ], ids=["seed", "rng-algorithm"])
    def test_run_must_match_manifest_seed_and_rng(self, tmp_path, capsys,
                                                  command, change, what):
        # a self-consistent run whose seed or generator is not the
        # manifest's: the manifest lists seeds 0 and 1 and mt19937
        corpus = tmp_path / "corpus"
        assert batch(corpus, 2) == EXIT_OK
        path = self.edit_meta(corpus, change)
        self.assert_refused(tmp_path, capsys, command, corpus, str(path), what)

    @pytest.mark.parametrize("command", ["validate", "bootstrap"])
    @pytest.mark.parametrize("change, what", [
        (drop_edited_series, "files.run-00000/series.csv"),
        (lambda m, corpus: m.update(kind="report"), "kind"),
        (lambda m, corpus: m.update(seed_base=77), "seeds"),
        (lambda m, corpus: m.update(extra=1), "extra"),
        (lambda m, corpus: m.update(runs=True), "runs"),
        (lambda m, corpus: m.update(runs=0), "runs"),
        (list_notes, "files.run-00000/notes.txt"),
        # seeds 0 and 1 as JSON values of other types, each named by index
        (lambda m, corpus: m.update(seeds=[0.0, True]), "seeds.0, seeds.1"),
    ], ids=["unhashed-edit", "kind", "seed-base", "extra-key", "runs-bool",
            "runs-zero", "extra-file", "seeds-float-bool"])
    def test_manifest_the_writer_would_not_write_is_data_error(
            self, tmp_path, capsys, monkeypatch, command, change, what):
        # each loaded: the manifest's own fields were never checked
        # against each other, and an unlisted run file was never hashed
        corpus = tmp_path / "corpus"
        assert batch(corpus, 2) == EXIT_OK
        path = corpus / "manifest.json"
        manifest = json.loads(path.read_text())
        change(manifest, corpus)
        path.write_text(canonical_json(manifest))
        import dualq.runner as runner
        hashed = []
        monkeypatch.setattr(runner, "sha256_file", hashed.append)
        with pytest.raises(RunnerError):
            verify_corpus(str(corpus))
        assert hashed == []  # refused before any file is hashed
        monkeypatch.undo()
        self.assert_refused(tmp_path, capsys, command, corpus, str(path), what)

    @pytest.mark.parametrize("command", ["validate", "bootstrap"])
    @pytest.mark.parametrize("edit, where", [
        (lambda row: "+" + row, ":3"),
        (lambda row: "0" + row, ":3"),
        (lambda row: " " + row, ":3"),
        (lambda row: row + "\r", ""),
        (lambda row: row.rsplit(",", 1)[0], ":3"),
        (lambda row: row.rsplit(",", 1)[0] + ",0.0", ":3"),
    ], ids=["plus", "leading-zero", "space", "carriage-return", "four-fields",
            "float"])
    def test_series_row_the_writer_would_not_write_is_data_error(
            self, tmp_path, capsys, command, edit, where):
        # the first three loaded; the others failed naming neither the
        # file nor the run, and the last two then with numpy's row count
        # ("from 5 to 4 at row 2" for file line 3)
        corpus = tmp_path / "corpus"
        assert batch(corpus, 2) == EXIT_OK
        series = corpus / "run-00001" / "series.csv"
        lines = series.read_bytes().decode().split("\n")
        lines[2] = edit(lines[2])
        series.write_bytes("\n".join(lines).encode())
        rehash(corpus, "run-00001/series.csv")
        self.assert_refused(tmp_path, capsys, command, corpus,
                            f"{series}{where}", "series.csv")

    def test_series_without_data_rows_is_data_error(self, tmp_path, capsys,
                                                   recwarn):
        # numpy warned "loadtxt: input contained no data", then the error
        # gave numpy's shape of no data, (0, 1), as the file's
        corpus = tmp_path / "corpus"
        assert batch(corpus, 2) == EXIT_OK
        series = corpus / "run-00001" / "series.csv"
        series.write_text(series.read_text().split("\n")[0] + "\n")
        rehash(corpus, "run-00001/series.csv")
        self.assert_refused(tmp_path, capsys, "validate", corpus, str(series),
                            "has no data rows")
        assert not recwarn.list

    @pytest.mark.parametrize("command", ["validate", "bootstrap"])
    @pytest.mark.parametrize("name, line", [("flows.csv", 2), ("series.csv", 3)])
    def test_non_ascii_byte_is_data_error(self, tmp_path, capsys, command,
                                          name, line):
        # flows.csv gave only "'ascii' codec can't decode byte 0xc3"
        corpus = tmp_path / "corpus"
        assert batch(corpus, 2) == EXIT_OK
        path = corpus / "run-00001" / name
        lines = path.read_bytes().split(b"\n")
        lines[line - 1] += b"\xc3\xa9"
        path.write_bytes(b"\n".join(lines))
        rehash(corpus, f"run-00001/{name}")
        self.assert_refused(tmp_path, capsys, command, corpus,
                            f"{path}:{line}", "0xc3 is not ASCII")

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
                                 extract_observations(records_k, metric))
            for label in ("within_m", "within_k", "cross"):
                assert written[(metric, label)] == getattr(ds, label).tolist()
        out_text = capsys.readouterr().out
        assert "throughput:" in out_text

    def test_series_of_different_lengths(self, tmp_path, dtw_kernel_calls):
        # 0.2 s and 0.6 s corpora: the within-M, within-K and cross pairs
        # are three (n, m) groups of one DTW call per metric
        m, k = tmp_path / "m", tmp_path / "k"
        assert batch(m, 3, "--duration", "0.2") == EXIT_OK
        assert batch(k, 3, "--duration", "0.6", "--seed-base", "100") == EXIT_OK
        rep = tmp_path / "rep"
        assert run_cli("validate", str(m), str(k), "--metrics",
                       "queue_occupancy,ecn_marks", "--out", str(rep)) == EXIT_OK

        def oracle(x, y):
            raw, plen = _dtw_py.dtw_pair(x, y, -1)
            return raw / plen

        expected = ["metric,label,value"]
        # distances.csv lists the metrics by name
        for metric, column in (("ecn_marks", "ecn_marks"),
                               ("queue_occupancy", "qocc_pkts")):
            obs_m, obs_k = ([r.series(column) for r in load_corpus(str(c))]
                            for c in (m, k))
            assert len(obs_m[0]) != len(obs_k[0])
            for xs, ys in ((obs_m, obs_m), (obs_m, obs_k), (obs_k, obs_k)):
                assert dtw.packed_route(xs, ys)[2] is np.int32
            for label, pairs in (("within_m", itertools.combinations(obs_m, 2)),
                                 ("within_k", itertools.combinations(obs_k, 2)),
                                 ("cross", itertools.product(obs_m, obs_k))):
                expected += [f"{metric},{label},{oracle(x, y)!r}" for x, y in pairs]
        assert (rep / "distances.csv").read_text().splitlines() == expected
        # per metric the M-M, then the cross, then the K-K group
        assert dtw_kernel_calls == [("dtw_packed", p, np.int32)
                                    for p in (3, 9, 3)] * 2

    def test_reports_record_their_params(self, corpora, tmp_path):
        m, k = corpora
        metrics = ("--metrics", "throughput,queue_occupancy")
        assert run_cli("validate", str(m), str(k), *metrics, "--band", "40",
                       "--out", str(tmp_path / "v")) == EXIT_OK
        assert run_cli("bootstrap", str(m), str(k), *metrics, "-B", "50",
                       "--resample-seed", "7", "--ci-width", "2,3",
                       "--out", str(tmp_path / "b")) == EXIT_OK
        assert run_cli("bootstrap", str(m), str(k), "--out",
                       str(tmp_path / "d")) == EXIT_OK

        def params(path):
            return json.loads(path.read_text())["params"]

        assert params(tmp_path / "v" / "test_result.json") == {
            "metrics": ["throughput", "queue_occupancy"], "band": 40}
        assert params(tmp_path / "b" / "bootstrap.json") == {
            "metrics": ["throughput", "queue_occupancy"], "band": None,
            "B": 50, "resample_seed": 7, "ci_width": [2, 3]}
        # the defaults are recorded too
        assert params(tmp_path / "d" / "bootstrap.json") == {
            "metrics": ["throughput"], "band": None, "B": 2000,
            "resample_seed": 0, "ci_width": None}

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
        assert code == EXIT_CONFIG
        assert "band" in capsys.readouterr().err
        assert not rep.exists()


class TestNoSpreadWarning:
    """validate and bootstrap warn on stderr, naming the corpus and the
    metric, when every within-corpus distance of a corpus is 0; exit codes
    and reports are as without the warning."""

    COMMANDS = {"validate": (), "bootstrap": ("-B", "50")}

    def run(self, tmp_path, command, m, k):
        rep = tmp_path / f"rep-{command}"
        assert run_cli(command, str(m), str(k), "--metrics",
                       "throughput,queue_occupancy", "--out", str(rep),
                       *self.COMMANDS[command]) == EXIT_OK
        return rep

    @pytest.mark.parametrize("command", ["validate", "bootstrap"])
    def test_scalable_only_corpora_warn(self, tmp_path, capsys, command):
        # no classic traffic: p' stays 0, no draw changes an outcome, and
        # every run of a corpus is the same run
        m, k = tmp_path / "m", tmp_path / "k"
        for path, seed_base in ((m, "0"), (k, "100")):
            assert batch(path, 2, "--preset", "medium", "--seed-base", seed_base,
                         flows="scalable") == EXIT_OK
        capsys.readouterr()
        self.run(tmp_path, command, m, k)
        warnings = [line for line in capsys.readouterr().err.splitlines()
                    if line.startswith("warning:")]
        assert warnings == [
            f"warning: {corpus}: every within-corpus {metric} distance is 0, "
            "so eps has no run-to-run spread"
            for metric in ("throughput", "queue_occupancy") for corpus in (m, k)
        ]

    @pytest.mark.parametrize("command", ["validate", "bootstrap"])
    def test_scalable_cubic_corpora_do_not_warn(self, tmp_path, capsys, command):
        m, k = tmp_path / "m", tmp_path / "k"
        for path, seed_base in ((m, "0"), (k, "2")):
            assert batch(path, 2, "--preset", "medium", "--duration", "2",
                         "--seed-base", seed_base) == EXIT_OK
        capsys.readouterr()
        self.run(tmp_path, command, m, k)
        assert "warning" not in capsys.readouterr().err


class TestBandBelowLengthGap:
    """A --band narrower than the gap between the corpora's series lengths
    can align no cross pair; it is a config error found before --out is
    made, not a DTW error after it."""

    COMMANDS = {"validate": (), "bootstrap": ("-B", "50")}

    @pytest.mark.parametrize("command", ["validate", "bootstrap"])
    def test_band_below_gap_is_config_error(self, tmp_path, capsys, command):
        m, k = tmp_path / "m", tmp_path / "k"
        assert batch(m, 2, "--duration", "1") == EXIT_OK
        assert batch(k, 2, "--duration", "2") == EXIT_OK
        lengths = {len(load_corpus(str(c))[0].samples) for c in (m, k)}
        assert lengths == {63, 125}
        capsys.readouterr()
        rep = tmp_path / "rep"
        args = (command, str(m), str(k), "--metrics", "queue_occupancy",
                "--out", str(rep), *self.COMMANDS[command])
        assert run_cli(*args, "--band", "61") == EXIT_CONFIG
        out, err = capsys.readouterr()
        assert err.startswith("config error: --band 61")
        assert "p_hat" not in out
        assert not rep.exists()
        # the gap itself is the narrowest band that aligns every pair
        assert run_cli(*args, "--band", "62") == EXIT_OK


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


_LOW = ("--preset=low", "--duration=0.2")


class TestOutInsideCorpus:
    """No command writes at or under an existing corpus, --force included:
    a run directory or report inside one makes it unloadable, and
    replacing one deletes an input that reports name."""

    @pytest.fixture()
    def corpora(self, tmp_path):
        for name in ("m", "k"):
            assert batch(tmp_path / name, 2) == EXIT_OK
        os.symlink(tmp_path / "m", tmp_path / "link")
        return tmp_path

    @pytest.mark.parametrize("argv", [
        ("emulate", *_LOW, "--out", "{m}/extra"),
        ("emulate", *_LOW, "--out", "{link}/extra"),
        ("emulate", *_LOW, "--out", "{m}", "--force"),
        ("emulate", *_LOW, "--out", "{m}/run-00000", "--force"),
        ("batch", *_LOW, "--runs", "1", "--out", "{m}/sub"),
        ("batch", *_LOW, "--runs", "2", "--out", "{link}", "--force"),
        ("sweep", *_LOW, "--runs", "1", "--param", "alpha", "--values", "0.1",
         "--out", "{m}/sweep"),
        ("sweep", *_LOW, "--runs", "1", "--param", "alpha", "--values", "0.1",
         "--out", "{m}", "--force"),
        ("validate", "{k}", "{k}", "--out", "{m}/report"),
        ("bootstrap", "{k}", "{k}", "-B", "50", "--out", "{m}", "--force"),
    ], ids=lambda argv: " ".join(argv[:1] + argv[-2:]).replace("/", "|"))
    def test_out_in_corpus_is_config_error(self, corpora, capsys, argv):
        argv = [a.format(m=corpora / "m", k=corpora / "k", link=corpora / "link")
                for a in argv]
        before = tree_digest(corpora)
        capsys.readouterr()
        assert run_cli(*argv) == EXIT_CONFIG
        assert "--out" in capsys.readouterr().err
        assert tree_digest(corpora) == before
        assert len(load_corpus(str(corpora / "m"))) == 2

    def test_outside_any_corpus_is_accepted(self, corpora):
        # a sibling with the corpus's name as prefix, and a forced sweep
        # over an earlier sweep, whose sub-corpora lie below it
        assert emulate(corpora / "m-extra") == EXIT_OK
        argv = ("sweep", "--preset", "low", "--duration", "0.2", "--runs", "1",
                "--param", "alpha", "--values", "0.1", "--out", str(corpora / "sw"))
        assert run_cli(*argv) == EXIT_OK
        assert run_cli(*argv, "--force") == EXIT_OK
        assert len(load_corpus(str(corpora / "sw" / "alpha-0.1"))) == 1


class TestReportPins:
    """Exact report bytes on two fixed-seed 3-run corpora.

    The duration is a multiple of tupdate, so the final sample sits at
    the horizon either way. The ``corpora`` key of the JSON reports holds
    absolute paths, so only their ``metrics`` and ``inputs`` objects are
    pinned."""

    FINGERPRINT = "05797b86b4759de8d282625d1c11c4257d4083d43fd1dddf23a3e122b7b157bf"
    INPUTS = {
        "m": {"fingerprint": FINGERPRINT, "manifest_sha256":
              "e3c65e45f6c9a66a8026018f1126a2a36d131a685c3e6a2ba344dee6bb9b28f6"},
        "k": {"fingerprint": FINGERPRINT, "manifest_sha256":
              "3c4f213556f2931fc51801a27e4beb94363d6d682fc9803a4432967c0f8bba5e"},
    }

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
        for report in (tmp_path / "v" / "test_result.json",
                       tmp_path / "b" / "bootstrap.json"):
            assert json.loads(report.read_text())["inputs"] == self.INPUTS


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

    def test_spread_rates_are_interpolated(self, tmp_path):
        # four bursty runs whose rates differ: the bounds interpolate
        # between order statistics, as np.quantile's linear rule does
        out = tmp_path / "sweep"
        code = run_cli(
            "sweep", "--preset", "low", "--flows", "scalable+cubic",
            "--mode", "bursty", "--duration", "3", "--runs", "4",
            "--param", "alpha", "--values", "0.1", "--out", str(out),
        )
        assert code == EXIT_OK
        rates = [r.avg_throughput_mbps for r in load_corpus(str(out / "alpha-0.1"))]
        assert len(set(rates)) > 1
        row = (out / "sweep_summary.csv").read_text().splitlines()[1].split(",")
        assert row[4:] == [repr(float(np.quantile(rates, q))) for q in (0.025, 0.975)]
        # one run at 11.92 Mbps and three at 11.956: the 2.5% bound falls
        # between them
        assert min(rates) < float(row[4]) < max(rates) == float(row[5])

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
