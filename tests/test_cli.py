"""End-to-end command-line behavior: run dirs, corpora, reports, exit codes."""

import hashlib
import json
import os

import pytest

from dualq.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, EXIT_UNDEFINED, main
from dualq.runner import load_corpus, verify_corpus
from dualq.stats import METRICS, build_distances, extract_observations


def run_cli(*argv):
    return main(list(argv))


def emulate(out, *extra):
    return run_cli(
        "emulate", "--preset", "low", "--duration", "0.5", "--out", str(out), *extra
    )


def batch(out, runs, *extra):
    return run_cli(
        "batch",
        "--preset",
        "low",
        "--flows",
        "scalable+cubic",
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

    def test_non_numeric_value_is_config_error(self, tmp_path):
        code = run_cli(
            "sweep", "--preset", "low", "--param", "alpha",
            "--values", "fast", "--out", str(tmp_path / "x"),
        )
        assert code == EXIT_CONFIG


class TestPresets:
    def test_lists_operating_points(self, capsys):
        assert run_cli("presets") == EXIT_OK
        out = capsys.readouterr().out
        assert "low" in out and "medium" in out and "high" in out
        assert "12 Mbps" in out
        assert "refined" in out
