"""Scenario assembly: presets, INI sections, overrides, fingerprints."""

import re
from dataclasses import replace
from pathlib import Path

import pytest

from dualq.config import (
    ConfigError,
    PARAM_SETS,
    PRESETS,
    apply_overrides,
    build_scenario,
    default_limit_bytes,
    parse_flow_shorthand,
    preset_sections,
    sections_from_ini,
)
from dualq.core import NS_PER_MS, NS_PER_SEC
from dualq.link import DelayConfig, LinkConfig, LinkMode
from dualq.traffic import FlowConfig


class TestPresets:
    def test_operating_points(self):
        assert PRESETS["low"].rate_bps == 12_000_000
        assert PRESETS["low"].rtt_ms == 20.0
        assert PRESETS["medium"].rate_bps == 50_000_000
        assert PRESETS["medium"].rtt_ms == 40.0
        assert PRESETS["high"].rate_bps == 200_000_000
        assert PRESETS["high"].rtt_ms == 100.0

    def test_default_limit_tracks_rate(self):
        # 250 ms of line rate
        assert default_limit_bytes(12_000_000) == 375_000
        assert default_limit_bytes(50_000_000) == 1_562_500
        assert default_limit_bytes(200_000_000) == 6_250_000

    def test_default_params(self):
        cfg = build_scenario(preset_sections("low"))
        assert cfg.link.rate_bps == 12_000_000
        assert cfg.link.mode is LinkMode.BURSTY
        assert cfg.delay.fwd_ns == 10 * NS_PER_MS
        assert cfg.delay.rev_ns == 10 * NS_PER_MS
        assert cfg.aqm.target_ns == 15 * NS_PER_MS
        assert cfg.aqm.tupdate_ns == 16 * NS_PER_MS
        assert cfg.aqm.alpha == 0.16
        assert cfg.aqm.beta == 3.2
        assert cfg.aqm.step_thresh_ns == 1 * NS_PER_MS
        assert cfg.aqm.coupling_k == 2.0
        assert cfg.aqm.limit_bytes == 375_000
        assert cfg.aqm.classic_protection == 0.1
        assert cfg.aqm.ecn_classic_enabled is True
        assert cfg.duration_ns == 30 * NS_PER_SEC

    def test_refined_params(self):
        low = build_scenario(preset_sections("low", params="refined"))
        assert low.aqm.step_thresh_ns == 5 * NS_PER_MS
        assert low.aqm.target_ns == 30 * NS_PER_MS
        high = build_scenario(preset_sections("high", params="refined"))
        assert high.aqm.step_thresh_ns == 10 * NS_PER_MS
        assert high.aqm.target_ns == 45 * NS_PER_MS

    def test_param_sets_enumerated(self):
        assert PARAM_SETS == ("default", "refined")

    def test_flows_named_by_kind_and_index(self):
        cfg = build_scenario(preset_sections("low", flows=("scalable", "cubic")))
        assert [f.name for f in cfg.flows] == ["cubic1", "scalable0"]
        assert {f.kind for f in cfg.flows} == {"scalable", "cubic"}

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            preset_sections("ultra")

    def test_unknown_param_set(self):
        with pytest.raises(ConfigError):
            preset_sections("low", params="experimental")


class TestOverrides:
    def test_simple_assignment(self):
        sections = preset_sections("low")
        apply_overrides(sections, ["aqm.coupling_k=4", "link.mode=smooth"])
        cfg = build_scenario(sections)
        assert cfg.aqm.coupling_k == 4.0
        assert cfg.link.mode is LinkMode.SMOOTH

    def test_dotted_section_keeps_last_segment_as_key(self):
        sections = preset_sections("low", flows=("cubic",))
        apply_overrides(sections, ["flow.cubic0.start_s=2.5"])
        cfg = build_scenario(sections)
        assert cfg.flows[0].start_ns == 2_500_000_000

    def test_can_create_new_flow_section(self):
        sections = preset_sections("low")
        apply_overrides(
            sections, ["flow.extra.kind=reno", "flow.extra.start_s=1"]
        )
        cfg = build_scenario(sections)
        assert {f.name for f in cfg.flows} == {"scalable0", "extra"}

    def test_malformed_override(self):
        with pytest.raises(ConfigError):
            apply_overrides({}, ["aqm.alpha"])
        with pytest.raises(ConfigError):
            apply_overrides({}, ["alpha=0.2"])


class TestBuildScenario:
    def test_rate_mbps_convenience(self):
        cfg = build_scenario(
            {"link": {"rate_mbps": "50"}, "flow.a": {"kind": "scalable"}}
        )
        assert cfg.link.rate_bps == 50_000_000

    def test_both_rate_forms_rejected(self):
        with pytest.raises(ConfigError):
            build_scenario(
                {
                    "link": {"rate_mbps": "50", "rate_bps": "50000000"},
                    "flow.a": {"kind": "scalable"},
                }
            )

    def test_rtt_split_into_halves(self):
        cfg = build_scenario(
            {"delay": {"rtt_ms": "25"}, "flow.a": {"kind": "scalable"}}
        )
        assert cfg.delay.fwd_ns == 12_500_000
        assert cfg.delay.rev_ns == 12_500_000
        assert cfg.delay.fwd_ns + cfg.delay.rev_ns == 25_000_000

    def test_rtt_and_oneway_conflict(self):
        with pytest.raises(ConfigError):
            build_scenario(
                {
                    "delay": {"rtt_ms": "20", "fwd_ms": "5"},
                    "flow.a": {"kind": "scalable"},
                }
            )

    def test_asymmetric_delays(self):
        cfg = build_scenario(
            {
                "delay": {"fwd_ms": "5", "rev_ms": "15"},
                "flow.a": {"kind": "scalable"},
            }
        )
        assert cfg.delay.fwd_ns == 5_000_000
        assert cfg.delay.rev_ns == 15_000_000

    def test_limit_auto(self):
        cfg = build_scenario(
            {
                "link": {"rate_bps": "80000000"},
                "aqm": {"limit_bytes": "auto"},
                "flow.a": {"kind": "scalable"},
            }
        )
        assert cfg.aqm.limit_bytes == default_limit_bytes(80_000_000)

    def test_unknown_section(self):
        with pytest.raises(ConfigError, match="unknown config section"):
            build_scenario({"linkk": {}, "flow.a": {"kind": "scalable"}})

    def test_unknown_flow_kind(self):
        with pytest.raises(ConfigError, match="kind"):
            build_scenario({"flow.a": {"kind": "bbr"}})

    @pytest.mark.parametrize("flow, kind", [({}, "None"), ({"kind": "bbr"}, "'bbr'")])
    def test_flow_kind_message_names_the_flow(self, flow, kind):
        with pytest.raises(ConfigError) as exc:
            build_scenario({"flow.a": {"start_s": "0", **flow}})
        assert str(exc.value) == ("flow 'a': kind must be one of "
                                  f"('scalable', 'reno', 'cubic'), got {kind}")

    @pytest.mark.parametrize("sections, message", [
        ({"link": {"mtu": "0"}, "flow.a": {"kind": "bbr"}},
         "flow 'a': kind must be one of ('scalable', 'reno', 'cubic'), got 'bbr'"),
        ({"aqm": {"coupling_k": "0.5", "limit_bytes": "0"}, "flow.a": {"kind": "cubic"}},
         "coupling_k must be >= 1, got 0.5"),
    ], ids=["kind-before-link", "coupling-before-limit"])
    def test_first_of_two_errors(self, sections, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            build_scenario(sections)

    def test_no_flows(self):
        with pytest.raises(ConfigError):
            build_scenario({"link": {"rate_bps": "12000000"}})

    def test_bad_boolean(self):
        with pytest.raises(ConfigError):
            build_scenario(
                {"aqm": {"ecn_classic": "maybe"}, "flow.a": {"kind": "scalable"}}
            )

    def test_bad_number(self):
        with pytest.raises(ConfigError):
            build_scenario(
                {"aqm": {"alpha": "fast"}, "flow.a": {"kind": "scalable"}}
            )

    def test_unknown_link_mode(self):
        with pytest.raises(ConfigError):
            build_scenario(
                {"link": {"mode": "chunky"}, "flow.a": {"kind": "scalable"}}
            )

    def test_flows_sorted_by_start_then_name(self):
        cfg = build_scenario(
            {
                "flow.b": {"kind": "reno", "start_s": "0"},
                "flow.a": {"kind": "cubic", "start_s": "0"},
                "flow.z": {"kind": "scalable", "start_s": "0"},
                "flow.late": {"kind": "scalable", "start_s": "5"},
            }
        )
        assert [f.name for f in cfg.flows] == ["a", "b", "z", "late"]

    @pytest.mark.parametrize(
        "section,key",
        [
            ("run", "duraton_s"),
            ("link", "moed"),
            ("delay", "rtt"),
            ("aqm", "alfa"),
            ("flow.a", "stop_ms"),
        ],
    )
    def test_unknown_key_rejected(self, section, key):
        sections = {"flow.a": {"kind": "scalable"}}
        sections.setdefault(section, {})[key] = "5"
        pattern = rf"unknown key '{key}' in \[{section}\]"
        with pytest.raises(ConfigError, match=pattern):
            build_scenario(sections)

    @pytest.mark.parametrize(
        "section,key,value",
        [
            ("flow.a", "stop_s", "abc"),
            ("run", "duration_s", "inf"),
            ("aqm", "alpha", "nan"),
            ("aqm", "alpha", "inf"),
            ("aqm", "beta", "nan"),
            ("aqm", "beta", "inf"),
            ("aqm", "coupling_k", "nan"),
            ("aqm", "coupling_k", "inf"),
        ],
    )
    def test_unparsable_value_is_config_error(self, section, key, value):
        sections = {"flow.a": {"kind": "scalable"}}
        sections.setdefault(section, {})[key] = value
        with pytest.raises(ConfigError, match=f"bad value for {section}.{key}"):
            build_scenario(sections)

    def test_stop_time(self):
        cfg = build_scenario(
            {"flow.a": {"kind": "scalable", "start_s": "1", "stop_s": "9"}}
        )
        assert cfg.flows[0].start_ns == NS_PER_SEC
        assert cfg.flows[0].stop_ns == 9 * NS_PER_SEC


class TestCheckedWhenBuilt:
    """Every config is checked when it is built, so a scenario passed
    through dataclasses.replace is refused by the rule it breaks. Each of
    these ran from a low 0.5 s scalable+cubic scenario, or crashed in it:
    the negative delay delivered 505 packets where the link serves at most
    500, and mtu 0 raised ZeroDivisionError."""

    @pytest.mark.parametrize("change, error, message", [
        (lambda: {"delay": DelayConfig(-5_000_000, 0)}, ValueError,
         "propagation delays cannot be negative: -5000000, 0"),
        (lambda: {"duration_ns": 0}, ConfigError, "duration must be positive, got 0 ns"),
        (lambda: {"flows": ()}, ConfigError, "at least one flow is required"),
        (lambda: {"flows": (FlowConfig("a", "scalable"), FlowConfig("a", "cubic"))},
         ConfigError, "duplicate flow names: ['a', 'a']"),
        (lambda: {"link": LinkConfig(mtu=0)}, ValueError, "mtu must be positive, got 0"),
    ], ids=["negative-delay", "zero-duration", "no-flows", "duplicate-names",
            "zero-mtu"])
    def test_replace_is_refused(self, change, error, message):
        cfg = build_scenario(preset_sections("low", flows=("scalable", "cubic"),
                                             duration_s=0.5))
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            replace(cfg, **change())


class TestFingerprint:
    def test_stable_across_processes(self):
        cfg = build_scenario(preset_sections("low"))
        again = build_scenario(preset_sections("low"))
        assert cfg.fingerprint() == again.fingerprint()
        assert len(cfg.fingerprint()) == 64

    def test_sensitive_to_parameters(self):
        base = build_scenario(preset_sections("low"))
        other = build_scenario(preset_sections("low", params="refined"))
        assert base.fingerprint() != other.fingerprint()

    @staticmethod
    def _trace_fingerprint(path):
        return build_scenario(
            {"link": {"trace_file": str(path)}, "flow.a": {"kind": "scalable"}}
        ).fingerprint()

    def test_trace_content_not_name(self, tmp_path):
        a, b = tmp_path / "a.trace", tmp_path / "b.trace"
        a.write_text("1\n1\n3\n4\n")
        b.write_text("1\n1\n3\n4\n")
        assert self._trace_fingerprint(a) == self._trace_fingerprint(b)

    def test_edited_trace_changes_fingerprint(self, tmp_path):
        p = tmp_path / "t.trace"
        p.write_text("1\n1\n3\n4\n")
        before = self._trace_fingerprint(p)
        p.write_text("1\n2\n3\n4\n")
        assert self._trace_fingerprint(p) != before

    def test_seed_not_part_of_fingerprint(self):
        cfg = build_scenario(preset_sections("low"))
        d = cfg.to_dict()
        assert "seed" not in d
        assert "seed" not in d["link"]


class TestPinnedFingerprints:
    """Fingerprints of the INI input forms, taken before the scenario
    schema was declared as one table per section."""

    PINNED = {
        "rate_mbps": (
            {"link": {"rate_mbps": "50"}},
            "46e56855d737672bee468bc4a10e8b401fecd0df5b81e16bf3b06fac2c9aa34a",
        ),
        "fwd_rev_ms": (
            {"delay": {"fwd_ms": "5", "rev_ms": "15"}},
            "da65dd6e0cf754a9335ebdd835b526ff861446b2e203ddf76ee1a2eff4509cdd",
        ),
        "rtt_ms": (
            {"delay": {"rtt_ms": "25"}},
            "f36d6401c9b7e20f8633e50a6563ccd4076792292509e0fb6d57eaa8b58c61ca",
        ),
        "limit_bytes": (
            {"aqm": {"limit_bytes": "123456"}},
            "87d45841fe62071c0a95cb323051e9f8c4cb6d0fa9743f7ca667953f3787a3f6",
        ),
        "limit_auto": (
            {"link": {"rate_bps": "80000000"}, "aqm": {"limit_bytes": "auto"}},
            "c77480dbff40aa711b013df49e3f16ca540f0ad5d8dae2e347563d80a29375f1",
        ),
        "stop_s": (
            {"flow.a": {"kind": "scalable", "start_s": "1", "stop_s": "9"}},
            "e04f4b641a04a34a9da57a06c91e478ca99ef078174559fb3f1ab9f080ddad0c",
        ),
        "ecn_classic_false": (
            {"aqm": {"ecn_classic": "false"}},
            "66e95c825ec97c901e08e7548e088e1aea871f482bea52923c1d51a313fccb7c",
        ),
        "trace_file": (
            {"link": {"trace_file": "traces/x.trace"}},
            "b1ffc7a548cf21d5403285480a8107bbf9498bdca36d31e181f87f84f5636628",
        ),
        "defaults_only": (
            {},
            "49ddee6e6026ae87892260c659b15b19d29ecf47aac1512ac95bfbec90ec070f",
        ),
    }

    @pytest.mark.parametrize("form", sorted(PINNED))
    def test_ini_form(self, form):
        sections, digest = self.PINNED[form]
        cfg = build_scenario({"flow.a": {"kind": "scalable"}, **sections})
        assert cfg.fingerprint() == digest


class TestIniFiles:
    def test_round_trip(self, tmp_path):
        ini = tmp_path / "scenario.ini"
        ini.write_text(
            "[run]\nduration_s = 5\n"
            "[link]\nrate_mbps = 50\nmode = smooth\n"
            "[delay]\nrtt_ms = 40\n"
            "[aqm]\nstep_thresh_ms = 5\n"
            "[flow.fast]\nkind = scalable\n"
            "[flow.slow]\nkind = cubic\nstart_s = 2\n"
        )
        cfg = build_scenario(sections_from_ini(str(ini)))
        assert cfg.duration_ns == 5 * NS_PER_SEC
        assert cfg.link.rate_bps == 50_000_000
        assert cfg.link.mode is LinkMode.SMOOTH
        assert cfg.aqm.step_thresh_ns == 5 * NS_PER_MS
        assert [f.name for f in cfg.flows] == ["fast", "slow"]

    def test_readme_sample_builds(self, tmp_path):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        block = re.search(r"```ini\n(.*?)```", readme.read_text(), re.S)
        ini = tmp_path / "readme.ini"
        ini.write_text(block.group(1))
        cfg = build_scenario(sections_from_ini(str(ini)))
        assert cfg.link.rate_bps == 50_000_000
        assert [f.name for f in cfg.flows] == ["a"]

    def test_typo_in_file_rejected(self, tmp_path):
        ini = tmp_path / "typo.ini"
        ini.write_text("[aqm]\nalfa = 0.5\n[flow.a]\nkind = scalable\n")
        with pytest.raises(ConfigError, match="unknown key 'alfa'"):
            build_scenario(sections_from_ini(str(ini)))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            sections_from_ini(str(tmp_path / "nope.ini"))

    def test_malformed_file(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("this is not an ini file\n")
        with pytest.raises(ConfigError):
            sections_from_ini(str(bad))


class TestFlowShorthand:
    def test_single(self):
        assert parse_flow_shorthand("scalable") == ("scalable",)

    def test_combo(self):
        assert parse_flow_shorthand("scalable+cubic") == ("scalable", "cubic")
        assert parse_flow_shorthand("reno + reno") == ("reno", "reno")

    def test_rejects_unknown(self):
        with pytest.raises(ConfigError):
            parse_flow_shorthand("scalable+warp")
        with pytest.raises(ConfigError):
            parse_flow_shorthand("++")

    @pytest.mark.parametrize("spec", ["scalable++cubic", "scalable+", "+cubic",
                                      "scalable+ +cubic", "", " "])
    def test_rejects_empty_entry(self, spec):
        # an empty entry was dropped: 'scalable++cubic' ran two flows
        with pytest.raises(ConfigError, match="--flows: empty entry in"):
            parse_flow_shorthand(spec)
