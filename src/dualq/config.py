"""Scenario assembly: presets, INI files, and override handling.

A scenario is everything that defines a run except the seed. The
fingerprint hashes the canonical scenario dictionary, with a trace file
named by the sha256 of its content, so two runs are comparable exactly
when their fingerprints match, and seeds remain free to vary within a
corpus.

Config files are INI with the sections ``[run]``, ``[link]``,
``[delay]``, ``[aqm]`` and ``[flow.<name>]``. The tables RUN_KEYS,
LINK_KEYS, DELAY_KEYS, AQM_KEYS and FLOW_KEYS are the one schema: each
maps a key to the dataclass field it sets and the parser that reads it.
An absent key keeps its field's default; an unknown key is an error.

Any value can be overridden on the command line with
``--set section.key=value``; overrides are applied textually before
validation so they behave exactly like edits to the file.
"""

from __future__ import annotations

import configparser
import hashlib
import json
import math
import os
from dataclasses import asdict, dataclass

from .aqm import AqmConfig
from .core import NS_PER_SEC, ms_to_ns, s_to_ns
from .link import DelayConfig, LinkConfig, LinkMode
from .metrics import sha256_file
from .traffic import SENDER_KINDS, FlowConfig

BUFFER_MS = 250


class ConfigError(Exception):
    """Invalid or contradictory scenario input."""


@dataclass(frozen=True)
class Preset:
    """A bandwidth-delay operating point."""

    name: str
    rate_bps: int
    rtt_ms: float


PRESETS = {
    "low": Preset("low", 12_000_000, 20.0),
    "medium": Preset("medium", 50_000_000, 40.0),
    "high": Preset("high", 200_000_000, 100.0),
}

# step threshold / target pairs: "default" is the shallow shipping
# configuration, "refined" widens both with the operating point
PARAM_SETS = ("default", "refined")
REFINED = {
    "low": (5.0, 30.0),
    "medium": (5.0, 30.0),
    "high": (10.0, 45.0),
}


def default_limit_bytes(rate_bps: int) -> int:
    """Shared buffer sized to BUFFER_MS of line rate."""
    return rate_bps * BUFFER_MS // 8000


@dataclass(frozen=True)
class ScenarioConfig:
    link: LinkConfig
    delay: DelayConfig
    aqm: AqmConfig
    flows: tuple[FlowConfig, ...]
    duration_ns: int = 30 * NS_PER_SEC

    def validate(self) -> None:
        self.link.validate()
        self.delay.validate()
        self.aqm.validate()
        if self.duration_ns <= 0:
            raise ConfigError(f"duration must be positive, got {self.duration_ns} ns")
        if not self.flows:
            raise ConfigError("at least one flow is required")
        names = [f.name for f in self.flows]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate flow names: {names}")
        for f in self.flows:
            f.validate()

    def to_dict(self) -> dict:
        d = asdict(self)
        d["link"]["mode"] = self.link.mode.value
        d["flows"] = list(d["flows"])
        return d

    def fingerprint(self) -> str:
        """sha256 of the scenario; a trace file counts by its content.

        A missing trace keeps its path here: the run fails on it (exit 2)
        before any output records a fingerprint.
        """
        d = self.to_dict()
        trace = self.link.trace_file
        if trace is not None and os.path.exists(trace):
            d["link"]["trace_file"] = "sha256:" + sha256_file(trace)
        blob = json.dumps(d, sort_keys=True).encode("ascii")
        return hashlib.sha256(blob).hexdigest()


# ----------------------------------------------------------------------
# section dictionaries: the common currency of presets, files, --set

Sections = dict[str, dict[str, str]]


def preset_sections(
    preset: str,
    params: str = "default",
    flows: tuple[str, ...] = ("scalable",),
    mode: str | None = None,
    duration_s: float | None = None,
) -> Sections:
    """Expand a preset into override-ready section dictionaries.

    Only what the preset sets is written; every other key keeps its
    dataclass default, as do mode and duration when they are None.
    """
    try:
        p = PRESETS[preset]
    except KeyError:
        raise ConfigError(
            f"unknown preset {preset!r}, expected one of {sorted(PRESETS)}"
        ) from None
    if params not in PARAM_SETS:
        raise ConfigError(
            f"unknown parameter set {params!r}, expected one of {PARAM_SETS}"
        )
    sections: Sections = {
        "link": {"rate_bps": str(p.rate_bps)},
        "delay": {"rtt_ms": repr(p.rtt_ms)},
        # written out so that a --set of the rate keeps the preset's buffer
        "aqm": {"limit_bytes": str(default_limit_bytes(p.rate_bps))},
    }
    if duration_s is not None:
        sections["run"] = {"duration_s": repr(duration_s)}
    if mode is not None:
        sections["link"]["mode"] = mode
    if params == "refined":
        step_ms, target_ms = REFINED[p.name]
        sections["aqm"].update(step_thresh_ms=repr(step_ms), target_ms=repr(target_ms))
    for i, kind in enumerate(flows):
        sections[f"flow.{kind}{i}"] = {"kind": kind, "start_s": "0"}
    return sections


def sections_from_ini(path: str) -> Sections:
    parser = configparser.ConfigParser()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from exc
    return {name: dict(parser[name]) for name in parser.sections()}


def apply_overrides(sections: Sections, assignments: list[str]) -> None:
    """Apply ``section.key=value`` strings in place.

    The key is everything after the last dot, so dotted section names
    like ``flow.a`` address their keys as ``flow.a.start_s``.
    """
    for item in assignments:
        head, sep, value = item.partition("=")
        if not sep:
            raise ConfigError(f"override {item!r} is not of the form section.key=value")
        section, dot, key = head.rpartition(".")
        if not dot or not section or not key:
            raise ConfigError(f"override {item!r} is not of the form section.key=value")
        sections.setdefault(section.strip(), {})[key.strip()] = value.strip()


# ----------------------------------------------------------------------
# the schema: per section, INI key -> (dataclass field, parser)


def parse_float(raw: str) -> float:
    """A finite real number: NaN and infinities are bad values."""
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError("not a finite number")
    return value


def parse_ms(raw: str) -> int:
    """Milliseconds to integer nanoseconds."""
    return ms_to_ns(parse_float(raw))


def _parse_s(raw: str) -> int:
    return s_to_ns(parse_float(raw))


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _parse_limit(raw: str) -> int | None:
    """Bytes, or None for ``auto``: BUFFER_MS of the link rate."""
    return None if raw.strip().lower() == "auto" else int(raw)


RUN_KEYS = {"duration_s": ("duration_ns", _parse_s)}
LINK_KEYS = {
    "rate_bps": ("rate_bps", int),
    "rate_mbps": ("rate_bps", lambda raw: round(parse_float(raw) * 1e6)),
    "mode": ("mode", lambda raw: LinkMode(raw.strip().lower())),
    "mtu": ("mtu", int),
    "trace_file": ("trace_file", str),
}
# rtt_ms is split into fwd_ns and rev_ns by build_scenario
DELAY_KEYS = {
    "rtt_ms": ("rtt_ns", parse_ms),
    "fwd_ms": ("fwd_ns", parse_ms),
    "rev_ms": ("rev_ns", parse_ms),
}
AQM_KEYS = {
    "target_ms": ("target_ns", parse_ms),
    "tupdate_ms": ("tupdate_ns", parse_ms),
    "alpha": ("alpha", parse_float),
    "beta": ("beta", parse_float),
    "step_thresh_ms": ("step_thresh_ns", parse_ms),
    "coupling_k": ("coupling_k", parse_float),
    "limit_bytes": ("limit_bytes", _parse_limit),
    "classic_protection": ("classic_protection", parse_float),
    "ecn_classic": ("ecn_classic_enabled", _parse_bool),
}
FLOW_KEYS = {
    "kind": ("kind", str),
    "start_s": ("start_ns", _parse_s),
    "stop_s": ("stop_ns", _parse_s),
}


def _fields(sections: Sections, name: str, table: dict) -> dict:
    """Parse the keys present in section ``name`` into field values."""
    fields = {}
    for key, raw in sections.get(name, {}).items():
        if key not in table:
            raise ConfigError(
                f"unknown key {key!r} in [{name}], expected one of {sorted(table)}"
            )
        field, parse = table[key]
        if field in fields:
            same = sorted(k for k, (f, _) in table.items() if f == field)
            raise ConfigError(f"give only one of {same} in [{name}]")
        try:
            fields[field] = parse(raw)
        except (ValueError, TypeError, OverflowError) as exc:
            raise ConfigError(f"bad value for {name}.{key}: {raw!r} ({exc})") from exc
    return fields


def build_scenario(sections: Sections) -> ScenarioConfig:
    """Turn section dictionaries into a validated ScenarioConfig."""
    for name in sections:
        if name not in ("run", "link", "delay", "aqm") and not name.startswith("flow."):
            raise ConfigError(f"unknown config section [{name}]")

    link = LinkConfig(**_fields(sections, "link", LINK_KEYS))

    delay = _fields(sections, "delay", DELAY_KEYS)
    if "rtt_ns" in delay:
        rtt_ns = delay.pop("rtt_ns")
        if delay:
            raise ConfigError("give either delay.rtt_ms or fwd_ms/rev_ms, not both")
        delay = {"fwd_ns": rtt_ns // 2, "rev_ns": rtt_ns - rtt_ns // 2}

    aqm = _fields(sections, "aqm", AQM_KEYS)
    if aqm.get("limit_bytes") is None:
        aqm["limit_bytes"] = default_limit_bytes(link.rate_bps)

    flows = []
    for name in sections:
        if not name.startswith("flow."):
            continue
        fname = name[len("flow."):]
        fields = _fields(sections, name, FLOW_KEYS)
        kind = fields.get("kind")
        if kind not in SENDER_KINDS:
            raise ConfigError(
                f"flow {fname!r}: kind must be one of {SENDER_KINDS}, got {kind!r}"
            )
        flows.append(FlowConfig(name=fname, **fields))
    flows.sort(key=lambda f: (f.start_ns, f.name))

    cfg = ScenarioConfig(
        link=link,
        delay=DelayConfig(**delay),
        aqm=AqmConfig(**aqm),
        flows=tuple(flows),
        **_fields(sections, "run", RUN_KEYS),
    )
    try:
        cfg.validate()
    except (ValueError, ConfigError) as exc:
        raise ConfigError(str(exc)) from exc
    return cfg


def parse_flow_shorthand(spec: str) -> tuple[str, ...]:
    """Parse 'scalable+cubic' style flow lists; an empty entry is a config error."""
    kinds = tuple(k.strip() for k in spec.split("+"))
    if "" in kinds:
        raise ConfigError(f"--flows: empty entry in {spec!r}")
    for kind in kinds:
        if kind not in SENDER_KINDS:
            raise ConfigError(
                f"unknown flow kind {kind!r}, expected one of {SENDER_KINDS}"
            )
    return kinds
