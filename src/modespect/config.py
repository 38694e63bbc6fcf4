"""Run configuration: INI-style config files plus CLI flag overrides.

A run config is a plain INI document whose sections mirror the pipeline
settings, e.g.::

    [synth]
    preset = paper-case-2
    n = 65536
    noise_sigma = 0.01
    seed = 7

    [components]          ; used when no preset is given
    mode1 = 1 2000 80 0   ; amplitude frequency_hz damping phase_rad

    [hodmd]
    d = 50
    spatial_policy = tolerance:1e-10
    temporal_policy = tolerance:1e-10
    amplitude_policy = none

    [kds]
    kernel = gaussian
    h = 0.05
    weighting = density
    grid = 1990:2050:0.01

    [fft]
    method = welch
    window = hann
    segment_length = 8192
    overlap_fraction = 0.5

    [glide]
    window_len = 1024
    hop = 64

Values given on the command line win over the file.  Truncation policies are
spelled ``tolerance:<eps>``, ``count:<n>``, ``optimal``, or ``none`` (where
optional).
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass
from typing import Optional

from .kds import FrequencyGrid
from .linalg import FixedCount, OptimalHardThreshold, Tolerance, TruncationPolicy
from .signals import DampedComponent

__all__ = [
    "ConfigError",
    "RunConfig",
    "parse_policy",
    "format_policy",
    "parse_bool",
    "parse_grid",
    "parse_components",
]


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


def parse_policy(text: str) -> Optional[TruncationPolicy]:
    """Parse 'tolerance:<eps>' | 'count:<n>' | 'optimal' | 'none'."""
    text = text.strip().lower()
    if text == "none":
        return None
    if text == "optimal":
        return OptimalHardThreshold()
    kind, _, arg = text.partition(":")
    try:
        if kind == "tolerance":
            return Tolerance(float(arg))
        if kind == "count":
            return FixedCount(int(arg))
    except ValueError as exc:
        raise ConfigError(f"bad policy argument in {text!r}: {exc}") from exc
    raise ConfigError(
        f"unknown policy {text!r}; use tolerance:<eps>, count:<n>, optimal, or none"
    )


def format_policy(policy: Optional[TruncationPolicy]) -> str:
    if policy is None:
        return "none"
    if isinstance(policy, Tolerance):
        return f"tolerance:{policy.epsilon:g}"
    if isinstance(policy, FixedCount):
        return f"count:{policy.n}"
    return "optimal"


def parse_bool(text: str) -> bool:
    """Parse one of configparser's boolean words (1/yes/true/on, 0/no/false/off)."""
    states = configparser.ConfigParser.BOOLEAN_STATES
    word = text.strip().lower()
    if word not in states:
        raise ValueError(f"expected one of {', '.join(states)}")
    return states[word]


def parse_grid(text: str) -> FrequencyGrid:
    """Parse '<f_min>:<f_max>:<step>' in Hz."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"grid must be f_min:f_max:step, got {text!r}")
    try:
        f_min, f_max, step = (float(p) for p in parts)
        return FrequencyGrid(f_min, f_max, step)
    except ValueError as exc:
        raise ConfigError(f"bad grid {text!r}: {exc}") from exc


def parse_components(entries) -> list[DampedComponent]:
    """Component rows 'amplitude frequency_hz damping [phase_rad]'."""
    components = []
    for entry in entries:
        parts = entry.split()
        if len(parts) not in (3, 4):
            raise ConfigError(
                f"component needs 'amplitude frequency damping [phase]', got {entry!r}"
            )
        try:
            values = [float(p) for p in parts]
        except ValueError as exc:
            raise ConfigError(f"bad component {entry!r}: {exc}") from exc
        amplitude, frequency, damping = values[:3]
        phase = values[3] if len(values) == 4 else 0.0
        try:
            components.append(
                DampedComponent(
                    amplitude=amplitude,
                    frequency_hz=frequency,
                    damping=damping,
                    phase_rad=phase,
                )
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    return components


@dataclass
class RunConfig:
    """Parsed config file; empty when no file was given."""

    sections: dict

    @classmethod
    def load(cls, path: Optional[str]) -> "RunConfig":
        if path is None:
            return cls(sections={})
        parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
        try:
            with open(path, "r", encoding="utf-8") as fh:
                parser.read_file(fh)
        except configparser.Error as exc:
            raise ConfigError(f"cannot parse config {path}: {exc}") from exc
        sections = {
            name: dict(parser.items(name)) for name in parser.sections()
        }
        return cls(sections=sections)

    def get(self, section: str, key: str) -> Optional[str]:
        return self.sections.get(section, {}).get(key)

    def component_entries(self) -> list[str]:
        return list(self.sections.get("components", {}).values())


def pick(cli_value, cfg: RunConfig, section: str, key: str, cast, default):
    """Resolve one setting: CLI flag, then config file, then default."""
    if cli_value is not None:
        return cli_value
    raw = cfg.get(section, key)
    if raw is None:
        return default
    try:
        return cast(raw)
    except (ValueError, ConfigError) as exc:
        raise ConfigError(f"[{section}] {key} = {raw!r}: {exc}") from exc
