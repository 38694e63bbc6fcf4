"""Run configuration: the table of CLI settings and the INI files that give them.

Every setting is one row of ``SETTINGS``: its INI section and key, which is
also its argparse dest and the field name of the library config it feeds,
its flag, the function that parses its text, and its help.  A run config is
a plain INI document of those sections and keys::

    [synth]
    preset = paper-case-2
    fs = 25000
    n = 65536
    noise_sigma = 0.01
    seed = 7

    [components]          ; used when no preset is given
    mode1 = 1 2000 80 0   ; amplitude frequency_hz damping phase_rad

    [hodmd]
    d = 50
    spatial_policy = tolerance:1e-10
    temporal_policy = optimal
    amplitude_policy = none

    [kds]
    kernel = gaussian
    h = 0.05
    weighting = density
    grid = 1990:2050:0.01
    tau_max = 0.5
    lorentz_unit_numerator = yes

    [fft]
    method = welch
    window = hann
    segment_length = 8192
    overlap_fraction = 0.5

    [glide]
    window_len = 1024
    hop = 64
    floor = 0.05

    [compare]
    truth = 2008,1992,1800

A key outside the table is an error; the ``[components]`` rows are free-form.
A flag wins over the file, and a setting given by neither takes the default
of the library config it feeds.  Truncation policies are spelled
``tolerance:<eps>``, ``count:<n>``, ``optimal``, or ``none`` (where optional).
"""

from __future__ import annotations

import configparser
import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple, Optional

from .decompose import SizingError
from .kds import FrequencyGrid
from .linalg import FixedCount, OptimalHardThreshold, Tolerance, TruncationPolicy
from .presets import PRESET_FS, PRESET_N, PRESET_NAMES
from .signals import DampedComponent

__all__ = [
    "ConfigError",
    "RunConfig",
    "SETTINGS",
    "Setting",
    "settings",
    "parse_policy",
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


def _parse_truth(text: str) -> list[float]:
    """Comma-separated finite frequencies in Hz."""
    truths = [float(v) for v in text.split(",")]
    if not all(map(math.isfinite, truths)):
        raise ValueError("truth frequencies must be finite")
    return truths


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


class Setting(NamedTuple):
    """One CLI setting; ``flag`` None means the file alone sets it."""

    section: str
    key: str
    flag: Optional[str]
    parse: Callable[[str], Any]
    help: str


_POLICIES = "tolerance:<eps> | count:<n> | optimal"

SETTINGS = (
    Setting("synth", "preset", "--preset", str,
            f"bundled benchmark component set: {' | '.join(PRESET_NAMES)}"),
    Setting("synth", "fs", "--fs", float,
            f"sampling rate in Hz (default {PRESET_FS:g})"),
    Setting("synth", "n", "--n", int, f"number of samples (default {PRESET_N})"),
    Setting("synth", "noise_sigma", "--noise-sigma", float,
            "additive white Gaussian noise standard deviation (default 0)"),
    Setting("synth", "seed", "--seed", int, "noise generator seed (default 0)"),
    Setting("hodmd", "d", "--d", int, "delay depth d (>= 1), required"),
    Setting("hodmd", "spatial_policy", "--spatial", parse_policy,
            f"spatial truncation policy: {_POLICIES}"),
    Setting("hodmd", "temporal_policy", "--temporal", parse_policy,
            f"delay-space truncation policy: {_POLICIES}"),
    Setting("hodmd", "amplitude_policy", "--amplitude", parse_policy,
            f"amplitude pruning policy: {_POLICIES} | none"),
    Setting("kds", "kernel", "--kernel", str,
            "kernel shape: gaussian | lorentz (default gaussian)"),
    Setting("kds", "h", "--h", float, "kernel parameter h (> 0), required"),
    Setting("kds", "weighting", "--weighting", str,
            "Gaussian kernel weighting: density | power | time_constant"),
    Setting("kds", "grid", "--grid", parse_grid,
            "frequency grid f_min:f_max:step in Hz"),
    Setting("kds", "tau_max", "--tau-max", float,
            "clamp for undamped-mode time constants, in seconds"),
    Setting("kds", "lorentz_unit_numerator", None, parse_bool,
            "a boolean word; false keeps the sqrt(h) factor of the Lorentz numerator"),
    Setting("fft", "method", "--method", str,
            "PSD estimator: periodogram | welch (default periodogram)"),
    Setting("fft", "window", "--window", str, "taper window: rectangular | hann"),
    Setting("fft", "segment_length", "--segment-length", int,
            "Welch segment length (a power of two >= 8)"),
    Setting("fft", "overlap_fraction", "--overlap", float,
            "Welch overlap fraction in [0, 1)"),
    Setting("glide", "window_len", "--window-len", int,
            "window length in samples (> 2d), required"),
    Setting("glide", "hop", "--hop", int, "window hop in samples (>= 1)"),
    Setting("glide", "floor", "--floor", float,
            "amplitude floor of the modes in --out-pooled"),
    Setting("compare", "truth", "--truth", _parse_truth,
            "comma-separated true frequencies in Hz for error reporting"),
)

_KEYS = {(row.section, row.key) for row in SETTINGS}


@dataclass
class RunConfig:
    """Parsed config file; empty when no file was given."""

    sections: dict

    @classmethod
    def load(cls, path: Optional[str]) -> "RunConfig":
        """Read ``path``; a key outside the table raises ConfigError naming it."""
        if path is None:
            return cls(sections={})
        parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
        try:
            with open(path, "r", encoding="utf-8") as fh:
                parser.read_file(fh)
        except configparser.Error as exc:
            raise ConfigError(f"cannot parse config {path}: {exc}") from exc
        unknown = [
            f"[{name}] {key}"
            for name, section in parser.items()  # [DEFAULT] first
            if name != "components"
            for key in section
            if (name, key) not in _KEYS
        ]
        if unknown:
            raise ConfigError(f"unknown keys in config {path}: {', '.join(unknown)}")
        sections = {
            name: dict(parser.items(name)) for name in parser.sections()
        }
        return cls(sections=sections)

    def component_entries(self) -> list[str]:
        return list(self.sections.get("components", {}).values())


class Given(dict):
    """The settings given for one section, by key, each parsed by its row.

    ``texts`` holds, for each, ``--flag = 'text'`` or ``[section] key =
    'text'``: where its value came from.
    """

    def __init__(self) -> None:
        super().__init__()
        self.texts: dict[str, str] = {}

    @contextmanager
    def checked(self):
        """Re-raise a ValueError from a check on these settings as a
        ConfigError that quotes them; a ConfigError, which names its cause,
        and a SizingError, which has its own exit code, pass unchanged."""
        try:
            yield
        except (ConfigError, SizingError):
            raise
        except ValueError as exc:
            raise ConfigError(f"{', '.join(self.texts.values())}: {exc}") from exc


def settings(args, cfg: RunConfig, section: str) -> Given:
    """The [section] settings that were given, a flag over the file.

    A setting given by neither is absent, so the library's default applies.
    Flag text and file text go through the same parser; a text it rejects
    raises ConfigError naming the flag or key and quoting the text.
    """
    given = Given()
    file = cfg.sections.get(section, {})
    for row in SETTINGS:
        if row.section != section:
            continue
        text, source = getattr(args, row.key, None), row.flag
        if text is None:
            text, source = file.get(row.key), f"[{section}] {row.key}"
        if text is None:
            continue
        given.texts[row.key] = f"{source} = {text!r}"
        try:
            given[row.key] = row.parse(text)
        except ValueError as exc:
            raise ConfigError(f"{given.texts[row.key]}: {exc}") from exc
    return given
