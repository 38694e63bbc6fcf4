"""Bundled benchmark signal presets.

Three fixed test signals sampled at 25 kHz, 2**16 samples by default:

* ``paper-case-1`` - a single decaying oscillation, f = 2000 Hz, D = 80 1/s.
* ``paper-case-2`` - three decaying oscillations: 2008 Hz / 50 1/s,
  1992 Hz / 80 1/s, 1800 Hz / 100 1/s.
* ``paper-case-3`` - eight decaying oscillations with randomized parameters,
  drawn once from a seeded generator and frozen in
  ``data/eight_component_set.ini`` so results are reproducible.

All amplitudes are 1 and all phases 0.
"""

from __future__ import annotations

import configparser
from importlib import resources

from .config import parse_components
from .signals import DampedComponent

__all__ = [
    "PRESET_FS",
    "PRESET_N",
    "PRESET_NAMES",
    "preset_components",
]

PRESET_FS = 25_000.0
PRESET_N = 2**16

_CASE_1 = (DampedComponent(amplitude=1.0, frequency_hz=2000.0, damping=80.0),)

_CASE_2 = (
    DampedComponent(amplitude=1.0, frequency_hz=2008.0, damping=50.0),
    DampedComponent(amplitude=1.0, frequency_hz=1992.0, damping=80.0),
    DampedComponent(amplitude=1.0, frequency_hz=1800.0, damping=100.0),
)


def _load_case_3() -> tuple[DampedComponent, ...]:
    parser = configparser.ConfigParser()
    text = (
        resources.files("modespect").joinpath("data/eight_component_set.ini").read_text()
    )
    parser.read_string(text)
    return tuple(parse_components(parser["components"].values()))


_CASE_3 = _load_case_3()

_PRESETS = {
    "paper-case-1": _CASE_1,
    "paper-case-2": _CASE_2,
    "paper-case-3": _CASE_3,
}

PRESET_NAMES = tuple(_PRESETS)


def preset_components(name: str) -> tuple[DampedComponent, ...]:
    """Component list of a named preset."""
    try:
        return _PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown preset {name!r}; choose one of {', '.join(PRESET_NAMES)}"
        ) from None
