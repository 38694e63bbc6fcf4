"""Bundled benchmark signal presets.

Three fixed test signals sampled at 25 kHz, 2**16 samples by default:

* ``paper-case-1`` - a single decaying oscillation, f = 2000 Hz, D = 80 1/s.
* ``paper-case-2`` - three decaying oscillations: 2008 Hz / 50 1/s,
  1992 Hz / 80 1/s, 1800 Hz / 100 1/s.
* ``paper-case-3`` - eight decaying oscillations with randomized parameters,
  drawn once from ``numpy.random.default_rng(1)`` (frequencies uniform on
  [300, 11000) Hz, sorted; dampings uniform on [20, 150) 1/s) and frozen
  below so results are reproducible.

All amplitudes are 1 and all phases 0.
"""

from __future__ import annotations

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

_CASE_3 = (
    DampedComponent(amplitude=1.0, frequency_hz=1842.507856100081, damping=91.44717939749773),
    DampedComponent(amplitude=1.0, frequency_hz=3636.5965365121942, damping=23.582684721598888),
    DampedComponent(amplitude=1.0, frequency_hz=4678.430759150026, damping=117.95670412772486),
    DampedComponent(amplitude=1.0, frequency_hz=4829.59300400656, damping=89.95863071850617),
    DampedComponent(amplitude=1.0, frequency_hz=5776.491384292747, damping=62.865123144881984),
    DampedComponent(amplitude=1.0, frequency_hz=9156.417753878726, damping=122.49573144569256),
    DampedComponent(amplitude=1.0, frequency_hz=10450.54908436851, damping=59.41532780791385),
    DampedComponent(amplitude=1.0, frequency_hz=10469.961550687507, damping=78.9547256324847),
)

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
