"""Kernel density spectra: continuous spectra from sparse damped-mode lists.

Each extracted mode frequency is smeared by a kernel over a frequency grid.
The Gaussian kernel widens as its bandwidth ``h`` grows; the Lorentz kernel
(the line shape of an exponentially damped oscillator) sharpens instead.
The Gaussian sum adds each mode on its support only, where its kernel is not
exactly zero.  The Lorentz kernel has no such support: each grid panel sums
its nearby modes directly and interpolates the far field of the others from
Chebyshev nodes, in near-linear time and to rounding level.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Literal, Optional, Sequence

import numpy as np

from .decompose import Mode, _mode_columns

__all__ = [
    "FrequencyGrid",
    "KdsConfig",
    "Spectrum",
    "kds_gaussian",
    "kds_lorentz",
    "find_peaks",
]

Kernel = Literal["gaussian", "lorentz"]
Weighting = Literal["density", "power", "time_constant"]

_KERNELS = ("gaussian", "lorentz")
_WEIGHTINGS = ("density", "power", "time_constant")
# half-width, in bandwidths h, outside which the Gaussian kernel is not evaluated
_GAUSS_SUPPORT = 40.0
# Lorentz sum: grid points per panel, and Chebyshev nodes per panel at which
# the modes more than one panel width away are summed and then interpolated:
# their singularities lie outside the Bernstein ellipse of parameter
# 3 + sqrt(8), so the interpolant is within about 2 (3 + sqrt(8))**-_NODES
# = 9e-19 relative
_PANEL = 1024
_NODES = 24
# values per temporary of a direct Lorentz sum, which goes by blocks of modes
_LORENTZ_BLOCK = 2**16
# grid points above which a grid is refused: 512 MiB per float64 array
_MAX_GRID_POINTS = 2**26


@dataclass(frozen=True)
class FrequencyGrid:
    """Regular evaluation grid [f_min, f_max] with the given step, in Hz."""

    f_min: float
    f_max: float
    step: float

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.f_min, self.f_max, self.step))):
            raise ValueError("grid parameters must be finite")
        if not self.f_min < self.f_max:
            raise ValueError("f_min must be below f_max")
        if self.step <= 0:
            raise ValueError("step must be positive")
        points = (self.f_max - self.f_min) / self.step + 1
        if not points <= _MAX_GRID_POINTS:
            raise ValueError(
                f"grid of {points:.4g} points exceeds {_MAX_GRID_POINTS}; give a"
                " coarser --grid, or a finite --tau-max"
            )

    def frequencies(self) -> np.ndarray:
        n = int(math.floor((self.f_max - self.f_min) / self.step + 1e-9)) + 1
        return self.f_min + self.step * np.arange(n)


@dataclass(frozen=True)
class KdsConfig:
    """Kernel density spectrum settings.

    ``weighting`` applies to the Gaussian kernel only: "density" weighs every
    mode equally, "power" by squared amplitude, "time_constant" by 1/|growth
    rate|.  ``tau_max`` (seconds) clamps the time constant of nearly undamped
    modes; set it to the duration of the analyzed window.  With
    ``lorentz_unit_numerator`` the sqrt(h) numerator factor of the Lorentz
    kernel is replaced by 1, which keeps peak heights comparable across h.
    """

    kernel: Kernel
    h: float
    weighting: Weighting = "density"
    grid: Optional[FrequencyGrid] = None
    lorentz_unit_numerator: bool = True
    tau_max: float = math.inf

    def __post_init__(self) -> None:
        if self.kernel not in _KERNELS:
            raise ValueError(f"kernel must be one of {_KERNELS}, got {self.kernel!r}")
        if self.weighting not in _WEIGHTINGS:
            raise ValueError(
                f"weighting must be one of {_WEIGHTINGS}, got {self.weighting!r}"
            )
        if not self.h > 0 or not math.isfinite(self.h):
            raise ValueError("h must be positive and finite")
        if not self.tau_max > 0:
            raise ValueError("tau_max must be positive")


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Frequency grid plus non-negative density/power values."""

    frequencies: np.ndarray
    values: np.ndarray
    meta: dict

    def __post_init__(self) -> None:
        freqs = np.asarray(self.frequencies, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        if freqs.shape != vals.shape or freqs.ndim != 1:
            raise ValueError("frequencies and values must be equal-length vectors")
        if vals.size and (not np.all(np.isfinite(vals)) or vals.min() < 0):
            raise ValueError("spectrum values must be finite and >= 0")
        object.__setattr__(self, "frequencies", freqs)
        object.__setattr__(self, "values", vals)


def _time_constants(growth: np.ndarray, tau_max: float) -> np.ndarray:
    with np.errstate(divide="ignore"):
        taus = np.minimum(1.0 / np.abs(growth), tau_max)
    if not np.all(np.isfinite(taus)):
        raise ValueError(
            "undamped mode gives an infinite time constant; set tau_max to the"
            " analyzed window duration"
        )
    return taus


def _weights(amps: np.ndarray, growth: np.ndarray, cfg: KdsConfig) -> np.ndarray:
    if cfg.weighting == "density":
        return np.ones(amps.size)
    if cfg.weighting == "power":
        return amps**2
    return _time_constants(growth, cfg.tau_max)


def _meta(cfg: KdsConfig, grid: FrequencyGrid, n_modes: int) -> dict:
    return {
        "kernel": cfg.kernel,
        "h": cfg.h,
        "weighting": cfg.weighting,
        "f_min": grid.f_min,
        "f_max": grid.f_max,
        "step": grid.step,
        "n_modes": n_modes,
    }


def _default_gaussian_grid(freqs: np.ndarray, h: float) -> FrequencyGrid:
    margin = 5.0 * h
    return FrequencyGrid(freqs.min() - margin, freqs.max() + margin, h / 5.0)


def _default_lorentz_grid(
    freqs: np.ndarray, h: float, taus: np.ndarray
) -> FrequencyGrid:
    # offset from each mode frequency at which its kernel halves
    widths = math.sqrt(3.0) / (2.0 * math.pi * math.sqrt(h) * taus)
    margin = 20.0 * widths.max()
    return FrequencyGrid(freqs.min() - margin, freqs.max() + margin, widths.min() / 2.0)


def kds_gaussian(modes: Sequence[Mode], cfg: KdsConfig) -> Spectrum:
    """Gaussian kernel density spectrum of a mode list.

    value(F) = (1/n) * sum_k w_k * exp(-((F - F_k) / h)**2 / 2) with the
    weight selected by ``cfg.weighting``.  The grid step must stay below h.
    """
    if len(modes) == 0:
        raise ValueError("mode list is empty")
    if cfg.kernel != "gaussian":
        raise ValueError(f"config kernel is {cfg.kernel!r}, expected 'gaussian'")
    mode_freqs, growth, amps, *_ = _mode_columns(modes)
    grid = cfg.grid or _default_gaussian_grid(mode_freqs, cfg.h)
    if not grid.step < cfg.h:
        raise ValueError(
            f"grid step {grid.step} must be smaller than the bandwidth h={cfg.h}"
        )
    weights = _weights(amps, growth, cfg)
    freqs = grid.frequencies()
    values = np.zeros_like(freqs)
    # beyond 38.6 h the kernel is exactly 0.0 in float64, so each mode adds
    # only on its support; a non-finite frequency or weight still meets the
    # whole grid, and the summation order stays the mode index
    reach = _GAUSS_SUPPORT * cfg.h
    starts = np.searchsorted(freqs, mode_freqs - reach, side="left")
    stops = np.searchsorted(freqs, mode_freqs + reach, side="right")
    whole = ~(np.isfinite(mode_freqs) & np.isfinite(weights))
    starts[whole], stops[whole] = 0, freqs.size
    for fk, wk, i, j in zip(mode_freqs, weights, starts, stops):
        z = (freqs[i:j] - fk) / cfg.h
        values[i:j] += wk * np.exp(-0.5 * z * z)
    values /= len(modes)
    return Spectrum(freqs, values, _meta(cfg, grid, len(modes)))


def _lorentz_sum(x: np.ndarray, f, c, q, origin: float = 0.0) -> np.ndarray:
    """sum_k c_k / sqrt(1 + q_k (x - (f_k - origin))**2) at each x, by blocks
    of modes, so no temporary grows with the mode count."""
    out = np.zeros(x.size)
    size = max(1, _LORENTZ_BLOCK // x.size)
    for k in range(0, f.size, size):
        d = x - (f[k : k + size, None] - origin)
        t = q[k : k + size, None] * d
        t *= d
        t += 1.0
        np.sqrt(t, out=t)
        np.divide(c[k : k + size, None], t, out=t)
        out += t.sum(axis=0)
    return out


@functools.cache
def _chebyshev() -> tuple[np.ndarray, np.ndarray]:
    """The _NODES Chebyshev points of the first kind on [-1, 1] and their
    barycentric weights (-1)**j sin(theta_j); formed on first use, as at
    import the sines and cosines would add ~0.15 MB of code pages to the RSS
    of every command."""
    theta = (np.arange(_NODES) + 0.5) * math.pi / _NODES
    nodes, weights = np.cos(theta), (-1.0) ** np.arange(_NODES) * np.sin(theta)
    nodes.flags.writeable = weights.flags.writeable = False  # shared by every call
    return nodes, weights


def _lorentz_panel(x: np.ndarray, f, c, q) -> np.ndarray:
    """The Lorentz sum at the grid points x of one panel, the modes sorted.

    Modes within one panel width of [x[0], x[-1]] are summed directly; the
    far field of the others is summed at the panel's Chebyshev nodes
    (:func:`_chebyshev`) and interpolated onto x by the barycentric
    formula.  Nodes and points are placed by their offsets from x[0], which
    the direct sum's x - f_k also resolves, so the rounding of a large
    frequency does not move them.  A panel of at most _NODES points, or of
    one repeated frequency, or with fewer far modes than nodes, is summed
    directly.
    """
    half = (x[-1] - x[0]) / 2
    lo = np.searchsorted(f, x[0] - 2 * half, side="left")
    hi = np.searchsorted(f, x[-1] + 2 * half, side="right")
    if x.size <= _NODES or f.size - (hi - lo) < _NODES or half == 0:
        return _lorentz_sum(x, f, c, q)
    nodes, weights = _chebyshev()
    far = sum(
        _lorentz_sum(half * (1.0 + nodes), f[s], c[s], q[s], x[0])
        for s in (np.s_[:lo], np.s_[hi:])
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.subtract.outer((x - x[0]) / half - 1.0, nodes)
        np.divide(weights, r, out=r)
        den = r.sum(axis=1)
        values = (r @ far) / den
    hit = np.flatnonzero(np.isinf(den))  # a point on a node takes its value
    values[hit] = far[np.isinf(r[hit]).argmax(axis=1)]
    return values + _lorentz_sum(x, f[lo:hi], c[lo:hi], q[lo:hi])


def kds_lorentz(modes: Sequence[Mode], cfg: KdsConfig) -> Spectrum:
    """Lorentz kernel density spectrum of a mode list.

    value(F) = (1/n) * sum_k num * A_k * tau_k
               / sqrt(1 + 4 pi^2 h tau_k^2 (F - F_k)^2)

    where num is sqrt(h), or 1 when ``cfg.lorentz_unit_numerator`` is set.
    Unlike the Gaussian kernel, larger h sharpens the spectrum.  The
    ``weighting`` setting does not apply; the amplitude and time-constant
    dependence is fixed by the kernel.

    The kernel's 1/|F - F_k| tails reach the whole grid, so the sum is taken
    by panels of _PANEL grid points over the modes sorted by frequency
    (:func:`_lorentz_panel`).  Modes within one panel width of a panel are
    summed at its points term by term, as above.  The others are summed at
    _NODES Chebyshev nodes of the panel and interpolated onto its points by
    the barycentric formula (Berrut & Trefethen 2004): their kernels are
    analytic within the Bernstein ellipse of parameter 3 + sqrt(8), so the
    interpolation error stays near 1e-18 relative, below the rounding of the
    sum, and the values agree with the term-by-term sum over all modes to
    rounding (within 1e-13 relative in the tests).  The cost is about
    n_grid * (_NODES + near modes) + n_panels * _NODES * n_modes kernel
    evaluations instead of n_grid * n_modes.
    """
    if len(modes) == 0:
        raise ValueError("mode list is empty")
    if cfg.kernel != "lorentz":
        raise ValueError(f"config kernel is {cfg.kernel!r}, expected 'lorentz'")
    mode_freqs, growth, amps, *_ = _mode_columns(modes)
    taus = _time_constants(growth, cfg.tau_max)
    grid = cfg.grid or _default_lorentz_grid(mode_freqs, cfg.h, taus)
    numerator = 1.0 if cfg.lorentz_unit_numerator else math.sqrt(cfg.h)
    order = np.argsort(mode_freqs)  # a NaN frequency sorts last, as a far mode
    f, t = mode_freqs[order], taus[order]
    c = numerator * amps[order] * t
    q = 4.0 * math.pi**2 * cfg.h * t * t
    freqs = grid.frequencies()
    values = np.empty_like(freqs)
    for i in range(0, freqs.size, _PANEL):
        values[i : i + _PANEL] = _lorentz_panel(freqs[i : i + _PANEL], f, c, q)
    values /= len(modes)
    return Spectrum(freqs, values, _meta(cfg, grid, len(modes)))


def _local_maxima(values: np.ndarray) -> list[tuple[int, int]]:
    """Strictly interior local maxima as (left, right) plateau runs."""
    starts = np.flatnonzero(np.r_[True, values[1:] != values[:-1]])
    ends = np.r_[starts[1:], values.size] - 1
    level = values[starts]
    peak = (level[1:-1] > level[:-2]) & (level[1:-1] > level[2:])
    return list(zip(starts[1:-1][peak].tolist(), ends[1:-1][peak].tolist()))


def _stop_bases(heights: list, gaps: list, stops) -> np.ndarray:
    """Lowest gap between each peak and the nearest earlier peak that stops it,
    or the start of the scan when none does.

    ``gaps[i]`` is the lowest value just before peak i in scan order, and
    ``stops(earlier, h)`` says whether a peak of height ``earlier`` ends the
    walk from one of height h.  A stack holds the peaks that no later peak
    has passed, each with the lowest gap back to the peak below it.
    """
    bases = np.empty(len(heights))
    stack: list[tuple[float, float]] = []
    for i, (h, low) in enumerate(zip(heights, gaps)):
        while stack and not stops(stack[-1][0], h):
            low = min(low, stack.pop()[1])
        bases[i] = low
        stack.append((h, low))
    return bases


def _prominences(values: np.ndarray, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Topographic prominence per peak run; ``left`` and ``right`` hold the
    runs' first and last indices in ascending order.

    Peaks rank tallest first, ties leftmost first; a walk outward from a peak
    stops at strictly higher terrain or at an equal-height peak that ranks
    earlier, so the parent of an exact twin keeps full prominence while the
    twin is measured against their shared saddle.  The base on each side is
    the lowest point the walk passes.  Between neighbouring maxima the
    terrain only falls, then rises, so that is the lowest point of the gaps
    up to the nearest stopping peak: on the left one at least as high, on
    the right one strictly higher (an equal one to the right ranks later).
    """
    heights = values[left]
    # lowest value before the first peak, between neighbours, after the last
    gaps = np.minimum.reduceat(values, np.r_[0, np.c_[left, right + 1].ravel()])[::2]
    h, g = heights.tolist(), gaps.tolist()
    left_base = _stop_bases(h, g[:-1], lambda earlier, hk: earlier >= hk)
    right_base = _stop_bases(h[::-1], g[:0:-1], lambda later, hk: later > hk)[::-1]
    return heights - np.maximum(left_base, right_base)


def find_peaks(spec: Spectrum, min_prominence: float) -> list[tuple[float, float]]:
    """Interior local maxima with at least the given prominence.

    Returns (frequency, value) pairs sorted by frequency.  Flat-topped peaks
    report their plateau midpoint.
    """
    if spec.values.size == 0:
        raise ValueError("spectrum is empty")
    if not (min_prominence >= 0):
        raise ValueError("min_prominence must be >= 0")
    left, right = np.array(_local_maxima(spec.values), dtype=int).reshape(-1, 2).T
    keep = _prominences(spec.values, left, right) >= min_prominence
    mid = (left[keep] + right[keep]) // 2
    return list(zip(spec.frequencies[mid].tolist(), spec.values[mid].tolist()))
