"""Fourier reference path: DFT, periodogram, and Welch-averaged PSD.

This is the comparison baseline the mode-based spectra are judged against;
its frequency resolution is pinned to fs/N by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Optional

import numpy as np

from .decompose import DegenerateInputError, _check_samples
from .kds import Spectrum
from .signals import TimeSeries

__all__ = ["Window", "WelchConfig", "default_welch_config", "dft", "periodogram", "welch"]

Window = Literal["rectangular", "hann"]


def _window_samples(kind: Window, n: int) -> Optional[np.ndarray]:
    """The window's n samples; None for the rectangular one, whose product
    with the segment would change no sample."""
    if kind == "rectangular":
        return None
    if kind == "hann":
        # periodic form, the PSD-friendly variant
        return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)
    raise ValueError(f"unknown window {kind!r}")


def dft(ts: TimeSeries) -> np.ndarray:
    """Two-sided discrete Fourier transform X[j] = sum_k x_k exp(-2 pi i j k / N)."""
    x = np.asarray(ts.samples)
    if x.ndim != 1:
        raise ValueError("dft expects a single-channel series")
    return np.fft.fft(x)


def _one_sided_psd(x: np.ndarray, w: Optional[np.ndarray], fs: float) -> np.ndarray:
    """One-sided PSD of one segment, scaled as documented on periodogram.

    ``w`` None is the rectangular window, for which sum(w**2) is the
    segment length.  The PSD is formed in place over the DFT's parts.  A
    PSD that is not finite raises ``DegenerateInputError``: the segment has
    a non-finite sample, or its power overflows.
    """
    if np.iscomplexobj(x):
        raise ValueError("one-sided PSD is defined for real signals")
    if w is None:
        coeffs, power = np.fft.rfft(x), float(x.size)
    else:
        coeffs, power = np.fft.rfft(x * w), float(np.sum(w * w))
    psd = np.square(coeffs.real)
    psd += np.square(coeffs.imag, out=coeffs.imag)
    psd /= fs * power
    if x.size % 2 == 0:
        psd[1:-1] *= 2.0
    else:
        psd[1:] *= 2.0
    if not np.all(np.isfinite(psd)):
        _check_samples(x)  # names a non-finite sample, as hodmd does
        raise DegenerateInputError("the power spectral density overflows float64")
    return psd


def periodogram(ts: TimeSeries, window: Window = "rectangular") -> Spectrum:
    """One-sided power spectral density of a single-channel real series.

    Normalized by fs * sum(w**2), so a full-scale sine integrates to the same
    power under either window; interior bins are doubled, DC and (for even N)
    the Nyquist bin are not.  The rectangular window takes the DFT of the
    samples themselves, and the PSD is formed in place, so the arrays that
    grow with N are the input, its DFT and the result.  A non-finite sample,
    or a PSD beyond float64, raises ``DegenerateInputError``.
    """
    x = np.asarray(ts.samples)
    if x.ndim != 1:
        raise ValueError("periodogram expects a single-channel series")
    n = x.size
    if n < 2:
        raise ValueError("need at least two samples")
    psd = _one_sided_psd(x, _window_samples(window, n), ts.fs)
    freqs = np.arange(psd.size) * (ts.fs / n)
    meta = {"source": "periodogram", "window": window, "fs": ts.fs, "n": n}
    return Spectrum(freqs, psd, meta)


@dataclass(frozen=True)
class WelchConfig:
    """Segment-averaged PSD settings; segment_length must be a power of two >= 8."""

    segment_length: int
    overlap_fraction: float = 0.5
    window: Window = "hann"

    def __post_init__(self) -> None:
        n = self.segment_length
        if n < 8 or (n & (n - 1)) != 0:
            raise ValueError("segment_length must be a power of two >= 8")
        if not 0.0 <= self.overlap_fraction < 1.0:
            raise ValueError("overlap_fraction must lie in [0, 1)")
        if self.window not in ("rectangular", "hann"):
            raise ValueError(f"unknown window {self.window!r}")


def default_welch_config(n_samples: int) -> WelchConfig:
    """Hann window, 50% overlap, segments of n/8 rounded down to a power of two."""
    target = max(8, n_samples // 8)
    seg = 2 ** int(math.floor(math.log2(target)))
    return WelchConfig(segment_length=seg)


def welch(ts: TimeSeries, cfg: WelchConfig) -> Spectrum:
    """Mean of windowed segment periodograms with the configured overlap.

    The segment PSDs are added one segment at a time, in order (Welch's
    running average), so only one segment and its DFT are held at once.
    A non-finite PSD raises ``DegenerateInputError``, as in periodogram.
    """
    x = np.asarray(ts.samples)
    if x.ndim != 1:
        raise ValueError("welch expects a single-channel series")
    n = x.size
    seg = cfg.segment_length
    if n < seg:
        raise ValueError(f"signal ({n} samples) shorter than one segment ({seg})")
    step = max(1, int(round(seg * (1.0 - cfg.overlap_fraction))))
    w = _window_samples(cfg.window, seg)
    starts = range(0, n - seg + 1, step)
    count = len(starts)
    psd = sum(_one_sided_psd(x[k : k + seg], w, ts.fs) for k in starts) / count
    freqs = np.arange(seg // 2 + 1) * (ts.fs / seg)
    meta = {
        "source": "welch",
        "window": cfg.window,
        "fs": ts.fs,
        "segment_length": seg,
        "overlap_fraction": cfg.overlap_fraction,
        "segments": count,
    }
    return Spectrum(freqs, psd, meta)
