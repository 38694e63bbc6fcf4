"""Synthetic damped-oscillation signals, noise injection, and error metrics."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "TimeSeries",
    "DampedComponent",
    "synth_decaying_sum",
    "add_gaussian_noise",
    "relative_rms_error",
    "relative_max_error",
]

# samples per block of synth_decaying_sum, add_gaussian_noise and the
# errors' peak, so none forms a temporary of the record's length
_BLOCK = 2**16


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """Uniformly sampled signal.

    ``samples`` holds one channel as a 1-D array or several channels as a
    ``(channels, n)`` array; values may be real or complex.  ``dt`` is the
    sampling interval in seconds; the sampling rate ``fs = 1/dt`` is always
    derived, never stored.  Instances are treated as immutable: do not write
    to ``samples`` after construction.
    """

    samples: np.ndarray
    dt: float
    t0: float = 0.0

    def __post_init__(self) -> None:
        samples = np.atleast_1d(np.asarray(self.samples))
        if samples.ndim > 2:
            raise ValueError("samples must be 1-D or (channels, n)")
        if samples.shape[-1] < 1:
            raise ValueError("need at least one sample")
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be positive and finite, got {self.dt!r}")
        object.__setattr__(self, "samples", samples)

    def __len__(self) -> int:
        return self.samples.shape[-1]

    @property
    def fs(self) -> float:
        """Sampling rate in Hz."""
        return 1.0 / self.dt

    @property
    def n_channels(self) -> int:
        return 1 if self.samples.ndim == 1 else self.samples.shape[0]

    def times(self) -> np.ndarray:
        """Sample instants in seconds."""
        return self.t0 + self.dt * np.arange(self.samples.shape[-1])


@dataclass(frozen=True)
class DampedComponent:
    """One exponentially decaying sinusoid.

    Contributes ``amplitude * exp(-t * damping) * sin(2*pi*frequency_hz*t +
    phase_rad)`` to a synthesized signal.  Positive damping decays; the time
    constant ``1/damping`` is derived where needed, never stored.
    """

    amplitude: float
    frequency_hz: float
    damping: float = 0.0
    phase_rad: float = 0.0

    def __post_init__(self) -> None:
        values = (self.amplitude, self.frequency_hz, self.damping, self.phase_rad)
        if not all(math.isfinite(v) for v in values):
            raise ValueError(f"component parameters must be finite, got {values}")
        if self.amplitude < 0:
            raise ValueError("amplitude must be >= 0")


def synth_decaying_sum(
    components: Sequence[DampedComponent], fs: float, n: int
) -> TimeSeries:
    """Sample a sum of exponentially decaying sine oscillations.

    sample[k] = sum_i A_i * exp(-(k/fs) * D_i) * sin(2 pi f_i (k/fs) + phi_i)

    An empty component list yields the all-zero series of length ``n``.
    The sum is formed by blocks of _BLOCK samples, each in component order,
    so the result is the only array that grows with ``n``.
    """
    if not (math.isfinite(fs) and fs > 0):
        raise ValueError(f"fs must be positive and finite, got {fs!r}")
    if n < 1:
        raise ValueError("n must be >= 1")
    out = np.zeros(n)
    for lo in range(0, n, _BLOCK):
        t = np.arange(lo, min(lo + _BLOCK, n)) / fs
        part = out[lo : lo + t.size]
        for c in components:
            part += c.amplitude * np.exp(-t * c.damping) * np.sin(
                2.0 * np.pi * c.frequency_hz * t + c.phase_rad
            )
    return TimeSeries(out, dt=1.0 / fs)


def add_gaussian_noise(ts: TimeSeries, sigma: float, seed: int) -> TimeSeries:
    """Additive white Gaussian noise, reproducible for a fixed seed.

    The generator is numpy's ``default_rng`` (PCG64).  ``sigma == 0`` returns
    the input unchanged.  Complex series get independent real and imaginary
    noise, each with standard deviation ``sigma``: the real parts of every
    sample first, then the imaginary parts.  The noise is drawn by blocks of
    _BLOCK samples and added in place to a C-ordered copy of the samples;
    PCG64 draws the same stream in blocks as at once.
    """
    if not (math.isfinite(sigma) and sigma >= 0):
        raise ValueError(f"sigma must be >= 0 and finite, got {sigma!r}")
    if sigma == 0:
        return ts
    rng = np.random.default_rng(seed)
    out = np.array(ts.samples, dtype=np.result_type(ts.samples, float), order="C")
    flat = out.reshape(-1)  # a view, since out is C-contiguous
    for part in (flat.real, flat.imag) if np.iscomplexobj(flat) else (flat,):
        for lo in range(0, part.size, _BLOCK):
            block = part[lo : lo + _BLOCK]
            block += rng.normal(0.0, sigma, block.size)
    return TimeSeries(out, ts.dt, ts.t0)


def _checked_pair(reference, candidate) -> tuple[np.ndarray, list]:
    """The reference's samples and the candidate's as one block, of one shape."""
    ref, cand = (x.samples if isinstance(x, TimeSeries) else np.asarray(x)
                 for x in (reference, candidate))
    if ref.shape != cand.shape:
        raise ValueError(f"shape mismatch: {ref.shape} vs {cand.shape}")
    return ref, [cand]


def relative_rms_error(
    reference: TimeSeries | np.ndarray, candidate: TimeSeries | np.ndarray
) -> float:
    """l2 norm of (reference - candidate) over the l2 norm of reference, both
    first divided by a power of two near its peak, so no square overflows."""
    return _relative_errors(*_checked_pair(reference, candidate))[0]


def relative_max_error(
    reference: TimeSeries | np.ndarray, candidate: TimeSeries | np.ndarray
) -> float:
    """Peak absolute deviation over the peak absolute reference value."""
    return _relative_errors(*_checked_pair(reference, candidate))[1]


def _relative_errors(reference: np.ndarray, candidate_blocks) -> tuple[float, float]:
    """relative_rms_error and relative_max_error of a candidate given as its
    blocks along the last axis, first to last.

    The peak, the largest deviation and the sums of squares are taken by
    blocks, so no temporary spans the record; the sums are added in block
    order, and a single block gets those of ``np.linalg.norm``.
    """
    peak = float(np.max([np.max(np.abs(reference[..., k0 : k0 + _BLOCK]))
                         for k0 in range(0, reference.shape[-1], _BLOCK)]))
    if peak == 0:
        raise ValueError("reference signal has zero norm")
    scale = 2.0 ** (math.frexp(peak)[1] - 1)
    k0, err, ref, worst = 0, 0.0, 0.0, 0.0
    for cand in candidate_blocks:
        block = reference[..., k0 : k0 + cand.shape[-1]]
        k0 += cand.shape[-1]
        worst = np.maximum(worst, np.max(np.abs(block - cand)))
        block, cand = block / scale, cand / scale
        err += _sum_squares(block - cand)
        ref += _sum_squares(block)
    return float(np.sqrt(err) / np.sqrt(ref)), float(worst) / peak


def _sum_squares(x: np.ndarray) -> float:
    """Squared 2-norm of x's entries, summed as ``np.linalg.norm`` sums them."""
    x = x.ravel()
    if np.iscomplexobj(x):
        return x.real.dot(x.real) + x.imag.dot(x.imag)
    return x.dot(x)
