"""Sliding-window decomposition over long records and mode pooling.

Every window (or supplied segment) is decomposed independently; per-window
failures are recorded on the track instead of aborting the sweep, since long
real recordings contain dead stretches.  Pooled mode lists feed the kernel
density spectra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .decompose import (
    DegenerateInputError,
    HodmdConfig,
    Mode,
    SnapshotMatrix,
    SizingError,
    hodmd,
)
from .signals import TimeSeries

__all__ = ["GlideConfig", "ModeTrack", "gliding_hodmd", "batch_hodmd", "pool_modes"]


@dataclass(frozen=True)
class GlideConfig:
    """Sliding-window settings; the window must satisfy window_len > 2*d."""

    window_len: int
    hodmd: HodmdConfig
    hop: int = 64

    def __post_init__(self) -> None:
        if self.hop < 1:
            raise ValueError("hop must be >= 1")
        if self.window_len <= 2 * self.hodmd.d:
            raise SizingError(
                f"window_len must exceed 2*d: window_len={self.window_len}, "
                f"d={self.hodmd.d}"
            )


@dataclass(frozen=True, eq=False)
class ModeTrack:
    """Decomposition result of one window: position, modes, error metrics.

    ``amplitude_condition`` and ``amplitude_rank`` are the window's
    ``Decomposition`` fields of the same name, NaN and 0 on a failed window.
    """

    window_start_index: int
    window_start_time: float
    modes: tuple[Mode, ...]
    errors: tuple[float, float]  # (relative rms, relative max)
    failed: bool = False
    amplitude_condition: float = math.nan
    amplitude_rank: int = 0


def _decompose_window(
    data: np.ndarray, dt: float, cfg: HodmdConfig, start: int, start_time: float
) -> ModeTrack:
    """One window's track; bad samples or a failed factorization mark it failed."""
    try:
        dec = hodmd(SnapshotMatrix(np.atleast_2d(data), dt), cfg)
    except (DegenerateInputError, np.linalg.LinAlgError):
        return ModeTrack(start, start_time, (), (math.nan, math.nan), failed=True)
    return ModeTrack(
        start,
        start_time,
        dec.modes,
        (dec.relative_rms, dec.relative_max),
        amplitude_condition=dec.amplitude_condition,
        amplitude_rank=dec.amplitude_rank,
    )


def gliding_hodmd(ts: TimeSeries, cfg: GlideConfig) -> list[ModeTrack]:
    """Decompose a long record window by window.

    Windows start at sample indices 0, hop, 2*hop, ... while a full window
    fits; each is decomposed independently with ``cfg.hodmd``, so processing
    order cannot affect the result.
    """
    x = np.atleast_2d(ts.samples)
    n = x.shape[-1]
    if n < cfg.window_len:
        raise ValueError(
            f"record ({n} samples) shorter than one window ({cfg.window_len})"
        )
    tracks = []
    for start in range(0, n - cfg.window_len + 1, cfg.hop):
        segment = x[:, start : start + cfg.window_len]
        tracks.append(
            _decompose_window(
                segment, ts.dt, cfg.hodmd, start, ts.t0 + start * ts.dt
            )
        )
    return tracks


def batch_hodmd(segments: Sequence[TimeSeries], cfg: HodmdConfig) -> list[ModeTrack]:
    """Independent decomposition of explicit segments (one track per segment).

    ``window_start_index`` holds the segment's position in the input list;
    ``window_start_time`` its t0.  Degenerate segments are flagged failed,
    not fatal; undersized segments violate the K > 2*d precondition and raise.
    """
    if len(segments) == 0:
        raise ValueError("empty segment list")
    tracks = []
    for i, seg in enumerate(segments):
        data = np.atleast_2d(seg.samples)
        if data.shape[-1] <= 2 * cfg.d:
            raise SizingError(
                f"segment {i} has {data.shape[-1]} samples, needs more than {2 * cfg.d}"
            )
        tracks.append(_decompose_window(data, seg.dt, cfg, i, seg.t0))
    return tracks


def pool_modes(tracks: Sequence[ModeTrack], amplitude_floor: float = 0.0) -> list[Mode]:
    """Concatenate per-window modes with amplitude >= floor.

    Window order, then per-window order, is preserved.
    """
    if not (amplitude_floor >= 0):
        raise ValueError("amplitude_floor must be >= 0")
    return [
        mode
        for track in tracks
        for mode in track.modes
        if mode.amplitude >= amplitude_floor
    ]
