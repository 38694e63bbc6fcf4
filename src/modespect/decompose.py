"""Damped-mode extraction from snapshot data.

Implements the classical dynamic mode decomposition (best-fit linear
propagator between consecutive snapshots) and its delay-embedded variant,
which stacks ``d`` time-shifted copies of the reduced snapshots so that
single-sensor records with many oscillation modes become resolvable.  The
pipeline is: optional spatial SVD reduction, delay embedding plus a second
SVD reduction, least-squares propagator fit, eigen-extraction, amplitude
fitting over all snapshots, and reconstruction for error reporting.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import random
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .linalg import FixedCount, OptimalHardThreshold, Tolerance, TruncationPolicy
from .linalg import eig, lstsq, svd_econ, truncation_rank
from .linalg import _hard_threshold, _normalize_eigenvectors
from . import linalg
from .signals import TimeSeries, _relative_errors

__all__ = [
    "SizingError",
    "DegenerateInputError",
    "SnapshotMatrix",
    "Mode",
    "HodmdConfig",
    "Decomposition",
    "build_snapshots",
    "build_delay_embedding",
    "eigenvalue_to_rates",
    "dmd",
    "hodmd",
    "fit_amplitudes",
    "reconstruct",
]

# |Im(mu)| / |mu| below which an eigenvalue counts as real (unpaired mode)
_REAL_EIG_TOL = 1e-12
# relative eigenvalue distance below which numerically split duplicates merge
_MERGE_TOL = 1e-9
# |mu| / max|mu| below which an eigenvalue carries no usable dynamics
_ZERO_EIG_TOL = 1e-12
# cap on (K-1) * log|mu|: beyond this the mode's powers overflow the window
_LOG_RANGE = 600.0
# condition number of the amplitude fit above which a warning is emitted
_COND_WARN = 1e12
# subspace iteration for the leading singular triplets: fixed seed of the
# random start, oversampling beyond the kept rank, relative Ritz-value
# agreement that stops it, and its pass cap
_SKETCH_SEED = 0
_OVERSAMPLE = 10
_RITZ_RTOL = 1e-8
_MAX_PASSES = 40
# degree of the Chebyshev filter whose nodes shift the optimal-threshold passes
_CHEB_DEGREE = 3
# sketch width under Tolerance; a sketch wider than
# min(shape) / _SKETCH_FRACTION is no cheaper than the dense SVD
_SKETCH_WIDTH = 16
_SKETCH_FRACTION = 4
# columns per block of a delay matrix, and snapshots per block of the
# amplitude fit, so neither forms a long-side array; a power of two, as
# _power_blocks reaches lam**_BLOCK by squaring
_BLOCK = 4096
# rows per block of the short-side Gram matrix
_GRAM_BLOCK = 128
# design rows per chunk of the amplitude fit's complex product, which is
# written straight into the block's real [design | rhs] buffer
_FIT_ROWS = 256
# 1 - |c|^2 at or below which hodmd fits the propagator by lstsq: both fits
# lose ~eps / gap, and their eigenvalues agree to 1e-10 at a gap of 1e-5 but
# only to 3e-7 at 1e-9; a kept rank equal to the column count gives ~eps
_GAP_MIN = 1e-6


class SizingError(ValueError):
    """Snapshot count too small for the requested delay depth (needs K > 2d)."""


class DegenerateInputError(ValueError):
    """Input carries no usable signal (rank collapse in the snapshot data)."""


@dataclass(frozen=True, eq=False)
class SnapshotMatrix:
    """Equispaced state snapshots, one column per sampling instant."""

    data: np.ndarray  # (channels, snapshots)
    dt: float

    def __post_init__(self) -> None:
        data = np.atleast_2d(np.asarray(self.data))
        if data.ndim != 2:
            raise ValueError("snapshot data must be 2-D")
        if data.shape[1] < 2:
            raise ValueError("need at least two snapshots")
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be positive and finite, got {self.dt!r}")
        object.__setattr__(self, "data", data)

    @property
    def n_channels(self) -> int:
        return self.data.shape[0]

    @property
    def n_snapshots(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True, eq=False, slots=True)
class Mode:
    """One extracted damped-oscillation component.

    ``eigenvalue`` is the discrete-time pole ``exp((growth_rate +
    2j*pi*frequency_hz) * dt)`` for the sampling interval the mode was
    extracted at.  ``shape`` is the unit-norm spatial pattern, phase-fixed so
    its largest-magnitude entry is real positive.  For real input data only
    the non-negative-frequency member of each conjugate pair is reported and
    its amplitude is doubled, so a real signal reconstructs as
    ``Re(sum_m shape_m * eigenvalue_m**k * amplitude_m * exp(1j*phase_rad_m))``.
    Real eigenvalues (zero-frequency and Nyquist poles) stay single with
    undoubled amplitude.
    """

    frequency_hz: float
    growth_rate: float  # 1/s; negative decays, damping is -growth_rate
    amplitude: float
    phase_rad: float
    shape: np.ndarray
    eigenvalue: complex

    def __post_init__(self) -> None:
        if self.amplitude < 0:
            raise ValueError("amplitude must be >= 0")
        shape = np.atleast_1d(np.asarray(self.shape, dtype=complex))
        if shape.ndim != 1:
            raise ValueError("shape must be a vector")
        object.__setattr__(self, "shape", shape)

    @property
    def damping(self) -> float:
        """Decay rate in 1/s, positive for decaying modes."""
        return -self.growth_rate

    @property
    def b(self) -> complex:
        """Complex amplitude amplitude * exp(1j * phase_rad)."""
        return self.amplitude * cmath.exp(1j * self.phase_rad)


@dataclass(frozen=True)
class HodmdConfig:
    """Configuration of the delay-embedded decomposition.

    ``d`` is the delay depth; ``d = 1`` reduces the algorithm to classical
    DMD.  The two SVD reductions carry independent policies; the optional
    ``amplitude_policy`` prunes fitted modes ranked by amplitude.
    """

    d: int
    dt: float
    spatial_policy: TruncationPolicy = Tolerance(1e-10)
    temporal_policy: TruncationPolicy = Tolerance(1e-10)
    amplitude_policy: Optional[TruncationPolicy] = None

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValueError("d must be >= 1")
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be positive and finite, got {self.dt!r}")


@dataclass(frozen=True, eq=False)
class Decomposition:
    """Full decomposition output: mode list, errors, and configuration echo.

    ``relative_rms`` and ``relative_max`` are the errors of the reported
    modes: ``relative_rms_error`` and ``relative_max_error`` of
    ``reconstruct(dec, K)`` against the K snapshots, by blocks of 4,096.
    ``ranks`` records (spatial SVD rank, delay-space SVD rank, reported mode
    count).  ``real_input`` marks whether conjugate-pair reporting applies.
    ``amplitude_condition`` is the condition estimate of the amplitude fit
    (inf if its design matrix is singular); above 1e12 the fit also warns.
    ``amplitude_rank`` is the rank of that fit's design matrix, which has one
    column per eigenvalue that reached the fit; for real input, where one
    eigenvalue stands for each conjugate pair, two real columns per pair.
    Both describe the design matrix with each column scaled to unit norm.
    """

    modes: tuple[Mode, ...]
    relative_rms: float
    relative_max: float
    config: HodmdConfig
    ranks: tuple[int, int, int]
    real_input: bool = True
    amplitude_condition: float = math.nan
    amplitude_rank: int = 0


def build_snapshots(ts: TimeSeries, stacking: int = 1) -> SnapshotMatrix:
    """Arrange a time series as a snapshot matrix.

    Channels become rows.  ``stacking > 1`` additionally folds that many
    consecutive samples into one column (leftover samples at the end are
    dropped), so a single-channel series of length n yields a
    ``(stacking, n // stacking)`` matrix whose column-major flattening
    recovers the input.  The column spacing becomes ``stacking * dt``.
    """
    if stacking < 1:
        raise ValueError("stacking must be >= 1")
    x = np.atleast_2d(ts.samples)
    c, n = x.shape
    k = n // stacking
    if k < 2:
        raise ValueError(
            f"series too short: {n} samples give {k} columns at stacking {stacking}"
        )
    folded = x[:, : k * stacking].reshape(c, k, stacking)
    data = np.transpose(folded, (2, 0, 1)).reshape(stacking * c, k)
    return SnapshotMatrix(data, dt=ts.dt * stacking)


def build_delay_embedding(xhat: np.ndarray, d: int) -> np.ndarray:
    """Stack d time-shifted copies of the reduced snapshots.

    Column j of the result holds snapshots j, j+1, ..., j+d-1 vertically;
    an (n, K) input becomes (d*n, K-d+1).
    """
    xhat = np.atleast_2d(np.asarray(xhat))
    if xhat.ndim != 2:
        raise ValueError("snapshot input must be 2-D")
    if d < 1:
        raise ValueError("d must be >= 1")
    n, k = xhat.shape
    if k <= d:
        raise SizingError(f"need more snapshots than delay depth: K={k}, d={d}")
    m = k - d + 1
    # one new array: a reshape of the windows can be a read-only view of xhat
    windows = np.lib.stride_tricks.sliding_window_view(xhat, m, axis=1)
    out = np.empty((d, n, m), dtype=xhat.dtype)
    out[:] = windows.transpose(1, 0, 2)
    return out.reshape(d * n, m)


def eigenvalue_to_rates(mu: complex, dt: float) -> tuple[float, float]:
    """Continuous-time (growth rate 1/s, angular frequency rad/s) of a pole.

    Inverts mu = exp((delta + 1j*omega) * dt); the angle is taken in
    (-pi, pi], so omega lies in (-pi/dt, pi/dt].
    """
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be positive and finite, got {dt!r}")
    mu = complex(mu)
    if mu == 0:
        raise ValueError("zero eigenvalue has no finite rates")
    delta = math.log(abs(mu)) / dt
    angle = math.atan2(mu.imag, mu.real)
    if angle == -math.pi:
        angle = math.pi
    return delta, angle / dt


def _power_blocks(lam: np.ndarray, k: int):
    """lam_m**j for j = 0 .. k-1 as (modes, <= _BLOCK) blocks, first to last.

    Every power is a product, off by about j * eps relative (Higham 2002,
    sec. 3.1): in the first block columns [h, 2h) are columns [0, h) times
    lam**h, found by squaring, and each later block is the one before times
    the last square, lam**_BLOCK.  So a real eigenvalue keeps real powers,
    a zero one gives 1, 0, 0, ..., and no power past lam**(k-1) is formed
    to overflow beyond the _LOG_RANGE cap.
    """
    n = min(k, _BLOCK)
    block = np.empty((lam.size, n), dtype=np.result_type(lam, 1.0))
    block[:, 0] = 1.0
    step, h = lam[:, None], 1  # lam**h
    while h < n:
        np.multiply(block[:, : min(h, n - h)], step, out=block[:, h : 2 * h])
        h *= 2
        if h < k:
            step = step * step
    yield block
    for k0 in range(_BLOCK, k, _BLOCK):
        block = block[:, : k - k0] * step
        yield block


def _column_norms(p: np.ndarray) -> np.ndarray:
    """2-norm of each column, taken below the column's peak so no square overflows.

    A peak below 1 is taken as 1: such squares cannot overflow, and a
    decayed mode's tiny or zero peak would overflow the division.
    """
    peak = np.maximum(np.abs(p).max(axis=0), 1.0)
    return peak * np.linalg.norm(p / peak, axis=0)


def _fit_b(
    shapes: np.ndarray, lam: np.ndarray, data: np.ndarray
) -> tuple[np.ndarray, float, int]:
    """Least-squares model amplitudes over all snapshots, the fit's condition
    and its rank.

    Minimizes sum_k || x_k - sum_m shape_m * lam_m**k * b_m ||^2 with each
    design column scaled to unit norm, so a mode whose powers are tiny next
    to another's stays in the fit; the solution is unscaled afterwards.
    For real data each non-real eigenvalue stands for its conjugate pair,
    whose lower member takes conj(b_m): writing b_m = (y_re + 1j y_im) /
    sqrt(2) turns the pair's g b_m + conj(g b_m) into sqrt(2) Re(g) y_re -
    sqrt(2) Im(g) y_im, so the fit runs in real arithmetic over two columns
    per pair and Re(g) per real eigenvalue.  That is a unitary change of
    unknowns: b_m and the singular values are those of the complex fit over
    both members.  The pair's sum is Re(g B_m), and the model amplitude
    B_m = 2 b_m is returned, as :class:`Mode` reports it (b_m for a real
    eigenvalue).  The design matrix is never built whole: two walks of
    :func:`_power_blocks` give the powers, one for the column norms and one
    for the design, whose blocks of _BLOCK snapshots go to :func:`_tsqr` as
    [design | rhs], each written into one buffer by chunks of _FIT_ROWS
    rows.  ``lstsq`` takes the minimum-norm solution and the rank
    from its R factor, with the cut-off gelsd applies to the whole design,
    eps * max(rows, columns).  The condition estimate is the ratio of the
    scaled design's extreme singular values; an ill-conditioned system also
    warns with both.
    """
    m, k = data.shape
    n = lam.size
    norms = np.array([_column_norms(p.T) for p in _power_blocks(lam, k)])
    scale = _column_norms(norms) * np.linalg.norm(shapes, axis=0)
    scale[scale == 0] = 1.0  # a zero shape keeps its zero column
    unit = shapes / scale

    real = not np.iscomplexobj(data)
    pair = _pair_sides(lam) != 0
    root2 = math.sqrt(2.0)
    h = np.count_nonzero(pair)
    width = (n + h if real else n) + 1
    step = max(1, _FIT_ROWS // m)

    def rows(k0, p):  # [design | rhs] of the p.shape[1] snapshots from k0
        out = np.empty((p.shape[1] * m, width), dtype=float if real else complex)
        for j in range(0, p.shape[1], step):  # the complex product by row chunks
            a = (p.T[j : j + step, None, :] * unit[None, :, :]).reshape(-1, n)
            chunk = out[j * m : j * m + len(a)]
            if real:
                chunk[:, :h] = root2 * a.real[:, pair]
                chunk[:, h : 2 * h] = -root2 * a.imag[:, pair]
                chunk[:, 2 * h : -1] = a.real[:, ~pair]
            else:
                chunk[:, :-1] = a
        out[:, -1] = data[:, k0 : k0 + p.shape[1]].T.reshape(-1)
        return out

    for r in _tsqr(map(rows, range(0, k, _BLOCK), _power_blocks(lam, k))):
        pass
    cols = r.shape[1] - 1
    rcond = np.finfo(float).eps * max(k * m, cols)
    sol, _, rank, svals = np.linalg.lstsq(r[:, :-1], r[:, -1], rcond=rcond)
    if real:
        y, sol = sol, np.empty(n, dtype=complex)
        # x2 after the division: x * sqrt(2) need not be 2 * (x / sqrt(2))
        sol[pair] = 2.0 * ((y[:h] + 1j * y[h : 2 * h]) / root2)
        sol[~pair] = y[2 * h :]
    sol = sol / scale
    smin = svals[-1]
    cond = math.inf if smin == 0 else float(svals[0] / smin)
    if rank < cols or cond > _COND_WARN:
        warnings.warn(
            f"amplitude fit is ill-conditioned (cond ~ {cond:.3e}, rank "
            f"{rank}/{cols}); minimum-norm solution used",
            RuntimeWarning,
            stacklevel=3,
        )
    return sol, cond, int(rank)


def _modulus(z: np.ndarray) -> np.ndarray:
    """|z| per element via hypot, bit-identical to abs(); np.abs may differ (SIMD)."""
    return np.hypot(z.real, z.imag)


def _mode_columns(modes: Sequence[Mode]) -> tuple[np.ndarray, ...]:
    """frequency_hz, growth_rate, amplitude, phase_rad, eigenvalue and b arrays
    of a mode list, then its (channels, modes) shape matrix."""
    n = len(modes)
    m = modes[0].shape.size if modes else 1
    rates = [(x.frequency_hz, x.growth_rate, x.amplitude, x.phase_rad) for x in modes]
    lam = np.array([x.eigenvalue for x in modes], dtype=complex)
    b = np.array([x.b for x in modes], dtype=complex)
    shapes = np.array([x.shape for x in modes], dtype=complex).reshape(n, m)
    return (*np.reshape(rates, (n, 4)).T, lam, b, shapes.T)


def fit_amplitudes(modes: Sequence[Mode], x: SnapshotMatrix) -> np.ndarray:
    """Complex amplitude per mode, fitted against every snapshot of ``x``.

    These are the model amplitudes of :func:`reconstruct` (:func:`_fit_b`):
    for real data a non-real mode carries twice each pair member's amplitude.
    """
    if len(modes) == 0:
        raise ValueError("mode list is empty")
    *_, lam, _, shapes = _mode_columns(modes)
    if shapes.shape[0] != x.n_channels:
        raise ValueError(
            f"shape length {shapes.shape[0]} does not match {x.n_channels} channels"
        )
    return _fit_b(shapes, lam, x.data)[0]


def _merge_duplicates(
    lam: np.ndarray, shapes: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Merge eigenvalues equal within _MERGE_TOL relative; amplitudes summed.

    Each still unassigned eigenvalue, in index order, leads a group of every
    unassigned eigenvalue within tolerance of it.  The merged contribution
    keeps the combined weighted shape, re-split into a unit shape and a
    complex amplitude; the surviving eigenvalue is the member with the largest
    fitted amplitude, the lowest index on ties.
    """
    mag = _modulus(lam)
    taken = np.zeros(lam.size, dtype=bool)
    members = []  # one ascending index array per group
    for i in range(lam.size):
        if not taken[i]:
            tail = slice(i, None)
            scale = np.maximum(mag[i], mag[tail])
            new = (_modulus(lam[i] - lam[tail]) <= _MERGE_TOL * scale) & ~taken[tail]
            taken[tail] |= new
            members.append(i + np.flatnonzero(new))
    if len(members) == lam.size:
        return lam, shapes, b
    strength = _modulus(b)
    out = []
    for idx in members:
        rep = idx[np.argmax(strength[idx])]
        combined = shapes[:, idx] @ b[idx]
        norm = np.linalg.norm(combined)
        if norm == 0:
            out.append((rep, shapes[:, rep], 0.0))
            continue
        unit = _normalize_eigenvectors(combined[:, None])[:, 0]
        # phase moved out of the shape goes back into the amplitude
        pivot = np.argmax(np.abs(unit))
        out.append((rep, unit, norm * (combined[pivot] / (norm * unit[pivot]))))
    reps, out_shapes, out_b = zip(*out)
    return lam[list(reps)], np.column_stack(out_shapes), np.array(out_b, dtype=complex)


def _pair_sides(lam: np.ndarray) -> np.ndarray:
    """+1 for the upper member of a conjugate pair, -1 for the lower, 0 if real."""
    imag_tol = _REAL_EIG_TOL * _modulus(lam)
    return (lam.imag > imag_tol).astype(int) - (lam.imag < -imag_tol)


def _amplitude_truncate(
    lam: np.ndarray,
    shapes: np.ndarray,
    b: np.ndarray,
    policy: TruncationPolicy,
    real_input: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Drop weak modes.

    The policy is applied to the amplitude sequence sorted descending (square
    aspect ratio for the hard-threshold rule); everything at or above the
    cut-off amplitude survives.  For real input each non-real eigenvalue
    stands for its conjugate pair, whose model amplitude it carries, so its
    half of that amplitude enters the sequence twice, once per member.
    """
    members = 1 + (_pair_sides(lam) != 0) if real_input else 1
    strength = _modulus(b) / members
    ranked = np.sort(np.repeat(strength, members))[::-1]
    r = truncation_rank(ranked, policy, (ranked.size, ranked.size))
    keep = strength >= ranked[r - 1]
    if not keep.any():
        keep[np.argmax(strength)] = True
    return lam[keep], shapes[:, keep], b[keep]


def _report_modes(
    lam: np.ndarray, shapes: np.ndarray, b: np.ndarray, dt: float
) -> list[Mode]:
    """The modes of eigenvalues, unit shapes and model amplitudes (:func:`_fit_b`).

    Modes are ordered by frequency, growth rate, then descending amplitude.
    """
    lam = lam.astype(complex)  # real eigenvalues are reported as complex too
    # math.log/atan2 per mode: numpy's SIMD log/arctan2 may differ in the last bit
    rates = [eigenvalue_to_rates(mu, dt) for mu in lam.tolist()]
    growth, omega = np.reshape(rates, (-1, 2)).T
    freq = omega / (2.0 * math.pi)
    amp = _modulus(b)
    order = np.lexsort((-amp, growth, freq))
    columns = (x[order].tolist() for x in (freq, growth, amp, b, lam))
    return [
        Mode(f, g, a, cmath.phase(bi) if a > 0 else 0.0, shape, mu)
        for f, g, a, bi, mu, shape in zip(*columns, shapes.T[order])
    ]


def reconstruct(dec: Decomposition, n_samples: int) -> TimeSeries:
    """Time series regenerated from a decomposition's reported modes."""
    if not dec.modes:
        raise ValueError("decomposition has no modes")
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    samples = np.hstack(list(_model_blocks(dec.modes, n_samples, dec.real_input)))
    if samples.shape[0] == 1:
        samples = samples[0]
    return TimeSeries(samples, dt=dec.config.dt)


def _model_blocks(modes: Sequence[Mode], k: int, real: bool):
    """The modes' sum over snapshots 0 .. k-1, by the blocks of
    :func:`_power_blocks`; its real part for a real record."""
    *_, lam, b, shapes = _mode_columns(modes)
    weights = shapes * b
    for p in _power_blocks(lam, k):
        block = weights @ p
        yield block.real if real else block


def _assemble(
    x: SnapshotMatrix,
    shapes: np.ndarray,
    lam: np.ndarray,
    cfg: HodmdConfig,
    ranks: tuple[int, int],
) -> Decomposition:
    """Steps shared by both decompositions: amplitudes, pruning, reporting, errors.

    One mask drops the eigenvalues that carry no usable mode: zero poles,
    poles whose powers would pass _LOG_RANGE, zero shapes and the lower
    member of a real record's conjugate pair, whose upper member stands for
    it through the amplitude fit, the merge, the pruning and the report.
    """
    real_input = not np.iscomplexobj(x.data)
    k = x.n_snapshots

    lam_abs = _modulus(lam)
    with np.errstate(divide="ignore"):  # a zero pole, which the mask drops
        keep = (k - 1) * np.log(lam_abs) < _LOG_RANGE
    keep &= lam_abs > _ZERO_EIG_TOL * lam_abs.max(initial=0.0)
    keep &= np.linalg.norm(shapes, axis=0) > 0
    if real_input:
        keep &= _pair_sides(lam) >= 0
    if not keep.any():
        raise DegenerateInputError("no eigenvalue with a usable pole and shape")
    lam, shapes = lam[keep], _normalize_eigenvectors(shapes[:, keep].astype(complex))

    b, cond, rank = _fit_b(shapes, lam, x.data)
    lam, shapes, b = _merge_duplicates(lam, shapes, b)
    if cfg.amplitude_policy is not None:
        lam, shapes, b = _amplitude_truncate(
            lam, shapes, b, cfg.amplitude_policy, real_input
        )

    # the merge and the pruning each keep one mode at least
    modes = _report_modes(lam, shapes, b, cfg.dt)
    rms, worst = _relative_errors(x.data, _model_blocks(modes, k, real_input))
    return Decomposition(
        modes=tuple(modes),
        relative_rms=rms,
        relative_max=worst,
        config=cfg,
        ranks=(ranks[0], ranks[1], len(modes)),
        real_input=real_input,
        amplitude_condition=cond,
        amplitude_rank=rank,
    )


class _DelayMatrix:
    """The delay embedding of ``reduced`` at depth ``d``, built only in parts.

    :func:`_column_blocks` builds it by blocks of _BLOCK columns, each a
    C-contiguous ``build_delay_embedding`` of the snapshots it spans.  A
    wide one of more than one block is read only that way, except by the
    dense SVD; :func:`_held` builds any other whole.
    """

    def __init__(self, reduced: np.ndarray, d: int):
        self.reduced, self.d = reduced, d
        self.shape = (d * reduced.shape[0], reduced.shape[1] - d + 1)
        self.dtype = reduced.dtype

    def block(self, c: int) -> np.ndarray:
        """Columns c .. c+_BLOCK-1."""
        # the embedding needs two columns: a last block of one takes the
        # column before it too, then drops it
        lo = min(c, self.shape[1] - 2)
        b = build_delay_embedding(self.reduced[:, lo : c + _BLOCK + self.d - 1], self.d)
        return b if lo == c else np.ascontiguousarray(b[:, c - lo :])

    def whole(self) -> np.ndarray:
        return build_delay_embedding(self.reduced, self.d)


def _held(a):
    """``a`` itself if an array or wide over several column blocks, else built whole."""
    if isinstance(a, np.ndarray) or a.shape[0] < a.shape[1] > _BLOCK:
        return a
    return a.whole()


def _column_block(a, c: int) -> np.ndarray:
    """Columns c .. c+_BLOCK-1 of an array (a view) or of a :class:`_DelayMatrix`."""
    return a[:, c : c + _BLOCK] if isinstance(a, np.ndarray) else a.block(c)


def _column_blocks(a):
    """Blocks of _BLOCK columns of ``a``, one at a time, first to last."""
    return (_column_block(a, c) for c in range(0, a.shape[1], _BLOCK))


def _tsqr(blocks, r=None):
    """The R factor of the rows so far, yielded after each of ``blocks``.

    Sequential TSQR (Demmel, Grigori, Hoemmen & Langou 2012): each block of
    rows c_i goes below the last R factor, [r_{i-1}; c_i] = z_i r_i, in one
    buffer sized at the first QR for max(rows of r, columns) + block rows,
    which no block as long grows; the block is dropped before LAPACK copies
    it.  Each factor is a new array.  Without a starting ``r`` the first
    block comes back as it is, so a one-block least squares is not reduced;
    a 0-row ``r`` reduces it too.
    """
    buf = None
    for b in blocks:
        if r is not None:  # else the block itself is the first factor
            top, end, n = len(r), len(r) + len(b), b.shape[1]
            if buf is None or end > len(buf):
                buf = np.empty((max(top, n) + len(b), n), dtype=np.result_type(r, b))
            buf[:top], buf[top:end] = r, b
            del b
            b = np.linalg.qr(buf[:end], mode="r")
        r = b
        yield r


def _power_pass(a, q: np.ndarray, shift: float = 0.0):
    """A running QR of a^H q (:func:`_tsqr`) and the product (a a^H - shift) q.

    The rows c_i of a^H q for each column block go into both and are dropped.
    Returns the last R factor, whose singular values are those of q^H a, the
    product, and the R factors above the blocks, for :func:`_ritz_triplets`.
    """
    qh, y = q.conj().T, 0

    def rows(b):
        nonlocal y
        c = (qh @ b).conj().T  # faster than b.conj().T @ q
        y = y + b @ c
        return c

    tops = [np.zeros((0, q.shape[1]), dtype=np.result_type(a.dtype, q.dtype))]
    tops += _tsqr(map(rows, _column_blocks(a)), tops[0])
    return tops.pop(), (y - shift * q if shift else y), tops


def _short_side_gram(a) -> np.ndarray:
    """Lower triangle of conj(b) @ b.T, b = a or a.T, whichever has fewer rows.

    That is the conjugate of ``a a^H`` or ``a^H a``, so it has their
    eigenvalues.  A wide ``a`` is summed over its column blocks, each in
    _GRAM_BLOCK-row blocks; the strict upper triangle stays zero.
    """
    n = min(a.shape)
    blocks = _column_blocks(a) if a.shape[0] <= a.shape[1] else [_held(a).T]
    g = np.zeros((n, n), dtype=np.result_type(a.dtype, np.float32))
    for c, b in enumerate(blocks):
        for i in range(0, n, _GRAM_BLOCK):
            j = min(i + _GRAM_BLOCK, n)
            if c == 0:  # in place: a matrix of one block takes no temporary
                np.matmul(b[i:j].conj(), b[:j].T, out=g[i:j, :j])
            else:
                g[i:j, :j] += b[i:j].conj() @ b[:j].T
        del b
    return g


def _gram_values(g: np.ndarray, shape: tuple[int, int]) -> Optional[np.ndarray]:
    """Singular values sqrt(eigvalsh(g)) of a matrix of ``shape``, if certified.

    ``g`` is its short-side Gram (lower triangle).  Each eigenvalue lam gets
    the error bar delta = (rows + cols) * eps * trace(g), so each singular
    value lies in [sqrt(max(lam - delta, 0)), sqrt(lam + delta)] and the
    hard threshold between omega * median of the lower and of the upper
    ends.  The values are returned only if the lower ends above the upper
    threshold are as many as the upper ends above the lower threshold: then
    they give the SVD's optimal-hard-threshold rank.
    """
    delta = sum(shape) * np.finfo(g.dtype).eps * float(np.trace(g).real)
    lam = np.linalg.eigvalsh(g, UPLO="L")[::-1]
    lo = np.sqrt(np.maximum(lam - delta, 0.0))
    hi = np.sqrt(np.maximum(lam + delta, 0.0))
    rank = np.count_nonzero(lo > _hard_threshold(hi, shape))
    if rank != np.count_nonzero(hi > _hard_threshold(lo, shape)):
        return None
    return np.sqrt(np.maximum(lam, 0.0))


def _sketched_svd(a, policy: TruncationPolicy):
    """Singular values and leading triplets by subspace iteration, or None.

    ``a`` is an array or a :class:`_DelayMatrix`.  Returns (values, u, s,
    v): ``values`` has min(shape) entries and gives the same rank under
    ``policy`` as the full singular values; (u, s, v) are the sketch's Ritz
    triplets, of which the kept ones have converged.

    ``OptimalHardThreshold`` takes every singular value as the square root
    of an eigenvalue of the short-side Gram matrix (:func:`_gram_values`),
    or returns None if their error bars cannot prove the SVD's rank, as on
    a clean record.  The iteration stops once the kept Ritz values match
    them to _RITZ_RTOL.  A delay matrix is summed into the Gram block by
    block and built whole (:func:`_held`) only after ``eigvalsh``, so it is
    never resident next to the Gram and LAPACK's copy of it.

    Those values also give the unwanted part of the spectrum of a a^H, the
    interval [sigma_min**2, sigma_{w+1}**2] for a sketch of width w.  Each
    pass after the start feeds the next QR (a a^H - mu) q instead of a a^H q,
    mu cycling through the _CHEB_DEGREE Chebyshev nodes of that interval,
    so every _CHEB_DEGREE passes apply the Chebyshev filter that damps it
    most (Zhou, Saad, Tiago & Chelikowsky 2006): a noisy glide window
    converges in ~6 passes instead of ~10.  The filter is applied as a
    product of degree-1 factors with a QR after each, so no basis spans a
    wider range than the lambda_1 / lambda_r of about one plain pass.  The
    whole polynomial at once raises that range to its degree, so the weakest
    kept directions sink towards rounding level: a degree-4 filter applied
    that way did not converge on some glide windows.

    ``Tolerance`` and ``FixedCount`` keep the sketch: squaring the values
    would put a cut-off of 1e-10 * sigma_1 at 1e-20 * sigma_1**2, below the
    Gram's rounding error.  With no certified values their passes are
    unshifted.  They take the rank from the Ritz values and stop once two
    passes agree to _RITZ_RTOL; ``values`` are those Ritz values padded
    with zeros, which lie below the cut-off like every value the sketch
    left out.

    None leaves the decision to :func:`_truncated_svd`'s other paths: the
    sketch would pass min(shape) / _SKETCH_FRACTION columns, its cut-off
    lies outside it, the passes did not converge, or the leading singular
    value is zero.  Trial ranks use ``linalg.truncation_rank``, so that
    :func:`_truncated_svd` decides each reduction's rank in one call.

    The start and every pass are one :func:`_power_pass`, and the running
    QR of the last gives the Ritz triplets (:func:`_ritz_triplets`), whose v
    is formed by blocks when read: a sketch given up leaves no long-side
    array resident under the dense SVD.
    """
    if _SKETCH_FRACTION * (1 + _OVERSAMPLE) > min(a.shape):
        return None  # no room for even a rank-1 sketch
    exact = None
    if isinstance(policy, OptimalHardThreshold):
        exact = _gram_values(_short_side_gram(a), a.shape)
        if exact is None or exact[0] == 0:
            return None
        rank = linalg.truncation_rank(exact, policy, a.shape)
        width = rank + _OVERSAMPLE
    elif isinstance(policy, FixedCount):
        width = policy.n + _OVERSAMPLE
    else:
        width = _SKETCH_WIDTH
    if _SKETCH_FRACTION * width > min(a.shape):
        return None
    m = _held(a)
    # the range finder needs no Gaussian start, its stopping test decides
    # accuracy; the standard library draws the signed bytes because
    # importing numpy.random would cost every process ~6 MB of memory
    bits = random.Random(_SKETCH_SEED).randbytes(m.shape[0] * width)
    g = np.frombuffer(bits, dtype=np.int8).reshape(m.shape[0], width)
    shifts = (0.0,)
    if exact is not None:  # Chebyshev nodes on [sigma_min**2, sigma_{w+1}**2]
        lo, hi = exact[-1] ** 2, exact[width] ** 2
        theta = np.pi * (np.arange(_CHEB_DEGREE) + 0.5) / _CHEB_DEGREE
        shifts = hi - (hi - lo) * (1 - np.cos(theta)) / 2
    y = _power_pass(m, g.astype(float))[1]
    reference = exact
    for i in range(_MAX_PASSES):
        q = np.linalg.qr(y)[0]
        r, y, tops = _power_pass(m, q, shifts[i % len(shifts)])
        s = np.linalg.svd(r)[1]  # the Ritz values
        if exact is None:
            rank = linalg.truncation_rank(s, policy, (width, width))
            if rank == width:
                return None  # the cut-off lies outside the sketch
        if reference is not None and s[0] > 0:
            head = reference[:rank]
            if np.all(np.abs(s[:rank] - head) <= _RITZ_RTOL * head):
                break
        reference = s if exact is None else exact
    else:
        return None
    u, s, v = _ritz_triplets(m, q, r, tops)
    if exact is None:
        exact = np.concatenate([s, np.zeros(min(m.shape) - width)])
    return exact, u, s, v


def _ritz_triplets(a, q: np.ndarray, r: np.ndarray, tops: list):
    """Ritz triplets (u, s, v) of ``a`` on the range of the orthonormal q.

    ``r`` and ``tops`` are the running QR of a^H q = z r by
    :func:`_power_pass`.  The triplets of q^H a come from the small factor
    alone: r^H = ub s vb^H gives u = q ub and v = z vb.  Block i's rows of
    z are the rows of z_i below r_{i-1}, times the rows of z_{i+1} above
    c_{i+1}, and so on to the last step.  v is a function that forms them
    last block first: it rebuilds each block, takes z_i again from the same
    QR, yields the block's rows of v and carries the product of the upper
    rows, a w x w matrix, to the block before.  A matrix of one block is
    one QR of a^H q, and v is z vb.
    """
    ub, s, vbh = np.linalg.svd(r.conj().T)
    vb = vbh.conj().T
    qh = q.conj().T

    def blocks():
        w = vb
        for i in range(len(tops) - 1, -1, -1):
            c = (qh @ _column_block(a, i * _BLOCK)).conj().T
            z = np.linalg.qr(np.vstack([tops[i], c]))[0]
            top = len(tops[i])
            yield z[top:] @ w
            if i:
                w = z[:top] @ w
            del c, z

    return q @ ub, s, blocks


def _blocked_svd(a, policy: TruncationPolicy):
    """Every singular value and the kept triplets of a wide matrix, or None.

    Returns (values, u, s, v) as :func:`_sketched_svd` does, or None when
    ``a`` is not wide (rows < columns > _BLOCK) or its leading singular value
    is zero.  a^H = Q R, so the rows x rows factor R^H = U S W^H holds every
    singular value and the left vectors of a.  R comes from a running QR of
    the blocks of a^H (:func:`_tsqr`); the trial rank under ``policy`` takes
    the kept columns of U, and :func:`_ritz_triplets` forms the triplets
    from a second running QR, of a^H U.  That pass costs less than v's rows
    taken from the first QR, whose Q factors are rows wide, not rank wide:
    ten times less at 100 rows and rank 16.
    """
    if not a.shape[0] < a.shape[1] > _BLOCK:
        return None
    r = np.zeros((0, a.shape[0]), dtype=np.result_type(a.dtype, np.float32))
    # map, not a generator expression: no block stays bound through the QR
    for r in _tsqr(map(lambda b: b.conj().T, _column_blocks(a)), r):
        pass
    ur, values, _ = np.linalg.svd(r.conj().T)
    if values[0] == 0:
        return None
    rank = linalg.truncation_rank(values, policy, a.shape)
    q = ur[:, :rank]
    r, _, tops = _power_pass(a, q)
    return (values, *_ritz_triplets(a, q, r, tops))


def _truncated_svd(a, policy: TruncationPolicy):
    """Rank under ``policy`` and the kept triplets (rank, u, s, v) of ``a``.

    ``a`` is an array or a :class:`_DelayMatrix`.  ``a ~= u @ diag(s) @
    v^H`` over the kept triplets; v is a function that yields the kept
    columns of v's row blocks, the last block first, so a wide matrix's v
    is never held whole unless its reader stacks it.  Subspace iteration
    finds them where it can.  Otherwise, as for an uncertified
    optimal-threshold Gram, a wide matrix of more than one column block
    gets every singular value from one blocked QR pass
    (:func:`_blocked_svd`), and every other shape the dense economy SVD of
    the matrix built whole, so the 500 x 525 matrix of a saturated segment
    gets the dense result exactly.  Each way one ``truncation_rank`` call
    on the matrix's shape decides the rank, unless the leading singular
    value is zero or overflows: that raises ``DegenerateInputError``.
    """
    found = _sketched_svd(a, policy) or _blocked_svd(a, policy)
    if found is None:
        sv = svd_econ(a if isinstance(a, np.ndarray) else a.whole())
        s = sv.singular_values
        found = s, sv.left_vectors, s, lambda: iter([sv.right_vectors])
    values, u, s, v = found
    if not 0 < values[0] < np.inf:
        raise DegenerateInputError(
            f"{a.shape[0]}x{a.shape[1]} matrix's leading singular value is "
            f"{values[0]}, not a positive finite float64"
        )
    r = truncation_rank(values, policy, a.shape)
    return r, u[:, :r], s[:r], lambda: (block[:, :r] for block in v())


def _shift_core(v, s: np.ndarray, rows: int) -> np.ndarray:
    """M of the least-squares propagator S M S^-1 of the kept triplets (s, v).

    ``v()`` yields the right singular vectors' row blocks, last first, whose
    leading ``s.size`` columns are read; ``rows`` is their row count.

    The leading snapshots' Gram is S (I - c c^H) S with c = conj(v[-1]), so
    Sherman-Morrison gives M = v[1:]^H v[:-1] (I + c c^H / gap), gap = 1 -
    |c|^2.  A gap at or below _GAP_MIN takes ``lstsq`` on xbar = S v^H
    instead, with the whole design's cut-off, eps * max(rows - 1, s.size).
    Both go over v's row blocks, so v is never held whole, each extended by
    the first row of the block after it to count the pair across their
    boundary: the closed form adds up each block's v[1:]^H v[:-1], and
    ``lstsq`` reduces [xbar[:, :-1]^T | xbar[:, 1:]^T] by :func:`_tsqr`.
    """
    def blocks():  # the last block first, each with the first row of the next
        after = None
        for block in v():
            block = block[:, : s.size]
            if after is not None:
                block = np.vstack([block, after])
            after = block[:1].copy()
            yield block
            del block  # before the next block is formed

    rest = blocks()
    block = next(rest)
    c = block[-1].conj()
    gap = 1.0 - np.vdot(c, c).real
    rest = itertools.chain([block], rest)
    if gap <= _GAP_MIN:  # [xbar[:, :-1]^T | xbar[:, 1:]^T] of xbar = S v^H
        pairs = map(lambda b: np.hstack([b[:-1].conj() * s, b[1:].conj() * s]), rest)
        for r in _tsqr(pairs):
            pass
        rcond = np.finfo(float).eps * max(rows - 1, s.size)
        return lstsq(r[:, : s.size], r[:, s.size :], rcond=rcond).T * s / s[:, None]
    core = functools.reduce(np.add, map(lambda b: b[1:].conj().T @ b[:-1], rest))
    core += np.outer(core @ c, c.conj() / gap)
    return core


def _check_samples(data: np.ndarray) -> None:
    """Reject a NaN or inf sample, or all-zero data; the SVD paths scan no entries."""
    if not np.all(np.isfinite(data)):
        raise DegenerateInputError("snapshot data contains non-finite samples")
    if not np.any(data):
        raise DegenerateInputError("all-zero snapshot matrix")


def dmd(x: SnapshotMatrix, policy: TruncationPolicy) -> Decomposition:
    """Classical dynamic mode decomposition of a snapshot matrix.

    The leading snapshots are reduced to their dominant left-singular
    subspace under ``policy``; the one-step propagator is fitted there in
    least squares and eigendecomposed.  Fails by design when the temporal
    complexity (number of exponential terms) exceeds the spatial dimension;
    use :func:`hodmd` for that regime.  Data with a non-finite sample or
    only zeros raises ``DegenerateInputError``.
    """
    data = x.data
    _check_samples(data)
    if x.n_snapshots < 3:
        raise ValueError("need at least 3 snapshots")
    x1, x2 = data[:, :-1], data[:, 1:]
    r, u, _, _ = _truncated_svd(x1, policy)
    y1 = u.conj().T @ x1
    y2 = u.conj().T @ x2
    propagator = lstsq(y1.T, y2.T).T
    lam, w = eig(propagator)
    shapes = u @ w
    cfg = HodmdConfig(
        d=1,
        dt=x.dt,
        spatial_policy=policy,
        temporal_policy=policy,
    )
    return _assemble(x, shapes, lam, cfg, ranks=(r, r))


def hodmd(x: SnapshotMatrix, cfg: HodmdConfig) -> Decomposition:
    """Delay-embedded decomposition of a snapshot matrix.

    Requires K > 2*d snapshots.  The spatial SVD reduction is skipped for
    one- or two-channel input; the delay-embedded matrix is reduced under
    ``cfg.temporal_policy``; mode shapes come from the first delay block of
    the lifted eigenvectors mapped back through the spatial basis.  Both
    reductions compute only the singular triplets they keep; which path
    finds them is told at :func:`_truncated_svd`, and how the sketch finds
    each policy's rank at :func:`_sketched_svd`.  The delay matrix goes to
    them as a :class:`_DelayMatrix`: a wide one of more than one _BLOCK of
    columns is built only by column blocks, except for the dense SVD.  The
    spatial reduction projects the snapshots onto its basis u, u^H x = S
    V^H, so only the propagator reads right singular vectors: the delay
    matrix's v, by row blocks, never held whole.  The amplitude fit
    (:func:`_fit_b`) and the reconstruction errors
    (:func:`_model_blocks`) go by blocks of snapshots, whose eigenvalue
    powers are products formed block by block (:func:`_power_blocks`).  So
    apart from the input and the spatial reduction's r x K ``reduced``, no
    array grows with K.  A delay-space rank equal to min(shape) at d > 1
    emits a ``RuntimeWarning``: every singular value was kept.  The
    propagator is the least-squares one over the kept triplets above eps *
    max(shape) * sigma_1, S M S^-1 with M from their right singular vectors
    (:func:`_shift_core`), so ``eig(M)`` gives its eigenvalues and S times
    M's eigenvectors its own (Schmid 2010, applied to the reduction of Le
    Clainche & Vega 2017).  With one spatial row every shape is that row's
    basis vector, so only eigenvalues are computed.
    Data with a non-finite sample or only zeros raises
    ``DegenerateInputError`` before any other check.
    """
    data = x.data
    _check_samples(data)
    m, k = data.shape
    if not math.isclose(x.dt, cfg.dt, rel_tol=1e-12, abs_tol=0.0):
        raise ValueError(f"dt mismatch: snapshots {x.dt}, config {cfg.dt}")
    if k <= 2 * cfg.d:
        raise SizingError(f"need K > 2*d snapshots: K={k}, d={cfg.d}")

    # 1. spatial reduction, skipped for one or two channels
    if m > 2:
        n_spat, basis, _, _ = _truncated_svd(data, cfg.spatial_policy)
        reduced = basis.conj().T @ data  # S V^H
    else:
        n_spat = m
        basis = np.eye(m)
        reduced = data

    # 2. delay embedding of the reduced snapshots, then a second reduction
    delay = _DelayMatrix(reduced, cfg.d)
    n_temp, ubar, s, v = _truncated_svd(delay, cfg.temporal_policy)
    full = min(delay.shape)
    if cfg.d > 1 and n_temp == full:
        # at d = 1 the embedding is the reduced snapshot matrix: full rank anyway
        warnings.warn(
            f"delay-space rank saturated at {n_temp}/{full} under "
            f"{cfg.temporal_policy}: every singular value is kept, so noise may "
            "be fitted as modes, or d may be too small",
            RuntimeWarning,
            stacklevel=2,
        )

    # 3. propagator S M S^-1 over the triplets above rounding level
    above = np.count_nonzero(s > np.finfo(float).eps * max(delay.shape) * s[0])
    ubar, s = ubar[:, :above], s[:above]
    core = _shift_core(v, s, delay.shape[1])
    del v  # a tall delay matrix built whole stays referenced by v until here
    if n_spat == 1:
        # every shape is basis[:, 0] times a scalar, which normalizing removes
        lam, _ = eig(core, vectors=False)
        shapes = np.repeat(basis[:, :1], lam.size, axis=1)
    else:
        # the propagator's eigenvectors are S w; shapes are their first delay block
        lam, w = eig(core)
        shapes = basis @ ((ubar[:n_spat] * s) @ w)

    # 4./5. amplitudes, pruning, reporting, reconstruction errors
    return _assemble(x, shapes, lam, cfg, ranks=(n_spat, n_temp))
