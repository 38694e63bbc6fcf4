"""Command-line front end.

Subcommands: ``synth``, ``decompose``, ``spectrum``, ``fft``, ``glide``,
``compare``.  Settings come from CLI flags, which override an optional INI
config file (``--config``); see :mod:`modespect.config` for the file layout.

Exit codes: 0 ok, 1 I/O failure or malformed input file, 2 invalid
configuration, 3 window sizing violation (K <= 2*d), 4 degenerate input
(all-zero or non-finite samples, or no usable modes).
Configuration is validated before any computation starts, and output files
are written only after the computation succeeds.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import get_args

import numpy as np

from . import fileio
from .config import (
    ConfigError,
    RunConfig,
    parse_bool,
    parse_components,
    parse_grid,
    parse_policy,
    pick,
)
from .decompose import (
    DegenerateInputError,
    HodmdConfig,
    SizingError,
    _mode_columns,
    build_snapshots,
    hodmd,
)
from .fourier import Window, WelchConfig, default_welch_config, periodogram, welch
from .glide import GlideConfig, gliding_hodmd, pool_modes
from .kds import KdsConfig, find_peaks, kds_gaussian, kds_lorentz
from .presets import PRESET_FS, PRESET_N, PRESET_NAMES, preset_components
from .signals import TimeSeries, add_gaussian_noise, synth_decaying_sum

__all__ = ["main", "entrypoint"]

EXIT_OK = 0
EXIT_IO = 1
EXIT_CONFIG = 2
EXIT_SIZING = 3
EXIT_DEGENERATE = 4


def _check_distinct_outputs(*paths) -> None:
    given = [str(p) for p in paths if p is not None]
    if len(set(given)) != len(given):
        raise ConfigError(f"output paths must be distinct, got {given}")


def _build_hodmd_config(args, cfg: RunConfig) -> HodmdConfig:
    """The [hodmd] settings, checked before the record is read.

    Its dt is a placeholder 1 until the record's own replaces it.
    """
    d = pick(args.d, cfg, "hodmd", "d", int, None)
    if d is None:
        raise ConfigError("delay depth d is required (--d or [hodmd] d)")
    spatial = pick(
        args.spatial, cfg, "hodmd", "spatial_policy", str, "tolerance:1e-10"
    )
    temporal = pick(
        args.temporal, cfg, "hodmd", "temporal_policy", str, "tolerance:1e-10"
    )
    amplitude = pick(args.amplitude, cfg, "hodmd", "amplitude_policy", str, "none")
    return HodmdConfig(
        d=d,
        dt=1.0,
        spatial_policy=_required_policy(spatial, "spatial_policy"),
        temporal_policy=_required_policy(temporal, "temporal_policy"),
        amplitude_policy=parse_policy(amplitude),
    )


def _required_policy(text: str, name: str):
    policy = parse_policy(text)
    if policy is None:
        raise ConfigError(f"{name} may not be 'none'")
    return policy


def _kds_config(args, cfg: RunConfig) -> KdsConfig:
    kernel = pick(args.kernel, cfg, "kds", "kernel", str, "gaussian")
    h = pick(args.h, cfg, "kds", "h", float, None)
    if h is None:
        raise ConfigError("kernel parameter h is required (--h or [kds] h)")
    weighting = pick(args.weighting, cfg, "kds", "weighting", str, "density")
    grid_text = pick(args.grid, cfg, "kds", "grid", str, None)
    tau_max = pick(args.tau_max, cfg, "kds", "tau_max", float, float("inf"))
    unit_num = pick(None, cfg, "kds", "lorentz_unit_numerator", parse_bool, True)
    if args.lorentz_sqrt_numerator:
        unit_num = False
    return KdsConfig(
        kernel=kernel,
        h=h,
        weighting=weighting,
        grid=parse_grid(grid_text) if isinstance(grid_text, str) else grid_text,
        lorentz_unit_numerator=unit_num,
        tau_max=tau_max,
    )


def _welch_settings(args, cfg: RunConfig, n_samples: int) -> WelchConfig:
    """The [fft] Welch settings; a segment length not given is the default
    for ``n_samples``, so a count of 0 checks the given settings alone."""
    seg = pick(args.segment_length, cfg, "fft", "segment_length", int, None)
    overlap = pick(args.overlap, cfg, "fft", "overlap_fraction", float, None)
    window = pick(args.window, cfg, "fft", "window", str, "hann")
    base = default_welch_config(n_samples)
    return WelchConfig(
        segment_length=seg if seg is not None else base.segment_length,
        overlap_fraction=overlap if overlap is not None else base.overlap_fraction,
        window=window,
    )


def _run_kds(modes, kds_cfg: KdsConfig):
    if not modes:
        raise DegenerateInputError("mode list is empty")
    if kds_cfg.kernel == "gaussian":
        return kds_gaussian(modes, kds_cfg)
    return kds_lorentz(modes, kds_cfg)


def _periodogram_window(args, cfg: RunConfig) -> str:
    window = pick(args.window, cfg, "fft", "window", str, "rectangular")
    if window not in get_args(Window):
        raise ConfigError(f"window must be one of {get_args(Window)}, got {window!r}")
    return window


def _fourier_method(args, cfg: RunConfig) -> str:
    """The [fft] method, its settings checked before the record is read."""
    method = pick(args.method, cfg, "fft", "method", str, "periodogram")
    if method == "welch":
        _welch_settings(args, cfg, 0)
    elif method == "periodogram":
        _periodogram_window(args, cfg)
    else:
        raise ConfigError(f"method must be periodogram or welch, got {method!r}")
    return method


def _fourier_spectrum(args, cfg: RunConfig, ts, method: str):
    """Periodogram or Welch estimate of ``ts`` under the [fft] settings."""
    if method == "welch":
        return welch(ts, _welch_settings(args, cfg, len(ts)))
    return periodogram(ts, _periodogram_window(args, cfg))


def _summary(dec) -> dict:
    """Ranks, reconstruction errors and the amplitude fit's condition and rank,
    shared by the decompose and compare reports.

    A non-finite error or condition (a singular fit) is written as null,
    since JSON has no infinity or NaN.
    """

    def finite(x: float) -> float | None:
        return x if math.isfinite(x) else None

    return {
        "ranks": dict(zip(("spatial", "temporal", "modes"), dec.ranks)),
        "relative_rms": finite(dec.relative_rms),
        "relative_max": finite(dec.relative_max),
        "amplitude_condition": finite(dec.amplitude_condition),
        "amplitude_rank": dec.amplitude_rank,
    }


def _cmd_synth(args, cfg: RunConfig) -> int:
    preset = pick(args.preset, cfg, "synth", "preset", str, None)
    fs = pick(args.fs, cfg, "synth", "fs", float, None)
    n = pick(args.n, cfg, "synth", "n", int, None)
    sigma = pick(args.noise_sigma, cfg, "synth", "noise_sigma", float, 0.0)
    seed = pick(args.seed, cfg, "synth", "seed", int, 0)
    add_gaussian_noise(TimeSeries(np.zeros(1), 1.0), sigma, seed)  # checks sigma first
    fs = fs if fs is not None else PRESET_FS
    n = n if n is not None else PRESET_N
    if preset is not None:
        components = list(preset_components(preset))
    else:
        entries = list(args.component or []) or cfg.component_entries()
        components = parse_components(entries)
    ts = synth_decaying_sum(components, fs=fs, n=n)
    if sigma:
        ts = add_gaussian_noise(ts, sigma, seed)
    fileio.write_timeseries(args.out, ts)
    return EXIT_OK


def _cmd_decompose(args, cfg: RunConfig) -> int:
    _check_distinct_outputs(args.out_modes, args.out_summary)
    hodmd_cfg = _build_hodmd_config(args, cfg)
    ts = fileio.read_timeseries(args.infile)
    hodmd_cfg = replace(hodmd_cfg, dt=ts.dt)
    started = time.perf_counter()
    dec = hodmd(build_snapshots(ts), hodmd_cfg)
    elapsed = time.perf_counter() - started
    fileio.write_modes(
        args.out_modes, dec.modes, dt=ts.dt, d=hodmd_cfg.d, ranks=dec.ranks
    )
    if args.out_summary:
        summary = {
            "input": str(args.infile),
            "d": hodmd_cfg.d,
            **_summary(dec),
            "wall_time_s": elapsed,
        }
        with open(args.out_summary, "w", encoding="ascii") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return EXIT_OK


def _cmd_spectrum(args, cfg: RunConfig) -> int:
    kds_cfg = _kds_config(args, cfg)
    modes, _ = fileio.read_modes(args.infile)
    spec = _run_kds(modes, kds_cfg)
    fileio.write_spectrum(args.out, spec)
    return EXIT_OK


def _cmd_fft(args, cfg: RunConfig) -> int:
    method = _fourier_method(args, cfg)
    ts = fileio.read_timeseries(args.infile)
    fileio.write_spectrum(args.out, _fourier_spectrum(args, cfg, ts, method))
    return EXIT_OK


def _cmd_glide(args, cfg: RunConfig) -> int:
    _check_distinct_outputs(args.out_tracks, args.out_pooled)
    if args.pool and not args.out_pooled:
        raise ConfigError("--pool requires --out-pooled")
    if args.out_pooled and not args.pool:
        raise ConfigError("--out-pooled requires --pool")
    window_len = pick(args.window_len, cfg, "glide", "window_len", int, None)
    if window_len is None:
        raise ConfigError("window_len is required (--window-len or [glide] window_len)")
    hop = pick(args.hop, cfg, "glide", "hop", int, 64)
    floor = pick(args.floor, cfg, "glide", "floor", float, 0.0)
    if args.pool:
        pool_modes((), floor)  # rejects a bad floor before the sweep
    hodmd_cfg = _build_hodmd_config(args, cfg)
    glide_cfg = GlideConfig(window_len=window_len, hodmd=hodmd_cfg, hop=hop)
    ts = fileio.read_timeseries(args.infile)
    hodmd_cfg = replace(hodmd_cfg, dt=ts.dt)
    glide_cfg = replace(glide_cfg, hodmd=hodmd_cfg)
    tracks = gliding_hodmd(ts, glide_cfg)
    fileio.write_tracks(
        args.out_tracks, tracks, dt=ts.dt, window_len=window_len, hop=hop,
        d=hodmd_cfg.d,
    )
    if args.pool:
        pooled = pool_modes(tracks, floor)
        fileio.write_modes(
            args.out_pooled, pooled, dt=ts.dt, d=hodmd_cfg.d,
            ranks=(0, 0, len(pooled)),
        )
    return EXIT_OK


def _nearest_peak_errors(spec, truths: list[float], rel_prominence: float):
    floor = rel_prominence * float(np.max(spec.values)) if spec.values.size else 0.0
    peaks = find_peaks(spec, floor)
    errors = []
    for f in truths:
        if not peaks:
            errors.append(None)
            continue
        nearest = min(peaks, key=lambda p: abs(p[0] - f))
        errors.append(abs(nearest[0] - f))
    return errors


def _cmd_compare(args, cfg: RunConfig) -> int:
    out_dir = Path(args.out_dir)
    truth_text = pick(args.truth, cfg, "compare", "truth", str, None)
    truths = (
        [float(v) for v in truth_text.split(",")] if truth_text is not None else None
    )
    if truths is not None and not all(math.isfinite(f) for f in truths):
        raise ConfigError(f"truth frequencies must be finite, got {truth_text!r}")
    if truths is not None and not (args.peak_prominence >= 0):
        raise ConfigError(f"--peak-prominence must be >= 0, got {args.peak_prominence}")
    hodmd_cfg = _build_hodmd_config(args, cfg)
    kds_cfg = _kds_config(args, cfg)
    method = _fourier_method(args, cfg)
    ts = fileio.read_timeseries(args.infile)
    hodmd_cfg = replace(hodmd_cfg, dt=ts.dt)
    started = time.perf_counter()
    dec = hodmd(build_snapshots(ts), hodmd_cfg)
    mode_spec = _run_kds(list(dec.modes), kds_cfg)
    fft_spec = _fourier_spectrum(args, cfg, ts, method)
    elapsed = time.perf_counter() - started

    out_dir.mkdir(parents=True, exist_ok=True)
    modes_path = out_dir / "modes.csv"
    kds_path = out_dir / "kds_spectrum.csv"
    fft_path = out_dir / "fft_spectrum.csv"
    fileio.write_modes(modes_path, dec.modes, dt=ts.dt, d=hodmd_cfg.d, ranks=dec.ranks)
    fileio.write_spectrum(kds_path, mode_spec)
    fileio.write_spectrum(fft_path, fft_spec)

    report = {
        "input": str(args.infile),
        "outputs": {
            "modes_csv": str(modes_path),
            "kds_spectrum_csv": str(kds_path),
            "fft_spectrum_csv": str(fft_path),
        },
        **_summary(dec),
        "wall_time_s": elapsed,
    }
    if truths is not None:
        mode_freqs = _mode_columns(dec.modes)[0]
        report["truth_hz"] = truths
        report["mode_errors_hz"] = [
            float(np.min(np.abs(mode_freqs - f))) for f in truths
        ]
        report["fft_peak_errors_hz"] = _nearest_peak_errors(
            fft_spec, truths, args.peak_prominence
        )
    with open(out_dir / "report.json", "w", encoding="ascii") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return EXIT_OK


def _add_hodmd_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--d", type=int, default=None, help="delay depth d (>= 1)")
    parser.add_argument(
        "--spatial",
        default=None,
        help="spatial truncation policy: tolerance:<eps> | count:<n> | optimal",
    )
    parser.add_argument(
        "--temporal", default=None, help="delay-space truncation policy"
    )
    parser.add_argument(
        "--amplitude",
        default=None,
        help="optional amplitude pruning policy (default none)",
    )


def _add_kds_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--kernel", choices=("gaussian", "lorentz"), default=None,
        help="kernel shape (default gaussian)",
    )
    parser.add_argument("--h", type=float, default=None, help="kernel parameter h")
    parser.add_argument(
        "--weighting",
        choices=("density", "power", "time_constant"),
        default=None,
        help="Gaussian kernel weighting (default density)",
    )
    parser.add_argument(
        "--grid", default=None, help="frequency grid f_min:f_max:step in Hz"
    )
    parser.add_argument(
        "--tau-max", dest="tau_max", type=float, default=None,
        help="clamp for undamped-mode time constants, in seconds",
    )
    parser.add_argument(
        "--lorentz-sqrt-numerator",
        action="store_true",
        help="keep the sqrt(h) factor in the Lorentz numerator",
    )


def _add_fft_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--method", choices=("periodogram", "welch"), default=None,
        help="PSD estimator (default periodogram)",
    )
    parser.add_argument(
        "--window", choices=("rectangular", "hann"), default=None,
        help="taper window",
    )
    parser.add_argument(
        "--segment-length", dest="segment_length", type=int, default=None,
        help="Welch segment length (power of two)",
    )
    parser.add_argument(
        "--overlap", type=float, default=None, help="Welch overlap fraction [0, 1)"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modespect",
        description="Damped-mode decomposition and spectra of vibration signals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="synthesize a decaying-oscillation test signal")
    p.add_argument("--config", default=None)
    p.add_argument(
        "--preset", choices=PRESET_NAMES, default=None,
        help="bundled benchmark component set",
    )
    p.add_argument(
        "--component", action="append", default=None,
        metavar="'A f D [phi]'",
        help="inline component (repeatable): amplitude frequency damping [phase]",
    )
    p.add_argument("--fs", type=float, default=None, help="sampling rate in Hz")
    p.add_argument("--n", type=int, default=None, help="number of samples")
    p.add_argument(
        "--noise-sigma", dest="noise_sigma", type=float, default=None,
        help="additive white Gaussian noise standard deviation",
    )
    p.add_argument("--seed", type=int, default=None, help="noise generator seed")
    p.add_argument("--out", required=True, help="output time series CSV")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("decompose", help="extract damped modes from a series")
    p.add_argument("--config", default=None)
    p.add_argument("--in", dest="infile", required=True, help="input time series CSV")
    _add_hodmd_flags(p)
    p.add_argument("--out-modes", dest="out_modes", required=True)
    p.add_argument("--out-summary", dest="out_summary", default=None)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("spectrum", help="kernel density spectrum of a mode list")
    p.add_argument("--config", default=None)
    p.add_argument("--in", dest="infile", required=True, help="input modes CSV")
    _add_kds_flags(p)
    p.add_argument("--out", required=True, help="output spectrum CSV")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("fft", help="Fourier reference spectrum of a series")
    p.add_argument("--config", default=None)
    p.add_argument("--in", dest="infile", required=True, help="input time series CSV")
    _add_fft_flags(p)
    p.add_argument("--out", required=True, help="output spectrum CSV")
    p.set_defaults(func=_cmd_fft)

    p = sub.add_parser("glide", help="sliding-window decomposition of a long record")
    p.add_argument("--config", default=None)
    p.add_argument("--in", dest="infile", required=True, help="input time series CSV")
    p.add_argument("--window-len", dest="window_len", type=int, default=None)
    p.add_argument("--hop", type=int, default=None, help="window hop (default 64)")
    _add_hodmd_flags(p)
    p.add_argument("--out-tracks", dest="out_tracks", required=True)
    p.add_argument("--pool", action="store_true", help="also write pooled modes")
    p.add_argument(
        "--floor", type=float, default=None,
        help="amplitude floor for pooling (default 0)",
    )
    p.add_argument("--out-pooled", dest="out_pooled", default=None)
    p.set_defaults(func=_cmd_glide)

    p = sub.add_parser(
        "compare", help="decompose + mode spectrum + Fourier spectrum, one report"
    )
    p.add_argument("--config", default=None)
    p.add_argument("--in", dest="infile", required=True, help="input time series CSV")
    _add_hodmd_flags(p)
    _add_kds_flags(p)
    _add_fft_flags(p)
    p.add_argument(
        "--truth", default=None,
        help="comma-separated true frequencies for error reporting",
    )
    p.add_argument(
        "--peak-prominence", dest="peak_prominence", type=float, default=1e-6,
        help="relative prominence floor for Fourier peak picking",
    )
    p.add_argument("--out-dir", dest="out_dir", required=True)
    p.set_defaults(func=_cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_CONFIG
    try:
        return args.func(args, RunConfig.load(args.config))
    except DegenerateInputError as exc:
        print(f"error: degenerate input: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except SizingError as exc:
        print(f"error: window sizing: {exc}", file=sys.stderr)
        return EXIT_SIZING
    except fileio.MalformedFileError as exc:
        print(f"error: malformed input file: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ConfigError, ValueError) as exc:
        print(f"error: invalid configuration: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: I/O failure: {exc}", file=sys.stderr)
        return EXIT_IO


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
