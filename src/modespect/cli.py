"""Command-line front end.

Subcommands: ``synth``, ``decompose``, ``spectrum``, ``fft``, ``glide``,
``compare``.  Each setting is a row of :data:`modespect.config.SETTINGS`,
given by its flag or by its key in an INI config file (``--config``), the
flag winning; a setting given by neither takes the library's default.  Flags
are matched whole: a cut-off flag such as ``--temp`` is an unknown argument.

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
from .config import SETTINGS, ConfigError, RunConfig, parse_components, settings
from .decompose import (
    DegenerateInputError,
    HodmdConfig,
    SizingError,
    _mode_columns,
    build_snapshots,
    hodmd,
)
from .fourier import Window, default_welch_config, periodogram, welch
from .glide import GlideConfig, gliding_hodmd, pool_modes
from .kds import KdsConfig, find_peaks, kds_gaussian, kds_lorentz
from .presets import PRESET_FS, PRESET_N, preset_components
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
    given = settings(args, cfg, "hodmd")
    if "d" not in given:
        raise ConfigError("delay depth d is required (--d or [hodmd] d)")
    with given.checked():
        for key in ("spatial_policy", "temporal_policy"):
            if key in given and given[key] is None:
                raise ValueError(f"{key} may not be 'none'")
        return HodmdConfig(dt=1.0, **given)


def _kds_config(args, cfg: RunConfig) -> KdsConfig:
    given = settings(args, cfg, "kds")
    if "h" not in given:
        raise ConfigError("kernel parameter h is required (--h or [kds] h)")
    if args.lorentz_sqrt_numerator:
        given["lorentz_unit_numerator"] = False
    with given.checked():
        return KdsConfig(**{"kernel": "gaussian", **given})


def _run_kds(modes, kds_cfg: KdsConfig):
    if not modes:
        raise DegenerateInputError("mode list is empty")
    if kds_cfg.kernel == "gaussian":
        return kds_gaussian(modes, kds_cfg)
    return kds_lorentz(modes, kds_cfg)


def _fourier(args, cfg: RunConfig):
    """The [fft] estimator as a function of the record, its settings checked
    before the record is read.

    A Welch segment length not given is ``default_welch_config``'s for the
    record, so the check at 0 samples checks the given settings alone.
    """
    given = settings(args, cfg, "fft")
    method = given.pop("method", "periodogram")
    with given.checked():
        if method == "welch":
            replace(default_welch_config(0), **given)
            return lambda ts: welch(ts, replace(default_welch_config(len(ts)), **given))
        if method != "periodogram":
            raise ValueError("method must be periodogram or welch")
        window = given.get("window")
        if window is not None and window not in get_args(Window):
            raise ValueError(f"window must be one of {get_args(Window)}")
        return lambda ts: periodogram(ts) if window is None else periodogram(ts, window)


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
    given = settings(args, cfg, "synth")
    sigma, seed = given.get("noise_sigma", 0.0), given.get("seed", 0)
    with given.checked():
        # checks sigma before the synthesis
        add_gaussian_noise(TimeSeries(np.zeros(1), 1.0), sigma, seed)
        if "preset" in given:
            components = preset_components(given["preset"])
        else:
            entries = list(args.component or []) or cfg.component_entries()
            components = parse_components(entries)
        ts = synth_decaying_sum(
            components, fs=given.get("fs", PRESET_FS), n=given.get("n", PRESET_N)
        )
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
    estimate = _fourier(args, cfg)
    ts = fileio.read_timeseries(args.infile)
    fileio.write_spectrum(args.out, estimate(ts))
    return EXIT_OK


def _cmd_glide(args, cfg: RunConfig) -> int:
    """Tracks of every window; pooled modes too when --out-pooled is given."""
    _check_distinct_outputs(args.out_tracks, args.out_pooled)
    given = settings(args, cfg, "glide")
    if "window_len" not in given:
        raise ConfigError("window_len is required (--window-len or [glide] window_len)")
    floor = [given.pop("floor")] if "floor" in given else []
    hodmd_cfg = _build_hodmd_config(args, cfg)
    with given.checked():
        if args.out_pooled:
            pool_modes((), *floor)  # rejects a bad floor before the sweep
        glide_cfg = GlideConfig(hodmd=hodmd_cfg, **given)
    ts = fileio.read_timeseries(args.infile)
    hodmd_cfg = replace(hodmd_cfg, dt=ts.dt)
    glide_cfg = replace(glide_cfg, hodmd=hodmd_cfg)
    tracks = gliding_hodmd(ts, glide_cfg)
    fileio.write_tracks(
        args.out_tracks, tracks, dt=ts.dt, window_len=glide_cfg.window_len,
        hop=glide_cfg.hop, d=hodmd_cfg.d,
    )
    if args.out_pooled:
        pooled = pool_modes(tracks, *floor)
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
    truths = settings(args, cfg, "compare").get("truth")
    if truths is not None and not (args.peak_prominence >= 0):
        raise ConfigError(f"--peak-prominence must be >= 0, got {args.peak_prominence}")
    hodmd_cfg = _build_hodmd_config(args, cfg)
    kds_cfg = _kds_config(args, cfg)
    estimate = _fourier(args, cfg)
    ts = fileio.read_timeseries(args.infile)
    hodmd_cfg = replace(hodmd_cfg, dt=ts.dt)
    started = time.perf_counter()
    dec = hodmd(build_snapshots(ts), hodmd_cfg)
    mode_spec = _run_kds(list(dec.modes), kds_cfg)
    fft_spec = estimate(ts)
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


def _add_command(sub, name: str, func, about: str, *sections: str, infile=None):
    """A subcommand with --config, --in when it reads ``infile``, and the
    flags of the settings of ``sections``."""
    p = sub.add_parser(name, help=about, allow_abbrev=False)
    p.add_argument("--config", default=None, help="INI file of settings; flags win")
    if infile:
        p.add_argument("--in", dest="infile", required=True, help=infile)
    for row in SETTINGS:
        if row.section in sections and row.flag:
            p.add_argument(row.flag, dest=row.key, help=row.help)
    if "kds" in sections:
        p.add_argument(
            "--lorentz-sqrt-numerator",
            action="store_true",
            help="keep the sqrt(h) factor in the Lorentz numerator",
        )
    p.set_defaults(func=func)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modespect",
        description="Damped-mode decomposition and spectra of vibration signals.",
        allow_abbrev=False,  # a cut-off flag must not set whichever flag it begins
    )
    sub = parser.add_subparsers(dest="command", required=True)
    series, modes = "input time series CSV", "input modes CSV"

    p = _add_command(
        sub, "synth", _cmd_synth, "synthesize a decaying-oscillation test signal",
        "synth",
    )
    p.add_argument(
        "--component", action="append", default=None,
        metavar="'A f D [phi]'",
        help="inline component (repeatable): amplitude frequency damping [phase]",
    )
    p.add_argument("--out", required=True, help="output time series CSV")

    p = _add_command(
        sub, "decompose", _cmd_decompose, "extract damped modes from a series",
        "hodmd", infile=series,
    )
    p.add_argument("--out-modes", dest="out_modes", required=True)
    p.add_argument("--out-summary", dest="out_summary", default=None)

    p = _add_command(
        sub, "spectrum", _cmd_spectrum, "kernel density spectrum of a mode list",
        "kds", infile=modes,
    )
    p.add_argument("--out", required=True, help="output spectrum CSV")

    p = _add_command(
        sub, "fft", _cmd_fft, "Fourier reference spectrum of a series",
        "fft", infile=series,
    )
    p.add_argument("--out", required=True, help="output spectrum CSV")

    p = _add_command(
        sub, "glide", _cmd_glide, "sliding-window decomposition of a long record",
        "glide", "hodmd", infile=series,
    )
    p.add_argument("--out-tracks", dest="out_tracks", required=True)
    p.add_argument(
        "--out-pooled", dest="out_pooled", default=None,
        help="also write the modes of every window, pooled",
    )

    p = _add_command(
        sub, "compare", _cmd_compare,
        "decompose + mode spectrum + Fourier spectrum, one report",
        "hodmd", "kds", "fft", "compare", infile=series,
    )
    p.add_argument(
        "--peak-prominence", dest="peak_prominence", type=float, default=1e-6,
        help="relative prominence floor for Fourier peak picking",
    )
    p.add_argument("--out-dir", dest="out_dir", required=True)

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
