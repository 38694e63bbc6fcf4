"""The three benchmark workloads: inputs from a seed, one timed body, checks.

Each workload is a closed loop with a single caller.  ``write_inputs`` runs
in the set-up child process and is the only code that synthesizes data; the
body sees only the files it wrote.  ``body`` executes the timed body once
and returns a ``Rep`` with its wall time and per-operation latencies;
``check`` then counts the operations and the failed ones, untimed and
untraced.

Library calls go through module attributes (``glide.gliding_hodmd(...)``),
never through names bound at import, so the tracer's wrappers take effect.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from modespect import cli, decompose, fileio, glide, kds, linalg, presets, signals

FS = 25_000.0
GLIDE_TRUTH_HZ = (1400.0, 2600.0, 3700.0)
CASE2_TRUTH_HZ = tuple(c.frequency_hz for c in presets.preset_components("paper-case-2"))
CASE3_TRUTH_HZ = tuple(c.frequency_hz for c in presets.preset_components("paper-case-3"))
# glide-sweep: the three strongest pooled-KDS peaks (acceptance criterion 8)
GLIDE_PEAK_TOL_HZ = 0.5
# saturated-batch: nearest reported mode per true frequency, within half the
# segment's Fourier bin (12.2 Hz at 1024 samples).  At the seed state 200
# noisy segments gave at most 6.9 Hz (99th percentile 3.7 Hz), always on the
# 2008/1992 Hz pair, which lies 16 Hz apart inside one bin; 1800 Hz stayed
# within 1.5 Hz.
BATCH_TOL_BINS = 0.5
# cli-pipeline: acceptance tolerances of paper-case-2 and paper-case-3
CASE2_TOL_HZ = 0.01
CASE3_TOL_HZ = 0.1


@dataclass(frozen=True)
class Sizes:
    """Problem sizes; ``FULL`` is the benchmark, ``TINY`` the harness self-check."""

    glide_n: int = 2**13
    glide_window: int = 1024
    glide_d: int = 500
    batch_segments: int = 8
    batch_len: int = 1024
    batch_d: int = 500
    cli_record_n: int = 2**20
    cli_case_n: int = 2**16


FULL = Sizes()
TINY = Sizes(
    glide_n=2**11,
    glide_window=512,
    glide_d=100,
    batch_segments=2,
    batch_len=512,
    batch_d=200,
    cli_record_n=2**14,
    cli_case_n=2**13,
)


@dataclass
class Rep:
    """One execution of a workload body, then the results of its checks."""

    wall: float
    op_seconds: list
    outputs: dict  # what ``check`` inspects
    child_rss_kb: list = field(default_factory=list)  # per subprocess, if any
    attempted: int = 0
    failed: int = 0
    notes: dict = field(default_factory=dict)


def _peak(ts) -> float:
    return float(np.max(np.abs(ts.samples)))


@contextmanager
def _timed_calls(module, attr):
    """Record (seconds, result or None) for each call of ``module.attr``."""
    original = getattr(module, attr)
    calls = []

    def probe(*args, **kwargs):
        start = time.perf_counter()
        result = None
        try:
            result = original(*args, **kwargs)
            return result
        finally:
            calls.append((time.perf_counter() - start, result))

    setattr(module, attr, probe)
    try:
        yield calls
    finally:
        setattr(module, attr, original)


class GlideSweep:
    """Acceptance criterion 8: a sliding-window sweep under the optimal policy.

    Nearly all the time is the dense SVD of a 500x525 delay matrix that keeps
    rank ~6, so a rank-adaptive or warm-started factorization shows here.
    """

    name = "glide-sweep"
    op_span = "decompose.hodmd"
    hop = 64

    def __init__(self, sizes: Sizes = FULL):
        self.sizes = sizes
        self.ops_per_rep = (sizes.glide_n - sizes.glide_window) // self.hop + 1

    def write_inputs(self, seed: int, workdir: Path) -> None:
        comps = [
            signals.DampedComponent(1.0, f, damping)
            for f, damping in zip(GLIDE_TRUTH_HZ, (2.0, 4.0, 6.0))
        ]
        clean = signals.synth_decaying_sum(comps, fs=FS, n=self.sizes.glide_n)
        noise_seed = int(np.random.default_rng(seed).integers(2**31))
        noisy = signals.add_gaussian_noise(clean, 0.01 * _peak(clean), noise_seed)
        np.save(workdir / "glide.npy", noisy.samples)

    def load(self, workdir: Path):
        return signals.TimeSeries(np.load(workdir / "glide.npy"), dt=1.0 / FS)

    def _config(self, dt: float):
        policy = linalg.OptimalHardThreshold()
        return decompose.HodmdConfig(
            d=self.sizes.glide_d, dt=dt, spatial_policy=policy, temporal_policy=policy
        )

    def warm_up(self, ts) -> None:
        window = signals.TimeSeries(ts.samples[: self.sizes.glide_window], ts.dt)
        decompose.hodmd(decompose.build_snapshots(window), self._config(ts.dt))

    def body(self, ts, workdir: Path, in_process: bool) -> Rep:
        cfg = glide.GlideConfig(
            window_len=self.sizes.glide_window, hodmd=self._config(ts.dt), hop=self.hop
        )
        kds_cfg = kds.KdsConfig(
            kernel="gaussian", h=2.0, grid=kds.FrequencyGrid(1000.0, 4100.0, 0.1)
        )
        with _timed_calls(glide, "hodmd") as calls:
            start = time.perf_counter()
            tracks = glide.gliding_hodmd(ts, cfg)
            pooled = glide.pool_modes(tracks, amplitude_floor=0.05)
            spec = kds.kds_gaussian(pooled, kds_cfg)
            peaks = kds.find_peaks(spec, 0.1 * float(spec.values.max()))
            wall = time.perf_counter() - start
        return Rep(wall, [s for s, _ in calls], {"tracks": tracks, "peaks": peaks})

    def check(self, rep: Rep) -> None:
        tracks = rep.outputs["tracks"]
        rep.attempted = len(tracks)
        rep.failed = sum(t.failed for t in tracks)
        error = check_glide_peaks(rep.outputs["peaks"])
        if error is not None:
            rep.failed = rep.attempted
        rep.notes = {"peak_error_hz": error}


def check_glide_peaks(peaks):
    """Largest distance of the three strongest peaks from the truth, or None if within tolerance."""
    strongest = sorted(sorted(peaks, key=lambda p: -p[1])[:3])
    if len(strongest) < 3:
        return math.inf
    worst = max(abs(f - t) for t, (f, _) in zip(GLIDE_TRUTH_HZ, strongest))
    return None if worst < GLIDE_PEAK_TOL_HZ else worst


class SaturatedBatch:
    """The CLI default policy, Tolerance(1e-10), on noisy segments.

    The delay-space rank saturates at 500, so every computed singular vector
    is kept and the time moves to eig, lstsq, the amplitude fit, the merge
    and the KDS over ~2,000 modes.  A randomized SVD must fall back here.
    """

    name = "saturated-batch"
    op_span = "decompose.hodmd"

    def __init__(self, sizes: Sizes = FULL):
        self.sizes = sizes
        self.ops_per_rep = sizes.batch_segments

    def write_inputs(self, seed: int, workdir: Path) -> None:
        comps = presets.preset_components("paper-case-2")
        clean = signals.synth_decaying_sum(comps, fs=FS, n=self.sizes.batch_len)
        seeds = np.random.default_rng(seed).integers(2**31, size=self.sizes.batch_segments)
        sigma = 0.01 * _peak(clean)
        segments = [signals.add_gaussian_noise(clean, sigma, int(s)).samples for s in seeds]
        np.save(workdir / "segments.npy", np.stack(segments))

    def load(self, workdir: Path):
        return [
            signals.TimeSeries(row, dt=1.0 / FS) for row in np.load(workdir / "segments.npy")
        ]

    def _config(self, dt: float):
        return decompose.HodmdConfig(
            d=self.sizes.batch_d,
            dt=dt,
            spatial_policy=linalg.Tolerance(1e-10),
            temporal_policy=linalg.Tolerance(1e-10),
        )

    def warm_up(self, segments) -> None:
        decompose.hodmd(decompose.build_snapshots(segments[0]), self._config(segments[0].dt))

    def body(self, segments, workdir: Path, in_process: bool) -> Rep:
        dt = segments[0].dt
        grid = kds.FrequencyGrid(0.0, FS / 2, 0.1)
        gauss_cfg = kds.KdsConfig(kernel="gaussian", h=0.5, weighting="power", grid=grid)
        lorentz_cfg = kds.KdsConfig(
            kernel="lorentz", h=1e3, grid=grid, tau_max=self.sizes.batch_len * dt
        )
        with _timed_calls(glide, "hodmd") as calls:
            start = time.perf_counter()
            tracks = glide.batch_hodmd(segments, self._config(dt))
            pooled = glide.pool_modes(tracks)
            for spec in (kds.kds_gaussian(pooled, gauss_cfg), kds.kds_lorentz(pooled, lorentz_cfg)):
                kds.find_peaks(spec, 0.1 * float(spec.values.max()))
            wall = time.perf_counter() - start
        return Rep(
            wall,
            [s for s, _ in calls],
            {"tracks": tracks, "decompositions": [d for _, d in calls], "pooled": len(pooled)},
        )

    def check(self, rep: Rep) -> None:
        full_rank = min(self.sizes.batch_d, self.sizes.batch_len - self.sizes.batch_d + 1)
        tol_hz = BATCH_TOL_BINS * FS / self.sizes.batch_len
        tracks, decs = rep.outputs["tracks"], rep.outputs["decompositions"]
        rep.attempted = len(tracks)
        rep.failed = len(tracks) - len(decs)
        worst = 0.0
        for track, dec in zip(tracks, decs):
            error = _nearest_mode_error(track.modes, CASE2_TRUTH_HZ)
            worst = max(worst, error)
            if track.failed or dec is None or dec.ranks[1] != full_rank or error > tol_hz:
                rep.failed += 1
        rep.notes = {"worst_mode_error_hz": worst, "pooled_modes": rep.outputs["pooled"]}


def _nearest_mode_error(modes, truths) -> float:
    freqs = np.array([m.frequency_hz for m in modes])
    if freqs.size == 0:
        return math.inf
    return max(float(np.min(np.abs(freqs - f))) for f in truths)


class CliPipeline:
    """A fixed list of ``modespect`` commands, one subprocess at a time.

    The only workload where fileio (20+ MB CSVs), CLI start-up, config and
    fourier do the work; the d=200 decompose sets the memory peak.  The
    traced run calls ``modespect.cli.main`` in-process instead, since a
    subprocess cannot be wrapped from outside.
    """

    name = "cli-pipeline"
    op_span = "cli.main"
    ops_per_rep = 7

    def __init__(self, sizes: Sizes = FULL):
        self.sizes = sizes

    def write_inputs(self, seed: int, workdir: Path) -> None:
        rng = np.random.default_rng(seed)
        for preset, path in (("paper-case-2", "case2.csv"), ("paper-case-3", "case3.csv")):
            comps = [
                signals.DampedComponent(
                    c.amplitude, c.frequency_hz, c.damping, float(rng.uniform(0, 2 * math.pi))
                )
                for c in presets.preset_components(preset)
            ]
            series = signals.synth_decaying_sum(comps, fs=FS, n=self.sizes.cli_case_n)
            fileio.write_timeseries(workdir / path, series)
        (workdir / "decompose.ini").write_text(
            "[hodmd]\n"
            "d = 200\n"
            "spatial_policy = tolerance:1e-10\n"
            "temporal_policy = tolerance:1e-10\n",
            encoding="ascii",
        )
        (workdir / "inputs.json").write_text(
            json.dumps({"synth_seed": int(rng.integers(2**31))}), encoding="ascii"
        )

    def load(self, workdir: Path):
        return json.loads((workdir / "inputs.json").read_text(encoding="ascii"))

    def warm_up(self, inputs) -> None:
        pass

    def commands(self, workdir: Path, synth_seed: int) -> list:
        w, o = workdir, workdir / "out"
        spec, modes, series = fileio.read_spectrum, fileio.read_modes, fileio.read_timeseries
        kernel = ["--kernel", "gaussian", "--h", "0.5"]

        def compare(case, d, grid, truths, tol):
            out_dir = o / f"compare{case}"
            return Command(
                ["compare", "--in", f"{w}/case{case}.csv", "--d", str(d), *kernel,
                 "--grid", grid, "--truth", ",".join(map(repr, truths)),
                 "--out-dir", str(out_dir)],
                ((out_dir / "modes.csv", modes), (out_dir / "kds_spectrum.csv", spec),
                 (out_dir / "fft_spectrum.csv", spec)),
                lambda: _report_error(out_dir / "report.json", tol),
            )

        return [
            Command(["synth", "--preset", "paper-case-3", "--n", str(self.sizes.cli_record_n),
                     "--noise-sigma", "0.05", "--seed", str(synth_seed),
                     "--out", f"{o}/record.csv"],
                    ((o / "record.csv", series),)),
            Command(["fft", "--in", f"{o}/record.csv", "--method", "welch",
                     "--out", f"{o}/welch.csv"],
                    ((o / "welch.csv", spec),)),
            Command(["fft", "--in", f"{o}/record.csv", "--out", f"{o}/periodogram.csv"],
                    ((o / "periodogram.csv", spec),)),
            compare(2, 50, "1700:2100:0.05", CASE2_TRUTH_HZ, CASE2_TOL_HZ),
            compare(3, 100, "1000:11000:0.1", CASE3_TRUTH_HZ, CASE3_TOL_HZ),
            Command(["decompose", "--config", f"{w}/decompose.ini", "--in", f"{w}/case2.csv",
                     "--out-modes", f"{o}/decompose.csv",
                     "--out-summary", f"{o}/decompose.json"],
                    ((o / "decompose.csv", modes),),
                    lambda: _modes_error(o / "decompose.csv", CASE2_TRUTH_HZ, CASE2_TOL_HZ)),
            Command(["spectrum", "--in", f"{o}/compare3/modes.csv", "--kernel", "lorentz",
                     "--h", "1e3", "--grid", "0:12500:0.1", "--out", f"{o}/lorentz.csv"],
                    ((o / "lorentz.csv", spec),)),
        ]

    def body(self, inputs, workdir: Path, in_process: bool) -> Rep:
        out = workdir / "out"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        commands = self.commands(workdir, inputs["synth_seed"])
        codes, op_seconds, rss = [], [], []
        start = time.perf_counter()
        for command in commands:
            t0 = time.perf_counter()
            if in_process:
                codes.append(cli.main(command.argv))
            else:
                code, maxrss_kb = _run_child(command.argv)
                codes.append(code)
                rss.append(maxrss_kb)
            op_seconds.append(time.perf_counter() - t0)
        wall = time.perf_counter() - start
        return Rep(wall, op_seconds, {"codes": codes, "commands": commands}, rss)

    def check(self, rep: Rep) -> None:
        codes, commands = rep.outputs["codes"], rep.outputs["commands"]
        misses = [c.accuracy() for c in commands]
        rep.attempted = len(commands)
        rep.failed = sum(
            code != 0 or not _outputs_ok(c.outputs) or miss is not None
            for code, c, miss in zip(codes, commands, misses)
        )
        rep.notes = {"exit_codes": codes, "tolerance_misses_hz": misses}


@dataclass(frozen=True)
class Command:
    """One CLI invocation, the files it must write, and its accuracy check."""

    argv: list
    outputs: tuple  # (path, fileio reader) pairs that must parse back
    # worst error beyond the acceptance tolerance in Hz, None when within it
    accuracy: Callable[[], Optional[float]] = lambda: None


def child_env(**extra) -> dict:
    """Environment for a child process that imports modespect from ``src/``."""
    env = dict(os.environ, **extra)
    src = str(Path(decompose.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def _run_child(argv):
    """Run one CLI command; return its exit code and its own peak RSS in KiB."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "modespect.cli", *argv],
        env=child_env(),
        stdout=subprocess.DEVNULL,
    )
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    return proc.returncode, usage.ru_maxrss


def _outputs_ok(outputs) -> bool:
    """Every output file parses back through its fileio reader."""
    for path, reader in outputs:
        try:
            reader(path)
        except (OSError, ValueError, KeyError):
            return False
    return True


def _report_error(path: Path, tol: float):
    """Worst mode error in a compare report.json, or None if within tolerance."""
    try:
        errors = json.loads(path.read_text(encoding="ascii"))["mode_errors_hz"]
    except (OSError, ValueError, KeyError):
        return math.inf
    worst = max(errors)
    return None if worst < tol else worst


def _modes_error(path: Path, truths, tol: float):
    try:
        modes, _ = fileio.read_modes(path)
    except (OSError, ValueError, KeyError):
        return math.inf
    worst = _nearest_mode_error(modes, truths)
    return None if worst < tol else worst


WORKLOADS = {w.name: w for w in (GlideSweep, SaturatedBatch, CliPipeline)}
