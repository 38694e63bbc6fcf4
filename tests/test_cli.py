import json
import math
import warnings

import numpy as np
import pytest

from modespect import cli
from modespect.cli import _summary, main
from modespect.config import SETTINGS
from modespect.decompose import Decomposition, HodmdConfig
from modespect.fileio import read_modes, read_spectrum, read_timeseries, read_tracks
from modespect.fileio import write_timeseries
from modespect.signals import TimeSeries

FS = 25_000.0
NAN_INDEX = 2000
# the column names line that write_modes gives a one-channel mode list
MODE_NAMES = "frequency_hz,growth_rate,amplitude,phase_rad,shape0_re,shape0_im"


def run(*argv) -> int:
    return main(list(argv))


@pytest.fixture()
def case1_file(tmp_path):
    path = tmp_path / "case1.csv"
    assert run("synth", "--preset", "paper-case-1", "--n", "4096", "--out", str(path)) == 0
    return path


@pytest.fixture()
def case2_file(tmp_path):
    path = tmp_path / "case2.csv"
    assert run("synth", "--preset", "paper-case-2", "--n", "8192", "--out", str(path)) == 0
    return path


@pytest.fixture()
def nan_file(tmp_path):
    """4,096 paper-case-2 samples, sample NAN_INDEX replaced by 'nan'."""
    path = tmp_path / "nan.csv"
    assert run("synth", "--preset", "paper-case-2", "--n", "4096", "--out", str(path)) == 0
    lines = path.read_text().splitlines(keepends=True)
    lines[1 + NAN_INDEX] = "nan\n"  # line 0 is the header
    path.write_text("".join(lines))
    return path


class TestSynth:
    def test_preset_default_size(self, tmp_path):
        out = tmp_path / "sig.csv"
        assert run("synth", "--preset", "paper-case-1", "--out", str(out)) == 0
        ts = read_timeseries(out)
        assert len(ts) == 2**16
        assert ts.fs == pytest.approx(FS)

    def test_empty_component_list_zero_signal(self, tmp_path):
        out = tmp_path / "zero.csv"
        assert run("synth", "--n", "64", "--out", str(out)) == 0
        ts = read_timeseries(out)
        assert len(ts) == 64
        assert not np.any(ts.samples)

    def test_noisy_synth_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["synth", "--preset", "paper-case-2", "--n", "512",
                "--noise-sigma", "0.01", "--seed", "7"]
        assert run(*args, "--out", str(a)) == 0
        assert run(*args, "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_bad_noise_sigma_exit_2_before_synthesis(self, tmp_path, monkeypatch):
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)

        monkeypatch.setattr(cli, "synth_decaying_sum", spy)
        out = tmp_path / "sig.csv"
        code = run(
            "synth", "--preset", "paper-case-2", "--n", "4000000",
            "--noise-sigma", "-1", "--out", str(out),
        )
        assert code == 2
        assert calls == [] and not out.exists()

    def test_inline_components(self, tmp_path):
        out = tmp_path / "inline.csv"
        assert (
            run(
                "synth", "--component", "1 500 2", "--component", "0.5 900 5 0.3",
                "--fs", "5000", "--n", "256", "--out", str(out),
            )
            == 0
        )
        ts = read_timeseries(out)
        assert len(ts) == 256

    def test_config_file_components(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[synth]\nfs = 5000\nn = 128\n[components]\nm1 = 1 400 3\n")
        out = tmp_path / "fromcfg.csv"
        assert run("synth", "--config", str(ini), "--out", str(out)) == 0
        assert len(read_timeseries(out)) == 128

    def test_bad_preset_exit_2(self, tmp_path):
        code = run("synth", "--preset", "paper-case-9", "--out", str(tmp_path / "x.csv"))
        assert code == 2

    def test_bad_component_exit_2(self, tmp_path):
        code = run("synth", "--component", "nope", "--out", str(tmp_path / "x.csv"))
        assert code == 2


class TestDecompose:
    def test_case1_single_mode(self, tmp_path, case1_file):
        modes_csv = tmp_path / "modes.csv"
        summary_json = tmp_path / "summary.json"
        code = run(
            "decompose", "--in", str(case1_file), "--d", "10",
            "--out-modes", str(modes_csv), "--out-summary", str(summary_json),
        )
        assert code == 0
        modes, meta = read_modes(modes_csv)
        assert len(modes) == 1
        assert modes[0].frequency_hz == pytest.approx(2000.0, abs=1e-6)
        assert modes[0].growth_rate == pytest.approx(-80.0, abs=1e-6)
        summary = json.loads(summary_json.read_text())
        assert summary["relative_rms"] < 1e-9
        assert summary["ranks"]["modes"] == 1
        assert summary["wall_time_s"] > 0

    @pytest.mark.parametrize("d", [6, 12, 24, 50])
    def test_case2_mode_count_for_sufficient_d(self, tmp_path, case2_file, d):
        modes_csv = tmp_path / f"modes{d}.csv"
        code = run(
            "decompose", "--in", str(case2_file), "--d", str(d),
            "--out-modes", str(modes_csv),
        )
        assert code == 0
        modes, _ = read_modes(modes_csv)
        assert len(modes) == 3

    def test_summary_reports_amplitude_fit(self, tmp_path, case2_file):
        summary_json = tmp_path / "summary.json"
        code = run(
            "decompose", "--in", str(case2_file), "--d", "50",
            "--out-modes", str(tmp_path / "m.csv"), "--out-summary", str(summary_json),
        )
        assert code == 0
        summary = json.loads(summary_json.read_text())
        assert summary["amplitude_rank"] == 6
        assert math.isfinite(summary["amplitude_condition"])
        assert summary["amplitude_condition"] >= 1.0

    def test_singular_amplitude_fit_summary_is_null(self):
        dec = Decomposition(
            modes=(), relative_rms=0.0, relative_max=0.0,
            config=HodmdConfig(d=2, dt=1.0 / FS), ranks=(1, 2, 0),
            amplitude_condition=math.inf, amplitude_rank=1,
        )
        summary = json.loads(json.dumps(_summary(dec), allow_nan=False))
        assert summary["amplitude_condition"] is None
        assert summary["amplitude_rank"] == 1

    def test_huge_record_summary_is_finite_json(self, tmp_path):
        # squaring samples near 1e306 overflows; the summary once held NaN
        sig = tmp_path / "huge.csv"
        run("synth", "--preset", "paper-case-2", "--n", "4096", "--out", str(sig))
        ts = read_timeseries(sig)
        write_timeseries(sig, TimeSeries(ts.samples * 1e306, ts.dt))
        modes_csv, summary_json = tmp_path / "m.csv", tmp_path / "s.json"
        code = run(
            "decompose", "--in", str(sig), "--d", "10",
            "--out-modes", str(modes_csv), "--out-summary", str(summary_json),
        )
        assert code == 0

        def reject(name):
            raise ValueError(f"summary holds {name}")

        summary = json.loads(summary_json.read_text(), parse_constant=reject)
        assert summary["relative_rms"] < 1e-9

    def test_all_zero_input_exit_4(self, tmp_path):
        zero = tmp_path / "zero.csv"
        run("synth", "--n", "256", "--out", str(zero))
        code = run(
            "decompose", "--in", str(zero), "--d", "4",
            "--out-modes", str(tmp_path / "m.csv"),
        )
        assert code == 4

    def test_non_finite_sample_exit_4(self, tmp_path, capsys, nan_file):
        modes_csv, summary_json = tmp_path / "m.csv", tmp_path / "s.json"
        code = run(
            "decompose", "--in", str(nan_file), "--d", "10",
            "--out-modes", str(modes_csv), "--out-summary", str(summary_json),
        )
        assert code == 4
        assert "non-finite" in capsys.readouterr().err
        assert not modes_csv.exists() and not summary_json.exists()

    def test_sizing_violation_exit_3(self, tmp_path, case1_file):
        code = run(
            "decompose", "--in", str(case1_file), "--d", "2048",
            "--out-modes", str(tmp_path / "m.csv"),
        )
        assert code == 3

    def test_bad_policy_exit_2(self, tmp_path, case1_file):
        code = run(
            "decompose", "--in", str(case1_file), "--d", "10",
            "--spatial", "magic", "--out-modes", str(tmp_path / "m.csv"),
        )
        assert code == 2

    def test_missing_input_exit_1(self, tmp_path):
        code = run(
            "decompose", "--in", str(tmp_path / "absent.csv"), "--d", "4",
            "--out-modes", str(tmp_path / "m.csv"),
        )
        assert code == 1

    @pytest.mark.parametrize(
        "flags, reason",
        [([], "delay depth d is required"), (["--d", "0"], "d must be >= 1")],
        ids=["no-d", "zero-d"],
    )
    def test_bad_depth_exit_2_before_reading_the_input(
        self, tmp_path, monkeypatch, capsys, flags, reason
    ):
        monkeypatch.setattr(cli.fileio, "read_timeseries", None)
        out = tmp_path / "m.csv"
        code = run(
            "decompose", "--in", str(tmp_path / "absent.csv"), *flags, "--out-modes", str(out)
        )
        assert code == 2
        assert reason in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "row, reason", [("abc", "abc"), ("1.0,2.0", "columns")], ids=["text", "ragged"]
    )
    def test_malformed_input_row_exit_1(self, tmp_path, capsys, row, reason):
        bad = tmp_path / "bad.csv"
        bad.write_text("# dt=4e-05 t0=0\n" + "0.5\n" * 40 + row + "\n")
        code = run(
            "decompose", "--in", str(bad), "--d", "4",
            "--out-modes", str(tmp_path / "m.csv"),
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "bad.csv, line 42:" in err and reason in err

    @pytest.mark.parametrize(
        "header", ["# t0=0", "# dt=abc t0=0", "# dt=-1 t0=0"],
        ids=["no-dt", "text-dt", "negative-dt"],
    )
    def test_bad_header_dt_exit_1(self, tmp_path, capsys, header):
        bad = tmp_path / "bad.csv"
        bad.write_text(header + "\n1\n2\n3\n")
        code = run(
            "decompose", "--in", str(bad), "--d", "1",
            "--out-modes", str(tmp_path / "m.csv"),
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "malformed input file" in err and "bad.csv, line 1:" in err

    def test_identical_output_paths_exit_2(self, tmp_path, case1_file):
        same = str(tmp_path / "same.csv")
        code = run(
            "decompose", "--in", str(case1_file), "--d", "10",
            "--out-modes", same, "--out-summary", same,
        )
        assert code == 2

    def test_no_output_on_config_failure(self, tmp_path, case1_file):
        out = tmp_path / "never.csv"
        code = run(
            "decompose", "--in", str(case1_file), "--d", "10",
            "--spatial", "bogus", "--out-modes", str(out),
        )
        assert code == 2
        assert not out.exists()


    @pytest.mark.parametrize(
        "ini, key",
        [
            ("[hodmd]\ntemporal = optimal\n", "[hodmd] temporal"),
            ("[hdmd]\nd = 10\n", "[hdmd] d"),
            ("[kds]\nd = 10\n", "[kds] d"),
        ],
        ids=["misspelled-key", "unknown-section", "wrong-section"],
    )
    def test_unknown_config_key_exit_2_before_reading_the_input(
        self, tmp_path, monkeypatch, capsys, case1_file, ini, key
    ):
        config = tmp_path / "typo.ini"
        config.write_text(ini)
        monkeypatch.setattr(cli.fileio, "read_timeseries", None)
        out = tmp_path / "m.csv"
        code = run(
            "decompose", "--d", "10", "--config", str(config), "--in", str(case1_file),
            "--out-modes", str(out),
        )
        assert code == 2
        err = capsys.readouterr().err
        assert key in err and str(config) in err
        assert not out.exists()


class TestSpectrum:
    @pytest.fixture()
    def two_mode_file(self, tmp_path):
        sig = tmp_path / "two.csv"
        run(
            "synth", "--component", "1 2014 10", "--component", "1 2028 10",
            "--n", "8192", "--out", str(sig),
        )
        modes_csv = tmp_path / "two_modes.csv"
        assert (
            run("decompose", "--in", str(sig), "--d", "10",
                "--out-modes", str(modes_csv)) == 0
        )
        return modes_csv

    def test_gaussian_two_peaks(self, tmp_path, two_mode_file):
        out = tmp_path / "spec.csv"
        code = run(
            "spectrum", "--in", str(two_mode_file), "--kernel", "gaussian",
            "--h", "0.05", "--grid", "1990:2050:0.01", "--out", str(out),
        )
        assert code == 0
        spec = read_spectrum(out)
        from modespect import find_peaks

        assert len(find_peaks(spec, 0.25)) == 2

    def test_single_mode_density_max_is_one(self, tmp_path, case1_file):
        modes_csv = tmp_path / "m.csv"
        run("decompose", "--in", str(case1_file), "--d", "10",
            "--out-modes", str(modes_csv))
        out = tmp_path / "s.csv"
        code = run(
            "spectrum", "--in", str(modes_csv), "--kernel", "gaussian",
            "--h", "0.5", "--out", str(out),
        )
        assert code == 0
        spec = read_spectrum(out)
        assert spec.values.max() == pytest.approx(1.0, rel=1e-9)

    def test_lorentz_sharpens_with_h(self, tmp_path, two_mode_file):
        lo, hi = tmp_path / "lo.csv", tmp_path / "hi.csv"
        for h, path in (("1", lo), ("1000", hi)):
            code = run(
                "spectrum", "--in", str(two_mode_file), "--kernel", "lorentz",
                "--h", h, "--grid", "1950:2090:0.02", "--out", str(path),
            )
            assert code == 0
        lo_spec, hi_spec = read_spectrum(lo), read_spectrum(hi)
        off_peak = np.abs(lo_spec.frequencies - 1970.0).argmin()
        assert hi_spec.values[off_peak] <= lo_spec.values[off_peak]

    def test_invalid_grid_exit_2(self, tmp_path, two_mode_file):
        code = run(
            "spectrum", "--in", str(two_mode_file), "--kernel", "gaussian",
            "--h", "0.05", "--grid", "1990:2050:0.1", "--out", str(tmp_path / "s.csv"),
        )
        assert code == 2

    @pytest.mark.parametrize(
        "header, row",
        [
            ("dt=4e-05 ranks=a,b,c", "2000,-80,1,0,1,0"),
            ("dt=4e-05", "2000,-80,1,0,1,0,1"),
            ("dt=4e-05", "2000,-80,1"),
            ("dt=4e-05", "2000,-80,-1,0,1,0"),
            ("dt=4e-05", "nan,-80,1,0,1,0"),
        ],
        ids=["ranks", "odd-shape", "three-columns", "negative-amplitude", "nan"],
    )
    def test_malformed_modes_file_exit_1(self, tmp_path, header, row):
        modes_csv = tmp_path / "bad_modes.csv"
        modes_csv.write_text(f"# {header}\n{MODE_NAMES}\n{row}\n")
        out = tmp_path / "s.csv"
        code = run(
            "spectrum", "--in", str(modes_csv), "--kernel", "gaussian",
            "--h", "0.5", "--out", str(out),
        )
        assert code == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "kernel, h", [("lorentz", "1"), ("gaussian", "1e-9")], ids=["lorentz", "gaussian"]
    )
    def test_default_grid_too_fine_exit_2(self, tmp_path, capsys, kernel, h):
        # a steady tone decomposes with a growth rate near 1e-9 1/s; its
        # default grid would take 9.45e12 (Lorentz) or 1e12 (Gaussian) points
        modes_csv = tmp_path / "steady_modes.csv"
        modes_csv.write_text(
            f"# dt=4e-05\n{MODE_NAMES}\n"
            "1800,-100,1,0,1,0\n2000,-1e-09,1,0,1,0\n"
        )
        out = tmp_path / "s.csv"
        code = run(
            "spectrum", "--in", str(modes_csv), "--kernel", kernel, "--h", h,
            "--out", str(out),
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "points exceeds" in err
        assert not out.exists()

    def lorentz(self, tmp_path, modes_csv, name, *extra):
        out = tmp_path / f"{name}.csv"
        code = run(
            "spectrum", "--in", str(modes_csv), "--kernel", "lorentz", "--h", "1",
            "--grid", "1950:2090:0.1", "--out", str(out), *extra,
        )
        return code, out

    def test_unknown_unit_numerator_word_exit_2(self, tmp_path, two_mode_file):
        ini = tmp_path / "typo.ini"
        ini.write_text("[kds]\nlorentz_unit_numerator = ture\n")
        code, out = self.lorentz(tmp_path, two_mode_file, "typo", "--config", str(ini))
        assert code == 2
        assert not out.exists()

    def test_unit_numerator_off_matches_sqrt_flag(self, tmp_path, two_mode_file):
        ini = tmp_path / "off.ini"
        ini.write_text("[kds]\nlorentz_unit_numerator = off\n")
        code, off = self.lorentz(tmp_path, two_mode_file, "off", "--config", str(ini))
        assert code == 0
        code, flag = self.lorentz(
            tmp_path, two_mode_file, "flag", "--lorentz-sqrt-numerator"
        )
        assert code == 0
        assert off.read_bytes() == flag.read_bytes()


class TestFft:
    def test_case1_peak_location(self, tmp_path):
        sig = tmp_path / "c1full.csv"
        run("synth", "--preset", "paper-case-1", "--out", str(sig))
        out = tmp_path / "fft.csv"
        assert run("fft", "--in", str(sig), "--out", str(out)) == 0
        spec = read_spectrum(out)
        peak = spec.frequencies[np.argmax(spec.values)]
        assert abs(peak - 2000.0) <= FS / 2**16

    def test_constant_energy_at_dc(self, tmp_path):
        sig = tmp_path / "const.csv"
        run("synth", "--component", "0 1 0", "--n", "64", "--out", str(sig))
        # zero-amplitude component gives a zero signal; use an offset instead
        from modespect import TimeSeries
        from modespect.fileio import write_timeseries

        write_timeseries(sig, TimeSeries(np.full(64, 3.0), 1.0 / FS))
        out = tmp_path / "fft.csv"
        assert run("fft", "--in", str(sig), "--out", str(out)) == 0
        spec = read_spectrum(out)
        assert np.argmax(spec.values) == 0
        assert np.all(spec.values[1:] < 1e-12 * spec.values[0])

    def test_welch_runs_with_defaults(self, tmp_path, case2_file):
        out = tmp_path / "welch.csv"
        code = run("fft", "--in", str(case2_file), "--method", "welch",
                   "--out", str(out))
        assert code == 0
        spec = read_spectrum(out)
        assert spec.meta["source"] == "welch"
        assert spec.meta["segments"] >= 8

    @pytest.mark.parametrize("t0", ["abc", "nan", "inf"])
    def test_bad_header_t0_exit_1(self, tmp_path, capsys, t0):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"# dt=1 t0={t0}\n1\n2\n3\n")
        code = run("fft", "--in", str(bad), "--out", str(tmp_path / "s.csv"))
        assert code == 1
        err = capsys.readouterr().err
        assert "malformed input file" in err and "bad.csv, line 1:" in err

    def test_bad_segment_exit_2(self, tmp_path, case2_file):
        code = run(
            "fft", "--in", str(case2_file), "--method", "welch",
            "--segment-length", "100", "--out", str(tmp_path / "w.csv"),
        )
        assert code == 2

    @pytest.mark.parametrize(
        "flags, ini, reason",
        [
            (["--method", "welch", "--segment-length", "100"], "", "power of two"),
            (["--method", "welch", "--overlap", "1.5"], "", "overlap_fraction"),
            (["--method", "welch"], "[fft]\nwindow = bogus\n", "bogus"),
            ([], "[fft]\nwindow = bogus\n", "bogus"),
        ],
        ids=["segment", "overlap", "welch-window", "periodogram-window"],
    )
    def test_bad_setting_exit_2_before_reading_the_input(
        self, tmp_path, monkeypatch, capsys, flags, ini, reason
    ):
        # only the default segment length needs the record's sample count
        monkeypatch.setattr(cli.fileio, "read_timeseries", None)
        config = tmp_path / "c.ini"
        config.write_text(ini)
        out = tmp_path / "w.csv"
        code = run(
            "fft", "--config", str(config), "--in", str(tmp_path / "absent.csv"),
            *flags, "--out", str(out),
        )
        assert code == 2
        assert reason in capsys.readouterr().err
        assert not out.exists()


class TestGlide:
    def test_stationary_rows_near_constant(self, tmp_path):
        sig = tmp_path / "stat.csv"
        run("synth", "--component", "1 800 0", "--component", "0.6 2300 0",
            "--n", "4096", "--out", str(sig))
        tracks_csv = tmp_path / "tracks.csv"
        code = run(
            "glide", "--in", str(sig), "--window-len", "512", "--hop", "256",
            "--d", "8", "--out-tracks", str(tracks_csv),
        )
        assert code == 0
        rows, meta = read_tracks(tracks_csv)
        assert meta["window_len"] == 512
        by_window = {}
        for row in rows:
            by_window.setdefault(row["window_start_index"], []).append(
                row["frequency_hz"]
            )
        reference = sorted(next(iter(by_window.values())))
        for freqs in by_window.values():
            for a, b in zip(reference, sorted(freqs)):
                assert abs(a - b) < 1e-3

    def test_pool_conservation(self, tmp_path):
        sig = tmp_path / "stat.csv"
        run("synth", "--component", "1 800 0", "--n", "2048", "--out", str(sig))
        tracks_csv = tmp_path / "tracks.csv"
        pooled_csv = tmp_path / "pooled.csv"
        code = run(
            "glide", "--in", str(sig), "--window-len", "512", "--hop", "512",
            "--d", "8", "--out-tracks", str(tracks_csv),
            "--floor", "0", "--out-pooled", str(pooled_csv),
        )
        assert code == 0
        rows, _ = read_tracks(tracks_csv)
        pooled, meta = read_modes(pooled_csv)
        assert len(pooled) == len(rows)
        assert meta["ranks"] == (0, 0, len(pooled))

    def test_hop_full_length_matches_decompose(self, tmp_path):
        sig = tmp_path / "one.csv"
        run("synth", "--preset", "paper-case-1", "--n", "1024", "--out", str(sig))
        tracks_csv = tmp_path / "tracks.csv"
        code = run(
            "glide", "--in", str(sig), "--window-len", "1024", "--hop", "99999",
            "--d", "8", "--out-tracks", str(tracks_csv),
        )
        assert code == 0
        rows, _ = read_tracks(tracks_csv)
        modes_csv = tmp_path / "modes.csv"
        run("decompose", "--in", str(sig), "--d", "8", "--out-modes", str(modes_csv))
        direct, _ = read_modes(modes_csv)
        assert len(rows) == len(direct)
        for row, mode in zip(rows, direct):
            assert row["frequency_hz"] == mode.frequency_hz
            assert row["amplitude"] == mode.amplitude

    @pytest.mark.parametrize("floor", ["-1", "nan"])
    def test_bad_floor_exit_2_before_sweep(self, tmp_path, monkeypatch, floor):
        sig = tmp_path / "sig.csv"
        run("synth", "--component", "1 800 0", "--n", "2048", "--out", str(sig))
        monkeypatch.setattr(cli, "gliding_hodmd", None)  # the sweep never starts
        tracks_csv, pooled_csv = tmp_path / "t.csv", tmp_path / "p.csv"
        code = run(
            "glide", "--in", str(sig), "--window-len", "512", "--d", "8",
            "--out-tracks", str(tracks_csv),
            "--floor", floor, "--out-pooled", str(pooled_csv),
        )
        assert code == 2
        assert not tracks_csv.exists() and not pooled_csv.exists()

    def test_nan_sample_drops_only_its_windows(self, tmp_path, nan_file):
        tracks_csv = tmp_path / "tracks.csv"
        code = run(
            "glide", "--in", str(nan_file), "--window-len", "512", "--hop", "256",
            "--d", "8", "--out-tracks", str(tracks_csv),
        )
        assert code == 0
        rows, _ = read_tracks(tracks_csv)
        starts = set(range(0, 4096 - 512 + 1, 256))
        nan_windows = {s for s in starts if s <= NAN_INDEX < s + 512}
        assert nan_windows == {1536, 1792}
        assert {row["window_start_index"] for row in rows} == starts - nan_windows

    def test_window_sizing_exit_3(self, tmp_path):
        sig = tmp_path / "sig.csv"
        run("synth", "--component", "1 800 0", "--n", "2048", "--out", str(sig))
        code = run(
            "glide", "--in", str(sig), "--window-len", "512", "--d", "300",
            "--out-tracks", str(tmp_path / "t.csv"),
        )
        assert code == 3

    def test_window_sizing_exit_3_before_reading_the_input(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli.fileio, "read_timeseries", None)
        tracks_csv = tmp_path / "t.csv"
        code = run(
            "glide", "--in", str(tmp_path / "absent.csv"), "--window-len", "512",
            "--d", "300", "--out-tracks", str(tracks_csv),
        )
        assert code == 3
        assert not tracks_csv.exists()


class TestCompare:
    def test_case2_with_truth(self, tmp_path):
        sig = tmp_path / "c2full.csv"
        assert run("synth", "--preset", "paper-case-2", "--out", str(sig)) == 0
        out_dir = tmp_path / "report"
        code = run(
            "compare", "--in", str(sig), "--d", "50",
            "--kernel", "gaussian", "--h", "0.5", "--grid", "1700:2100:0.05",
            "--truth", "2008,1992,1800", "--out-dir", str(out_dir),
        )
        assert code == 0
        report = json.loads((out_dir / "report.json").read_text())
        assert max(report["mode_errors_hz"]) < 0.1
        fft_err_1800 = report["fft_peak_errors_hz"][2]
        assert fft_err_1800 >= 1.0
        for name in ("modes.csv", "kds_spectrum.csv", "fft_spectrum.csv"):
            assert (out_dir / name).exists()

    def test_case1_both_paths_agree(self, tmp_path):
        sig = tmp_path / "c1full.csv"
        assert run("synth", "--preset", "paper-case-1", "--out", str(sig)) == 0
        out_dir = tmp_path / "report1"
        code = run(
            "compare", "--in", str(sig), "--d", "10",
            "--kernel", "gaussian", "--h", "0.5", "--grid", "1950:2050:0.05",
            "--truth", "2000", "--out-dir", str(out_dir),
        )
        assert code == 0
        report = json.loads((out_dir / "report.json").read_text())
        assert report["mode_errors_hz"][0] < 1e-6
        assert report["fft_peak_errors_hz"][0] <= FS / 2**16

    def test_truth_omitted_no_error_table(self, tmp_path, case1_file):
        out_dir = tmp_path / "noerr"
        code = run(
            "compare", "--in", str(case1_file), "--d", "10",
            "--kernel", "gaussian", "--h", "0.5", "--out-dir", str(out_dir),
        )
        assert code == 0
        report = json.loads((out_dir / "report.json").read_text())
        assert "mode_errors_hz" not in report
        assert "fft_peak_errors_hz" not in report
        assert report["outputs"]["modes_csv"].endswith("modes.csv")


    def test_non_finite_sample_exit_4(self, tmp_path, capsys, nan_file):
        out_dir = tmp_path / "nan_report"
        code = run(
            "compare", "--in", str(nan_file), "--d", "10",
            "--kernel", "gaussian", "--h", "0.5", "--out-dir", str(out_dir),
        )
        assert code == 4
        assert "non-finite" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_negative_peak_prominence_exit_2_before_decomposition(
        self, tmp_path, case1_file
    ):
        out_dir = tmp_path / "report"
        code = run(
            "compare", "--in", str(case1_file), "--d", "10",
            "--kernel", "gaussian", "--h", "0.5", "--truth", "2000",
            "--peak-prominence", "-1", "--out-dir", str(out_dir),
        )
        assert code == 2
        assert not out_dir.exists()

    def test_nan_peak_prominence_exit_2_before_decomposition(
        self, tmp_path, monkeypatch, case1_file
    ):
        monkeypatch.setattr(cli, "hodmd", None)  # the decomposition never starts
        out_dir = tmp_path / "report"
        code = run(
            "compare", "--in", str(case1_file), "--d", "10",
            "--kernel", "gaussian", "--h", "0.5", "--truth", "2000",
            "--peak-prominence", "nan", "--out-dir", str(out_dir),
        )
        assert code == 2
        assert not out_dir.exists()

    @pytest.mark.parametrize("truth", ["nan", "inf", "2000,-inf"])
    def test_non_finite_truth_exit_2_before_reading_the_input(
        self, tmp_path, monkeypatch, capsys, case1_file, truth
    ):
        # NaN and Infinity in the report would make it invalid JSON
        monkeypatch.setattr(cli, "hodmd", None)  # the decomposition never starts
        monkeypatch.setattr(cli.fileio, "read_timeseries", None)  # nor the read
        out_dir = tmp_path / "report"
        code = run(
            "compare", "--in", str(case1_file), "--d", "10",
            "--kernel", "gaussian", "--h", "0.5", "--truth", truth,
            "--out-dir", str(out_dir),
        )
        assert code == 2
        assert "truth frequencies must be finite" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "flags, reason",
        [
            ([], "kernel parameter h is required"),
            (["--h", "0.5", "--grid", "5:1:0.1"], "f_min must be below f_max"),
            (["--h", "0.5", "--method", "welch", "--segment-length", "100"], "power of two"),
            (["--h", "0.5", "--d", "0"], "d must be >= 1"),
        ],
        ids=["no-h", "grid", "segment", "zero-d"],
    )
    def test_bad_setting_exit_2_before_reading_the_input(
        self, tmp_path, monkeypatch, capsys, flags, reason
    ):
        monkeypatch.setattr(cli, "hodmd", None)
        monkeypatch.setattr(cli.fileio, "read_timeseries", None)
        out_dir = tmp_path / "report"
        code = run(
            "compare", "--in", str(tmp_path / "missing.csv"), "--d", "10", *flags,
            "--out-dir", str(out_dir),
        )
        assert code == 2
        assert reason in capsys.readouterr().err
        assert not out_dir.exists()


# one small command per section of the settings table, each setting given
COMMANDS = {
    "synth": ["synth", "--preset", "paper-case-1", "--n", "256", "--noise-sigma", "0.1",
              "--out", "{out}/sig.csv"],
    "hodmd": ["decompose", "--in", "{sig}", "--d", "10", "--out-modes", "{out}/m.csv"],
    "kds": ["spectrum", "--in", "{modes}", "--h", "1", "--weighting", "time_constant",
            "--grid", "1990:2050:0.5", "--out", "{out}/kds.csv"],
    "fft": ["fft", "--in", "{sig}", "--method", "welch", "--out", "{out}/psd.csv"],
    "glide": ["glide", "--in", "{sig}", "--window-len", "256", "--d", "8",
              "--out-tracks", "{out}/t.csv", "--out-pooled", "{out}/p.csv"],
    "compare": ["compare", "--in", "{sig}", "--d", "10", "--h", "0.5",
                "--out-dir", "{out}/report"],
}
# per setting: a value that changes its command's output (save spatial_policy,
# which a one-channel record cannot show), and a bad value
VALUES = {
    "preset": ("paper-case-2", "paper-case-9"),
    "fs": ("5000", "-1"),
    "n": ("128", "0"),
    "noise_sigma": ("0.2", "-1"),
    "seed": ("3", "x"),
    "d": ("12", "0"),
    "spatial_policy": ("optimal", "none"),
    "temporal_policy": ("count:4", "magic"),
    "amplitude_policy": ("count:2", "count:x"),
    "kernel": ("lorentz", "bogus"),
    "h": ("2", "-1"),
    "weighting": ("power", "bogus"),
    "grid": ("2000:2040:0.25", "5:1:0.1"),
    "tau_max": ("0.01", "0"),
    "lorentz_unit_numerator": ("off", "ture"),
    "method": ("welch", "bogus"),
    "window": ("rectangular", "bogus"),
    "segment_length": ("256", "100"),
    "overlap_fraction": ("0.25", "1.5"),
    "window_len": ("512", "x"),
    "hop": ("128", "0"),
    "floor": ("0.5", "-1"),
    "truth": ("2008,1992,1800", "nan"),
}
FLAG_ROWS = [row for row in SETTINGS if row.flag]


class TestSettingsTable:
    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        """A 1,024-sample paper-case-2 record and a two-mode modes file."""
        where = tmp_path_factory.mktemp("inputs")
        sig, two = where / "sig.csv", where / "two.csv"
        assert run("synth", "--preset", "paper-case-2", "--n", "1024", "--out", str(sig)) == 0
        assert run("synth", "--component", "1 2014 10", "--component", "0.5 2028 20",
                   "--n", "4096", "--out", str(two)) == 0
        modes = where / "modes.csv"
        assert run("decompose", "--in", str(two), "--d", "10", "--out-modes", str(modes)) == 0
        return {"sig": sig, "modes": modes}

    @staticmethod
    def argv(row, inputs, out, *setting):
        """The row's command without its own setting, then ``setting``."""
        argv = list(COMMANDS[row.section])
        if row.flag in argv:
            del argv[argv.index(row.flag):argv.index(row.flag) + 2]
        return [a.format(out=out, **inputs) for a in argv] + list(setting)

    @staticmethod
    def written(out):
        """Every file under ``out`` by name; a report less its paths and time."""
        files = {}
        for path in sorted(p for p in out.rglob("*") if p.is_file()):
            data = path.read_bytes()
            if path.suffix == ".json":
                report = json.loads(data)
                for key in ("input", "outputs", "wall_time_s"):
                    report.pop(key)
                data = report
            files[path.relative_to(out)] = data
        return files

    @pytest.mark.parametrize("row", FLAG_ROWS, ids=lambda row: row.key)
    def test_flag_and_file_write_the_same_bytes(self, tmp_path, inputs, row):
        value = VALUES[row.key][0]
        by_flag, by_file = tmp_path / "flag", tmp_path / "file"
        config = tmp_path / "c.ini"
        config.write_text(f"[{row.section}]\n{row.key} = {value}\n")
        by_flag.mkdir()
        by_file.mkdir()
        assert run(*self.argv(row, inputs, by_flag, row.flag, value)) == 0
        assert run(*self.argv(row, inputs, by_file, "--config", str(config))) == 0
        assert self.written(by_flag) == self.written(by_file) != {}

    @pytest.mark.parametrize(
        "row, source",
        [(row, "flag") for row in FLAG_ROWS] + [(row, "file") for row in SETTINGS],
        ids=lambda x: getattr(x, "key", x),
    )
    def test_bad_value_exit_2_names_it(
        self, tmp_path, monkeypatch, capsys, inputs, row, source
    ):
        bad = VALUES[row.key][1]
        monkeypatch.setattr(cli.fileio, "read_timeseries", None)
        monkeypatch.setattr(cli.fileio, "read_modes", None)
        config = tmp_path / "c.ini"
        config.write_text(f"[{row.section}]\n{row.key} = {bad}\n")
        setting = [row.flag, bad] if source == "flag" else ["--config", str(config)]
        out = tmp_path / "out"
        out.mkdir()
        assert run(*self.argv(row, inputs, out, *setting)) == 2
        err = capsys.readouterr().err
        assert (row.flag if source == "flag" else f"[{row.section}] {row.key}") in err
        assert repr(bad) in err
        assert not any(out.iterdir())


class TestDeterminism:
    def test_rerun_byte_identical(self, tmp_path, case2_file):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert (
                run("decompose", "--in", str(case2_file), "--d", "12",
                    "--out-modes", str(out)) == 0
            )
        assert a.read_bytes() == b.read_bytes()


def hostile_file(tmp_path, name):
    """A record or modes file that one defect makes malformed or degenerate."""
    path = tmp_path / f"{name}.csv"
    sig = tmp_path / "sig.csv"
    assert run("synth", "--preset", "paper-case-2", "--n", "4096", "--out", str(sig)) == 0
    lines = sig.read_text().splitlines(keepends=True)
    if name == "bom":
        path.write_bytes(b"\xef\xbb\xbf" + sig.read_bytes())
    elif name in ("nan", "underscore"):
        lines[1 + NAN_INDEX] = "nan\n" if name == "nan" else "1_000\n"
        path.write_text("".join(lines))
    elif name == "huge":
        # finite samples whose power overflows float64
        write_timeseries(path, TimeSeries(1e308 * np.cos(0.3 * np.arange(4096)), 1 / FS))
    else:
        names = "" if name == "no-names" else MODE_NAMES + "\n"
        growth = "1e300" if name == "growth-1e300" else "-100"
        path.write_text(
            f"# dt=4e-05\n{names}1800,{growth},1,0,1,0\n"
            "1992,-80,1,0,1,0\n2008,-50,1,0,1,0\n"
        )
    return path


READERS = {
    "decompose": ["decompose", "--d", "10", "--out-modes", "{out}"],
    "fft": ["fft", "--out", "{out}"],
    "welch": ["fft", "--method", "welch", "--out", "{out}"],
    "glide": ["glide", "--window-len", "512", "--hop", "256", "--d", "8",
              "--out-tracks", "{out}"],
    "compare": ["compare", "--d", "10", "--h", "0.5", "--out-dir", "{out}"],
    "spectrum": ["spectrum", "--h", "5", "--out", "{out}"],
}


class TestHostileFiles:
    # (file, reading command, exit code, text the error names)
    @pytest.mark.parametrize(
        "name, command, code, where",
        [
            *[("bom", c, 1, "bom.csv, line 1:") for c in ("decompose", "fft", "glide", "compare")],
            *[("underscore", c, 1, f"line {2 + NAN_INDEX}:")
              for c in ("decompose", "fft", "glide", "compare")],
            *[("nan", c, 4, "non-finite") for c in ("decompose", "fft", "welch", "compare")],
            ("nan", "glide", 0, ""),
            *[("huge", c, 4, "overflows") for c in ("fft", "welch")],
            ("no-names", "spectrum", 1, "no-names.csv, line 2:"),
            ("growth-1e300", "spectrum", 1, "growth-1e300.csv, line 3:"),
        ],
    )
    def test_exit_code_by_cause(self, tmp_path, capsys, name, command, code, where):
        path = hostile_file(tmp_path, name)
        out = tmp_path / "out"
        argv = [a.format(out=out) for a in READERS[command]]
        assert run(argv[0], "--in", str(path), *argv[1:]) == code
        err = capsys.readouterr().err
        assert where in err and "Traceback" not in err
        assert out.exists() == (code == 0)

    # the +-1e308 record: its power and its delay matrices' leading singular
    # values overflow float64, so each command fails by that cause under
    # either policy, with the error line alone on stderr and no warning;
    # glide fails every window and writes no rows
    @pytest.mark.parametrize(
        "command, policy, code",
        [
            *[(c, p, 0 if c == "glide" else 4)
              for c in ("decompose", "compare", "glide") for p in ("default", "optimal")],
            ("fft", "default", 4),
            ("welch", "default", 4),
        ],
    )
    def test_huge_samples_overflow(self, tmp_path, capsys, command, policy, code):
        path = hostile_file(tmp_path, "huge")
        out = tmp_path / "out"
        argv = [a.format(out=out) for a in READERS[command]]
        if policy == "optimal":
            argv += ["--spatial", "optimal", "--temporal", "optimal"]
        capsys.readouterr()  # the synth run of hostile_file
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(argv[0], "--in", str(path), *argv[1:]) == code
        assert caught == []
        err = capsys.readouterr().err
        if code == 0:
            assert err == "" and read_tracks(out)[0] == []
        else:
            assert err.startswith("error: degenerate input:") and err.count("\n") == 1
            assert "float64" in err and not out.exists()
