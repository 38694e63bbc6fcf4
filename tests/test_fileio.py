import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from modespect import (
    GlideConfig,
    HodmdConfig,
    KdsConfig,
    TimeSeries,
    build_snapshots,
    gliding_hodmd,
    hodmd,
    kds_gaussian,
    synth_decaying_sum,
    preset_components,
)
from modespect.fileio import (
    MalformedFileError,
    read_modes,
    read_spectrum,
    read_timeseries,
    read_tracks,
    write_modes,
    write_spectrum,
    write_timeseries,
    write_tracks,
)

FS = 25_000.0

reasonable_floats = st.floats(
    min_value=-1e300, max_value=1e300, allow_nan=False, allow_infinity=False
)


@settings(max_examples=200, deadline=None)
@given(x=reasonable_floats)
@example(x=-0.0)
@example(x=5e-324)
def test_seventeen_digits_round_trip(tmp_path_factory, x):
    path = tmp_path_factory.getbasetemp() / "round_trip.csv"
    samples = np.array([x, -x])
    write_timeseries(path, TimeSeries(samples, 1.0))
    # bytes, not ==, so the sign of zero counts
    assert read_timeseries(path).samples.tobytes() == samples.tobytes()


class TestTimeSeriesCsv:
    def test_real_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        ts = TimeSeries(rng.normal(size=64) * 10.0 ** rng.integers(-10, 10, 64), 4e-5, 0.25)
        path = tmp_path / "series.csv"
        write_timeseries(path, ts)
        back = read_timeseries(path)
        np.testing.assert_array_equal(back.samples, ts.samples)
        assert back.dt == ts.dt
        assert back.t0 == ts.t0

    def test_complex_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        ts = TimeSeries(rng.normal(size=32) + 1j * rng.normal(size=32), 1e-3)
        path = tmp_path / "series.csv"
        write_timeseries(path, ts)
        back = read_timeseries(path)
        assert np.iscomplexobj(back.samples)
        np.testing.assert_array_equal(back.samples, ts.samples)

    def test_header_format(self, tmp_path):
        ts = TimeSeries(np.array([1.0, 2.0]), dt=4e-5)
        path = tmp_path / "series.csv"
        write_timeseries(path, ts)
        first = path.read_text().splitlines()[0]
        assert first.startswith("# dt=")
        assert "t0=0" in first

    def test_rewrite_byte_identical(self, tmp_path):
        ts = synth_decaying_sum(preset_components("paper-case-1"), fs=FS, n=256)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_timeseries(a, ts)
        write_timeseries(b, ts)
        assert a.read_bytes() == b.read_bytes()

    def test_multichannel_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_timeseries(tmp_path / "x.csv", TimeSeries(np.zeros((2, 4)), 1.0))

    def test_missing_file_gives_oserror(self, tmp_path):
        with pytest.raises(OSError):
            read_timeseries(tmp_path / "nope.csv")

    def test_header_only_has_no_samples(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("# dt=1 t0=0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="no samples"):
                read_timeseries(path)

    @pytest.mark.parametrize(
        "body, line",
        [("1\n2\nabc\n", 4), ("1\n\n2\n3,4\n", 5), ("1,2\n3\n", 3)],
        ids=["non-numeric", "ragged-after-blank", "ragged-short"],
    )
    def test_malformed_row_names_file_line(self, tmp_path, body, line):
        path = tmp_path / "bad.csv"
        path.write_text("# dt=1 t0=0\n" + body)
        with pytest.raises(MalformedFileError, match=f"bad.csv, line {line}:"):
            read_timeseries(path)

    def test_missing_header_is_malformed(self, tmp_path):
        path = tmp_path / "bare.csv"
        path.write_text("1\n2\n")
        with pytest.raises(MalformedFileError, match="line 1"):
            read_timeseries(path)

    @pytest.mark.parametrize("t0", ["abc", "nan", "inf"])
    def test_non_finite_t0_is_malformed(self, tmp_path, t0):
        path = tmp_path / "bad.csv"
        path.write_text(f"# dt=1 t0={t0}\n1\n2\n3\n")
        with pytest.raises(MalformedFileError, match="bad.csv, line 1: .*t0="):
            read_timeseries(path)


class TestModesCsv:
    @pytest.fixture()
    def decomposition(self):
        ts = synth_decaying_sum(preset_components("paper-case-2"), fs=FS, n=4096)
        return ts, hodmd(build_snapshots(ts), HodmdConfig(d=20, dt=ts.dt))

    def test_round_trip(self, tmp_path, decomposition):
        ts, dec = decomposition
        path = tmp_path / "modes.csv"
        write_modes(path, dec.modes, dt=ts.dt, d=20, ranks=dec.ranks)
        modes, meta = read_modes(path)
        assert meta["d"] == 20
        assert meta["ranks"] == dec.ranks
        assert meta["dt"] == ts.dt
        assert len(modes) == len(dec.modes)
        for got, want in zip(modes, dec.modes):
            assert got.frequency_hz == want.frequency_hz
            assert got.growth_rate == want.growth_rate
            assert got.amplitude == want.amplitude
            assert got.phase_rad == want.phase_rad
            np.testing.assert_array_equal(got.shape, want.shape)
            # the pole is re-derived from the stored rates
            assert abs(got.eigenvalue - want.eigenvalue) <= 1e-10 * abs(want.eigenvalue)

    def test_column_header(self, tmp_path, decomposition):
        ts, dec = decomposition
        path = tmp_path / "modes.csv"
        write_modes(path, dec.modes, dt=ts.dt, d=20, ranks=dec.ranks)
        lines = path.read_text().splitlines()
        assert lines[1] == "frequency_hz,growth_rate,amplitude,phase_rad,shape0_re,shape0_im"
        assert len(lines) == 2 + len(dec.modes)

    def test_header_without_dt_is_malformed(self, tmp_path):
        path = tmp_path / "modes.csv"
        path.write_text("# d=20 ranks=1,2,1\nfrequency_hz,growth_rate\n2000,-80\n")
        with pytest.raises(MalformedFileError, match="modes.csv, line 1:"):
            read_modes(path)

    @pytest.mark.parametrize(
        "header, row, line",
        [
            ("dt=1e-3 ranks=a,b,c", "2000,-80,1,0,1,0", 1),
            ("dt=1e-3", "2000,-80,1,0,1,0,1", 2),  # odd shape columns
            ("dt=1e-3", "2000,-80,1", 2),  # fewer than 4 columns
            ("dt=1e-3", "2000,-80,-1,0,1,0", 3),  # negative amplitude
            # a NaN row after a blank line and a good row
            ("dt=1e-3", "\n2000,-80,1,0,1,0\nnan,-80,1,0,1,0", 5),
        ],
        ids=["ranks", "odd-shape", "three-columns", "negative-amplitude", "nan"],
    )
    def test_malformed_modes_file_names_line(self, tmp_path, header, row, line):
        path = tmp_path / "modes.csv"
        path.write_text(f"# {header}\nfrequency_hz,growth_rate\n{row}\n")
        with pytest.raises(MalformedFileError, match=f"modes.csv, line {line}:"):
            read_modes(path)


class TestSpectrumCsv:
    def test_round_trip(self, tmp_path):
        ts = synth_decaying_sum(preset_components("paper-case-1"), fs=FS, n=2048)
        dec = hodmd(build_snapshots(ts), HodmdConfig(d=8, dt=ts.dt))
        spec = kds_gaussian(list(dec.modes), KdsConfig(kernel="gaussian", h=0.5))
        path = tmp_path / "spec.csv"
        write_spectrum(path, spec)
        back = read_spectrum(path)
        np.testing.assert_array_equal(back.frequencies, spec.frequencies)
        np.testing.assert_array_equal(back.values, spec.values)
        assert back.meta["kernel"] == "gaussian"
        assert back.meta["h"] == 0.5
        assert back.meta["weighting"] == "density"

    def test_column_line(self, tmp_path):
        from modespect import Spectrum

        spec = Spectrum(np.array([1.0, 2.0]), np.array([0.5, 0.25]), {"source": "x"})
        path = tmp_path / "s.csv"
        write_spectrum(path, spec)
        lines = path.read_text().splitlines()
        assert lines[0] == "# source=x"
        assert lines[1] == "frequency_hz,value"
        assert lines[2] == "1,0.5"

    @pytest.mark.parametrize(
        "rows, match",
        [
            ("1\n2\n", "s.csv, line 2:"),
            ("1,0.5,2\n", "s.csv, line 2:"),
            ("1,-0.5\n", "s.csv: spectrum values"),
        ],
        ids=["one-column", "three-columns", "negative-value"],
    )
    def test_malformed_spectrum_file(self, tmp_path, rows, match):
        path = tmp_path / "s.csv"
        path.write_text("# source=x\nfrequency_hz,value\n" + rows)
        with pytest.raises(MalformedFileError, match=match):
            read_spectrum(path)


class TestTracksCsv:
    def test_round_trip(self, tmp_path):
        comps = preset_components("paper-case-1")
        ts = synth_decaying_sum(comps, fs=FS, n=2048)
        cfg = GlideConfig(window_len=512, hodmd=HodmdConfig(d=8, dt=ts.dt), hop=512)
        tracks = gliding_hodmd(ts, cfg)
        path = tmp_path / "tracks.csv"
        write_tracks(path, tracks, dt=ts.dt, window_len=512, hop=512, d=8)
        rows, meta = read_tracks(path)
        assert meta["window_len"] == 512 and meta["hop"] == 512 and meta["d"] == 8
        assert len(rows) == sum(len(t.modes) for t in tracks)
        i = 0
        for track in tracks:
            for m in track.modes:
                row = rows[i]
                assert row["window_start_index"] == track.window_start_index
                assert row["window_start_time"] == track.window_start_time
                assert row["frequency_hz"] == m.frequency_hz
                assert row["amplitude"] == m.amplitude
                i += 1

    def test_no_rows_reads_empty(self, tmp_path):
        path = tmp_path / "tracks.csv"
        write_tracks(path, [], dt=1.0, window_len=512, hop=64, d=8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows, meta = read_tracks(path)
        assert rows == []
        assert meta["window_len"] == 512
