import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from modespect import (
    GlideConfig,
    HodmdConfig,
    KdsConfig,
    Spectrum,
    TimeSeries,
    build_snapshots,
    gliding_hodmd,
    hodmd,
    kds_gaussian,
    synth_decaying_sum,
    preset_components,
)
from modespect import fileio
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
# the column names line that write_modes gives a one-channel mode list
MODE_NAMES = "frequency_hz,growth_rate,amplitude,phase_rad,shape0_re,shape0_im"



@settings(max_examples=200, deadline=None)
@given(x=st.floats(allow_nan=False, allow_infinity=False))
@example(x=-0.0)
@example(x=5e-324)
def test_seventeen_digits_round_trip(tmp_path_factory, x):
    path = tmp_path_factory.getbasetemp() / "round_trip.csv"
    samples = np.array([x, -x])
    write_timeseries(path, TimeSeries(samples, 1.0))
    # bytes, not ==, so the sign of zero counts
    assert read_timeseries(path).samples.tobytes() == samples.tobytes()


def template_rows(*columns) -> bytes:
    """The float rows as the Python row template writes them: the reference
    the vectorized writer must equal byte for byte."""
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    lists = [np.asarray(col, dtype=float).tolist() for col in columns]
    return "".join(row % values for values in zip(*lists)).encode("ascii")


def csv_column(values) -> bytes:
    return fileio._csv_rows(np.asarray(values, dtype=float).reshape(-1, 1))


def with_neighbours(x):
    x = np.asarray(x, dtype=float)
    return np.concatenate([x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf)])


POWERS_OF_TEN = np.array([float(f"1e{k}") for k in range(-323, 309)])
SPECIAL_VALUES = np.array(
    [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324,
     2.2250738585072009e-308, 2.2250738585072014e-308, 1.7976931348623157e308,
     -1.7976931348623157e308, 2.0**-25, 3 * 2.0**-25, 0.1, 0.5, 1.0, 2.0**53, 2.0**63]
)


class TestFloatText:
    def test_random_bit_patterns(self):
        bits = np.random.default_rng(20).integers(0, 2**64, 200_000, dtype=np.uint64)
        values = bits.view(float)  # subnormals, inf and nan (of either sign) included
        assert csv_column(values) == template_rows(values)

    def test_powers_of_ten_and_neighbours(self):
        values = with_neighbours(POWERS_OF_TEN)
        assert csv_column(values) == template_rows(values)
        assert csv_column(-values) == template_rows(-values)

    def test_special_values(self):
        assert csv_column(SPECIAL_VALUES) == template_rows(SPECIAL_VALUES)
        assert csv_column([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan]) == (
            b"0\n-0\ninf\n-inf\nnan\nnan\n"
        )

    def test_exact_ties_take_the_python_path(self):
        # 2**-25 = 2.98023223876953125e-08: the 18th digit is an exact 5
        ties = np.array([2.0**-25, 3 * 2.0**-25])
        _, _, near_tie = fileio._scaled_digits(ties, np.array([-8, -8]))
        assert near_tie.all()
        values = np.concatenate([ties, -ties])
        assert csv_column(values) == template_rows(values)
        assert csv_column(ties) == b"2.9802322387695312e-08\n8.9406967163085938e-08\n"

    def test_fixed_and_scientific_switch(self):
        edges = np.array([1e-5, 1e-4, 1e16, 1e17])
        values = with_neighbours(with_neighbours(edges))
        values = np.concatenate([values, -values])
        assert csv_column(values) == template_rows(values)
        assert csv_column(edges) == b"1.0000000000000001e-05\n0.0001\n10000000000000000\n1e+17\n"

    def test_zero_and_empty_columns(self):
        assert csv_column(np.zeros(1000)) == b"0\n" * 1000
        assert csv_column(np.zeros(0)) == b""

    def test_rows_of_several_columns(self):
        rng = np.random.default_rng(21)
        block = rng.normal(size=(500, 3)) * 10.0 ** rng.integers(-20, 20, (500, 3))
        every_7th = block.reshape(-1)[::7]
        every_7th[:] = np.resize(SPECIAL_VALUES, every_7th.size)
        assert fileio._csv_rows(block) == template_rows(*block.T)

    def test_short_column_rejected_before_the_file_opens(self, tmp_path):
        path = tmp_path / "short.csv"
        with pytest.raises(ValueError, match="equal length"):
            fileio._write_table(path, "# n=3", [np.zeros(3), np.zeros(2)])
        assert not path.exists()


def data_rows(path, skip: int) -> bytes:
    """The file's bytes after its first ``skip`` lines."""
    return path.read_bytes().split(b"\n", skip)[skip]


class TestWritersMatchTemplate:
    """Each writer's rows equal the row template applied to its columns."""

    def test_timeseries(self, tmp_path):
        rng = np.random.default_rng(22)
        x = rng.normal(size=3000) * 10.0 ** rng.integers(-30, 30, 3000)
        x[:SPECIAL_VALUES.size] = SPECIAL_VALUES
        path = tmp_path / "real.csv"
        write_timeseries(path, TimeSeries(x, 4e-5))
        assert data_rows(path, 1) == template_rows(x)
        z = x + 1j * rng.normal(size=x.size)
        write_timeseries(path, TimeSeries(z, 4e-5))
        assert data_rows(path, 1) == template_rows(z.real, z.imag)

    def test_modes(self, tmp_path):
        ts = synth_decaying_sum(preset_components("paper-case-2"), fs=FS, n=2048)
        dec = hodmd(build_snapshots(ts), HodmdConfig(d=20, dt=ts.dt))
        path = tmp_path / "modes.csv"
        write_modes(path, dec.modes, dt=ts.dt, d=20, ranks=dec.ranks)
        rates = [[getattr(m, name) for m in dec.modes]
                 for name in ("frequency_hz", "growth_rate", "amplitude", "phase_rad")]
        shapes = np.array([m.shape for m in dec.modes]).T
        parts = [part for shape in shapes for part in (shape.real, shape.imag)]
        assert data_rows(path, 2) == template_rows(*rates, *parts)

    def test_spectrum(self, tmp_path):
        f = np.linspace(0.0, 12500.0, 20001)
        # far from its peak the density underflows to exact zeros
        spec = Spectrum(f, np.exp(-(((f - 3000.0) / 40.0) ** 2)), {"source": "x"})
        path = tmp_path / "spec.csv"
        write_spectrum(path, spec)
        assert data_rows(path, 2) == template_rows(spec.frequencies, spec.values)

    def test_tracks(self, tmp_path):
        ts = synth_decaying_sum(preset_components("paper-case-1"), fs=FS, n=2048)
        cfg = GlideConfig(window_len=512, hodmd=HodmdConfig(d=8, dt=ts.dt), hop=256)
        tracks = gliding_hodmd(ts, cfg)
        path = tmp_path / "tracks.csv"
        write_tracks(path, tracks, dt=ts.dt, window_len=512, hop=256, d=8)
        rows = [(t.window_start_index, t.window_start_time, m.frequency_hz,
                 m.growth_rate, m.amplitude, m.phase_rad) for t in tracks for m in t.modes]
        assert rows
        assert data_rows(path, 2) == template_rows(*np.array(rows).T)


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
        [("1\n2\nabc\n", 4), ("1\n\n2\n3,4\n", 5), ("1,2\n3\n", 3), ("1\n1_000\n", 3)],
        ids=["non-numeric", "ragged-after-blank", "ragged-short", "underscore"],
    )
    def test_malformed_row_names_file_line(self, tmp_path, body, line):
        path = tmp_path / "bad.csv"
        path.write_text("# dt=1 t0=0\n" + body)
        with pytest.raises(MalformedFileError, match=f"bad.csv, line {line}:"):
            read_timeseries(path)

    @pytest.mark.parametrize("byte", [b"\xe9", "\u00e9".encode("utf-8"), b"\xef\xbb\xbf"])
    def test_non_ascii_byte_reads_in_a_comment_only(self, tmp_path, byte):
        path = tmp_path / "note.csv"
        path.write_bytes(b"# dt=1 t0=0 " + byte + b"\n1\n2 # " + byte + b"\n3\n")
        np.testing.assert_array_equal(read_timeseries(path).samples, [1.0, 2.0, 3.0])
        path.write_bytes(b"# dt=1 t0=0\n1\n2" + byte + b"\n3\n")
        with pytest.raises(MalformedFileError, match="note.csv, line 3:"):
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

    def test_poles_are_cmath_exp_of_the_rates(self, tmp_path):
        # the loop reference: cmath.exp of complex(g, 2 pi f) * dt, row by row,
        # on random rates and on signed zeros, whose signs reach the pole
        rng = np.random.default_rng(4)
        f = np.concatenate([rng.uniform(-12500, 12500, 2000), [0.0, -0.0, -0.0, 0.0, -0.0]])
        g = np.concatenate([rng.uniform(-3000, 300, 2000), [0.0, -0.0, -5.0, -5.0, 5.0]])
        path = tmp_path / "modes.csv"
        rates = list(zip(f.tolist(), g.tolist()))
        rows = "".join(f"{a!r},{b!r},1,0,1,0\n" for a, b in rates)
        path.write_text(f"# dt=4e-05\n{MODE_NAMES}\n{rows}")
        want = [cmath.exp(complex(b, 2.0 * math.pi * a) * 4e-5) for a, b in rates]
        got = [m.eigenvalue for m in read_modes(path)[0]]
        assert np.array(got).view(np.uint64).tolist() == np.array(want).view(np.uint64).tolist()

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
            ("dt=1e-3 ranks=1,2", "2000,-80,1,0,1,0", 1),
            ("dt=1e-3", "2000,-80,1,0,1,0,1", 2),  # odd shape columns
            ("dt=1e-3", "2000,-80,1", 2),  # fewer than 4 columns
            ("dt=1e-3", "2000,-80,-1,0,1,0", 3),  # negative amplitude
            # a NaN row after a blank line and a good row
            ("dt=1e-3", "\n2000,-80,1,0,1,0\nnan,-80,1,0,1,0", 5),
        ],
        ids=["ranks", "two-ranks", "odd-shape", "three-columns", "negative-amplitude", "nan"],
    )
    def test_malformed_modes_file_names_line(self, tmp_path, header, row, line):
        path = tmp_path / "modes.csv"
        path.write_text(f"# {header}\n{MODE_NAMES}\n{row}\n")
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

    @pytest.mark.parametrize(
        "row, line",
        [
            ("inf,0,1000,-20,1,0", 3),
            # a NaN row after a blank line and a good row
            ("\n0,0,1000,-20,1,0\nnan,0,1000,-20,1,0", 5),
            ("1.5,6e-05,1000,-20,1,0", 3),
            ("-3,0,1000,-20,1,0", 3),
        ],
        ids=["inf", "nan", "fraction", "negative"],
    )
    def test_malformed_window_index_names_line(self, tmp_path, row, line):
        path = tmp_path / "tracks.csv"
        names = ",".join(fileio._TRACK_COLUMNS)
        path.write_text(f"# dt=4e-05 window_len=512 hop=64 d=8\n{names}\n{row}\n")
        with pytest.raises(MalformedFileError, match=f"tracks.csv, line {line}:"):
            read_tracks(path)

    def test_no_rows_reads_empty(self, tmp_path):
        path = tmp_path / "tracks.csv"
        write_tracks(path, [], dt=1.0, window_len=512, hop=64, d=8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows, meta = read_tracks(path)
        assert rows == []
        assert meta["window_len"] == 512
