import math

import numpy as np
import pytest
import scipy.signal
from hypothesis import given, settings
from hypothesis import strategies as st

from modespect import (
    TimeSeries,
    WelchConfig,
    add_gaussian_noise,
    default_welch_config,
    dft,
    periodogram,
    welch,
)

from conftest import head

FS = 25_000.0

signals = st.lists(
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
    min_size=2,
    max_size=128,
)


class TestDft:
    def test_constant_signal_dc_only(self):
        c = 1.75
        spec = dft(TimeSeries(np.full(8, c), dt=1.0))
        assert spec[0] == pytest.approx(8 * c, rel=1e-12)
        assert np.all(np.abs(spec[1:]) < 1e-12 * 8 * c)

    def test_sine_at_exact_bin(self):
        n, m = 64, 5
        x = np.sin(2 * math.pi * m * np.arange(n) / n)
        spec = dft(TimeSeries(x, dt=1.0))
        assert abs(spec[m]) == pytest.approx(n / 2, rel=1e-9)
        assert abs(spec[n - m]) == pytest.approx(n / 2, rel=1e-9)
        others = np.delete(np.abs(spec), [m, n - m])
        assert np.all(others < 1e-9 * n)

    def test_matches_definition_direct_sum(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=12)  # non power of two
        spec = dft(TimeSeries(x, dt=1.0))
        k = np.arange(12)
        for j in range(12):
            direct = np.sum(x * np.exp(-2j * math.pi * j * k / 12))
            assert spec[j] == pytest.approx(direct, abs=1e-10)

    @settings(max_examples=50, deadline=None)
    @given(values=signals)
    def test_parseval(self, values):
        x = np.asarray(values)
        spec = dft(TimeSeries(x, dt=1.0))
        lhs = float(np.sum(np.abs(x) ** 2))
        rhs = float(np.sum(np.abs(spec) ** 2) / x.size)
        assert rhs == pytest.approx(lhs, rel=1e-10, abs=1e-10)

    def test_conjugate_symmetry_real_input(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=32)
        spec = dft(TimeSeries(x, dt=1.0))
        mirrored = np.conj(spec[(-np.arange(32)) % 32])
        np.testing.assert_allclose(spec, mirrored, rtol=1e-12, atol=1e-12)

    def test_linearity(self):
        rng = np.random.default_rng(5)
        x, y = rng.normal(size=24), rng.normal(size=24)
        a, b = 2.5, -1.25
        lhs = dft(TimeSeries(a * x + b * y, dt=1.0))
        rhs = a * dft(TimeSeries(x, dt=1.0)) + b * dft(TimeSeries(y, dt=1.0))
        scale = float(np.max(np.abs(rhs)))
        np.testing.assert_allclose(lhs, rhs, atol=1e-10 * scale)


class TestPeriodogram:
    def test_case1_peak_within_one_bin(self, case1_full):
        spec = periodogram(case1_full, "rectangular")
        bin_width = FS / len(case1_full)
        assert bin_width == pytest.approx(0.3814697265625)
        peak_freq = spec.frequencies[np.argmax(spec.values)]
        assert abs(peak_freq - 2000.0) <= bin_width

    def test_all_values_nonnegative(self, case2_full):
        spec = periodogram(head(case2_full, 4096), "hann")
        assert np.all(spec.values >= 0)

    @pytest.mark.parametrize("window", ["rectangular", "hann"])
    def test_matches_scipy(self, window):
        rng = np.random.default_rng(6)
        x = rng.normal(size=1024)
        ts = TimeSeries(x, dt=1.0 / FS)
        mine = periodogram(ts, window)
        win = "boxcar" if window == "rectangular" else "hann"
        f_ref, p_ref = scipy.signal.periodogram(
            x, fs=FS, window=win, detrend=False
        )
        np.testing.assert_allclose(mine.frequencies, f_ref)
        np.testing.assert_allclose(mine.values, p_ref, rtol=1e-9, atol=1e-12)

    def test_sine_power_window_invariant(self):
        # integrated PSD of a full-scale sine: A^2/2 regardless of window
        n = 4096
        t = np.arange(n) / FS
        x = np.sin(2 * math.pi * 1000.0 * t)
        for window in ("rectangular", "hann"):
            spec = periodogram(TimeSeries(x, dt=1.0 / FS), window)
            total = float(np.sum(spec.values) * (FS / n))
            assert total == pytest.approx(0.5, rel=0.01)

    def test_white_noise_level(self):
        # one-sided interior level ~ 2 sigma^2 / fs, i.e. sigma^2/fs two-sided
        sigma, n = 0.7, 8192
        levels = []
        for seed in range(5):
            ts = add_gaussian_noise(TimeSeries(np.zeros(n), dt=1.0 / FS), sigma, seed)
            spec = periodogram(ts, "rectangular")
            levels.append(np.mean(spec.values[1:-1]) / 2.0)
        assert np.mean(levels) == pytest.approx(sigma**2 / FS, rel=0.1)

    def test_complex_input_rejected(self):
        with pytest.raises(ValueError):
            periodogram(TimeSeries(np.ones(8, dtype=complex), dt=1.0))


class TestWelch:
    def test_single_segment_equals_periodogram(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=256)
        ts = TimeSeries(x, dt=1.0 / FS)
        cfg = WelchConfig(segment_length=256, overlap_fraction=0.5, window="hann")
        np.testing.assert_array_equal(
            welch(ts, cfg).values, periodogram(ts, "hann").values
        )

    def test_stationary_sine_peak(self):
        n, seg = 8192, 1024
        t = np.arange(n) / FS
        x = np.sin(2 * math.pi * 3000.0 * t)
        spec = welch(TimeSeries(x, dt=1.0 / FS), WelchConfig(segment_length=seg))
        peak = spec.frequencies[np.argmax(spec.values)]
        assert abs(peak - 3000.0) <= FS / seg

    def test_averaging_reduces_variance(self):
        n = 8192
        ratios = []
        for seed in range(4):
            ts = add_gaussian_noise(TimeSeries(np.zeros(n), dt=1.0 / FS), 1.0, seed)
            single = periodogram(ts, "hann")
            averaged = welch(
                ts, WelchConfig(segment_length=n // 8, overlap_fraction=0.0)
            )
            ratios.append(np.var(averaged.values[1:-1]) / np.var(single.values[1:-1]))
        assert np.mean(ratios) < 0.5

    def test_matches_scipy(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=4096)
        ts = TimeSeries(x, dt=1.0 / FS)
        cfg = WelchConfig(segment_length=512, overlap_fraction=0.5, window="hann")
        mine = welch(ts, cfg)
        f_ref, p_ref = scipy.signal.welch(
            x, fs=FS, window="hann", nperseg=512, noverlap=256, detrend=False
        )
        np.testing.assert_allclose(mine.frequencies, f_ref)
        np.testing.assert_allclose(mine.values, p_ref, rtol=1e-9, atol=1e-12)

    def test_default_config(self):
        cfg = default_welch_config(2**16)
        assert cfg.segment_length == 2**13
        assert cfg.overlap_fraction == 0.5
        assert cfg.window == "hann"
        assert default_welch_config(100).segment_length == 8

    def test_validation(self):
        with pytest.raises(ValueError):
            WelchConfig(segment_length=6)
        with pytest.raises(ValueError):
            WelchConfig(segment_length=100)  # not a power of two
        with pytest.raises(ValueError):
            WelchConfig(segment_length=64, overlap_fraction=1.0)

    def test_short_signal_rejected(self):
        with pytest.raises(ValueError):
            welch(TimeSeries(np.ones(10), dt=1.0), WelchConfig(segment_length=16))


def one_shot_psd(segments, w, fs):
    """One-sided PSD of every segment along the last axis, formed at once."""
    coeffs = np.fft.rfft(segments * w, axis=-1)
    psd = (coeffs.real**2 + coeffs.imag**2) / (fs * float(np.sum(w * w)))
    if w.size % 2 == 0:
        psd[..., 1:-1] *= 2.0
    else:
        psd[..., 1:] *= 2.0
    return psd


def window_samples(kind, n):
    if kind == "rectangular":
        return np.ones(n)
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


class TestBitIdenticalToOneShot:
    """The in-place periodogram and the running Welch average against the
    formulas applied to the whole record at once, bit for bit."""

    @pytest.mark.parametrize("window", ["rectangular", "hann"])
    @pytest.mark.parametrize("n", [3 * 2**16 + 5, 2**17 + 2])
    def test_periodogram(self, window, n):
        ts = TimeSeries(np.random.default_rng(n).normal(size=n), dt=1.0 / FS)
        got = periodogram(ts, window)
        ref = one_shot_psd(ts.samples, window_samples(window, n), ts.fs)
        assert got.values.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("window, overlap", [("hann", 0.5), ("rectangular", 0.3)])
    def test_welch(self, window, overlap):
        # 2**16 + 777 samples: the last segment ends short of the record
        n, seg = 2**16 + 777, 2**12
        ts = TimeSeries(np.random.default_rng(4).normal(size=n), dt=1.0 / FS)
        step = int(round(seg * (1.0 - overlap)))
        segments = np.lib.stride_tricks.sliding_window_view(ts.samples, seg)[::step]
        assert (n - seg) % step != 0 and segments.shape[0] > 15
        ref = one_shot_psd(segments, window_samples(window, seg), ts.fs)
        ref = ref.sum(axis=0) / segments.shape[0]
        got = welch(ts, WelchConfig(seg, overlap, window))
        assert got.values.tobytes() == ref.tobytes()
        assert got.meta["segments"] == segments.shape[0]


class TestDampedLineBroadening:
    def test_decay_spreads_and_displaces_fft_peaks(self, case2_full):
        # the 1800 Hz mode's nearest Fourier peak lands ~3 Hz off, while the
        # mode-based extraction in test_decompose recovers it exactly
        from modespect import find_peaks

        spec = periodogram(case2_full, "rectangular")
        peaks = find_peaks(spec, 1e-9 * float(spec.values.max()))
        nearest = min(peaks, key=lambda p: abs(p[0] - 1800.0))
        assert abs(nearest[0] - 1800.0) >= 1.0
