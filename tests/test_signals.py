import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modespect import (
    DampedComponent,
    TimeSeries,
    add_gaussian_noise,
    preset_components,
    relative_max_error,
    relative_rms_error,
    synth_decaying_sum,
)
from modespect.signals import _BLOCK

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


def components_strategy(max_size=4):
    return st.lists(
        st.builds(
            DampedComponent,
            amplitude=st.floats(min_value=0.0, max_value=10.0),
            frequency_hz=st.floats(min_value=0.0, max_value=5000.0),
            damping=st.floats(min_value=-5.0, max_value=200.0),
            phase_rad=st.floats(min_value=-math.pi, max_value=math.pi),
        ),
        max_size=max_size,
    )


class TestTimeSeries:
    def test_basic_properties(self):
        ts = TimeSeries(np.arange(4.0), dt=0.5, t0=1.0)
        assert len(ts) == 4
        assert ts.fs == 2.0
        assert ts.n_channels == 1
        np.testing.assert_allclose(ts.times(), [1.0, 1.5, 2.0, 2.5])

    def test_two_channel(self):
        ts = TimeSeries(np.zeros((2, 8)), dt=0.1)
        assert ts.n_channels == 2
        assert len(ts) == 8

    @pytest.mark.parametrize("dt", [0.0, -1.0, math.nan, math.inf])
    def test_bad_dt_rejected(self, dt):
        with pytest.raises(ValueError):
            TimeSeries(np.ones(3), dt=dt)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            TimeSeries(np.empty(0), dt=1.0)


class TestSynth:
    def test_matches_per_sample_loop(self):
        comps = [
            DampedComponent(1.0, 2000.0, 80.0),
            DampedComponent(0.5, 300.0, 10.0, phase_rad=0.7),
        ]
        fs, n = 25_000.0, 64
        ts = synth_decaying_sum(comps, fs=fs, n=n)
        for k in range(n):
            t = k / fs
            expected = sum(
                c.amplitude
                * math.exp(-t * c.damping)
                * math.sin(2 * math.pi * c.frequency_hz * t + c.phase_rad)
                for c in comps
            )
            assert ts.samples[k] == pytest.approx(expected, rel=1e-12, abs=1e-15)

    def test_empty_components_all_zero(self):
        ts = synth_decaying_sum([], fs=1000.0, n=17)
        assert len(ts) == 17
        assert not np.any(ts.samples)

    def test_dt_is_inverse_fs(self):
        ts = synth_decaying_sum([], fs=25_000.0, n=2)
        assert ts.dt == 1.0 / 25_000.0

    def test_unit_sine_rms_over_integer_periods(self):
        # 10 full periods of a pure sine: RMS must be 1/sqrt(2)
        ts = synth_decaying_sum(
            [DampedComponent(1.0, 100.0, 0.0)], fs=10_000.0, n=1000
        )
        rms = float(np.sqrt(np.mean(ts.samples**2)))
        assert abs(rms - 1.0 / math.sqrt(2.0)) < 1e-6

    @settings(max_examples=50, deadline=None)
    @given(c1=components_strategy(), c2=components_strategy())
    def test_linearity(self, c1, c2):
        fs, n = 5_000.0, 128
        combined = synth_decaying_sum(c1 + c2, fs=fs, n=n)
        separate = synth_decaying_sum(c1, fs=fs, n=n).samples + synth_decaying_sum(
            c2, fs=fs, n=n
        ).samples
        scale = max(np.max(np.abs(separate)), 1.0)
        np.testing.assert_allclose(combined.samples, separate, atol=1e-12 * scale)

    def test_non_finite_component_rejected(self):
        with pytest.raises(ValueError):
            DampedComponent(1.0, math.nan, 80.0)
        with pytest.raises(ValueError):
            DampedComponent(-0.5, 100.0, 1.0)

    @pytest.mark.parametrize("fs,n", [(0.0, 4), (-1.0, 4), (math.inf, 4), (100.0, 0)])
    def test_bad_args_rejected(self, fs, n):
        with pytest.raises(ValueError):
            synth_decaying_sum([], fs=fs, n=n)


class TestNoise:
    def test_sigma_zero_returns_input_unchanged(self):
        ts = synth_decaying_sum([DampedComponent(1.0, 10.0)], fs=100.0, n=32)
        out = add_gaussian_noise(ts, 0.0, seed=3)
        assert out is ts

    def test_same_seed_identical(self):
        ts = TimeSeries(np.zeros(256), dt=0.01)
        a = add_gaussian_noise(ts, 0.5, seed=11)
        b = add_gaussian_noise(ts, 0.5, seed=11)
        np.testing.assert_array_equal(a.samples, b.samples)

    def test_different_seed_differs(self):
        ts = TimeSeries(np.zeros(256), dt=0.01)
        a = add_gaussian_noise(ts, 0.5, seed=11)
        b = add_gaussian_noise(ts, 0.5, seed=12)
        assert not np.array_equal(a.samples, b.samples)

    def test_sample_std_matches_sigma(self):
        # law-of-large-numbers check: 1e5 samples, 2% tolerance
        ts = TimeSeries(np.zeros(100_000), dt=1.0)
        out = add_gaussian_noise(ts, 0.1, seed=0)
        std = float(np.std(out.samples - ts.samples))
        assert abs(std - 0.1) / 0.1 < 0.02

    def test_complex_noise_deterministic(self):
        ts = TimeSeries(np.zeros(64, dtype=complex), dt=1.0)
        out = add_gaussian_noise(ts, 1.0, seed=5)
        assert np.iscomplexobj(out.samples)
        np.testing.assert_array_equal(
            out.samples, add_gaussian_noise(ts, 1.0, seed=5).samples
        )

    def test_bad_sigma_rejected(self):
        ts = TimeSeries(np.zeros(4), dt=1.0)
        for sigma in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                add_gaussian_noise(ts, sigma, seed=0)


class TestBlocksMatchOneShot:
    """Synthesis and noise by blocks against the whole-record formulas, bit
    for bit, on three blocks and a ragged fourth."""

    N = 3 * _BLOCK + 5

    def test_synth(self):
        fs = 25_000.0
        comps = list(preset_components("paper-case-3")) + [
            DampedComponent(0.3, 123.4, -1.5, 0.7)
        ]
        t = np.arange(self.N) / fs
        ref = np.zeros(self.N)
        for c in comps:
            ref += c.amplitude * np.exp(-t * c.damping) * np.sin(
                2.0 * np.pi * c.frequency_hz * t + c.phase_rad
            )
        got = synth_decaying_sum(comps, fs=fs, n=self.N)
        assert got.samples.tobytes() == ref.tobytes()

    @pytest.mark.parametrize(
        "kind", ["real", "complex", "two-channel", "two-channel-fortran"]
    )
    def test_noise(self, kind):
        rng = np.random.default_rng(2)
        shape = (2, self.N) if kind.startswith("two-channel") else (self.N,)
        samples = rng.normal(size=shape)
        if kind == "complex":
            samples = samples + 1j * rng.normal(size=shape)
        if kind == "two-channel-fortran":
            samples = np.asfortranarray(samples)
        ts = TimeSeries(samples, dt=1.0)
        before = samples.copy()
        draw = np.random.default_rng(9)
        noise = draw.normal(0.0, 0.05, shape)
        if kind == "complex":
            noise = noise + 1j * draw.normal(0.0, 0.05, shape)
        got = add_gaussian_noise(ts, 0.05, seed=9)
        assert got.samples.tobytes() == (samples + noise).tobytes()
        assert samples.tobytes() == before.tobytes()  # the input is not written


class TestErrorMetrics:
    def setup_method(self):
        rng = np.random.default_rng(7)
        self.ref = TimeSeries(rng.normal(size=200), dt=0.25)

    def test_identity_is_zero(self):
        assert relative_rms_error(self.ref, self.ref) == 0.0
        assert relative_max_error(self.ref, self.ref) == 0.0

    def test_doubled_candidate(self):
        cand = TimeSeries(2.0 * self.ref.samples, self.ref.dt)
        assert relative_rms_error(self.ref, cand) == pytest.approx(1.0, rel=1e-12)

    def test_negated_candidate(self):
        cand = TimeSeries(-self.ref.samples, self.ref.dt)
        assert relative_rms_error(self.ref, cand) == pytest.approx(2.0, rel=1e-12)

    def test_constant_offset_max_error(self):
        ref = TimeSeries(np.array([1.0, -4.0, 2.0]), dt=1.0)
        cand = TimeSeries(ref.samples + 0.5, dt=1.0)
        assert relative_max_error(ref, cand) == pytest.approx(0.5 / 4.0, rel=1e-12)

    def test_max_error_matches_loop_oracle(self):
        rng = np.random.default_rng(21)
        ref = rng.normal(size=64)
        cand = ref + rng.normal(scale=0.1, size=64)
        expected = max(abs(r - c) for r, c in zip(ref, cand)) / max(abs(r) for r in ref)
        got = relative_max_error(TimeSeries(ref, 1.0), TimeSeries(cand, 1.0))
        assert got == pytest.approx(expected, rel=1e-12)

    # exact dyadic values keep the arithmetic exact, so the zero-iff-equal
    # semantics are tested without denormal-underflow corner cases
    dyadics = st.integers(min_value=-16000, max_value=16000).map(lambda k: k / 16.0)

    @settings(max_examples=50, deadline=None)
    @given(
        values=st.lists(dyadics, min_size=2, max_size=40),
        delta=st.lists(dyadics, min_size=2, max_size=40),
    )
    def test_nonnegative_and_zero_iff_equal(self, values, delta):
        n = min(len(values), len(delta))
        ref = np.asarray(values[:n])
        ref[0] = 1.0  # reference must not be all-zero
        cand = ref + np.asarray(delta[:n])
        rms = relative_rms_error(TimeSeries(ref, 1.0), TimeSeries(cand, 1.0))
        mx = relative_max_error(TimeSeries(ref, 1.0), TimeSeries(cand, 1.0))
        assert rms >= 0 and mx >= 0
        if np.array_equal(ref, cand):
            assert rms == 0 and mx == 0
        else:
            assert rms > 0 and mx > 0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            relative_rms_error(TimeSeries(np.ones(3), 1.0), TimeSeries(np.ones(4), 1.0))

    def test_zero_reference_rejected(self):
        zero = TimeSeries(np.zeros(3), 1.0)
        with pytest.raises(ValueError):
            relative_rms_error(zero, zero)
        with pytest.raises(ValueError):
            relative_max_error(zero, zero)
