import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modespect import (
    FrequencyGrid,
    HodmdConfig,
    KdsConfig,
    Mode,
    Spectrum,
    Tolerance,
    add_gaussian_noise,
    batch_hodmd,
    find_peaks,
    kds_gaussian,
    kds_lorentz,
    pool_modes,
    preset_components,
    synth_decaying_sum,
)
from modespect.decompose import _mode_columns
from modespect.kds import (
    _PANEL,
    _default_lorentz_grid,
    _local_maxima,
    _prominences,
    _time_constants,
)

DT = 4e-5


def mode(freq, damping=10.0, amplitude=1.0):
    ev = cmath.exp(complex(-damping, 2 * math.pi * freq) * DT)
    return Mode(
        frequency_hz=freq,
        growth_rate=-damping,
        amplitude=amplitude,
        phase_rad=0.0,
        shape=np.array([1.0 + 0j]),
        eigenvalue=ev,
    )


mode_lists = st.lists(
    st.builds(
        mode,
        freq=st.floats(min_value=10.0, max_value=5000.0),
        damping=st.floats(min_value=0.5, max_value=200.0),
        amplitude=st.floats(min_value=0.0, max_value=5.0),
    ),
    min_size=1,
    max_size=6,
)


class TestFrequencyGrid:
    def test_frequencies_cover_range(self):
        grid = FrequencyGrid(10.0, 11.0, 0.25)
        np.testing.assert_allclose(
            grid.frequencies(), [10.0, 10.25, 10.5, 10.75, 11.0]
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            FrequencyGrid(5.0, 5.0, 0.1)
        with pytest.raises(ValueError):
            FrequencyGrid(0.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            FrequencyGrid(0.0, math.inf, 1.0)

    def test_grid_above_the_point_cap(self):
        FrequencyGrid(0.0, 1.0, 1.0 / (2**26 - 1))  # 2**26 points
        with pytest.raises(ValueError, match="--grid"):
            FrequencyGrid(0.0, 1.0, 1.0 / 2**26)
        with pytest.raises(ValueError, match="points exceeds"):
            FrequencyGrid(-1e308, 1e308, 1e-300)


def steady_beside_decaying():
    """1,800 Hz at -100 1/s and a steady-looking 2,000 Hz at -1e-9 1/s."""
    return [mode(1800.0, damping=100.0), mode(2000.0, damping=1e-9)]


class TestDefaultGridTooFine:
    # the default grids ask for 9.45e12 and 1e12 points: refused before any
    # array is allocated
    def test_lorentz(self):
        with pytest.raises(ValueError, match=r"9\.45\d*e\+12 points.*--tau-max"):
            kds_lorentz(steady_beside_decaying(), KdsConfig(kernel="lorentz", h=1.0))

    def test_gaussian(self):
        cfg = KdsConfig(kernel="gaussian", h=1e-9)
        with pytest.raises(ValueError, match=r"1e\+12 points.*--grid"):
            kds_gaussian(steady_beside_decaying(), cfg)

    def test_finite_tau_max_gives_a_usable_grid(self):
        cfg = KdsConfig(kernel="lorentz", h=1.0, tau_max=1.0)
        spec = kds_lorentz(steady_beside_decaying(), cfg)
        assert spec.frequencies.size < 2**26


class TestGaussianKds:
    def test_single_mode_peak_and_one_sigma_point(self):
        f0, h = 100.0, 0.5
        grid = FrequencyGrid(f0 - 2 * h, f0 + 2 * h, h / 5)
        spec = kds_gaussian([mode(f0)], KdsConfig(kernel="gaussian", h=h, grid=grid))
        at = {round(f, 6): v for f, v in zip(spec.frequencies, spec.values)}
        assert at[round(f0, 6)] == pytest.approx(1.0, rel=1e-12)
        assert at[round(f0 + h, 6)] == pytest.approx(math.exp(-0.5), rel=1e-9)

    def test_two_identical_modes_match_single(self):
        f0, h = 200.0, 1.0
        grid = FrequencyGrid(150.0, 250.0, 0.1)
        cfg = KdsConfig(kernel="gaussian", h=h, grid=grid)
        single = kds_gaussian([mode(f0)], cfg)
        double = kds_gaussian([mode(f0), mode(f0)], cfg)
        np.testing.assert_array_equal(single.values, double.values)

    def test_close_modes_separate_at_small_bandwidth(self):
        grid = FrequencyGrid(1990.0, 2050.0, 0.01)
        cfg = KdsConfig(kernel="gaussian", h=0.05, grid=grid)
        spec = kds_gaussian([mode(2014.0), mode(2028.0)], cfg)
        peaks = find_peaks(spec, 0.25)
        assert [round(p[0], 2) for p in peaks] == [2014.0, 2028.0]

    def test_power_weighting(self):
        f0, h = 50.0, 1.0
        grid = FrequencyGrid(40.0, 60.0, 0.1)
        cfg = KdsConfig(kernel="gaussian", h=h, grid=grid, weighting="power")
        spec = kds_gaussian([mode(f0, amplitude=3.0)], cfg)
        assert spec.values.max() == pytest.approx(9.0, rel=1e-12)

    def test_time_constant_weighting_and_clamp(self):
        f0, h = 50.0, 1.0
        grid = FrequencyGrid(40.0, 60.0, 0.1)
        cfg = KdsConfig(kernel="gaussian", h=h, grid=grid, weighting="time_constant")
        spec = kds_gaussian([mode(f0, damping=4.0)], cfg)
        assert spec.values.max() == pytest.approx(0.25, rel=1e-12)
        clamped = KdsConfig(
            kernel="gaussian", h=h, grid=grid, weighting="time_constant", tau_max=0.1
        )
        spec2 = kds_gaussian([mode(f0, damping=4.0)], clamped)
        assert spec2.values.max() == pytest.approx(0.1, rel=1e-12)

    def test_undamped_mode_requires_tau_max(self):
        grid = FrequencyGrid(40.0, 60.0, 0.1)
        cfg = KdsConfig(kernel="gaussian", h=1.0, grid=grid, weighting="time_constant")
        with pytest.raises(ValueError, match="tau_max"):
            kds_gaussian([mode(50.0, damping=0.0)], cfg)

    def test_step_must_stay_below_bandwidth(self):
        grid = FrequencyGrid(0.0, 10.0, 0.5)
        cfg = KdsConfig(kernel="gaussian", h=0.5, grid=grid)
        with pytest.raises(ValueError, match="step"):
            kds_gaussian([mode(5.0)], cfg)

    def test_default_grid_step_and_span(self):
        cfg = KdsConfig(kernel="gaussian", h=2.0)
        spec = kds_gaussian([mode(100.0), mode(120.0)], cfg)
        assert spec.meta["step"] == pytest.approx(2.0 / 5)
        assert spec.meta["f_min"] == pytest.approx(100.0 - 10.0)
        assert spec.meta["f_max"] == pytest.approx(120.0 + 10.0)

    def test_empty_mode_list_rejected(self):
        cfg = KdsConfig(kernel="gaussian", h=1.0)
        with pytest.raises(ValueError):
            kds_gaussian([], cfg)

    def test_wrong_kernel_rejected(self):
        cfg = KdsConfig(kernel="lorentz", h=1.0)
        with pytest.raises(ValueError):
            kds_gaussian([mode(10.0)], cfg)

    @settings(max_examples=40, deadline=None)
    @given(modes=mode_lists)
    def test_values_nonnegative_finite_and_density_bounded(self, modes):
        cfg = KdsConfig(kernel="gaussian", h=2.0, weighting="density")
        spec = kds_gaussian(modes, cfg)
        assert np.all(spec.values >= 0)
        assert np.all(np.isfinite(spec.values))
        assert np.all(spec.values <= 1.0 + 1e-12)

    def test_power_scale_equivariance_exact(self):
        freqs = [100.0, 140.0, 260.0]
        base = [mode(f, amplitude=a) for f, a in zip(freqs, (0.3, 1.7, 0.9))]
        scaled = [mode(f, amplitude=2.0 * a) for f, a in zip(freqs, (0.3, 1.7, 0.9))]
        grid = FrequencyGrid(50.0, 300.0, 0.5)
        cfg = KdsConfig(kernel="gaussian", h=3.0, grid=grid, weighting="power")
        v1 = kds_gaussian(base, cfg).values
        v2 = kds_gaussian(scaled, cfg).values
        np.testing.assert_array_equal(v2, 4.0 * v1)

    def test_grid_refinement_stability(self):
        modes = [mode(2014.0), mode(2028.0)]
        coarse_step = 0.04
        coarse = FrequencyGrid(2000.0, 2040.0, coarse_step)
        fine = FrequencyGrid(2000.0, 2040.0, coarse_step / 2)
        cfg_c = KdsConfig(kernel="gaussian", h=0.5, grid=coarse)
        cfg_f = KdsConfig(kernel="gaussian", h=0.5, grid=fine)
        pk_c = find_peaks(kds_gaussian(modes, cfg_c), 0.1)
        pk_f = find_peaks(kds_gaussian(modes, cfg_f), 0.1)
        assert len(pk_c) == len(pk_f) == 2
        for (fc, _), (ff, _) in zip(pk_c, pk_f):
            assert abs(fc - ff) <= coarse_step


def full_grid_gaussian(modes, cfg):
    """Reference: every mode's kernel summed over the whole grid, in mode order."""
    freqs = cfg.grid.frequencies()
    values = np.zeros_like(freqs)
    for m in modes:
        if cfg.weighting == "power":
            w = m.amplitude**2
        elif cfg.weighting == "time_constant":
            w = min(1.0 / abs(m.growth_rate), cfg.tau_max)
        else:
            w = 1.0
        z = (freqs - m.frequency_hz) / cfg.h
        values += w * np.exp(-0.5 * z * z)
    return values / len(modes)


class TestGaussianSupport:
    # each mode is evaluated within 40 h only; the kernel is exactly 0.0
    # beyond 38.6 h, so the sum equals the full-grid one bit for bit

    @pytest.mark.parametrize("weighting", ["density", "power", "time_constant"])
    @pytest.mark.parametrize(
        "freqs, h, grid",
        [
            ([100.0, 100.3, 140.0, 260.05], 0.5, FrequencyGrid(50.0, 300.0, 0.1)),
            ([20.0, 49.0, 301.0, 310.0, 350.0], 0.5, FrequencyGrid(50.0, 300.0, 0.1)),
            ([-5e3, 60.0, 1e4], 400.0, FrequencyGrid(50.0, 300.0, 0.5)),
            ([55.0, 55.0, 299.99], 7.0, FrequencyGrid(50.0, 300.0, 0.25)),
        ],
        ids=["on-grid", "off-grid", "h-wider-than-grid", "at-edges"],
    )
    def test_matches_full_grid(self, weighting, freqs, h, grid):
        amps = np.linspace(0.2, 3.0, len(freqs))
        dampings = np.linspace(0.5, 90.0, len(freqs))
        modes = [mode(f, d, a) for f, d, a in zip(freqs, dampings, amps)]
        cfg = KdsConfig(
            kernel="gaussian", h=h, weighting=weighting, grid=grid, tau_max=0.3
        )
        values = kds_gaussian(modes, cfg).values
        assert np.array_equal(values, full_grid_gaussian(modes, cfg))

    def test_non_finite_weight_still_rejected(self):
        # a NaN amplitude far off the grid still poisons the spectrum
        modes = [mode(100.0), mode(1e4, amplitude=math.nan)]
        grid = FrequencyGrid(50.0, 300.0, 0.1)
        cfg = KdsConfig(kernel="gaussian", h=0.5, weighting="power", grid=grid)
        with pytest.raises(ValueError, match="finite"):
            kds_gaussian(modes, cfg)


def direct_lorentz(modes, cfg):
    """Reference: the per-mode loop over the whole grid that the panel sum
    replaced, kept as it was."""
    mode_freqs, growth, amps, *_ = _mode_columns(modes)
    taus = _time_constants(growth, cfg.tau_max)
    grid = cfg.grid or _default_lorentz_grid(mode_freqs, cfg.h, taus)
    numerator = 1.0 if cfg.lorentz_unit_numerator else math.sqrt(cfg.h)
    freqs = grid.frequencies()
    values = np.zeros_like(freqs)
    four_pi2_h = 4.0 * math.pi**2 * cfg.h
    for fk, ak, tk in zip(mode_freqs, amps, taus):  # fixed summation order
        df = freqs - fk
        values += (numerator * ak * tk) / np.sqrt(1.0 + four_pi2_h * tk * tk * df * df)
    values /= len(modes)
    return values


def assert_matches_direct(modes, cfg, rtol=1e-13):
    got = kds_lorentz(modes, cfg).values
    want = direct_lorentz(modes, cfg)
    assert got.shape == want.shape
    worst = np.max(np.abs(got - want) / want)
    assert worst <= rtol, worst


def saturated_pool(seed=1):
    """The saturated-batch benchmark's pool: 8 noisy 1,024-sample paper-case-2
    segments (1% of peak), d=500 under Tolerance(1e-10), every mode pooled."""
    clean = synth_decaying_sum(preset_components("paper-case-2"), fs=25_000.0, n=1024)
    sigma = 0.01 * float(np.abs(clean.samples).max())
    seeds = np.random.default_rng(seed).integers(2**31, size=8)
    segments = [add_gaussian_noise(clean, sigma, int(s)) for s in seeds]
    policy = Tolerance(1e-10)
    cfg = HodmdConfig(d=500, dt=clean.dt, spatial_policy=policy, temporal_policy=policy)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # every segment saturates
        return pool_modes(batch_hodmd(segments, cfg))


@st.composite
def lorentz_cases(draw):
    """Grids of 1 to 2e5 points, among them k panels and one point, with
    modes inside and outside, tau from 1e-6 to 10 s and h from 1e-3 to 1e6."""
    n = draw(
        st.one_of(
            st.integers(1, 200_000),
            st.integers(0, 195).map(lambda k: _PANEL * k + 1),
        )
    )
    step = draw(st.floats(1e-3, 10.0))
    f_min = draw(st.floats(-1e3, 1e4))
    span = max(n - 1, 1) * step
    grid = FrequencyGrid(f_min, f_min + (n - 0.5) * step, step)
    modes = draw(
        st.lists(
            st.builds(
                lambda at, log_tau, log_amp: mode(
                    f_min + at * span, 10.0**-log_tau, 10.0**log_amp
                ),
                at=st.floats(-0.5, 1.5),
                log_tau=st.floats(-6.0, 1.0),
                log_amp=st.floats(-3.0, 3.0),
            ),
            min_size=1,
            max_size=80,
        )
    )
    h = 10.0 ** draw(st.floats(-3.0, 6.0))
    return modes, KdsConfig(kernel="lorentz", h=h, grid=grid)


class TestLorentzPanels:
    # the panel sum (direct near each panel, an interpolated far field
    # beyond) against the per-mode loop over the whole grid

    @settings(max_examples=40, deadline=None)
    @given(case=lorentz_cases())
    def test_matches_direct_sum(self, case):
        assert_matches_direct(*case)

    def test_saturated_batch_pool(self):
        pool = saturated_pool()
        assert len(pool) == 2010
        grid = FrequencyGrid(0.0, 12_500.0, 0.1)
        assert_matches_direct(
            pool, KdsConfig(kernel="lorentz", h=1e3, grid=grid, tau_max=1024 / 25_000.0)
        )

    def test_modes_at_the_near_band_edge(self):
        # sharp kernels just beyond one panel width from each panel's edges,
        # where the far field is interpolated with the least margin
        step = 0.1
        width = (_PANEL - 1) * step
        grid = FrequencyGrid(0.0, 4 * _PANEL * step, step)
        edges = [p * _PANEL * step + e for p in range(4) for e in (0.0, width)]
        freqs = [e + s * width * (1 + 1e-12) for e in edges for s in (-1, 1)]
        freqs += list(np.linspace(-50.0, 500.0, 30))
        modes = [mode(f, damping=0.1) for f in freqs]
        assert_matches_direct(modes, KdsConfig(kernel="lorentz", h=1e6, grid=grid))

    def test_panel_of_one_repeated_frequency(self):
        # at 1e15 Hz the grid points round to two values, and the last panel
        # holds one of them only
        grid = FrequencyGrid(1e15, 1e15 + 0.125, 0.125 / (_PANEL + 76))
        modes = [mode(1e15 + k, damping=100.0) for k in range(-15, 15)]
        assert np.unique(grid.frequencies()[_PANEL:]).size == 1
        assert_matches_direct(modes, KdsConfig(kernel="lorentz", h=1.0, grid=grid))

    @pytest.mark.parametrize("count", [1, 40], ids=["direct", "far-field"])
    def test_identical_modes_match_closed_form(self, count):
        f0, damping, h = 2000.0, 40.0, 50.0
        grid = FrequencyGrid(0.0, 5000.0, 0.05)
        values = kds_lorentz(
            [mode(f0, damping=damping, amplitude=1.5)] * count,
            KdsConfig(kernel="lorentz", h=h, grid=grid),
        ).values
        tau = 1.0 / damping
        df = grid.frequencies() - f0
        closed = 1.5 * tau / np.sqrt(1.0 + 4.0 * math.pi**2 * h * tau**2 * df**2)
        np.testing.assert_allclose(values, closed, rtol=1e-13)

    @pytest.mark.parametrize("count", [2, 60], ids=["direct", "far-field"])
    @pytest.mark.parametrize("bad", ["frequency", "amplitude"])
    def test_non_finite_mode_still_rejected(self, count, bad):
        modes = [mode(f) for f in np.linspace(100.0, 4000.0, count - 1)]
        modes.append(mode(math.nan) if bad == "frequency" else mode(300.0, amplitude=math.inf))
        grid = FrequencyGrid(0.0, 5000.0, 0.1)
        with pytest.raises(ValueError, match="finite"):
            kds_lorentz(modes, KdsConfig(kernel="lorentz", h=100.0, grid=grid))


class TestLorentzKds:
    def test_unit_numerator_peak_value(self):
        f0, damping = 500.0, 25.0  # tau = 0.04
        grid = FrequencyGrid(480.0, 520.0, 0.01)
        cfg = KdsConfig(kernel="lorentz", h=10.0, grid=grid)
        spec = kds_lorentz([mode(f0, damping=damping, amplitude=2.0)], cfg)
        # on-grid peak: numerator 1, denominator 1 at F = F0
        assert spec.values.max() == pytest.approx(2.0 * 0.04, rel=1e-12)

    def test_sqrt_h_numerator_variant(self):
        f0 = 500.0
        grid = FrequencyGrid(480.0, 520.0, 0.01)
        unit = KdsConfig(kernel="lorentz", h=9.0, grid=grid)
        sqrt_num = KdsConfig(
            kernel="lorentz", h=9.0, grid=grid, lorentz_unit_numerator=False
        )
        v_unit = kds_lorentz([mode(f0)], unit).values
        v_sqrt = kds_lorentz([mode(f0)], sqrt_num).values
        np.testing.assert_allclose(v_sqrt, 3.0 * v_unit, rtol=1e-12)

    def test_half_height_offset(self):
        f0, damping, h = 1000.0, 50.0, 4.0
        tau = 1.0 / damping
        offset = math.sqrt(3.0) / (2 * math.pi * math.sqrt(h) * tau)
        step = offset / 8
        grid = FrequencyGrid(f0 - 2 * offset, f0 + 2 * offset, step)
        cfg = KdsConfig(kernel="lorentz", h=h, grid=grid)
        spec = kds_lorentz([mode(f0, damping=damping)], cfg)
        at = {round(f, 6): v for f, v in zip(spec.frequencies, spec.values)}
        peak = at[round(f0, 6)]
        assert at[round(f0 + 8 * step, 6)] == pytest.approx(peak / 2, rel=1e-9)

    def test_larger_h_sharpens(self):
        f0 = 1000.0
        grid = FrequencyGrid(990.0, 1010.0, 0.01)
        lo = kds_lorentz([mode(f0)], KdsConfig(kernel="lorentz", h=1.0, grid=grid))
        hi = kds_lorentz([mode(f0)], KdsConfig(kernel="lorentz", h=1e3, grid=grid))
        idx = np.argmin(np.abs(lo.frequencies - (f0 + 5.0)))  # fixed off-peak offset
        assert hi.values[idx] < lo.values[idx]

    def test_huge_damping_contributes_nothing(self):
        grid = FrequencyGrid(0.0, 10.0, 0.1)
        cfg = KdsConfig(kernel="lorentz", h=1.0, grid=grid)
        spec = kds_lorentz([mode(5.0, damping=1e12)], cfg)
        assert np.all(spec.values < 1e-11)

    @settings(max_examples=40, deadline=None)
    @given(modes=mode_lists)
    def test_values_nonnegative_finite(self, modes):
        cfg = KdsConfig(kernel="lorentz", h=100.0)
        spec = kds_lorentz(modes, cfg)
        assert np.all(spec.values >= 0)
        assert np.all(np.isfinite(spec.values))


class TestConfigValidation:
    def test_kernel_and_weighting_strings(self):
        with pytest.raises(ValueError):
            KdsConfig(kernel="triangle", h=1.0)
        with pytest.raises(ValueError):
            KdsConfig(kernel="gaussian", h=1.0, weighting="loudness")

    @pytest.mark.parametrize("h", [0.0, -1.0, math.inf])
    def test_bad_h(self, h):
        with pytest.raises(ValueError):
            KdsConfig(kernel="gaussian", h=h)


class TestFindPeaks:
    def test_monotone_spectrum_no_peaks(self):
        spec = Spectrum(np.arange(10.0), np.arange(10.0), {})
        assert find_peaks(spec, 0.0) == []

    def test_single_bump(self):
        f = np.linspace(0.0, 10.0, 101)
        v = np.exp(-0.5 * ((f - 4.3) / 0.5) ** 2)
        spec = Spectrum(f, v, {})
        peaks = find_peaks(spec, 0.5)
        assert len(peaks) == 1
        assert peaks[0][0] == pytest.approx(4.3, abs=0.05 + 1e-12)

    def test_plateau_reports_midpoint(self):
        v = np.array([0.0, 1.0, 1.0, 1.0, 0.0])
        spec = Spectrum(np.arange(5.0), v, {})
        peaks = find_peaks(spec, 0.5)
        assert peaks == [(2.0, 1.0)]

    def test_boundary_maxima_excluded(self):
        spec = Spectrum(np.arange(4.0), np.array([5.0, 1.0, 0.5, 9.0]), {})
        assert find_peaks(spec, 0.0) == []

    def test_equal_twin_peaks_share_one_parent(self):
        # exact twins: the leftmost keeps full prominence, the twin only the
        # height above their shared saddle
        v = np.array([0.0, 1.0, 0.8, 1.0, 0.0])
        spec = Spectrum(np.arange(5.0), v, {})
        assert len(find_peaks(spec, 0.1)) == 2
        assert find_peaks(spec, 0.5) == [(1.0, 1.0)]

    def test_sorted_by_frequency(self):
        f = np.linspace(0.0, 100.0, 2001)
        v = np.exp(-0.5 * ((f - 70) / 2) ** 2) + 0.8 * np.exp(-0.5 * ((f - 20) / 2) ** 2)
        peaks = find_peaks(Spectrum(f, v, {}), 0.1)
        freqs = [p[0] for p in peaks]
        assert freqs == sorted(freqs)
        assert len(freqs) == 2

    def test_negative_prominence_rejected(self):
        spec = Spectrum(np.arange(3.0), np.ones(3), {})
        with pytest.raises(ValueError):
            find_peaks(spec, -0.1)

    def test_nan_prominence_rejected(self):
        # every comparison with nan is false, so "< 0" would let it through
        spec = Spectrum(np.arange(3.0), np.array([0.0, 1.0, 0.0]), {})
        with pytest.raises(ValueError):
            find_peaks(spec, math.nan)


def plateau_peaks_brute_force(v):
    """Every (l, r) with one value on v[l..r], strictly lower at l-1 and r+1."""
    n = len(v)
    return [
        (l, r)
        for l in range(1, n - 1)
        for r in range(l, n - 1)
        if len(set(v[l : r + 1])) == 1 and v[l - 1] < v[l] and v[r + 1] < v[l]
    ]


@given(st.lists(st.integers(min_value=-2, max_value=2), min_size=1, max_size=24))
@settings(max_examples=300, deadline=None)
def test_local_maxima_matches_plateau_definition(ints):
    v = np.array(ints, dtype=float)
    assert _local_maxima(v) == plateau_peaks_brute_force(ints)


def walk_prominences(values, runs):
    """Reference: the per-sample walk, tallest peak first, ties leftmost first."""
    n = values.size
    heights = np.array([values[l] for l, _ in runs])
    order = sorted(range(len(runs)), key=lambda k: (-heights[k], runs[k][0]))
    processed = np.zeros(n, dtype=bool)
    prominence = np.empty(len(runs))
    for k in order:
        left, right = runs[k]
        h = heights[k]
        bases = []
        for step, start in ((-1, left - 1), (1, right + 1)):
            lowest = h
            j = start
            while 0 <= j < n:
                v = values[j]
                if v > h or (v == h and processed[j]):
                    break
                if v < lowest:
                    lowest = v
                j += step
            bases.append(lowest)
        prominence[k] = h - max(bases)
        processed[left : right + 1] = True
    return prominence


def array_prominences(values):
    runs = _local_maxima(values)
    left, right = np.array(runs, dtype=int).reshape(-1, 2).T
    return runs, _prominences(values, left, right)


class TestArrayProminences:
    @pytest.mark.parametrize(
        "levels",
        [
            [0, 1, 0.8, 1, 0],  # exact twins
            [0, 2, 1, 2, 1, 2, 0],  # three equal peaks
            [1, 0, 1, 0, 1],  # maxima at both edges, one interior
            [3, 0, 1, 0, 2, 2, 0, 3],  # edges higher than every peak
            [0, 1, 1, 1, 0, 1, 0],  # plateau then a twin
            [0, 1, 0, 2, 0, 1, 0],  # lower peaks on both sides
            [5, 4, 3, 2, 1],  # no peaks
        ],
    )
    def test_hand_cases_match_walk(self, levels):
        v = np.array(levels, dtype=float)
        runs, got = array_prominences(v)
        assert np.array_equal(got, walk_prominences(v, runs))

    @given(st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=40))
    @settings(max_examples=400, deadline=None)
    def test_quantized_arrays_match_walk(self, levels):
        v = 0.25 * np.array(levels, dtype=float)
        runs, got = array_prominences(v)
        assert np.array_equal(got, walk_prominences(v, runs))

    @pytest.mark.parametrize("n_levels", [2, 3, 5, 9])
    def test_long_quantized_arrays_match_walk(self, n_levels):
        rng = np.random.default_rng(n_levels)
        v = np.floor(rng.random(3000) * n_levels) / n_levels
        runs, got = array_prominences(v)
        assert len(runs) > 100
        assert np.array_equal(got, walk_prominences(v, runs))
        f = np.arange(v.size, dtype=float)
        expected = [
            (float(f[(l + r) // 2]), float(v[(l + r) // 2]))
            for (l, r), p in zip(runs, walk_prominences(v, runs))
            if p >= 0.3
        ]
        assert find_peaks(Spectrum(f, v, {}), 0.3) == expected

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_tie_free_arrays_match_scipy(self, seed):
        signal = pytest.importorskip("scipy.signal")
        rng = np.random.default_rng(seed)
        v = np.cumsum(rng.normal(size=5000)) ** 2 + rng.random(5000)
        runs, got = array_prominences(v)
        assert all(l == r for l, r in runs) and len(runs) > 100
        peaks = np.array([l for l, _ in runs])
        assert np.array_equal(got, signal.peak_prominences(v, peaks)[0])
