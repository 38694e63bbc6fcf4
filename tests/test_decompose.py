import cmath
import math
import platform
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modespect import (
    DampedComponent,
    DegenerateInputError,
    FixedCount,
    HodmdConfig,
    Mode,
    OptimalHardThreshold,
    SizingError,
    SnapshotMatrix,
    TimeSeries,
    Tolerance,
    add_gaussian_noise,
    build_delay_embedding,
    build_snapshots,
    dmd,
    eigenvalue_to_rates,
    fit_amplitudes,
    hodmd,
    preset_components,
    reconstruct,
    relative_max_error,
    relative_rms_error,
    synth_decaying_sum,
)
from modespect import decompose, signals
from modespect.decompose import _fit_b, _merge_duplicates, _power_blocks
from modespect.linalg import eig as linalg_eig, lstsq

from conftest import head, peak_amplitude

FS = 25_000.0
DT = 1.0 / FS
BLOCK = decompose._BLOCK


def make_mode(eigenvalue, shape, amplitude=0.0, phase=0.0, dt=DT):
    delta, omega = eigenvalue_to_rates(eigenvalue, dt)
    return Mode(
        frequency_hz=omega / (2 * math.pi),
        growth_rate=delta,
        amplitude=amplitude,
        phase_rad=phase,
        shape=np.asarray(shape, dtype=complex),
        eigenvalue=complex(eigenvalue),
    )


def conjugate_pair_signal(freqs_hz, dampings, n_channels, k, dt, seed):
    """Real multi-channel signal built from known conjugate eigenvalue pairs.

    Complex spatial shapes give each oscillation two independent spatial
    directions, so the data rank equals the temporal complexity.
    """
    rng = np.random.default_rng(seed)
    data = np.zeros((n_channels, k))
    t = np.arange(k) * dt
    for f, d in zip(freqs_hz, dampings):
        shape = rng.normal(size=n_channels) + 1j * rng.normal(size=n_channels)
        data += np.real(np.outer(shape, np.exp((-d + 2j * math.pi * f) * t)))
    return SnapshotMatrix(data, dt)


class TestBuildSnapshots:
    def test_single_channel_row_vector(self):
        ts = TimeSeries(np.arange(1024.0), dt=DT)
        snap = build_snapshots(ts)
        assert snap.data.shape == (1, 1024)
        assert snap.dt == DT

    def test_two_channels(self):
        ts = TimeSeries(np.arange(20.0).reshape(2, 10), dt=DT)
        snap = build_snapshots(ts)
        assert snap.data.shape == (2, 10)
        np.testing.assert_array_equal(snap.data, ts.samples)

    def test_stacking_flatten_round_trip(self):
        x = np.arange(24.0)
        snap = build_snapshots(TimeSeries(x, dt=DT), stacking=4)
        assert snap.data.shape == (4, 6)
        np.testing.assert_array_equal(snap.data.ravel(order="F"), x)
        assert snap.dt == pytest.approx(4 * DT)

    def test_stacking_drops_leftover(self):
        snap = build_snapshots(TimeSeries(np.arange(11.0), dt=DT), stacking=3)
        assert snap.data.shape == (3, 3)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            build_snapshots(TimeSeries(np.ones(3), dt=DT), stacking=2)


class TestDelayEmbedding:
    def test_d1_identity(self):
        x = np.random.default_rng(0).normal(size=(2, 5))
        np.testing.assert_array_equal(build_delay_embedding(x, 1), x)

    def test_hand_checked_case(self):
        x = np.array([[1.0, 2.0, 3.0, 4.0]])
        expected = np.array([[1.0, 2.0, 3.0], [2.0, 3.0, 4.0]])
        np.testing.assert_array_equal(build_delay_embedding(x, 2), expected)

    def test_index_oracle(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(3, 11))
        d = 4
        out = build_delay_embedding(x, d)
        n = x.shape[0]
        assert out.shape == (d * n, x.shape[1] - d + 1)
        for i in range(d):
            for j in range(out.shape[1]):
                np.testing.assert_array_equal(out[i * n : (i + 1) * n, j], x[:, j + i])

    def test_too_few_snapshots_rejected(self):
        with pytest.raises(SizingError):
            build_delay_embedding(np.ones((1, 4)), 4)

    @pytest.mark.parametrize("d", [1, 3])
    def test_one_channel_result_is_a_writable_copy(self, d):
        # for one channel, or d = 1, a reshape of the sliding windows is a
        # read-only view of x
        x = np.arange(8.0)[None, :]
        out = build_delay_embedding(x, d)
        assert out.flags.writeable and out.flags.c_contiguous
        assert not np.shares_memory(out, x)
        out[0, 0] = -1.0
        assert x[0, 0] == 0.0


class TestEigenvalueToRates:
    def test_unit_eigenvalue(self):
        assert eigenvalue_to_rates(1.0, DT) == (0.0, 0.0)

    def test_known_damped_oscillation(self):
        mu = cmath.exp(complex(-80.0, 2 * math.pi * 2000.0) * DT)
        delta, omega = eigenvalue_to_rates(mu, DT)
        assert delta == pytest.approx(-80.0, rel=1e-9)
        assert omega == pytest.approx(2 * math.pi * 2000.0, rel=1e-9)

    def test_quarter_turn(self):
        delta, omega = eigenvalue_to_rates(1j, 1.0)
        assert delta == pytest.approx(0.0, abs=1e-15)
        assert omega == pytest.approx(math.pi / 2, rel=1e-15)

    def test_negative_real_axis_maps_to_pi(self):
        _, omega = eigenvalue_to_rates(complex(-1.0, -0.0), 1.0)
        assert omega == pytest.approx(math.pi)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            eigenvalue_to_rates(0.0, DT)

    @settings(max_examples=100, deadline=None)
    @given(
        delta=st.floats(min_value=-200.0, max_value=50.0),
        omega=st.floats(min_value=-1e4, max_value=1e4),
        dt=st.floats(min_value=1e-6, max_value=1.0),
    )
    def test_round_trip(self, delta, omega, dt):
        # restrict to the principal branch the angle can represent
        if abs(omega) * dt >= math.pi:
            omega = 0.9 * math.pi / dt * math.copysign(1.0, omega)
        mu = cmath.exp(complex(delta, omega) * dt)
        if mu == 0 or not cmath.isfinite(mu):
            return
        d2, w2 = eigenvalue_to_rates(mu, dt)
        back = cmath.exp(complex(d2, w2) * dt)
        assert abs(back - mu) <= 1e-12 * abs(mu)


class TestClassicalDmd:
    def test_two_mode_multichannel_recovery(self):
        # 2 damped-free oscillations over 4 channels: spatial >= temporal complexity
        snap = conjugate_pair_signal(
            [500.0, 1300.0], [0.0, 0.0], n_channels=4, k=400, dt=DT, seed=4
        )
        dec = dmd(snap, Tolerance(1e-10))
        freqs = sorted(m.frequency_hz for m in dec.modes)
        assert freqs == pytest.approx([500.0, 1300.0], abs=1e-6)

    def test_constant_signal_single_unit_pole(self):
        c = -2.5
        snap = SnapshotMatrix(np.full((1, 50), c), dt=DT)
        dec = dmd(snap, Tolerance(1e-10))
        assert len(dec.modes) == 1
        mode = dec.modes[0]
        assert mode.eigenvalue == pytest.approx(1.0, abs=1e-10)
        assert mode.growth_rate == pytest.approx(0.0, abs=1e-6)
        assert mode.frequency_hz == pytest.approx(0.0, abs=1e-9)
        assert mode.amplitude == pytest.approx(abs(c), rel=1e-10)

    def test_single_channel_three_modes_fails(self):
        # temporal complexity 6 > spatial complexity 1: classical DMD cannot work
        ts = synth_decaying_sum(preset_components("paper-case-2"), fs=FS, n=2048)
        dec = dmd(build_snapshots(ts), Tolerance(1e-10))
        assert len(dec.modes) < 3
        assert dec.relative_rms > 0.1

    def test_all_zero_degenerate(self):
        with pytest.raises(DegenerateInputError):
            dmd(SnapshotMatrix(np.zeros((2, 10)), dt=DT), Tolerance(1e-10))

    def test_too_few_snapshots(self):
        with pytest.raises(ValueError):
            dmd(SnapshotMatrix(np.ones((2, 2)), dt=DT), Tolerance(1e-10))


class TestFitAmplitudes:
    def test_constant_mode(self):
        c = 3.25
        snap = SnapshotMatrix(np.full((1, 20), c), dt=DT)
        mode = make_mode(1.0, [1.0])
        b = fit_amplitudes([mode], snap)
        assert b[0] == pytest.approx(c, rel=1e-12)

    def test_two_known_modes_recovered(self):
        dt = 1e-3
        mu1 = cmath.exp(complex(-3.0, 2 * math.pi * 40.0) * dt)
        mu2 = cmath.exp(complex(-1.0, 2 * math.pi * 90.0) * dt)
        shapes = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex)
        b_true = np.array([0.7 - 0.2j, -0.4 + 1.1j])
        k = np.arange(120)
        data = shapes @ (np.array([mu1, mu2])[:, None] ** k * b_true[:, None])
        snap = SnapshotMatrix(data, dt)
        modes = [make_mode(mu1, shapes[:, 0], dt=dt), make_mode(mu2, shapes[:, 1], dt=dt)]
        b = fit_amplitudes(modes, snap)
        np.testing.assert_allclose(b, b_true, rtol=1e-8)

    def test_empty_list_rejected(self):
        snap = SnapshotMatrix(np.ones((1, 5)), dt=DT)
        with pytest.raises(ValueError):
            fit_amplitudes([], snap)

    @pytest.mark.parametrize("n, d", [(2048, 30), (512, 100), (256, 60)])
    def test_reported_modes_reproduce_their_amplitudes(self, n, d):
        # a real record is fitted by reconstruct's model: each reported
        # non-real mode stands for its conjugate pair, with doubled amplitude
        ts = synth_decaying_sum(preset_components("paper-case-2"), fs=FS, n=n)
        snap = build_snapshots(ts)
        dec = hodmd(snap, HodmdConfig(d=d, dt=ts.dt))
        b = fit_amplitudes(dec.modes, snap)
        np.testing.assert_allclose(b, [m.b for m in dec.modes], rtol=1e-8)

    def test_ill_conditioned_warns(self):
        snap = SnapshotMatrix(np.ones((1, 30)), dt=DT)
        modes = [
            make_mode(1.0, [1.0]),
            make_mode(1.0 + 5e-16, [1.0]),  # nearly identical pole
        ]
        with pytest.warns(RuntimeWarning, match="ill-conditioned"):
            fit_amplitudes(modes, snap)


def edge_eigenvalues():
    """Unit-circle points, signed zeros, extreme moduli and 400 random poles."""
    growth = cmath.exp(600 / 1023)
    edge = [
        1, -1, 1j, -1j, 1 - 0j, complex(1.0, -0.0), complex(-1.0, -0.0),
        complex(-0.5, 0.0), complex(-0.5, -0.0), complex(-0.0, 1.0),
        complex(-0.0, -1.0), 1e-300, complex(1e-300, -1e-300), 1e-12,
        1e-12 * cmath.exp(1j), growth, growth * cmath.exp(0.3j),
        0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0),
    ]
    rng = np.random.default_rng(7)
    poles = np.exp(rng.uniform(-0.01, 0.002, 400) + 1j * rng.uniform(-np.pi, np.pi, 400))
    return np.r_[np.array(edge, dtype=complex), poles]


def assert_bitwise_equal(got, expected):
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert np.array_equal(got, expected)
    for part in (np.real, np.imag):
        assert np.array_equal(np.signbit(part(got)), np.signbit(part(expected)))


def walk(lam, k):
    """The powers lam**j, j < k, of ``_power_blocks`` stacked into one table."""
    return np.hstack(list(_power_blocks(lam, k)))


def running_product(lam, k):
    """lam**j for j < k as a running product in extended precision."""
    lam = lam.astype(np.clongdouble)
    table = np.empty((lam.size, k), dtype=np.clongdouble)
    p = np.ones(lam.size, dtype=np.clongdouble)
    for j in range(k):
        table[:, j] = p
        p = p * lam
    return table


def power_error(table, exact):
    """Largest error relative to the exact power, or to the smallest normal
    float where the power underflows."""
    den = np.maximum(np.abs(exact), np.finfo(float).tiny)
    return float(np.max(np.abs(table.astype(np.clongdouble) - exact) / den))


def within_range(lam, k):
    """The poles whose powers stay finite over k snapshots, as hodmd keeps them."""
    mag = np.abs(lam)
    with np.errstate(divide="ignore"):
        return lam[(k - 1) * np.log(np.where(mag > 0, mag, 1.0)) < decompose._LOG_RANGE]


class TestPowerTable:
    """``_power_blocks``: every power a product, walked by blocks."""

    @pytest.mark.skipif(
        platform.libc_ver()[0] != "glibc" or np.finfo(np.longdouble).eps > 1e-18,
        reason="the bound is glibc's cpow; the reference needs extended precision",
    )
    @pytest.mark.parametrize("k", [1, 99, 100, 101, 1024, 4097, 2 * 4096 + 37])
    def test_complex_table_matches_power_operator(self, k):
        # at least as close to the exact powers as lam ** j, which binary
        # powering gives below j = 100 and glibc's cexp(j clog lam) from there
        rng = np.random.default_rng(5)
        extra = np.exp(rng.uniform(-0.05, 0.05, 100) + 1j * rng.uniform(-np.pi, np.pi, 100))
        lam = within_range(np.r_[edge_eigenvalues(), extra], k)
        exact = running_product(lam, k)
        with np.errstate(all="ignore"):
            bound = power_error(lam[:, None] ** np.arange(k), exact)
        assert power_error(walk(lam, k), exact) <= bound

    @pytest.mark.parametrize(
        "start, k", [(0, 4096), (1, 150), (60, 40), (99, 3), (100, 7), (4096, 4096), (8192, 37)]
    )
    def test_block_is_the_columns_of_the_full_table(self, start, k):
        # a record of start + k snapshots gets the powers of a longer one,
        # across a block boundary, bit for bit
        lam = edge_eigenvalues()
        real = np.array([0.99, -0.5, 1.0, -1.0, 0.0, -0.0, 1e-300, 0.9999])
        longer = start + k + BLOCK + 5
        for poles in (within_range(lam, longer), real):
            blocks = list(_power_blocks(poles, start + k))
            assert [b.shape[1] for b in blocks] == [
                min(BLOCK, start + k - k0) for k0 in range(0, start + k, BLOCK)
            ]
            full = walk(poles, longer)
            assert_bitwise_equal(np.hstack(blocks)[:, start:], full[:, start : start + k])

    def test_no_temporary_beside_the_table(self):
        # a reader that drops each block holds at most two: the one it read
        # and the one built from it, plus numpy's 128 KiB ufunc buffer
        lam = edge_eigenvalues()[-40:]
        tracemalloc.start()
        for block in _power_blocks(lam, 2**15):
            size = block.nbytes
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert size == lam.size * BLOCK * 16
        assert peak < 2 * size + 2**18

    def test_real_eigenvalues_keep_a_float_table(self):
        lam = np.array([0.99, -0.5, 1.0, -1.0, 0.0, -0.0, 1e-300])
        for k in (1, 150, BLOCK + 3):
            got = walk(lam, k)
            assert got.dtype == np.float64
            np.testing.assert_allclose(got, lam[:, None] ** np.arange(k), rtol=1e-13)

    def test_unit_poles_are_exact(self):
        k = 2 * BLOCK + 37
        lam = np.array([1, -1, 1j, -1j])
        expected = np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1j, -1, -1j], [1, -1j, -1, 1j]])
        assert np.array_equal(walk(lam, k), np.tile(expected, k // 4 + 1)[:, :k])

    def test_zero_pole_gives_one_then_zeros(self):
        k = BLOCK + 9
        for lam in (np.zeros(1), np.zeros(1, dtype=complex), np.array([complex(-0.0, -0.0)])):
            assert np.array_equal(walk(lam, k), np.r_[1.0, np.zeros(k - 1)][None, :])

    def test_real_axis_entry_of_complex_poles_stays_real(self):
        lam = np.array([-0.999, 0.9 + 0.2j, -1.0001, 0.5, -0.5j], dtype=complex)
        table = walk(lam, 2 * BLOCK + 37)
        assert np.all(table[[0, 2, 3]].imag == 0)
        assert np.any(table[1].imag != 0)

    @pytest.mark.parametrize("k", [600, 2 * BLOCK + 37])
    def test_no_power_past_the_record(self, k):
        # |mu|**(k-1) = e**599, under the cap: lam**1024 after the first
        # block's doubling, or a block past the record, would overflow
        mu = np.array([cmath.exp(599 / (k - 1) + 0.3j), math.exp(599 / (k - 1))])
        with np.errstate(all="raise"):
            table = walk(mu, k)
        assert table.shape == (2, k) and np.all(np.isfinite(table))


class TestAmplitudeRank:
    def test_duplicate_pole_rank_reported(self):
        # each eigenvalue stands for a conjugate pair: two real columns each,
        # and the duplicate pair repeats both
        shapes = np.ones((1, 2), dtype=complex)
        lam = np.array([0.9 + 0.1j, 0.9 + 0.1j])
        data = np.real(lam[0] ** np.arange(40))[None, :]
        with pytest.warns(RuntimeWarning, match="rank 2/4"):
            _, cond, rank = _fit_b(shapes, lam, data)
        assert rank == 2 and cond > 1e12

    def test_full_rank_fit_on_a_decomposition(self):
        ts = synth_decaying_sum(preset_components("paper-case-2"), fs=FS, n=2048)
        dec = hodmd(build_snapshots(ts), HodmdConfig(d=30, dt=ts.dt))
        assert dec.amplitude_rank == dec.ranks[1] == 6


class TestScaledAmplitudeFit:
    def test_steady_mode_beside_a_growing_one(self):
        # the steady mode's power column is 5e13 times smaller than the
        # growing mode's; unscaled, the fit cut it out (amplitude ~1e-15)
        growth = math.log(5e13) / (1023 * DT)
        comps = [
            DampedComponent(1.0, 1000.0, -growth),
            DampedComponent(1.0, 3000.0, 0.0),
        ]
        ts = synth_decaying_sum(comps, fs=FS, n=1024)
        optimal = OptimalHardThreshold()
        cfg = HodmdConfig(d=200, dt=DT, spatial_policy=optimal, temporal_policy=optimal)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dec = hodmd(build_snapshots(ts), cfg)
        steady = [m for m in dec.modes if abs(m.frequency_hz - 3000.0) < 1.0]
        assert len(steady) == 1 and steady[0].amplitude == pytest.approx(1.0, rel=0.02)
        assert dec.amplitude_condition < 10 and dec.amplitude_rank == 4

    def test_power_norms_do_not_overflow(self):
        # |mu|**(k-1) = e**590: the column's squares overflow, its peak does not
        mu = cmath.exp(590 / 1023 + 0.3j)
        data = (0.5 * mu ** np.arange(1024))[None, :]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            b = fit_amplitudes([make_mode(mu, [1.0])], SnapshotMatrix(data, DT))
        assert b[0] == pytest.approx(0.5, rel=1e-9)


def saturated_segment(seed=1):
    """A noisy 1,024-sample paper-case-2 record (1% of peak), whose delay
    matrix at d=500 keeps all 500 triplets under Tolerance(1e-10)."""
    clean = synth_decaying_sum(preset_components("paper-case-2"), fs=FS, n=1024)
    return build_snapshots(add_gaussian_noise(clean, 0.01 * peak_amplitude(clean), seed))


def sorted_eigenvalues(dec):
    return np.sort_complex(np.array([m.eigenvalue for m in dec.modes]))


class TestPropagatorClosedForm:
    def test_saturated_segment_matches_lstsq(self, monkeypatch):
        snap = saturated_segment()
        cfg = HodmdConfig(d=500, dt=DT)
        with pytest.warns(RuntimeWarning, match="saturated"):
            closed = hodmd(snap, cfg)
        monkeypatch.setattr(decompose, "_GAP_MIN", 1.0)  # 1 - |c|^2 <= 1 always
        with pytest.warns(RuntimeWarning, match="saturated"):
            fitted = hodmd(snap, cfg)
        assert closed.ranks == fitted.ranks and closed.ranks[1] == 500
        a, b = sorted_eigenvalues(closed), sorted_eigenvalues(fitted)
        assert np.max(np.abs(a - b) / np.abs(b)) <= 1e-12

    def test_square_delay_space_falls_back_to_lstsq(self, monkeypatch):
        # 160 x 45 delay matrix of full column rank: v is square, |c| = 1
        rng = np.random.default_rng(0)
        lam = np.exp((-20.0 + 2j * np.pi * np.array([900.0, 2100.0, 3700.0])) * DT)
        shapes = rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
        data = 2 * np.real(shapes @ lam[:, None] ** np.arange(64))
        data += 0.01 * rng.standard_normal((8, 64))
        calls = []
        monkeypatch.setattr(
            decompose,
            "lstsq",
            lambda a, b, **kw: calls.append(a.shape) or lstsq(a, b, **kw),
        )
        with pytest.warns(RuntimeWarning, match="saturated at 45/45"):
            dec = hodmd(SnapshotMatrix(data, DT), HodmdConfig(d=20, dt=DT))
        assert calls == [(44, 45)]
        # the figures of eig applied to lstsq's propagator itself
        assert dec.ranks == (8, 45, 22)
        assert dec.relative_rms == pytest.approx(0.0019224656140603563, rel=1e-9)
        assert dec.relative_max == pytest.approx(0.003647826754387222, rel=1e-9)
        freqs = [m.frequency_hz for m in dec.modes]
        assert freqs[1:4:2] == pytest.approx([899.995, 2099.963], abs=1e-3)


class TestEigenvaluesOnly:
    @pytest.mark.parametrize("channels, vectors", [(1, False), (4, True)])
    def test_vectors_only_for_several_rows(self, monkeypatch, channels, vectors):
        snap = conjugate_pair_signal(
            [700.0, 2100.0], [5.0, 12.0], n_channels=channels, k=300, dt=DT, seed=3
        )
        seen = []

        def spy(a, vectors=True):
            seen.append(vectors)
            return linalg_eig(a, vectors=vectors)

        monkeypatch.setattr(decompose, "eig", spy)
        dec = hodmd(snap, HodmdConfig(d=20, dt=DT))
        assert seen == [vectors]
        freqs = sorted(m.frequency_hz for m in dec.modes)
        assert freqs == pytest.approx([700.0, 2100.0], abs=1e-6)
        assert dec.relative_rms < 1e-9


class TestRealAmplitudeFit:
    def fit_args(self, monkeypatch, snap, cfg):
        args = []
        fit = decompose._fit_b
        monkeypatch.setattr(decompose, "_fit_b", lambda *a: args.append(a) or fit(*a))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            hodmd(snap, cfg)
        monkeypatch.setattr(decompose, "_fit_b", fit)
        return args[0]

    def lstsq_dtypes(self, monkeypatch):
        dtypes = []
        solve = np.linalg.lstsq
        def spy(a, b, rcond):
            dtypes.append(a.dtype)
            return solve(a, b, rcond)

        monkeypatch.setattr(np.linalg, "lstsq", spy)
        return dtypes

    def test_matches_complex_fit_on_saturated_segment(self, monkeypatch):
        cfg = HodmdConfig(d=500, dt=DT)
        shapes, lam, data = self.fit_args(monkeypatch, saturated_segment(), cfg)
        side = decompose._pair_sides(lam)
        assert np.all(side >= 0)  # one eigenvalue per conjugate pair
        dtypes = self.lstsq_dtypes(monkeypatch)
        b_real, cond_real, rank_real = _fit_b(shapes, lam, data)
        # the complex fit of both members of each pair, on complex data
        pair = side > 0
        both = np.r_[lam, lam[pair].conj()]
        both_shapes = np.hstack([shapes, shapes[:, pair].conj()])
        b_cplx, cond_cplx, rank_cplx = _fit_b(both_shapes, both, data.astype(complex))
        assert dtypes == [np.float64, np.complex128]
        assert rank_real == rank_cplx == both.size == 500
        assert cond_real == pytest.approx(cond_cplx, rel=1e-6)
        np.testing.assert_allclose(b_real, b_cplx[: lam.size], rtol=1e-9)
        np.testing.assert_allclose(b_real[pair].conj(), b_cplx[lam.size :], rtol=1e-9)

    def test_complex_data_stays_complex_and_reported_modes_fit_real(self, monkeypatch):
        dtypes = self.lstsq_dtypes(monkeypatch)
        ts = synth_decaying_sum(preset_components("paper-case-2"), fs=FS, n=2048)
        dec = hodmd(build_snapshots(ts), HodmdConfig(d=30, dt=ts.dt))
        assert dtypes == [np.float64]
        # reported modes are the upper members only; their conjugate
        # partners join the fit, so it runs in real arithmetic too
        fit_amplitudes(dec.modes, build_snapshots(ts))
        assert dtypes == [np.float64, np.float64]
        snap = SnapshotMatrix(ts.samples[None, :] * (1 + 0.5j), ts.dt)
        dec = hodmd(snap, HodmdConfig(d=30, dt=ts.dt))
        assert dtypes == [np.float64, np.float64, np.complex128]
        assert not dec.real_input and dec.relative_rms < 1e-9


class TestMergeDuplicates:
    def test_identical_poles_amplitudes_sum(self):
        lam = np.array([0.9 + 0.1j, 0.9 + 0.1j, 0.5 + 0.0j])
        shapes = np.array([[1.0], [1.0], [1.0]], dtype=complex).T.reshape(1, 3)
        b = np.array([0.25 + 0.0j, 0.5 + 0.0j, 1.0 + 0.0j])
        lam2, shapes2, b2 = _merge_duplicates(lam, shapes, b)
        assert lam2.size == 2
        merged = b2[np.argmin(np.abs(lam2 - (0.9 + 0.1j)))]
        assert merged == pytest.approx(0.75, rel=1e-12)

    def test_distinct_poles_untouched(self):
        lam = np.array([0.9 + 0.1j, 0.8 - 0.2j])
        shapes = np.eye(2, dtype=complex)
        b = np.array([1.0 + 0j, 2.0 + 0j])
        lam2, shapes2, b2 = _merge_duplicates(lam, shapes, b)
        np.testing.assert_array_equal(lam2, lam)
        np.testing.assert_array_equal(b2, b)

    def test_chain_groups_by_leader(self):
        # a~b and b~c within _MERGE_TOL but a!~c: leader a takes b, c stays
        # alone; of the equal |b| members the lowest index is kept
        lam = (0.9 + 0.1j) * (1.0 + np.array([0.0, 0.8e-9, 1.6e-9]))
        shapes = np.ones((1, 3), dtype=complex)
        b = np.array([1j, 1.0, 3.0])
        lam2, shapes2, b2 = _merge_duplicates(lam, shapes, b)
        np.testing.assert_array_equal(lam2, lam[[0, 2]])
        np.testing.assert_allclose(b2, [1.0 + 1j, 3.0], rtol=1e-15)
        np.testing.assert_allclose(shapes2, np.ones((1, 2)), rtol=1e-15)


class TestHodmd:
    def test_case1_exact_recovery(self, case1_full):
        ts = head(case1_full, 4096)
        dec = hodmd(build_snapshots(ts), HodmdConfig(d=10, dt=ts.dt))
        assert len(dec.modes) == 1
        mode = dec.modes[0]
        assert mode.frequency_hz == pytest.approx(2000.0, abs=1e-6)
        assert mode.damping == pytest.approx(80.0, abs=1e-6)
        assert mode.amplitude == pytest.approx(1.0, abs=1e-6)
        assert dec.relative_rms < 1e-9
        assert dec.relative_max < 1e-9

    def test_case2_frequencies(self, case2_full):
        ts = head(case2_full, 8192)
        dec = hodmd(build_snapshots(ts), HodmdConfig(d=50, dt=ts.dt))
        freqs = sorted(m.frequency_hz for m in dec.modes)
        assert freqs == pytest.approx([1800.0, 1992.0, 2008.0], abs=0.01)
        ranks = dec.ranks
        assert ranks[1] == 6 and ranks[2] == 3

    def test_clean_optimal_window_reconstructs(self, case2_full):
        # the optimal threshold keeps 84 triplets of this clean window, most
        # at rounding level; fitted over all of them, the 14 reported modes
        # reconstructed nothing (relative rms 1.0, amplitude cond ~1e15)
        ts = TimeSeries(case2_full.samples[28224 : 28224 + 1024], DT)
        optimal = OptimalHardThreshold()
        cfg = HodmdConfig(d=500, dt=DT, spatial_policy=optimal, temporal_policy=optimal)
        dec = hodmd(build_snapshots(ts), cfg)
        assert dec.ranks[1] == 84
        assert dec.relative_rms < 1e-9

    def test_case1_complex_amplitude_magnitude(self, case1_full):
        # the reported (conjugate-doubled) amplitude of the single mode is 1
        ts = head(case1_full, 4096)
        dec = hodmd(build_snapshots(ts), HodmdConfig(d=8, dt=ts.dt))
        assert dec.modes[0].amplitude == pytest.approx(1.0, abs=1e-9)
        assert dec.modes[0].phase_rad == pytest.approx(-math.pi / 2, abs=1e-6)

    def test_d1_matches_classical_dmd(self):
        snap = conjugate_pair_signal(
            [700.0, 2100.0], [5.0, 12.0], n_channels=5, k=300, dt=DT, seed=11
        )
        via_dmd = dmd(snap, Tolerance(1e-10))
        via_hodmd = hodmd(
            snap,
            HodmdConfig(
                d=1,
                dt=DT,
                spatial_policy=Tolerance(1e-10),
                temporal_policy=Tolerance(1e-10),
            ),
        )
        key = lambda z: (z.real, z.imag)
        a = sorted((m.eigenvalue for m in via_dmd.modes), key=key)
        b = sorted((m.eigenvalue for m in via_hodmd.modes), key=key)
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert abs(x - y) < 1e-8

    def test_conjugate_closure_imaginary_leakage(self, case2_full):
        ts = head(case2_full, 4096)
        dec = hodmd(build_snapshots(ts), HodmdConfig(d=30, dt=ts.dt))
        # re-expand reported modes into their implicit conjugate pairs
        k = np.arange(len(ts))
        total = np.zeros(len(ts), dtype=complex)
        for m in dec.modes:
            if m.frequency_hz > 1e-9:
                half = 0.5 * m.b
                total += m.shape[0] * m.eigenvalue**k * half
                total += (m.shape[0] * m.eigenvalue**k * half).conj()
            else:
                total += m.shape[0] * m.eigenvalue**k * m.b
        signal_rms = float(np.sqrt(np.mean(ts.samples**2)))
        leak = float(np.sqrt(np.mean(total.imag**2)))
        assert leak < 1e-8 * signal_rms

    def test_shift_invariance(self, case2_full):
        cfg = HodmdConfig(d=40, dt=case2_full.dt)
        base = hodmd(build_snapshots(head(case2_full, 6000)), cfg)
        shifted_ts = TimeSeries(case2_full.samples[137 : 137 + 6000], case2_full.dt)
        shifted = hodmd(build_snapshots(shifted_ts), cfg)
        f0 = sorted(m.frequency_hz for m in base.modes)
        f1 = sorted(m.frequency_hz for m in shifted.modes)
        assert len(f0) == len(f1)
        for a, b in zip(f0, f1):
            assert abs(a - b) < 1e-3

    def test_reconstruct_self_consistency(self, case2_full):
        # single-channel real, 4-channel real (dmd) and complex input
        ts = head(case2_full, 4096)
        multi = conjugate_pair_signal(
            [500.0, 1300.0], [3.0, 9.0], n_channels=4, k=400, dt=DT, seed=4
        )
        k = np.arange(300)
        x = (
            0.8 * np.exp(complex(-2.0, 2 * math.pi * 50.0) * 1e-3) ** k
            + 0.3 * np.exp(complex(-5.0, -2 * math.pi * 120.0) * 1e-3) ** k
        )
        cases = [
            (build_snapshots(ts), lambda s: hodmd(s, HodmdConfig(d=20, dt=s.dt))),
            (multi, lambda s: dmd(s, Tolerance(1e-10))),
            (SnapshotMatrix(x[None, :], 1e-3), lambda s: hodmd(s, HodmdConfig(d=4, dt=s.dt))),
        ]
        for snap, decompose in cases:
            dec = decompose(snap)
            recon = np.atleast_2d(reconstruct(dec, snap.n_snapshots).samples)
            rel = np.linalg.norm(snap.data - recon) / np.linalg.norm(snap.data)
            assert rel == pytest.approx(dec.relative_rms, rel=1e-9, abs=1e-15)

    @pytest.fixture()
    def model_blocks(self, monkeypatch):
        """The model blocks that hodmd passes to signals._relative_errors, per call."""
        calls = []

        def spy(reference, blocks):
            calls.append(list(blocks))
            return signals._relative_errors(reference, calls[-1])

        monkeypatch.setattr(decompose, "_relative_errors", spy)
        return calls

    @pytest.mark.parametrize("n, blocks", [(4096, 1), (3 * BLOCK + 100, 4)])
    def test_errors_are_the_signals_metrics(self, case2_full, model_blocks, n, blocks):
        ts = head(case2_full, n)
        dec = hodmd(build_snapshots(ts), HodmdConfig(d=20, dt=ts.dt))
        [model] = model_blocks
        assert len(model) == blocks
        # the model is the reconstruction, up to the last bits of the
        # amplitudes that Mode carries as a modulus and a phase
        whole = np.hstack(model)[0]
        np.testing.assert_allclose(
            whole, reconstruct(dec, n).samples, rtol=0, atol=1e-13 * peak_amplitude(ts)
        )
        public = (relative_rms_error(ts, whole), relative_max_error(ts, whole))
        if blocks == 1:  # bit for bit
            assert (dec.relative_rms, dec.relative_max) == public
        else:  # the blocks' sums of squares are added in block order
            assert dec.relative_max == public[1]
            assert dec.relative_rms == pytest.approx(public[0], rel=1e-12)

    def test_reconstruct_single_constant_mode(self):
        mode = make_mode(1.0, [1.0], amplitude=2.5, phase=0.0)
        dec_like = hodmd(
            SnapshotMatrix(np.full((1, 40), 2.5), dt=DT), HodmdConfig(d=1, dt=DT)
        )
        recon = reconstruct(dec_like, 12)
        np.testing.assert_allclose(recon.samples, np.full(12, 2.5), rtol=1e-10)
        assert mode.b == pytest.approx(2.5)

    def test_mode_invariants(self, case3_signal):
        dec = hodmd(
            build_snapshots(case3_signal), HodmdConfig(d=100, dt=case3_signal.dt)
        )
        for m in dec.modes:
            back = cmath.exp(
                complex(m.growth_rate, 2 * math.pi * m.frequency_hz) * case3_signal.dt
            )
            assert abs(back - m.eigenvalue) <= 1e-10 * abs(m.eigenvalue)
            assert np.linalg.norm(m.shape) == pytest.approx(1.0, abs=1e-10)
            assert m.frequency_hz >= 0.0

    def test_noise_robustness_single_seed(self, case2_full):
        clean = head(case2_full, 2048)
        noisy = add_gaussian_noise(clean, 0.01 * peak_amplitude(case2_full), seed=0)
        cfg = HodmdConfig(
            d=500,
            dt=clean.dt,
            spatial_policy=OptimalHardThreshold(),
            temporal_policy=OptimalHardThreshold(),
        )
        dec = hodmd(build_snapshots(noisy), cfg)
        freqs = [m.frequency_hz for m in dec.modes]
        for truth in (1800.0, 1992.0, 2008.0):
            assert min(abs(f - truth) for f in freqs) < 1.0

    def test_amplitude_policy_prunes_weak_modes(self):
        comps = [
            DampedComponent(1.0, 1000.0, 20.0),
            DampedComponent(0.001, 3000.0, 30.0),
        ]
        ts = synth_decaying_sum(comps, fs=FS, n=4096)
        keep_all = hodmd(build_snapshots(ts), HodmdConfig(d=10, dt=ts.dt))
        assert len(keep_all.modes) == 2
        pruned = hodmd(
            build_snapshots(ts),
            HodmdConfig(d=10, dt=ts.dt, amplitude_policy=Tolerance(0.1)),
        )
        assert len(pruned.modes) == 1
        assert pruned.modes[0].frequency_hz == pytest.approx(1000.0, abs=1e-6)

    @pytest.mark.parametrize(
        "policy, freqs",
        [
            (FixedCount(2), [10450.332]),
            (FixedCount(3), [4678.422, 10450.332]),
            (FixedCount(5), [4678.422, 9156.407, 10450.332]),
            (FixedCount(9), [1842.517, 3636.594, 4678.422, 9156.407, 10450.332]),
            (
                OptimalHardThreshold(),
                [0.0, 1842.517, 2298.909, 3636.594, 4678.422, 4829.595, 5776.489,
                 9156.407, 10450.332, 10470.19],
            ),
            (
                Tolerance(0.5),
                [1842.517, 3636.594, 4678.422, 4829.595, 5776.489, 9156.407,
                 10450.332, 10470.19],
            ),
        ],
    )
    def test_amplitude_policy_counts_each_pair_twice(self, policy, freqs):
        # a reported non-real mode ranks as both members of its pair:
        # FixedCount(3) keeps the two strongest pairs
        clean = synth_decaying_sum(preset_components("paper-case-3"), fs=FS, n=4096)
        snap = build_snapshots(add_gaussian_noise(clean, 1e-3, seed=1))
        with pytest.warns(RuntimeWarning, match="saturated"):
            dec = hodmd(snap, HodmdConfig(d=50, dt=DT, amplitude_policy=policy))
        got = [m.frequency_hz for m in dec.modes]
        assert got == pytest.approx(freqs, abs=1e-3)

    @pytest.mark.parametrize(
        "n, slope, d", [(1024, 1e-3, 500), (2048, 1e-3, 200), (2048, 1e-4, 300)]
    )
    def test_linear_drift_reconstructs(self, n, slope, d):
        # the drift's poles 1 +- i eps lie off the real axis by more than
        # _REAL_EIG_TOL and within _MERGE_TOL of each other; the pair is one
        # eigenvalue from the fit on, so it cannot merge with itself
        ts = TimeSeries(1.0 + slope * np.arange(n), dt=DT)
        dec = hodmd(build_snapshots(ts), HodmdConfig(d=d, dt=DT))
        assert dec.relative_rms < 1e-9

    def test_sizing_violation(self):
        snap = SnapshotMatrix(np.random.default_rng(0).normal(size=(1, 100)), dt=DT)
        with pytest.raises(SizingError):
            hodmd(snap, HodmdConfig(d=50, dt=DT))

    def test_dt_mismatch_rejected(self):
        snap = SnapshotMatrix(np.ones((1, 10)), dt=DT)
        with pytest.raises(ValueError):
            hodmd(snap, HodmdConfig(d=2, dt=2 * DT))

    def test_all_zero_degenerate(self):
        snap = SnapshotMatrix(np.zeros((1, 100)), dt=DT)
        with pytest.raises(DegenerateInputError):
            hodmd(snap, HodmdConfig(d=10, dt=DT))

    @pytest.mark.parametrize("d", [10, 30, 200])
    def test_non_finite_sample_rejected(self, case2_full, d):
        # without the entry check, d = 10 and 30 would reach the blocked SVD
        # and d = 200 the sketch
        samples = head(case2_full, 8192).samples.copy()
        samples[4000] = math.nan
        snap = SnapshotMatrix(samples[None, :], DT)
        with pytest.raises(DegenerateInputError, match="non-finite"):
            hodmd(snap, HodmdConfig(d=d, dt=DT))

    @pytest.mark.parametrize(
        "bad", [math.nan, math.inf, None], ids=["nan", "inf", "zeros"]
    )
    @pytest.mark.parametrize("fit", ["hodmd", "dmd"])
    def test_bad_samples_rejected_before_any_svd(self, monkeypatch, bad, fit):
        calls = []
        monkeypatch.setattr(decompose, "_truncated_svd", lambda *a: calls.append(a))
        data = np.zeros((3, 20))
        if bad is not None:
            data[:] = 1.0
            data[1, 1] = bad

        def decompose_head(k, dt):
            snap = SnapshotMatrix(data[:, :k], DT)
            if fit == "hodmd":
                return hodmd(snap, HodmdConfig(d=4, dt=dt))
            return dmd(snap, Tolerance(1e-10))

        # 20 snapshots would reach the SVDs; two with a mismatched dt would
        # fail the dt and sizing checks, which come after this one
        for k, dt in ((20, DT), (2, 2 * DT)):
            with pytest.raises(DegenerateInputError):
                decompose_head(k, dt)
        assert calls == []

    def test_complex_input_supported(self):
        # two complex exponentials on one channel: modes stay unpaired
        dt = 1e-3
        k = np.arange(300)
        x = (
            0.8 * np.exp(complex(-2.0, 2 * math.pi * 50.0) * dt) ** k
            + 0.3 * np.exp(complex(-5.0, -2 * math.pi * 120.0) * dt) ** k
        )
        snap = SnapshotMatrix(x[None, :], dt)
        dec = hodmd(snap, HodmdConfig(d=4, dt=dt))
        assert not dec.real_input
        freqs = sorted(m.frequency_hz for m in dec.modes)
        assert freqs == pytest.approx([-120.0, 50.0], abs=1e-6)
        assert dec.relative_rms < 1e-9


class TestHodmdConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            HodmdConfig(d=0, dt=DT)
        with pytest.raises(ValueError):
            HodmdConfig(d=2, dt=0.0)

    def test_synth_components_match_case2(self):
        comps = preset_components("paper-case-2")
        params = [(c.frequency_hz, c.damping) for c in comps]
        assert params == [(2008.0, 50.0), (1992.0, 80.0), (1800.0, 100.0)]

    def test_case3_redraws_from_seeded_generator(self):
        # provenance of the frozen eight-mode set: sorted uniform frequencies
        # on [300, 11000) Hz, then uniform dampings on [20, 150) 1/s
        rng = np.random.default_rng(1)
        freqs = np.sort(rng.uniform(300.0, 11_000.0, 8))
        damps = rng.uniform(20.0, 150.0, 8)
        expected = [
            DampedComponent(amplitude=1.0, frequency_hz=float(f), damping=float(d))
            for f, d in zip(freqs, damps)
        ]
        assert list(preset_components("paper-case-3")) == expected

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError):
            preset_components("paper-case-9")
