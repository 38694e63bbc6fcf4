import math
import warnings

import numpy as np
import pytest

from modespect import (
    DampedComponent,
    GlideConfig,
    HodmdConfig,
    OptimalHardThreshold,
    SizingError,
    TimeSeries,
    batch_hodmd,
    build_snapshots,
    gliding_hodmd,
    hodmd,
    pool_modes,
    synth_decaying_sum,
)
from modespect import glide as glide_module

FS = 25_000.0
DT = 1.0 / FS


def stationary_signal(n=4096):
    comps = [DampedComponent(1.0, 800.0, 0.0), DampedComponent(0.6, 2300.0, 0.0)]
    return synth_decaying_sum(comps, fs=FS, n=n)


def small_cfg(d=8):
    return HodmdConfig(d=d, dt=DT)


def tracks_equal(a, b):
    assert a.window_start_index == b.window_start_index
    assert a.window_start_time == b.window_start_time
    assert a.failed == b.failed
    assert len(a.modes) == len(b.modes)
    for ma, mb in zip(a.modes, b.modes):
        assert ma.frequency_hz == mb.frequency_hz
        assert ma.growth_rate == mb.growth_rate
        assert ma.amplitude == mb.amplitude
        assert ma.phase_rad == mb.phase_rad
        assert ma.eigenvalue == mb.eigenvalue
        np.testing.assert_array_equal(ma.shape, mb.shape)
    assert a.errors == b.errors or (
        math.isnan(a.errors[0]) and math.isnan(b.errors[0])
    )


class TestGlidingHodmd:
    def test_stationary_windows_agree(self):
        ts = stationary_signal()
        cfg = GlideConfig(window_len=512, hodmd=small_cfg(), hop=256)
        tracks = gliding_hodmd(ts, cfg)
        assert len(tracks) == (len(ts) - 512) // 256 + 1
        reference = sorted(m.frequency_hz for m in tracks[0].modes)
        for track in tracks[1:]:
            freqs = sorted(m.frequency_hz for m in track.modes)
            assert len(freqs) == len(reference)
            for a, b in zip(reference, freqs):
                assert abs(a - b) < 1e-3

    def test_degenerate_hop_single_window(self):
        ts = stationary_signal(n=1200)
        cfg = GlideConfig(window_len=1024, hodmd=small_cfg(), hop=10_000)
        tracks = gliding_hodmd(ts, cfg)
        assert len(tracks) == 1
        direct = hodmd(
            build_snapshots(TimeSeries(ts.samples[:1024], ts.dt)), small_cfg()
        )
        assert len(tracks[0].modes) == len(direct.modes)
        for ma, mb in zip(tracks[0].modes, direct.modes):
            assert ma.eigenvalue == mb.eigenvalue
            assert ma.amplitude == mb.amplitude
        assert tracks[0].errors == (direct.relative_rms, direct.relative_max)

    def test_window_order_independence(self):
        ts = stationary_signal(n=2048)
        cfg = GlideConfig(window_len=512, hodmd=small_cfg(), hop=128)
        tracks = gliding_hodmd(ts, cfg)
        # recompute each window independently, in reverse order
        starts = list(range(0, len(ts) - 512 + 1, 128))
        redone = {}
        for start in reversed(starts):
            seg = TimeSeries(ts.samples[start : start + 512], ts.dt, start * ts.dt)
            dec = hodmd(build_snapshots(seg), small_cfg())
            redone[start] = dec
        for track in tracks:
            dec = redone[track.window_start_index]
            assert len(track.modes) == len(dec.modes)
            for ma, mb in zip(track.modes, dec.modes):
                assert ma.eigenvalue == mb.eigenvalue
                assert ma.amplitude == mb.amplitude
                np.testing.assert_array_equal(ma.shape, mb.shape)

    def test_hop_divisibility(self):
        ts = stationary_signal(n=2048)
        fine = gliding_hodmd(ts, GlideConfig(window_len=512, hodmd=small_cfg(), hop=64))
        coarse = gliding_hodmd(
            ts, GlideConfig(window_len=512, hodmd=small_cfg(), hop=128)
        )
        assert len(coarse) == (len(fine) + 1) // 2
        for track_c, track_f in zip(coarse, fine[::2]):
            tracks_equal(track_c, track_f)

    def test_record_shorter_than_window_rejected(self):
        ts = stationary_signal(n=256)
        cfg = GlideConfig(window_len=512, hodmd=small_cfg(), hop=64)
        with pytest.raises(ValueError):
            gliding_hodmd(ts, cfg)

    def test_failed_window_flagged_not_fatal(self):
        # one dead stretch in the middle: its windows flag failed, others fine
        ts = stationary_signal(n=3072)
        samples = ts.samples.copy()
        samples[1024:2048] = 0.0
        patched = TimeSeries(samples, ts.dt)
        cfg = GlideConfig(window_len=1024, hodmd=small_cfg(), hop=1024)
        tracks = gliding_hodmd(patched, cfg)
        assert [t.failed for t in tracks] == [False, True, False]
        assert tracks[1].modes == ()
        assert math.isnan(tracks[1].errors[0])

    def test_nan_sample_fails_only_its_window(self):
        ts = stationary_signal()
        samples = ts.samples.copy()
        samples[1000] = np.nan
        cfg = GlideConfig(window_len=512, hodmd=small_cfg(), hop=512)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tracks = gliding_hodmd(TimeSeries(samples, ts.dt), cfg)
        assert [t.failed for t in tracks] == [i == 1 for i in range(8)]
        assert tracks[1].modes == ()
        assert all(t.modes for i, t in enumerate(tracks) if i != 1)

    @pytest.mark.parametrize("policy", [None, OptimalHardThreshold()], ids=["default", "optimal"])
    def test_overflowing_stretch_fails_only_its_windows(self, policy):
        # samples 1100-1299 of +-1e308: a delay matrix over them has a leading
        # singular value beyond float64, so the windows from 768 to 1280 fail
        ts = stationary_signal()
        samples = ts.samples.copy()
        samples[1100:1300] = 1e308 * np.cos(0.3 * np.arange(200))
        cfg = small_cfg() if policy is None else HodmdConfig(8, DT, policy, policy)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tracks = gliding_hodmd(
                TimeSeries(samples, ts.dt), GlideConfig(window_len=512, hodmd=cfg, hop=256)
            )
        assert [t.window_start_index for t in tracks if t.failed] == [768, 1024, 1280]
        assert all(t.modes for t in tracks if not t.failed)

    def test_linalg_error_fails_only_its_window(self, monkeypatch):
        ts = stationary_signal(n=1536)
        real_hodmd = glide_module.hodmd

        def flaky_hodmd(snap, cfg):  # LAPACK gives up on the middle window only
            if snap.data[0, 0] == ts.samples[512]:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return real_hodmd(snap, cfg)

        monkeypatch.setattr(glide_module, "hodmd", flaky_hodmd)
        cfg = GlideConfig(window_len=512, hodmd=small_cfg(), hop=512)
        tracks = gliding_hodmd(ts, cfg)
        assert [t.failed for t in tracks] == [False, True, False]


class TestGlideConfig:
    def test_window_must_exceed_twice_d(self):
        with pytest.raises(SizingError):
            GlideConfig(window_len=16, hodmd=small_cfg(d=8), hop=1)

    def test_hop_positive(self):
        with pytest.raises(ValueError):
            GlideConfig(window_len=64, hodmd=small_cfg(), hop=0)


class TestBatchHodmd:
    def test_identical_segments_identical_tracks(self):
        seg = stationary_signal(n=600)
        tracks = batch_hodmd([seg, seg, seg], small_cfg())
        assert len(tracks) == 3
        assert [t.window_start_index for t in tracks] == [0, 1, 2]
        for track in tracks[1:]:
            assert len(track.modes) == len(tracks[0].modes)
            for ma, mb in zip(track.modes, tracks[0].modes):
                assert ma.eigenvalue == mb.eigenvalue
                assert ma.amplitude == mb.amplitude

    def test_per_segment_frequencies_tracked(self):
        segments = [
            synth_decaying_sum([DampedComponent(1.0, f, 5.0)], fs=FS, n=800)
            for f in (700.0, 1600.0, 3200.0)
        ]
        tracks = batch_hodmd(segments, small_cfg())
        for truth, track in zip((700.0, 1600.0, 3200.0), tracks):
            strongest = max(track.modes, key=lambda m: m.amplitude)
            assert abs(strongest.frequency_hz - truth) < 0.1

    def test_zero_segment_flagged_others_unaffected(self):
        good = stationary_signal(n=600)
        dead = TimeSeries(np.zeros(600), good.dt)
        tracks = batch_hodmd([good, dead, good], small_cfg())
        assert [t.failed for t in tracks] == [False, True, False]
        assert len(tracks[0].modes) == len(tracks[2].modes) > 0

    def test_amplitude_condition_on_each_track(self):
        # an impulse at sample 5 is a nilpotent 6-step shift in delay space:
        # its eigenvalues split into a cluster around 0 whose power columns
        # are nearly dependent even at unit norm, so the amplitude fit warns
        steady = synth_decaying_sum([DampedComponent(1.0, 3000.0, 0.0)], fs=FS, n=1024)
        samples = steady.samples.copy()
        samples[5] += 10.0
        ill = TimeSeries(samples, DT)
        dead = TimeSeries(np.zeros(1024), DT)
        optimal = OptimalHardThreshold()
        cfg = HodmdConfig(d=200, dt=DT, spatial_policy=optimal, temporal_policy=optimal)
        with pytest.warns(RuntimeWarning, match="ill-conditioned") as record:
            dec = hodmd(build_snapshots(ill), cfg)
        assert dec.amplitude_condition > 1e12
        assert f"cond ~ {dec.amplitude_condition:.3e}" in str(record[0].message)
        with pytest.warns(RuntimeWarning, match="ill-conditioned"):
            tracks = batch_hodmd([ill, dead], cfg)
        assert tracks[0].amplitude_condition == dec.amplitude_condition
        assert tracks[1].failed and math.isnan(tracks[1].amplitude_condition)

    def test_amplitude_rank_on_each_track(self):
        good = stationary_signal(n=600)
        dead = TimeSeries(np.zeros(600), good.dt)
        dec = hodmd(build_snapshots(good), small_cfg())
        tracks = batch_hodmd([good, dead], small_cfg())
        assert dec.amplitude_rank == dec.ranks[1] == 4
        assert tracks[0].amplitude_rank == dec.amplitude_rank
        assert tracks[1].failed and tracks[1].amplitude_rank == 0

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            batch_hodmd([], small_cfg())

    def test_undersized_segment_raises(self):
        short = stationary_signal(n=600)
        with pytest.raises(SizingError):
            batch_hodmd([short], HodmdConfig(d=300, dt=DT))


class TestPoolModes:
    def test_empty_tracks(self):
        assert pool_modes([]) == []

    def test_floor_zero_conserves_count(self):
        ts = stationary_signal(n=2048)
        tracks = gliding_hodmd(
            ts, GlideConfig(window_len=512, hodmd=small_cfg(), hop=256)
        )
        pooled = pool_modes(tracks, 0.0)
        assert len(pooled) == sum(len(t.modes) for t in tracks)

    def test_floor_above_max_empties(self):
        ts = stationary_signal(n=2048)
        tracks = gliding_hodmd(
            ts, GlideConfig(window_len=512, hodmd=small_cfg(), hop=256)
        )
        top = max(m.amplitude for t in tracks for m in t.modes)
        assert pool_modes(tracks, top * 1.001) == []

    def test_preserves_window_then_mode_order(self):
        ts = stationary_signal(n=2048)
        tracks = gliding_hodmd(
            ts, GlideConfig(window_len=512, hodmd=small_cfg(), hop=512)
        )
        pooled = pool_modes(tracks, 0.0)
        flat = [m for t in tracks for m in t.modes]
        assert all(a is b for a, b in zip(pooled, flat))

    def test_negative_floor_rejected(self):
        with pytest.raises(ValueError):
            pool_modes([], -0.5)
