"""Optimal-threshold singular values from the short-side Gram matrix.

Under ``OptimalHardThreshold``, ``decompose._sketched_svd`` takes every
singular value as sqrt(eigvalsh(G)) when the eigenvalues' error bars prove
the SVD's rank, and otherwise returns None, leaving the matrix to the
blocked or the dense SVD.  The references are the full singular values and
the dense path (``_sketched_svd`` patched to return None).
"""

import tracemalloc

import numpy as np
import pytest

from modespect import (
    DampedComponent,
    HodmdConfig,
    OptimalHardThreshold,
    TimeSeries,
    add_gaussian_noise,
    build_delay_embedding,
    build_snapshots,
    decompose,
    hodmd,
    synth_decaying_sum,
    truncation_rank,
)

from conftest import head, peak_amplitude, stacked

FS = 25_000.0
OPTIMAL = OptimalHardThreshold()


@pytest.fixture
def certified(monkeypatch):
    """Records, per Gram, whether its values were certified."""
    log = []
    original = decompose._gram_values

    def spy(g, shape):
        values = original(g, shape)
        log.append(values is not None)
        return values

    monkeypatch.setattr(decompose, "_gram_values", spy)
    return log


def svd_rank(a):
    return truncation_rank(np.linalg.svd(a, compute_uv=False), OPTIMAL, a.shape)


def glide_replica():
    comps = [
        DampedComponent(1.0, 1400.0, 2.0),
        DampedComponent(1.0, 2600.0, 4.0),
        DampedComponent(1.0, 3700.0, 6.0),
    ]
    clean = synth_decaying_sum(comps, fs=FS, n=2**13)
    return add_gaussian_noise(clean, 0.01 * peak_amplitude(clean), seed=42)


def test_uncertified_clean_record_takes_dense_svd(monkeypatch, certified, case2_full):
    # rounding noise lies below sqrt(eps) * sigma_1: the Gram cannot place the
    # median, so the 500 x 525 delay matrix goes straight to the dense SVD,
    # with no values-only SVD or subspace iteration before it
    ts = head(case2_full, 1024)
    snap = build_snapshots(ts)
    cfg = HodmdConfig(d=500, dt=ts.dt, temporal_policy=OPTIMAL)
    with monkeypatch.context() as mp:
        mp.setattr(decompose, "_sketched_svd", lambda a, policy: None)
        ref = hodmd(snap, cfg)
    calls, dense = [], []
    svd, svd_econ = np.linalg.svd, decompose.svd_econ

    def spy(a, *args, **kwargs):
        calls.append(kwargs.get("compute_uv", True))
        return svd(a, *args, **kwargs)

    def econ_spy(m):
        dense.append(m.shape)
        return svd_econ(m)

    monkeypatch.setattr(np.linalg, "svd", spy)
    monkeypatch.setattr(decompose, "svd_econ", econ_spy)
    fast = hodmd(snap, cfg)
    assert certified == [False]
    assert False not in calls and dense == [(500, 525)]
    assert fast.ranks == ref.ranks
    fa = sorted(m.frequency_hz for m in fast.modes)
    fb = sorted(m.frequency_hz for m in ref.modes)
    assert np.max(np.abs(np.subtract(fa, fb))) <= 1e-9


@pytest.mark.parametrize(
    "rows, cols, dtype",
    [(600, 120, float), (120, 600, complex), (500, 90, complex)],
)
def test_short_side_gram_matches_dense_rank(monkeypatch, certified, rows, cols, dtype):
    rng = np.random.default_rng(rows + cols)

    def draw(*shape):
        x = rng.normal(size=shape)
        return x + 1j * rng.normal(size=shape) if dtype is complex else x

    a = draw(rows, 3) @ np.diag([30.0, 10.0, 3.0]) @ draw(3, cols)
    a += 0.05 * draw(rows, cols)
    grams = []
    eigvalsh = np.linalg.eigvalsh

    def spy(g, *args, **kwargs):
        grams.append(g.shape)
        return eigvalsh(g, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    r, u, s, v = decompose._truncated_svd(a, OPTIMAL)
    short = min(rows, cols)
    assert grams == [(short, short)] and certified == [True]
    assert u.shape == (rows, r) and stacked(v).shape == (cols, r)
    assert r == svd_rank(a) == 3
    exact = np.linalg.svd(a, compute_uv=False)[:r]
    np.testing.assert_allclose(s, exact, rtol=1e-8)


def test_glide_windows_gram_rank_equals_svd_rank(certified):
    noisy = glide_replica()
    for start in (0, 2048, 4096, 7168):
        a = build_delay_embedding(noisy.samples[None, start : start + 1024], 500)
        values = decompose._sketched_svd(a, OPTIMAL)[0]
        assert truncation_rank(values, OPTIMAL, a.shape) == svd_rank(a)
    assert certified == [True] * 4


def test_embedding_not_resident_during_eigvalsh(monkeypatch, certified):
    # the delay embedding is dropped while eigvalsh copies the Gram, and
    # built again for the subspace iteration
    noisy = glide_replica()
    snap = build_snapshots(TimeSeries(noisy.samples[:1024], noisy.dt))
    cfg = HodmdConfig(d=500, dt=noisy.dt, temporal_policy=OPTIMAL)
    resident = []
    eigvalsh = np.linalg.eigvalsh

    def spy(g, *args, **kwargs):
        resident.append(tracemalloc.get_traced_memory()[0] - g.nbytes)
        return eigvalsh(g, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    tracemalloc.start()
    try:
        dec = hodmd(snap, cfg)
    finally:
        tracemalloc.stop()
    embedding_bytes = 500 * 525 * 8
    assert certified == [True]
    assert len(resident) == 1 and resident[0] < embedding_bytes // 4
    assert dec.ranks[1] == svd_rank(build_delay_embedding(snap.data, 500))
