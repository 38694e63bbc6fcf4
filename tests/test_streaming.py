"""Record-length arrays in ``hodmd``: the delay matrix by column blocks and
the amplitude fit by row blocks.

``hodmd`` hands its delay-space reduction a ``decompose._DelayMatrix``; a
wide one of more than one ``_BLOCK`` of columns is built a block at a time
and never whole.  ``_fit_b`` reduces [design | rhs] by a running QR over
blocks of ``_BLOCK`` snapshots.  Each is checked against the matrix built
whole or the one-shot ``lstsq``, and by its tracemalloc peak.
"""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from modespect import (
    FixedCount,
    HodmdConfig,
    OptimalHardThreshold,
    SnapshotMatrix,
    Tolerance,
    add_gaussian_noise,
    build_delay_embedding,
    build_snapshots,
    decompose,
    hodmd,
    preset_components,
    synth_decaying_sum,
    truncation_rank,
)
from modespect.decompose import _DelayMatrix, _column_blocks, _fit_b, _power_table

from conftest import head, peak_amplitude

FS = 25_000.0
DT = 1.0 / FS
BLOCK = decompose._BLOCK
MIB = 2**20


def poles(freqs_hz, growth=-3.0):
    return np.exp((growth + 2j * np.pi * np.asarray(freqs_hz)) * DT)


def three_row_complex(k):
    """Three channels of three complex damped exponentials, k snapshots."""
    rng = np.random.default_rng(11)
    lam = poles([700.0, 2100.0, -4300.0])
    shapes = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    return shapes @ _power_table(lam, k)


def mode_fields(dec):
    """Every reported number of a decomposition, as exact bytes."""
    rows = [
        (m.frequency_hz, m.growth_rate, m.amplitude, m.phase_rad, m.eigenvalue)
        for m in dec.modes
    ]
    shapes = [m.shape.tobytes() for m in dec.modes]
    extra = (dec.ranks, dec.relative_rms, dec.relative_max, dec.amplitude_condition)
    return np.array(rows).tobytes(), shapes, extra


def built_whole(monkeypatch):
    """Make ``hodmd`` build every delay matrix whole, as an array."""
    monkeypatch.setattr(decompose, "_DelayMatrix", build_delay_embedding)


class TestColumnBlocks:
    @pytest.mark.parametrize(
        "x, d",
        [
            (np.arange(2 * BLOCK + 200.0)[None, :] ** 0.5, 200),  # 2 blocks + 1 column
            (three_row_complex(2 * BLOCK + 150), 30),  # K - d + 1 = 2 * BLOCK + 121
            (np.arange(900.0)[None, :], 100),  # one block
        ],
    )
    def test_blocks_are_contiguous_columns_of_the_whole(self, monkeypatch, x, d):
        built = []
        original = decompose.build_delay_embedding

        def spy(xhat, depth):
            out = original(xhat, depth)
            built.append(out.shape)
            return out

        monkeypatch.setattr(decompose, "build_delay_embedding", spy)
        stream = _DelayMatrix(x, d)
        blocks = list(_column_blocks(stream))
        whole = original(x, d)
        assert stream.shape == whole.shape and stream.dtype == whole.dtype
        assert all(b.flags.c_contiguous and b.shape[1] <= BLOCK for b in blocks)
        assert np.array_equal(np.hstack(blocks), whole)
        assert len(built) == len(blocks) == -(-whole.shape[1] // BLOCK)


class TestStreamedReductions:
    """Streamed against built-whole: the same values, bit for bit."""

    def operands(self, x, d):
        return _DelayMatrix(x, d), build_delay_embedding(x, d)

    @pytest.mark.parametrize("policy", [Tolerance(1e-10), FixedCount(6)])
    def test_sketch(self, case2_full, policy):
        x = head(case2_full, 2 * BLOCK + 900).samples[None, :]
        stream, whole = self.operands(x, 200)
        fast, ref = decompose._sketched_svd(stream, policy), decompose._sketched_svd(whole, policy)
        assert fast is not None and ref is not None
        assert all(np.array_equal(a, b) for a, b in zip(fast, ref))
        assert truncation_rank(fast[0], policy, stream.shape) == 6

    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_blocked_svd(self, case3_signal, kind):
        # 100 x 16285 (paper-case-3) and 90 x 8363 (three complex rows)
        if kind == "real":
            stream, whole = self.operands(case3_signal.samples[None, :], 100)
        else:
            stream, whole = self.operands(three_row_complex(2 * BLOCK + 200), 30)
        policy = Tolerance(1e-10)
        fast, ref = decompose._blocked_svd(stream, policy), decompose._blocked_svd(whole, policy)
        assert all(np.array_equal(a, b) for a, b in zip(fast, ref))
        assert truncation_rank(fast[0], policy, stream.shape) == (16 if kind == "real" else 3)

    def test_optimal_gram_over_column_blocks(self):
        # a noisy three-mode record, 60 x (3 * BLOCK + 9): the Gram is summed
        # over four column blocks, against one product of the whole matrix
        clean = synth_decaying_sum(preset_components("paper-case-2"), fs=FS, n=3 * BLOCK + 68)
        noisy = add_gaussian_noise(clean, 0.01 * peak_amplitude(clean), seed=5)
        stream, whole = self.operands(noisy.samples[None, :], 60)
        g = decompose._short_side_gram(stream)
        ref = whole @ whole.T
        assert np.max(np.abs(np.tril(g - ref))) <= 1e-12 * np.max(np.abs(ref))
        values = decompose._gram_values(g, stream.shape)
        svd = np.linalg.svd(whole, compute_uv=False)
        optimal = OptimalHardThreshold()
        assert truncation_rank(values, optimal, stream.shape) == truncation_rank(
            svd, optimal, whole.shape
        )

    @pytest.mark.parametrize(
        "make, d, policy",
        [
            (lambda c2, c3: c2.samples[None, : 2 * BLOCK + 900], 200, Tolerance(1e-10)),
            (lambda c2, c3: c3.samples[None, :], 100, Tolerance(1e-10)),  # blocked pass
            (lambda c2, c3: three_row_complex(2 * BLOCK + 200), 30, FixedCount(3)),
            (lambda c2, c3: c2.samples[None, : 2 * BLOCK + 40], 40, OptimalHardThreshold()),
        ],
        ids=["sketch", "blocked", "three-complex-rows", "optimal"],
    )
    def test_hodmd_matches_built_whole(
        self, monkeypatch, case2_full, case3_signal, make, d, policy
    ):
        snap = SnapshotMatrix(make(case2_full, case3_signal), DT)
        cfg = HodmdConfig(d=d, dt=DT, temporal_policy=policy)
        streamed = hodmd(snap, cfg)
        built_whole(monkeypatch)
        assert mode_fields(streamed) == mode_fields(hodmd(snap, cfg))


def one_shot_fit(shapes, lam, data):
    """The amplitude fit with its whole design matrix and one ``lstsq``.

    For real data each non-real eigenvalue stands for its conjugate pair and
    takes two real columns, sqrt(2) Re(g) and -sqrt(2) Im(g).
    """
    m, k = data.shape
    powers = (lam[:, None] ** np.arange(k)).T
    on_axis = lam.imag == 0
    powers[:, on_axis] = (lam.real[on_axis, None] ** np.arange(k)).T
    peak = np.abs(powers).max(axis=0)
    scale = peak * np.linalg.norm(powers / peak, axis=0)
    scale *= np.linalg.norm(shapes, axis=0)
    g = (powers[:, None, :] * (shapes / scale)[None, :, :]).reshape(k * m, -1)
    rhs = data.T.reshape(-1)
    if np.iscomplexobj(data):
        sol, _, rank, svals = np.linalg.lstsq(g, rhs, rcond=None)
    else:
        pair = decompose._pair_sides(lam) != 0
        h = np.count_nonzero(pair)
        root2 = math.sqrt(2.0)
        a = np.hstack([root2 * g.real[:, pair], -root2 * g.imag[:, pair], g.real[:, ~pair]])
        y, _, rank, svals = np.linalg.lstsq(a, rhs, rcond=None)
        sol = np.empty(lam.size, dtype=complex)
        sol[pair] = (y[:h] + 1j * y[h : 2 * h]) / root2
        sol[~pair] = y[2 * h :]
    return sol / scale, float(svals[0] / svals[-1]), int(rank)


class TestBlockedFit:
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_long_fit_matches_one_shot(self, kind):
        k = 2**16
        rng = np.random.default_rng(3)
        if kind == "real":
            # five upper members, each standing for its conjugate pair, and a
            # real pole: two real columns per pair, one for the real pole
            lam = np.r_[poles([900.0, 2100.0, 3700.0, 5100.0, 8800.0]), 1.0]
            columns = 11
        else:
            lam = poles([-6100.0, -900.0, 2100.0, 3700.0, 5100.0, 8800.0])
            columns = 6
        b = rng.normal(size=6) + 1j * rng.normal(size=6)
        shapes = np.ones((1, lam.size), dtype=complex)
        data = shapes @ (_power_table(lam, k) * b[:, None])
        if kind == "real":
            data = data.real
        data = data + 1e-3 * rng.normal(size=data.shape)
        got, ref = _fit_b(shapes, lam, data), one_shot_fit(shapes, lam, data)
        np.testing.assert_allclose(got[0], ref[0], rtol=1e-9)
        assert got[1] == pytest.approx(ref[1], rel=1e-6)
        assert got[2] == ref[2] == columns

    def test_near_duplicate_pole_rank_uses_the_design_rows(self):
        # pairs one ulp apart over 3 blocks: the two smallest of the four
        # singular values, ~2e-13 * sigma_1, lie below eps * rows but above
        # eps * columns of the small R factor
        k = 3 * BLOCK + 77
        mu = np.exp(-1e-5 + 0.3j)
        lam = np.array([mu, complex(np.nextafter(mu.real, 2.0), mu.imag)])
        data = np.real(mu ** np.arange(k))[None, :]
        shapes = np.ones((1, 2), dtype=complex)
        with pytest.warns(RuntimeWarning, match="rank 2/4"):
            _, cond, rank = _fit_b(shapes, lam, data)
        assert rank == 2 and cond > 1e12
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert one_shot_fit(shapes, lam, data)[2] == 2

    def test_decayed_mode_with_a_subnormal_block_peak(self):
        # |mu|**4096 = 1e-310: the second block's peak is subnormal, and
        # dividing by it overflows; the fifth block's powers are all zero
        mu = 10.0 ** (-310 / BLOCK) * np.exp(0.7j)
        lam = np.array([mu, np.exp(0.2j)])  # two conjugate pairs
        k = 4 * BLOCK + 5
        shapes = np.ones((1, 2), dtype=complex)
        data = 2.0 * np.real(_power_table(lam, k).sum(axis=0))[None, :]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            b, cond, rank = _fit_b(shapes, lam, data)
        np.testing.assert_allclose(b, 1.0, rtol=1e-9)
        assert rank == 4 and math.isfinite(cond)

    def test_saturated_segment_fit_bit_identical(self, monkeypatch):
        # 1,024 snapshots are one block: the fit is the one-shot lstsq
        clean = synth_decaying_sum(preset_components("paper-case-2"), fs=FS, n=1024)
        noisy = add_gaussian_noise(clean, 0.01 * peak_amplitude(clean), seed=1)
        args = []
        fit = decompose._fit_b
        monkeypatch.setattr(decompose, "_fit_b", lambda *a: args.append(a) or fit(*a))
        with pytest.warns(RuntimeWarning, match="saturated"):
            hodmd(build_snapshots(noisy), HodmdConfig(d=500, dt=DT))
        b, cond, rank = fit(*args[0])
        ref_b, ref_cond, ref_rank = one_shot_fit(*args[0])
        assert np.array_equal(b, ref_b) and cond == ref_cond and rank == ref_rank == 500


def traced_peak(run, *args):
    tracemalloc.start()
    try:
        result = run(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBoundedMemory:
    def test_case2_at_d200(self, case2_full):
        # the 200 x 65,337 delay matrix alone takes 100 MiB
        snap = build_snapshots(case2_full)
        dec, peak = traced_peak(hodmd, snap, HodmdConfig(d=200, dt=snap.dt))
        assert dec.ranks == (1, 6, 3)
        assert peak < 40 * MIB

    def test_case3_at_d100(self):
        ts = synth_decaying_sum(preset_components("paper-case-3"), fs=FS, n=2**16)
        snap = build_snapshots(ts)
        dec, peak = traced_peak(hodmd, snap, HodmdConfig(d=100, dt=snap.dt))
        assert dec.ranks == (1, 16, 8)
        assert peak < 40 * MIB

    def test_fit_below_one_design_array(self):
        # 32 conjugate pairs on a real record: the complex design matrix of
        # both members alone is 65,536 x 64 complex, 64 MiB
        k = 2**16
        lam = poles(np.linspace(300.0, 11_000.0, 32))  # the upper members
        shapes = np.ones((1, lam.size), dtype=complex)
        data = 2.0 * np.real(np.sum(_power_table(lam[:4], k), axis=0))[None, :]
        (b, _, rank), peak = traced_peak(_fit_b, shapes, lam, data)
        assert rank == 64
        np.testing.assert_allclose(b[:4], 1.0, rtol=1e-9)
        assert peak < k * 64 * 16
