"""Record-length arrays in ``hodmd``: the delay matrix by column blocks, its
right singular vectors by row blocks and the amplitude fit by row blocks.

``hodmd`` hands its delay-space reduction a ``decompose._DelayMatrix``; a
wide one of more than one ``_BLOCK`` of columns is built a block at a time
and never whole.  Its right singular vectors v are formed block by block
from the Ritz factors and summed into the propagator (``_shift_core``).
``_fit_b`` reduces [design | rhs] by a running QR over blocks of ``_BLOCK``
snapshots.  Each is checked against the matrix built whole, v held whole
or the one-shot ``lstsq``, and by its tracemalloc peak.
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
    svd_econ,
    synth_decaying_sum,
    truncation_rank,
)
from modespect.decompose import _DelayMatrix, _column_blocks, _fit_b, _power_blocks, _tsqr

from conftest import head, peak_amplitude, stacked

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
    return shapes @ lam[:, None] ** np.arange(k)


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


def row_blocks(kind, rows, columns=5):
    rng = np.random.default_rng(7)
    blocks = [rng.normal(size=(n, columns)) for n in rows]
    if kind == "complex":
        blocks = [b + 1j * rng.normal(size=b.shape) for b in blocks]
    return blocks


def sign_free(r):
    """R with each row's phase taken off its diagonal entry."""
    d = np.diagonal(r)
    return r / np.where(d == 0, 1, d / np.abs(d))[:, None]


class TestRunningQR:
    @pytest.mark.parametrize("kind", ["real", "complex"])
    @pytest.mark.parametrize("start", ["none", "empty"])
    def test_r_of_the_rows_stacked(self, kind, start):
        # a first block of fewer rows than columns, as the last block of v
        # can be in the propagator's lstsq, then longer ones and a short one
        blocks = row_blocks(kind, [3, 9, 9, 4])
        r0 = None if start == "none" else np.zeros((0, 5))
        factors = list(_tsqr(iter(blocks), r0))
        assert len(factors) == len(blocks)
        for i, r in enumerate(factors[1:], 2):
            ref = np.linalg.qr(np.vstack(blocks[:i]), mode="r")
            assert r.shape == ref.shape
            np.testing.assert_allclose(sign_free(r), sign_free(ref), rtol=0, atol=1e-13)

    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_each_step_is_one_qr_of_r_over_the_block(self, kind):
        # the same LAPACK call on the same values as qr(vstack([r, block]))
        blocks = row_blocks(kind, [9, 9, 4])
        r = np.zeros((0, 5))
        factors = list(_tsqr(iter(blocks), r))
        for block, got in zip(blocks, factors):
            r = np.linalg.qr(np.vstack([r, block]), mode="r")
            assert np.array_equal(got, r)

    def test_lone_block(self):
        (block,) = row_blocks("real", [9])
        assert [f is block for f in _tsqr(iter([block]))] == [True]
        (r,) = _tsqr(iter([block]), np.zeros((0, 5)))
        assert np.array_equal(r, np.linalg.qr(block, mode="r"))


class TestStreamedReductions:
    """Streamed against built-whole: the same values, bit for bit."""

    def operands(self, x, d):
        return _DelayMatrix(x, d), build_delay_embedding(x, d)

    def same(self, fast, ref):
        """(values, u, s, v) equal bit for bit, v stacked from its row blocks."""
        fast, ref = (*fast[:3], stacked(fast[3])), (*ref[:3], stacked(ref[3]))
        return all(np.array_equal(a, b) for a, b in zip(fast, ref))

    @pytest.mark.parametrize("policy", [Tolerance(1e-10), FixedCount(6)])
    def test_sketch(self, case2_full, policy):
        x = head(case2_full, 2 * BLOCK + 900).samples[None, :]
        stream, whole = self.operands(x, 200)
        fast, ref = decompose._sketched_svd(stream, policy), decompose._sketched_svd(whole, policy)
        assert fast is not None and ref is not None
        assert self.same(fast, ref)
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
        assert self.same(fast, ref)
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


def whole_core(s, v, shape):
    """The propagator core M of hodmd from the kept triplets (s, v), v held
    whole: the closed form, or lstsq at a gap of at most _GAP_MIN."""
    above = np.count_nonzero(s > np.finfo(float).eps * max(shape) * s[0])
    s, v = s[:above], v[:, :above]
    c = v[-1].conj()
    gap = 1.0 - np.vdot(c, c).real
    if gap > decompose._GAP_MIN:
        core = v[1:].conj().T @ v[:-1]
        core += np.outer(core @ c, c.conj() / gap)
        return core
    xbar = s[:, None] * v.conj().T
    return np.linalg.lstsq(xbar[:, :-1].T, xbar[:, 1:].T, rcond=None)[0].T * s / s[:, None]


def whole_poles(data, d):
    """Delay-space rank and propagator eigenvalues of ``hodmd`` under
    Tolerance(1e-10), with every SVD by ``svd_econ`` of the matrix built
    whole and the core formed from v held whole."""
    tol = Tolerance(1e-10)
    if data.shape[0] > 2:
        sv = svd_econ(data)
        r = truncation_rank(sv.singular_values, tol, data.shape)
        data = sv.singular_values[:r, None] * sv.right_vectors[:, :r].conj().T
    a = build_delay_embedding(data, d)
    sv = svd_econ(a)
    r = truncation_rank(sv.singular_values, tol, a.shape)
    core = whole_core(sv.singular_values[:r], sv.right_vectors[:, :r], a.shape)
    return r, np.linalg.eigvals(core)


def assert_poles_match(dec, poles, rtol=1e-10):
    """Each reported eigenvalue lies within rtol (relative) of a reference pole."""
    for m in dec.modes:
        assert np.min(np.abs(poles - m.eigenvalue)) <= rtol * abs(m.eigenvalue)


def all_dense(monkeypatch):
    """Make ``hodmd`` build every delay matrix whole and take every SVD dense."""
    built_whole(monkeypatch)
    monkeypatch.setattr(decompose, "_sketched_svd", lambda a, policy: None)
    monkeypatch.setattr(decompose, "_blocked_svd", lambda a, policy: None)


def multi_block_record(kind, channels, columns, d):
    """A record whose delay matrix at depth d has ``columns`` columns."""
    k = columns + d - 1
    if channels == 1 and kind == "real":
        clean = synth_decaying_sum(preset_components("paper-case-2"), fs=FS, n=k)
        return clean.samples[None, :]
    x = three_row_complex(k)[:channels]
    return x if kind == "complex" else x.real


class TestStreamedRightVectors:
    """Delay matrices of 2 and 3 column blocks plus a ragged last one.

    The reference builds every matrix whole, takes ``svd_econ`` and forms
    the propagator from v held whole; the streamed run never holds v.
    """

    @pytest.mark.parametrize(
        "kind, channels, columns, d, path",
        [
            ("real", 1, 2 * BLOCK + 1, 100, "sketched"),
            ("real", 1, 3 * BLOCK + 2, 50, "blocked"),  # 50 rows: too few to sketch
            ("complex", 1, 3 * BLOCK + 2, 100, "sketched"),
            ("complex", 3, 2 * BLOCK + 1, 30, "sketched"),
            ("real", 3, 3 * BLOCK + 2, 20, "blocked"),
        ],
    )
    def test_hodmd_matches_whole_reference(
        self, monkeypatch, kind, channels, columns, d, path
    ):
        # three channels also reduce the 3 x K snapshot matrix by the
        # blocked pass, whose v fills the r x K reduced snapshots by blocks
        data = multi_block_record(kind, channels, columns, d)
        snap, cfg = SnapshotMatrix(data, DT), HodmdConfig(d=d, dt=DT)
        paths = []
        for name in ("_sketched_svd", "_blocked_svd"):
            original = getattr(decompose, name)

            def spy(a, policy, name=name, original=original):
                found = original(a, policy)
                if found is not None and a.shape[1] == columns:
                    paths.append(name)
                return found

            monkeypatch.setattr(decompose, name, spy)
        streamed = hodmd(snap, cfg)
        assert paths == [f"_{path}_svd"]
        rank, poles = whole_poles(data, d)
        all_dense(monkeypatch)
        dense = hodmd(snap, cfg)
        assert streamed.ranks == dense.ranks and streamed.ranks[1] == rank
        assert_poles_match(streamed, poles)

    @pytest.mark.parametrize(
        "kind, channels, columns, d",
        [("real", 1, 2 * BLOCK + 1, 100), ("complex", 3, 3 * BLOCK + 2, 30)],
    )
    def test_lstsq_fallback_over_blocks(self, monkeypatch, kind, channels, columns, d):
        # a gap of at most 2 takes the fallback everywhere: lstsq gets the
        # R factor of the blocks' running QR, not K rows
        data = multi_block_record(kind, channels, columns, d)
        rank, poles = whole_poles(data, d)
        designs = []
        original = decompose.lstsq
        monkeypatch.setattr(
            decompose,
            "lstsq",
            lambda a, b, **kw: designs.append(a.shape) or original(a, b, **kw),
        )
        monkeypatch.setattr(decompose, "_GAP_MIN", 2.0)
        dec = hodmd(SnapshotMatrix(data, DT), HodmdConfig(d=d, dt=DT))
        assert designs == [(2 * rank, rank)]
        assert dec.ranks[1] == rank
        assert_poles_match(dec, poles)

    def test_spatial_reduction_reads_no_right_vectors(self, monkeypatch):
        # the reduced snapshots are the projection u^H x = S v^H, so the
        # spatial SVD's v is never read: here reading it raises
        data = multi_block_record("complex", 3, 3 * BLOCK + 2, 30)
        snap, cfg = SnapshotMatrix(data, DT), HodmdConfig(d=30, dt=DT)
        ranks = hodmd(snap, cfg).ranks
        original = decompose._truncated_svd

        def unread():
            raise AssertionError("the spatial right singular vectors were read")

        def spy(a, policy):
            r, u, s, v = original(a, policy)
            spatial = isinstance(a, np.ndarray) and a.shape == data.shape
            return r, u, s, unread if spatial else v

        monkeypatch.setattr(decompose, "_truncated_svd", spy)
        dec = hodmd(snap, cfg)
        rank, poles = whole_poles(data, 30)
        assert dec.ranks == ranks and dec.ranks[1] == rank
        assert_poles_match(dec, poles, rtol=1e-12)

    def test_lstsq_fallback_cut_off_of_the_whole_design(self, monkeypatch):
        # v's last row holds all but 1e-8 of its last column, so the gap is
        # ~1e-8 and the fallback runs.  The design v[:-1] diag(s) over two
        # blocks and a row has the singular values s * [1, 1, 1, 1, 1e-4]:
        # its last, 1e-13, lies above eps * 2r, the default cut-off of the
        # 2r x r R factor, but below eps * (K - 1), that of the whole design,
        # so the one-shot lstsq drops it and so must the blocked one
        k, r = 2 * BLOCK + 1, 5
        g = np.random.default_rng(4).normal(size=(k, r))
        g[-1] = 0.0
        g[:, -1] *= 1e-4 / np.linalg.norm(g[:, -1])
        g[-1, -1] = 1.0
        v = np.linalg.qr(g)[0]
        s = np.array([1.0, 0.5, 0.2, 0.1, 1e-9])
        eps = np.finfo(float).eps
        low = np.linalg.svd(v[:-1] * s, compute_uv=False)[-1]
        assert eps * 2 * r < low < eps * (k - 1)

        def blocks():
            for lo in range(0, k, BLOCK)[::-1]:
                yield v[lo : lo + BLOCK]

        designs = []
        original = decompose.lstsq
        monkeypatch.setattr(
            decompose,
            "lstsq",
            lambda a, b, **kw: designs.append(a.shape) or original(a, b, **kw),
        )
        core = decompose._shift_core(blocks, s, k)
        ref = whole_core(s, v, (r, k))
        assert designs == [(2 * r, r)]
        assert np.max(np.abs(core - ref)) <= 1e-12 * np.max(np.abs(ref))

    def capture_cores(self, monkeypatch):
        cores = []
        eig = decompose.eig
        monkeypatch.setattr(
            decompose, "eig", lambda core, **kw: cores.append(core) or eig(core, **kw)
        )
        return cores

    def test_saturated_segment_core_bit_identical(self, monkeypatch, case2_full):
        # one block, dense SVD: the core is v[1:]^H v[:-1] of v held whole
        clean = head(case2_full, 1024)
        noisy = add_gaussian_noise(clean, 0.01 * peak_amplitude(clean), seed=1)
        cores = self.capture_cores(monkeypatch)
        with pytest.warns(RuntimeWarning, match="saturated"):
            hodmd(build_snapshots(noisy), HodmdConfig(d=500, dt=DT))
        sv = svd_econ(build_delay_embedding(noisy.samples[None, :], 500))
        ref = whole_core(sv.singular_values, sv.right_vectors, (500, 525))
        assert len(cores) == 1 and np.array_equal(cores[0], ref)

    def test_glide_window_core_bit_identical(self, monkeypatch, case2_full):
        # one block, sketched: v is the one QR of a^H q times vb, held whole
        clean = head(case2_full, 1024)
        noisy = add_gaussian_noise(clean, 0.01 * peak_amplitude(clean), seed=3)
        optimal = OptimalHardThreshold()
        cfg = HodmdConfig(d=500, dt=DT, spatial_policy=optimal, temporal_policy=optimal)
        cores = self.capture_cores(monkeypatch)
        sketches = []
        ritz = decompose._ritz_triplets
        monkeypatch.setattr(
            decompose, "_ritz_triplets", lambda a, q, *rest: sketches.append((a, q)) or ritz(a, q, *rest)
        )
        dec = hodmd(build_snapshots(noisy), cfg)
        (a, q), = sketches
        z, rz = np.linalg.qr((q.conj().T @ a).conj().T)
        _, s, vbh = np.linalg.svd(rz.conj().T)
        r = dec.ranks[1]
        ref = whole_core(s[:r], (z @ vbh.conj().T)[:, :r], a.shape)
        assert len(cores) == 1 and np.array_equal(cores[0], ref)


def one_shot_fit(shapes, lam, data):
    """The amplitude fit with its whole design matrix and one ``lstsq``, on
    the powers of ``_power_blocks`` stacked whole.

    For real data each non-real eigenvalue stands for its conjugate pair and
    takes two real columns, sqrt(2) Re(g) and -sqrt(2) Im(g); its model
    amplitude is twice the member's.
    """
    m, k = data.shape
    powers = np.hstack(list(_power_blocks(lam, k))).T
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
        sol[pair] = 2.0 * ((y[:h] + 1j * y[h : 2 * h]) / root2)
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
        data = shapes @ (lam[:, None] ** np.arange(k) * b[:, None])
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
        data = 2.0 * np.real((lam[:, None] ** np.arange(k)).sum(axis=0))[None, :]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            b, cond, rank = _fit_b(shapes, lam, data)
        np.testing.assert_allclose(b, 2.0, rtol=1e-9)
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
        # the 200 x 65,337 delay matrix alone takes 100 MiB; the measured
        # peak is 7.9 MiB, one 6.25 MiB 200 x 4096 block and the small
        # factors, bounded with a 20% margin
        snap = build_snapshots(case2_full)
        dec, peak = traced_peak(hodmd, snap, HodmdConfig(d=200, dt=snap.dt))
        assert dec.ranks == (1, 6, 3)
        assert peak < 9.5 * MIB

    def test_case3_at_d100(self):
        # measured peak 6.6 MiB: the blocked R pass holds two 3.1 MiB arrays,
        # a 100 x 4096 block stacked under R and LAPACK's copy of it;
        # bounded with a 20% margin
        ts = synth_decaying_sum(preset_components("paper-case-3"), fs=FS, n=2**16)
        snap = build_snapshots(ts)
        dec, peak = traced_peak(hodmd, snap, HodmdConfig(d=100, dt=snap.dt))
        assert dec.ranks == (1, 16, 8)
        assert peak < 7.9 * MIB

    def test_long_case2_below_one_k_by_width_array(self):
        # 2**18 samples at d=200: one K x 16 array, as v or a^H q formed
        # whole would be, takes 32 MiB; the measured peak is 8.1 MiB
        ts = synth_decaying_sum(preset_components("paper-case-2"), fs=FS, n=2**18)
        snap = build_snapshots(ts)
        dec, peak = traced_peak(hodmd, snap, HodmdConfig(d=200, dt=snap.dt))
        assert dec.ranks == (1, 6, 3)
        assert peak < snap.n_snapshots * 16 * 8

    def test_fit_below_one_design_array(self):
        # 32 conjugate pairs on a real record: the complex design matrix of
        # both members alone is 65,536 x 64 complex, 64 MiB
        k = 2**16
        lam = poles(np.linspace(300.0, 11_000.0, 32))  # the upper members
        shapes = np.ones((1, lam.size), dtype=complex)
        data = 2.0 * np.real(np.sum(lam[:4, None] ** np.arange(k), axis=0))[None, :]
        (b, _, rank), peak = traced_peak(_fit_b, shapes, lam, data)
        assert rank == 64
        np.testing.assert_allclose(b[:4], 2.0, rtol=1e-9)
        assert peak < k * 64 * 16
