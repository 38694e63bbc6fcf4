"""The rank-adaptive delay-space reduction against the dense SVD path.

``decompose._truncated_svd`` finds the kept singular triplets by subspace
iteration where it can, and on a wide multi-block matrix by a blocked QR
pass (``_blocked_svd``) otherwise.  With both patched to return None every
reduction takes the dense ``svd_econ`` + ``truncation_rank`` path, LAPACK's
SVD, which is the reference here.
"""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from modespect import (
    DampedComponent,
    FixedCount,
    FrequencyGrid,
    HodmdConfig,
    KdsConfig,
    OptimalHardThreshold,
    SnapshotMatrix,
    TimeSeries,
    Tolerance,
    add_gaussian_noise,
    build_delay_embedding,
    build_snapshots,
    decompose,
    dmd,
    find_peaks,
    hodmd,
    kds_gaussian,
    svd_econ,
    synth_decaying_sum,
    truncation_rank,
)

from conftest import head, peak_amplitude, stacked

FS = 25_000.0
OPTIMAL = OptimalHardThreshold()


def dense(run, *args):
    """``run(*args)`` with every SVD reduction on the dense path."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(decompose, "_sketched_svd", lambda a, policy: None)
        mp.setattr(decompose, "_blocked_svd", lambda a, policy: None)
        return run(*args)


@pytest.fixture
def sketched(monkeypatch):
    """Records, per reduction, whether subspace iteration delivered it."""
    log = []
    original = decompose._sketched_svd

    def spy(a, policy):
        found = original(a, policy)
        log.append(found is not None)
        return found

    monkeypatch.setattr(decompose, "_sketched_svd", spy)
    return log


def mode_fields(dec):
    """Every reported number of a decomposition, as exact bytes."""
    rows = [
        (m.frequency_hz, m.growth_rate, m.amplitude, m.phase_rad, m.eigenvalue)
        for m in dec.modes
    ]
    shapes = [m.shape.tobytes() for m in dec.modes]
    return np.array(rows).tobytes(), shapes, dec.ranks, dec.relative_rms


def assert_same_frequencies(a, b, tol_hz):
    assert a.ranks == b.ranks
    fa = sorted(m.frequency_hz for m in a.modes)
    fb = sorted(m.frequency_hz for m in b.modes)
    assert np.max(np.abs(np.subtract(fa, fb))) <= tol_hz


def noisy_case2_window(case2_full, seed=3):
    clean = head(case2_full, 1024)
    return add_gaussian_noise(clean, 0.01 * peak_amplitude(clean), seed)


@pytest.mark.parametrize(
    "case, n, d, by_sketch",
    [
        ("case1_full", 4096, 10, False),  # 10 rows: too few to sketch
        ("case1_full", 4096, 200, True),
        ("case2_full", 8192, 50, False),  # a 16-column sketch is too wide for 50
        ("case2_full", 8192, 200, True),
        ("case3_signal", 2**14, 200, False),  # rank 16 fills the 16-column sketch
    ],
)
def test_presets_match_dense(request, sketched, case, n, d, by_sketch):
    ts = head(request.getfixturevalue(case), n)
    snap, cfg = build_snapshots(ts), HodmdConfig(d=d, dt=ts.dt)
    fast = hodmd(snap, cfg)
    assert sketched == [by_sketch]
    assert_same_frequencies(fast, dense(hodmd, snap, cfg), 1e-9)


@pytest.mark.parametrize(
    "case, n, d, count",
    [("case2_full", 8192, 100, 6), ("case3_signal", 2**14, 200, 16)],
)
def test_fixed_count_matches_dense(request, sketched, case, n, d, count):
    ts = head(request.getfixturevalue(case), n)
    cfg = HodmdConfig(d=d, dt=ts.dt, temporal_policy=FixedCount(count))
    fast = hodmd(build_snapshots(ts), cfg)
    assert sketched == [True]
    assert fast.ranks[1] == count
    assert_same_frequencies(fast, dense(hodmd, build_snapshots(ts), cfg), 1e-9)


def test_small_optimal_matrix_skips_values_pass(monkeypatch, sketched, case1_full):
    # a 10-row delay matrix is too small for even a rank-1 sketch, so the
    # values-only SVD would be wasted before the dense one
    ts = head(case1_full, 4096)
    calls = []
    svd = np.linalg.svd

    def spy(a, *args, **kwargs):
        calls.append(kwargs.get("compute_uv", True))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    hodmd(build_snapshots(ts), HodmdConfig(d=10, dt=ts.dt, temporal_policy=OPTIMAL))
    assert sketched == [False]
    assert calls == [True]


@pytest.mark.parametrize("d, by_sketch", [(200, True), (30, False)])
def test_one_rank_decision_per_reduction(
    monkeypatch, sketched, case2_full, d, by_sketch
):
    # trial ranks on the sketch stay out of decompose.truncation_rank: each
    # reduction decides its rank there once, on the full matrix shape
    ts = head(case2_full, 8192)
    shapes = []
    rank = decompose.truncation_rank

    def spy(s, policy, shape):
        shapes.append(tuple(shape))
        return rank(s, policy, shape)

    monkeypatch.setattr(decompose, "truncation_rank", spy)
    dec = hodmd(build_snapshots(ts), HodmdConfig(d=d, dt=ts.dt))
    assert sketched == [by_sketch]
    assert shapes == [(d, 8192 - d + 1)]
    assert dec.ranks[1] == 6


def test_abandoned_sketch_allocates_no_long_side_array(case3_signal):
    # rank 16 fills the 16-column sketch of the 100 x 16285 delay matrix, so
    # the dense SVD decides; the sketch before it went by column blocks
    a = build_delay_embedding(case3_signal.samples[None, :], 100)
    tracemalloc.start()
    try:
        found = decompose._sketched_svd(a, Tolerance(1e-10))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert found is None
    assert peak < a.shape[1] * 16 * a.itemsize


@pytest.mark.parametrize("policy", [Tolerance(1e-10), FixedCount(6)])
def test_converged_sketch_passes_allocate_no_long_side_array(
    case2_full, policy
):
    # the passes over the 200 x 16185 delay matrix go by column blocks, and
    # the triplets' v is formed by row blocks only when read: the peak,
    # 1.6 MiB, stays below one 16185 x 16 array
    a = build_delay_embedding(head(case2_full, 2**14).samples[None, :], 200)
    tracemalloc.start()
    try:
        found = decompose._sketched_svd(a, policy)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert found is not None
    assert peak < a.shape[1] * 16 * a.itemsize


def complex_signal(n):
    """Three complex damped exponentials at 1 kHz sampling, n samples."""
    k = np.arange(n)
    return (
        0.8 * np.exp(complex(-2.0, 2 * math.pi * 50.0) * 1e-3) ** k
        + 0.3 * np.exp(complex(-5.0, -2 * math.pi * 120.0) * 1e-3) ** k
        + 0.1 * np.exp(complex(-1.0, 2 * math.pi * 310.0) * 1e-3) ** k
    )


def test_complex_input_matches_dense(sketched):
    dt = 1e-3
    snap, cfg = SnapshotMatrix(complex_signal(4096)[None, :], dt), HodmdConfig(d=100, dt=dt)
    fast = hodmd(snap, cfg)
    assert sketched == [True]
    assert not fast.real_input and fast.ranks[1] == 3
    assert_same_frequencies(fast, dense(hodmd, snap, cfg), 1e-9)


def test_many_channels_match_dense(sketched):
    # 80 channels: the spatial reduction of hodmd and the one of dmd sketch too
    rng = np.random.default_rng(5)
    t = np.arange(600) / FS
    poles = (complex(-3.0, 2 * math.pi * 700.0), complex(-9.0, 2 * math.pi * 2100.0))
    data = sum(
        np.real(np.outer(rng.normal(size=80) + 1j * rng.normal(size=80), np.exp(p * t)))
        for p in poles
    )
    snap, four = SnapshotMatrix(data, 1.0 / FS), FixedCount(4)
    cfg = HodmdConfig(d=2, dt=snap.dt)
    assert_same_frequencies(hodmd(snap, cfg), dense(hodmd, snap, cfg), 1e-9)
    assert_same_frequencies(dmd(snap, four), dense(dmd, snap, four), 1e-9)
    assert sketched == [True, False, True]  # the 8x599 delay matrix is too small


def glide_record():
    """The 2**13-sample record of acceptance criterion 8, noise at 1% of its peak."""
    comps = [
        DampedComponent(1.0, 1400.0, 2.0),
        DampedComponent(1.0, 2600.0, 4.0),
        DampedComponent(1.0, 3700.0, 6.0),
    ]
    clean = synth_decaying_sum(comps, fs=FS, n=2**13)
    return add_gaussian_noise(clean, 0.01 * peak_amplitude(clean), seed=42)


def test_glide_replica_matches_dense():
    # the sweep of acceptance criterion 8, window by window
    truth = (1400.0, 2600.0, 3700.0)
    noisy = glide_record()
    cfg = HodmdConfig(
        d=500, dt=noisy.dt, spatial_policy=OPTIMAL, temporal_policy=OPTIMAL
    )
    pooled = ([], [])
    for s in range(0, 2**13 - 2**10 + 1, 64):
        snap = build_snapshots(TimeSeries(noisy.samples[s : s + 2**10], noisy.dt))
        fast, ref = hodmd(snap, cfg), dense(hodmd, snap, cfg)
        assert fast.ranks[:2] == ref.ranks[:2]
        for f in truth:
            nearest = [
                min((m.frequency_hz for m in dec.modes), key=lambda g: abs(g - f))
                for dec in (fast, ref)
            ]
            assert abs(nearest[0] - nearest[1]) <= 1e-4
        for modes, dec in zip(pooled, (fast, ref)):
            modes.extend(m for m in dec.modes if m.amplitude >= 0.05)

    # the three strongest pooled-KDS peaks land on the same 0.1 Hz grid points
    grid = FrequencyGrid(1000.0, 4100.0, 0.1)
    kds_cfg = KdsConfig(kernel="gaussian", h=2.0, grid=grid)
    strongest = []
    for modes in pooled:
        spec = kds_gaussian(modes, kds_cfg)
        found = find_peaks(spec, 0.1 * float(spec.values.max()))
        strongest.append(sorted(f for f, _ in sorted(found, key=lambda p: -p[1])[:3]))
    assert strongest[0] == strongest[1]
    assert np.max(np.abs(np.subtract(strongest[0], truth))) < 0.5


def sketch_passes(a, policy, unshifted=False):
    """``_sketched_svd(a, policy)`` and the shift of each of its power passes,
    with every pass run at shift 0 if ``unshifted``."""
    shifts = []
    original = decompose._power_pass

    def spy(m, q, shift=0.0):
        shifts.append(shift)
        return original(m, q, 0.0 if unshifted else shift)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(decompose, "_power_pass", spy)
        return decompose._sketched_svd(a, policy), shifts


def subspace_sine(u, ref):
    """Sine of the largest angle between span(u) and ref's leading left vectors."""
    w = ref.left_vectors[:, : u.shape[1]]
    return np.linalg.norm(w - u @ (u.conj().T @ w), 2)


@pytest.mark.parametrize("start", [1792, 1920, 4160, 4288])
def test_shifted_passes_outpace_plain_ones(start):
    # the windows of the glide replica whose plain passes are the most
    # (24-29): sigma_{w+1} / sigma_r is 0.80-0.84 there, and the Chebyshev shifts
    # damp that tail faster than plain powers do
    window = glide_record().samples[None, start : start + 2**10]
    a = build_delay_embedding(window, 500)
    shifted, passes = sketch_passes(a, OPTIMAL)
    plain, plain_passes = sketch_passes(a, OPTIMAL, unshifted=True)
    assert shifted is not None and plain is not None
    assert len(passes) <= 0.6 * len(plain_passes)
    assert len(set(passes[1:])) == decompose._CHEB_DEGREE


def test_shifts_converge_where_plain_passes_ran_out(case2_full):
    # samples 6,144-7,167 of paper-case-2 with noise at 1% of its peak keep
    # one triplet; plain passes ran out at _MAX_PASSES and fell to the dense
    # SVD, shifted ones converge
    base = head(case2_full, 8192)
    noisy = add_gaussian_noise(base, 0.01 * peak_amplitude(base), seed=5).samples

    def window(start):
        return build_delay_embedding(noisy[None, start : start + 1024], 500)

    a = window(6144)
    assert sketch_passes(a, OPTIMAL, unshifted=True)[0] is None
    found = decompose._sketched_svd(a, OPTIMAL)
    assert found is not None
    values, u, s, _ = found
    ref = svd_econ(a)
    r = truncation_rank(values, OPTIMAL, a.shape)
    assert r == truncation_rank(ref.singular_values, OPTIMAL, a.shape)
    kept = ref.singular_values[:r]
    assert np.all(np.abs(s[:r] - kept) <= decompose._RITZ_RTOL * kept)
    # as close to LAPACK's kept left vectors as plain passes come on the
    # window before, where they converge
    before = window(6080)
    plain = sketch_passes(before, OPTIMAL, unshifted=True)[0]
    assert plain is not None
    assert subspace_sine(u[:, :r], ref) <= subspace_sine(plain[1][:, :r], svd_econ(before))


def test_flat_tail_shifts_equal_its_level():
    # sigma_{w+1} = sigma_min: the unwanted interval is one point, and every
    # shift is that point up to the Gram's rounding, never above it
    rng = np.random.default_rng(11)
    u = np.linalg.qr(rng.normal(size=(200, 200)))[0]
    v = np.linalg.qr(rng.normal(size=(300, 200)))[0]
    a = (u * np.concatenate([[100.0, 50.0, 20.0, 10.0], np.ones(196)])) @ v.T
    found, shifts = sketch_passes(a, OPTIMAL)
    assert found is not None
    values = found[0]
    assert truncation_rank(values, OPTIMAL, a.shape) == 4
    level = values[4 + decompose._OVERSAMPLE] ** 2
    assert shifts[0] == 0  # the start
    nodes = np.array(shifts[1:])
    assert nodes.size and np.all(np.isfinite(nodes))
    assert np.all(nodes <= level)
    assert np.ptp(nodes) <= 1e-12 * values[0] ** 2


@pytest.mark.parametrize("policy", [Tolerance(1e-10), FixedCount(6)])
def test_tolerance_and_count_sketches_take_plain_products(case2_full, policy):
    # the shifts come from the certified values of the optimal threshold
    # alone: every pass of these sketches returns a a^H q itself
    a = build_delay_embedding(head(case2_full, 2**14).samples[None, :], 200)
    shifts, far = [], []
    original = decompose._power_pass

    def spy(m, q, shift=0.0):
        found = original(m, q, shift)
        shifts.append(shift)
        product = a @ (a.conj().T @ q)
        far.append(np.max(np.abs(found[1] - product)) / np.max(np.abs(product)))
        return found

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(decompose, "_power_pass", spy)
        assert decompose._sketched_svd(a, policy) is not None
    assert len(shifts) > 2 and all(shift == 0 for shift in shifts)
    assert max(far) <= 1e-13


def test_saturated_segment_bit_identical(sketched, case2_full):
    noisy = noisy_case2_window(case2_full)
    cfg = HodmdConfig(d=500, dt=noisy.dt)
    with pytest.warns(RuntimeWarning, match=r"saturated at 500/500 under Tolerance"):
        fast = hodmd(build_snapshots(noisy), cfg)
    assert sketched == [False]
    with pytest.warns(RuntimeWarning, match="saturated"):
        ref = dense(hodmd, build_snapshots(noisy), cfg)
    assert mode_fields(fast) == mode_fields(ref)


def test_unconverged_iteration_falls_back_to_dense(monkeypatch, case2_full):
    noisy = noisy_case2_window(case2_full)
    cfg = HodmdConfig(d=400, dt=noisy.dt, temporal_policy=OPTIMAL)
    ref = dense(hodmd, build_snapshots(noisy), cfg)
    monkeypatch.setattr(decompose, "_MAX_PASSES", 1)
    assert mode_fields(hodmd(build_snapshots(noisy), cfg)) == mode_fields(ref)


def test_repeat_runs_byte_identical(sketched, case2_full):
    noisy = noisy_case2_window(case2_full)
    optimal = HodmdConfig(d=500, dt=noisy.dt, temporal_policy=OPTIMAL)
    clean = head(case2_full, 8192)
    tolerance = HodmdConfig(d=200, dt=clean.dt)
    state = np.random.get_state()
    for ts, cfg in ((noisy, optimal), (clean, tolerance)):
        first, second = (hodmd(build_snapshots(ts), cfg) for _ in range(2))
        assert mode_fields(first) == mode_fields(second)
    assert sketched == [True] * 4
    # the sketch draws from its own generator, never the global one
    after = np.random.get_state()
    assert all(np.array_equal(a, b) for a, b in zip(state, after))


def test_no_saturation_warning_on_clean_case2(case2_full):
    ts = head(case2_full, 8192)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dec = hodmd(build_snapshots(ts), HodmdConfig(d=50, dt=ts.dt))
    assert dec.ranks[1] == 6


@pytest.mark.parametrize("policy", [Tolerance(1e-10), FixedCount(6), OPTIMAL])
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_blocked_svd_matches_lapack(monkeypatch, case3_signal, kind, policy):
    # 100 x 16285 (paper-case-3) and 100 x 8093 (complex) delay matrices, the
    # sketch patched out so the blocked QR pass decides.  Under the optimal
    # threshold 1e-6 noise lifts the median above rounding level, where a
    # last-bit difference between two SVD algorithms could move the rank;
    # it is also too small for the Gram to certify, which routes such a
    # matrix to the blocked pass.
    x = case3_signal.samples if kind == "real" else complex_signal(2**13)
    if policy == OPTIMAL:
        rng = np.random.default_rng(7)
        noise = rng.normal(size=x.shape)
        if kind == "complex":
            noise = noise + 1j * rng.normal(size=x.shape)
        x = x + 1e-6 * np.max(np.abs(x)) * noise
    a = build_delay_embedding(x[None, :], 100)
    blocked = []
    original = decompose._blocked_svd

    def spy(m, policy):
        found = original(m, policy)
        blocked.append(found is not None)
        return found

    monkeypatch.setattr(decompose, "_sketched_svd", lambda a, policy: None)
    monkeypatch.setattr(decompose, "_blocked_svd", spy)
    r, u, s, v = decompose._truncated_svd(a, policy)
    v = stacked(v)  # formed by row blocks from the Ritz factors
    assert blocked == [True]
    ref = svd_econ(a)
    values = ref.singular_values
    assert r == truncation_rank(values, policy, a.shape)
    scale = 1e-12 * values[0]
    assert np.max(np.abs(s - values[:r])) <= scale
    product = (u * s) @ v.conj().T
    ref_product = (ref.left_vectors[:, :r] * values[:r]) @ ref.right_vectors[:, :r].conj().T
    assert np.max(np.abs(product - ref_product)) <= scale
    for w in (u, v):
        assert np.max(np.abs(w.conj().T @ w - np.eye(r))) <= 1e-12


def test_blocked_svd_keeps_square_state(case3_signal):
    # the rank 16 of the 100 x 16285 delay matrix fills the sketch; the
    # blocked pass after it keeps 100 x 100 factors and one block resident
    a = build_delay_embedding(case3_signal.samples[None, :], 100)
    tracemalloc.start()
    try:
        r = decompose._truncated_svd(a, Tolerance(1e-10))[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert r == 16
    assert peak < 0.75 * a.nbytes


def test_clean_optimal_record_runs_no_lapack_svd_of_the_matrix(
    monkeypatch, case3_signal
):
    # the Gram of the clean 100 x 16285 delay matrix is not certified: the
    # blocked pass gives the values, with no values-only or dense SVD
    ts = case3_signal
    snap = build_snapshots(ts)
    cfg = HodmdConfig(d=100, dt=ts.dt, temporal_policy=OPTIMAL)
    ref = dense(hodmd, snap, cfg)
    values_only, dense_calls = [], []
    svd = np.linalg.svd

    def svd_spy(a, *args, **kwargs):
        values_only.append(not kwargs.get("compute_uv", True))
        return svd(a, *args, **kwargs)

    def econ_spy(m):
        dense_calls.append(m.shape)
        return svd_econ(m)

    monkeypatch.setattr(np.linalg, "svd", svd_spy)
    monkeypatch.setattr(decompose, "svd_econ", econ_spy)
    fast = hodmd(snap, cfg)
    assert not any(values_only) and dense_calls == []
    assert fast.ranks[2] == ref.ranks[2]
    fa = sorted(m.frequency_hz for m in fast.modes)
    fb = sorted(m.frequency_hz for m in ref.modes)
    assert np.max(np.abs(np.subtract(fa, fb))) <= 1e-9
