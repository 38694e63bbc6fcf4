"""Differential oracle: the matrix pencil method against hodmd and the truth.

The matrix pencil (Hua & Sarkar 1990, IEEE Trans. ASSP 38(5)) estimates
damped exponentials from the shift structure of a Hankel matrix's singular
subspace; it shares no code with the delay-embedded decomposition.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from modespect import DampedComponent, HodmdConfig, build_snapshots, hodmd
from modespect import synth_decaying_sum

FS = 25_000.0
N = 2048
# noiseless input, so a pencil far below the noise-optimal N/3 is exact and
# keeps the Hankel SVD small (1920 x 129)
PENCIL = 128


def matrix_pencil(y, order, dt, pencil):
    """(frequency Hz, damping 1/s) of the positive-frequency poles, by frequency.

    ``order`` counts every pole, so a real signal with m modes has order 2m.
    """
    hankel = np.array([y[i : i + pencil + 1] for i in range(len(y) - pencil)])
    # right singular subspace = column span of the (pencil+1, order) Vandermonde
    w = np.linalg.svd(hankel, full_matrices=False)[2][:order].T
    z = np.linalg.eigvals(np.linalg.pinv(w[:-1]) @ w[1:])
    s = np.sort_complex(np.log(z[z.imag > 0]) / dt / 1j)
    return s.real / (2 * np.pi), s.imag


mode_sets = st.lists(
    st.tuples(st.floats(200.0, 11_000.0), st.floats(5.0, 150.0)),
    min_size=1,
    max_size=4,
)


@given(mode_sets)
@settings(max_examples=40, deadline=None)
def test_hodmd_and_matrix_pencil_recover_the_truth(modes):
    modes = sorted(modes)
    assume(all(b[0] - a[0] >= 100.0 for a, b in zip(modes, modes[1:])))
    truth_f, truth_d = np.array(modes).T
    comps = [DampedComponent(1.0, f, d) for f, d in modes]
    ts = synth_decaying_sum(comps, fs=FS, n=N)

    dec = hodmd(build_snapshots(ts), HodmdConfig(d=40, dt=ts.dt))
    found = sorted((m.frequency_hz, m.damping) for m in dec.modes)
    assert len(found) == len(modes)
    hodmd_f, hodmd_d = np.array(found).T
    pencil_f, pencil_d = matrix_pencil(ts.samples, 2 * len(modes), ts.dt, PENCIL)

    for f, d in ((hodmd_f, hodmd_d), (pencil_f, pencil_d)):
        np.testing.assert_allclose(f, truth_f, rtol=0, atol=1e-6)
        np.testing.assert_allclose(d, truth_d, rtol=0, atol=1e-4)
