import numpy as np
import pytest

from modespect import TimeSeries, preset_components, synth_decaying_sum

PRESET_FS = 25_000.0


@pytest.fixture(scope="session")
def case1_full() -> TimeSeries:
    return synth_decaying_sum(preset_components("paper-case-1"), fs=PRESET_FS, n=2**16)


@pytest.fixture(scope="session")
def case2_full() -> TimeSeries:
    return synth_decaying_sum(preset_components("paper-case-2"), fs=PRESET_FS, n=2**16)


@pytest.fixture(scope="session")
def case3_signal() -> TimeSeries:
    return synth_decaying_sum(preset_components("paper-case-3"), fs=PRESET_FS, n=2**14)


def head(ts: TimeSeries, n: int) -> TimeSeries:
    return TimeSeries(ts.samples[..., :n], ts.dt, ts.t0)


def peak_amplitude(ts: TimeSeries) -> float:
    return float(np.max(np.abs(ts.samples)))


def stacked(v) -> np.ndarray:
    """Right singular vectors read by row blocks, stacked whole."""
    return np.vstack(list(v())[::-1])
