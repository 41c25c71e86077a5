import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "default",
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


@pytest.fixture
def rng():
    return np.random.default_rng(20260819)


@pytest.fixture
def fft_counts(monkeypatch):
    """Counts of numpy.fft.rfft and irfft calls; a test resets them after
    its setup."""
    counts = {"rfft": 0, "irfft": 0}
    for kind in counts:
        original = getattr(np.fft, kind)

        def counted(*args, _kind=kind, _original=original, **kwargs):
            counts[_kind] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.fft, kind, counted)
    return counts
