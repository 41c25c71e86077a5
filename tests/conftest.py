import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from gevreyflow import spectral

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
    """Counts of real FFT calls, through numpy.fft.rfft and irfft or through
    the rhs's spectral.rfft_into and irfft_into alike, and under "points"
    the points both kinds transform (transform length times rows); a test
    resets them after its setup."""
    counts = {"rfft": 0, "irfft": 0, "points": 0}
    for kind in ("rfft", "irfft"):
        original = getattr(np.fft, kind)

        def counted(*args, _kind=kind, _original=original, **kwargs):
            result = _original(*args, **kwargs)
            counts[_kind] += 1
            length = result.shape[-1] if _kind == "irfft" else kwargs.get("n", np.shape(args[0])[-1])
            counts["points"] += result.size // result.shape[-1] * length
            return result

        monkeypatch.setattr(np.fft, kind, counted)

        bound = getattr(spectral, f"{kind}_into")

        # the rhs looks the binding up when it is built, so it finds this one
        def counted_into(a, out, _kind=kind, _bound=bound):
            result = _bound(a, out)
            counts[_kind] += 1
            counts["points"] += (out if _kind == "irfft" else a).size
            return result

        monkeypatch.setattr(spectral, f"{kind}_into", counted_into)
    return counts
