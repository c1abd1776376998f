import numpy as np
import pytest

from adaptivedet import montecarlo as mc


def crandn(rng, *shape):
    """Standard circular complex Gaussian array."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def random_hpd(rng, n, extra=0.0):
    """Random Hermitian positive definite matrix (Wishart-style)."""
    A = crandn(rng, n, n + 4)
    return A @ A.conj().T + extra * np.eye(n)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def stream_draws(monkeypatch):
    """Every ``(Philox key, trial index)`` drawn through ``TrialStreams``, in
    draw order (a list, so a stream drawn twice shows twice)."""
    draws = []
    original = mc.TrialStreams.standard_normal

    def recording(self, trial_index, out):
        draws.append((tuple(int(k) for k in self._bitgen.state["state"]["key"]), trial_index))
        return original(self, trial_index, out)

    monkeypatch.setattr(mc.TrialStreams, "standard_normal", recording)
    return draws
