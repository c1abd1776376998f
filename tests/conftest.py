import numpy as np
import pytest
from hypothesis import settings

from adaptivedet import batcheval, montecarlo as mc

# every property test is derandomized and keeps no example database, so it
# draws the same cases on every run; a test module sets only max_examples
settings.register_profile("reproducible", derandomize=True, database=None, deadline=None)
settings.load_profile("reproducible")


def crandn(rng, *shape):
    """Standard circular complex Gaussian array."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def random_hpd(rng, n, extra=0.0):
    """Random Hermitian positive definite matrix (Wishart-style)."""
    A = crandn(rng, n, n + 4)
    return A @ A.conj().T + extra * np.eye(n)


def point_b1(x, S, H, J=None, s=None, R=None):
    """The point kernel on one test vector ``x`` (N,): each statistic as a float."""
    out = batcheval.point_family_stats(np.asarray(x)[None], np.asarray(S)[None], H, J, s, R)
    return {name: float(value[0]) for name, value in out.items()}


def distributed_b1(X, S, s=None, H=None, L=None):
    """The distributed kernel on one test block ``X`` (N, K): row 0 of each output."""
    out = batcheval.distributed_family_stats(np.asarray(X)[None], np.asarray(S)[None], s, H, L)
    return {name: value[0] for name, value in out.items()}


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def stream_draws(monkeypatch):
    """Every ``(Philox key, block index)`` drawn through ``montecarlo.trial_rng``,
    in draw order (a list, so a block drawn twice shows twice)."""
    draws = []
    original = mc.trial_rng

    def recording(master_seed, block):
        draws.append((int(master_seed), int(block)))
        return original(master_seed, block)

    monkeypatch.setattr(mc, "trial_rng", recording)
    return draws
