"""The batched kernels against the per-instance oracles."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from adaptivedet import batcheval
from adaptivedet.errors import InfeasibleError
from conftest import crandn

# derandomized and without an example database: the same cases on every run
SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@st.composite
def instances(draw):
    """A stack of B random point instances sharing (N, p, q), p + q <= N, with
    the identity suite's training count L = 2N."""
    N = draw(st.integers(2, 12))
    p = draw(st.integers(1, N))
    q = draw(st.integers(0, N - p))
    L = 2 * N
    B = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    train = crandn(rng, B, N, L)
    return (crandn(rng, B, N), train @ train.conj().transpose(0, 2, 1),
            crandn(rng, B, N, p), crandn(rng, B, N, q))


@st.composite
def blocks(draw):
    """A stack of B random distributed instances sharing (N, K, p) and the
    geometry (s, H), with K up to 2N (so K > N occurs) and L = 2N."""
    N = draw(st.integers(1, 10))
    K = draw(st.integers(1, 2 * N))
    p = draw(st.integers(1, N))
    B = draw(st.integers(1, 3))
    L = 2 * N
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    train = crandn(rng, B, N, L)
    return (crandn(rng, B, N, K), train @ train.conj().transpose(0, 2, 1),
            crandn(rng, N), crandn(rng, N, p), L)


def _or_infeasible(f, *args):
    try:
        return f(*args)
    except InfeasibleError:
        return None


class TestStackedGeometry:
    @SETTINGS
    @given(instances())
    def test_rows_equal_per_instance_banks(self, case):
        x, S, H, J = case
        N, p, q = H.shape[1], H.shape[2], J.shape[2]
        batched = batcheval.evaluate_point(batcheval.prepare_point(S, H, J), x)
        for b in range(x.shape[0]):
            ref = oracles.point_family(x[b], S[b], H[b], J[b])
            for name, value in ref.items():
                if name == "wald_phe_i" and p + q == N:
                    assert np.isnan(value) and np.isnan(batched[name][b])
                    continue
                assert batched[name][b] == pytest.approx(value, rel=1e-10, abs=0), name


class TestDistributedFamily:
    @SETTINGS
    @given(blocks())
    def test_rows_equal_oracle(self, case):
        """All 14 statistics and both noise-power MLEs; a draw whose PHE
        root does not exist (target at or above a Gram rank) raises
        InfeasibleError on both sides."""
        X, S, s, H, L = case
        refs = [_or_infeasible(oracles.distributed_family, X[b], S[b], s, H, L)
                for b in range(X.shape[0])]
        batched = _or_infeasible(batcheval.distributed_family_stats, X, S, s, H, L)
        assert (batched is None) == any(ref is None for ref in refs)
        if batched is None:
            return
        for b, ref in enumerate(refs):
            assert len(ref) == 16
            for name, value in ref.items():
                assert batched[name][b] == pytest.approx(value, rel=1e-10, abs=0), name
