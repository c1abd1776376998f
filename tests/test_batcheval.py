"""The batched point kernels with per-trial geometry against the per-instance banks."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from adaptivedet import batcheval
from adaptivedet.detectors import interference_bank, rank_one_bank, subspace_bank
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


class TestStackedGeometry:
    @SETTINGS
    @given(instances())
    def test_rows_equal_per_instance_banks(self, case):
        x, S, H, J = case
        N, p, q = H.shape[1], H.shape[2], J.shape[2]
        batched = batcheval.evaluate_point(batcheval.prepare_point(S, H, J), x)
        for b in range(x.shape[0]):
            ref = {}
            for bank in (subspace_bank(x[b], S[b], H[b]),
                         rank_one_bank(x[b], S[b], H[b][:, 0]),
                         interference_bank(x[b], S[b], H[b], J[b])):
                ref.update(vars(bank))
            for name, value in ref.items():
                if name.startswith("w_"):
                    continue
                if name == "wald_phe_i" and p + q == N:
                    assert np.isnan(value) and np.isnan(batched[name][b])
                    continue
                assert batched[name][b] == pytest.approx(value, rel=1e-10, abs=0), name
