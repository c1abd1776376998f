"""Lockstep quadrature contract: a grid call of the analytic engine gives
every cell the bits of its one-cell call, and costs a bounded number of
integrand calls."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from adaptivedet import registry
from adaptivedet.distributions import (
    detection,
    pd_distributed,
    pd_distributed_grid,
    pd_interference,
    pd_interference_grid,
    pd_point,
    pd_point_grid,
    threshold_for_pfa,
)

POINT_LAWS = registry.names(law="point", rank_one=False)
INTERFERENCE_LAWS = registry.names(law="interference")
DISTRIBUTED_LAWS = registry.names(law="distributed")

# derandomized and without an example database: the same cases on every run
SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)

RHO = st.one_of(st.just(0.0), st.floats(1e-3, 1e4))
COS2 = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))
CELLS = st.lists(st.tuples(RHO, COS2), min_size=1, max_size=7)
ETA = st.floats(0.05, 4.0)


def _split(cells):
    rho, cos2 = (np.array(v) for v in zip(*cells))
    return rho, cos2


class TestGridEqualsOneCell:
    @SETTINGS
    @given(st.sampled_from(POINT_LAWS), st.integers(4, 12), st.data(), ETA, CELLS)
    def test_point(self, det, N, data, eta, cells):
        p = data.draw(st.integers(1, N - 1))
        L = data.draw(st.integers(N, 3 * N))
        rho, cos2 = _split(cells)
        grid = pd_point_grid(det, N, p, L, rho, cos2, eta)
        for i, (r, c) in enumerate(cells):
            assert grid[i] == pd_point(det, N, p, L, r, c, eta)

    @SETTINGS
    @given(st.sampled_from(INTERFERENCE_LAWS), st.integers(4, 12), st.data(),
           ETA, CELLS)
    def test_interference(self, det, N, data, eta, cells):
        p = data.draw(st.integers(1, N - 2))
        q = data.draw(st.integers(0, N - p - 1))
        L = data.draw(st.integers(N, 3 * N))
        rho_eff, delta2 = _split(cells)
        delta2 = delta2 * rho_eff  # a rejected energy on the SNR's scale
        grid = pd_interference_grid(det, N, p, q, L, rho_eff, delta2, eta)
        for i in range(len(cells)):
            assert grid[i] == pd_interference(det, N, p, q, L, rho_eff[i], delta2[i], eta)

    @SETTINGS
    @given(st.sampled_from(DISTRIBUTED_LAWS), st.integers(2, 10),
           st.integers(1, 5), st.data(), ETA, CELLS)
    def test_distributed(self, det, N, K, data, eta, cells):
        L = data.draw(st.integers(N, 3 * N))
        rho, cos2 = _split(cells)
        grid = pd_distributed_grid(det, N, K, L, rho, cos2, eta)
        for i, (r, c) in enumerate(cells):
            assert grid[i] == pd_distributed(det, N, K, L, r, c, eta)


class TestIntegrandCalls:
    @pytest.mark.parametrize("det", ["samf", "sabort"])
    def test_one_grid_is_one_bounded_integration(self, det, monkeypatch):
        """A 66-cell grid (6 SNRs x 11 mismatches, high-SNR cells included) is
        one integration of at most max_depth + 2 integrand calls."""
        eta = threshold_for_pfa(det, 12, 2, 24, 1e-3)
        snr_db, cos2 = np.meshgrid(np.arange(0.0, 41.0, 8.0), np.linspace(0.0, 1.0, 11))
        rho = 10.0 ** (snr_db.ravel() / 10.0)
        calls = []
        original = detection.integrate_adaptive

        def counting(f, *args, **kwargs):
            calls.append(0)

            def counted(x):
                calls[-1] += 1
                return f(x)

            return original(counted, *args, **kwargs)

        monkeypatch.setattr(detection, "integrate_adaptive", counting)
        pds = pd_point_grid(det, 12, 2, 24, rho, cos2.ravel(), eta)
        max_depth = original.__defaults__[2]
        assert pds.shape == (66,) and len(calls) == 1
        assert 1 <= calls[0] <= max_depth + 2
