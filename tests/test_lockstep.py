"""Lockstep quadrature contract: a grid call of the analytic engine gives
every cell the bits of its one-cell call, and costs a bounded number of
integrand calls.  The same holds for a plan's thresholds: one lockstep solve
per law group gives each detector the bits of its solve alone."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from adaptivedet import cli, registry, scenario as sc
from adaptivedet.distributions import (
    detection,
    invert_pfa,
    pd_distributed,
    pd_distributed_grid,
    pd_interference,
    pd_interference_grid,
    pd_point,
    pd_point_grid,
    pfa_point,
    threshold_for_pfa,
    thresholds_for_pfa,
)

POINT_LAWS = registry.names(law="point", rank_one=False)
ANY_POINT_LAW = registry.names(law="point")
INTERFERENCE_LAWS = registry.names(law="interference")
DISTRIBUTED_LAWS = registry.names(law="distributed")
ANALYTIC_LAWS = ANY_POINT_LAW + INTERFERENCE_LAWS + DISTRIBUTED_LAWS

# derandomized and without an example database: the same cases on every run
SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)

RHO = st.one_of(st.just(0.0), st.floats(1e-3, 1e4))
COS2 = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))
CELLS = st.lists(st.tuples(RHO, COS2), min_size=1, max_size=7)
ETA = st.floats(0.05, 4.0)
PFA = st.sampled_from([1e-2, 1e-3, 1e-6])
RTOL = st.sampled_from([1e-3, 1e-6])
# the benchmark's mc_point_grid command: nine point laws, one Pfa
MC_POINT_GRID_ARGV = [
    "pd-vs-snr", "--mode", "montecarlo", "--N", "12", "--p", "2", "--L", "24", "--pfa", "1e-3",
    "--q", "3", "--covariance", "ar1:0.9", "--detectors",
    "sglrt,samf,srao,asd,sabort,wsabort,dnsamf,aed,smf",
    "--snr", "0,2,4,6,8,10,12,14,16,18,20,22,24", "--trials", "1000"]


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


def _counting_integrations(monkeypatch):
    """Patch the engine's quadrature to record, per integration, its integrand calls."""
    calls = []
    original = detection.integrate_adaptive

    def counting(f, *args, **kwargs):
        calls.append(0)

        def counted(x):
            calls[-1] += 1
            return f(x)

        return original(counted, *args, **kwargs)

    monkeypatch.setattr(detection, "integrate_adaptive", counting)
    return calls


class TestLockstepThresholds:
    @SETTINGS
    @given(st.permutations(ANY_POINT_LAW), st.integers(1, len(ANY_POINT_LAW)),
           st.sampled_from([(12, 2, 24), (8, 3, 9), (6, 1, 13), (12, 1, 24)]), PFA, RTOL)
    def test_point_group_equals_each_alone(self, order, k, dims, pfa, rtol):
        """Random subsets and orders of the point laws; the rank-one ones join at p = 1."""
        dets = [d for d in order[:k] if dims[1] == 1 or not registry.lookup(d).rank_one]
        assume(dets)
        etas = thresholds_for_pfa(dets, *dims, pfa, rtol)
        for det, eta in zip(dets, etas):
            assert threshold_for_pfa(det, *dims, pfa, rtol) == eta
            # the scalar per-detector solve through pfa_point
            alone = invert_pfa(lambda e: pfa_point(det, *dims, float(e[0])), pfa, rtol)
            assert alone[0] == eta

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(st.permutations(ANALYTIC_LAWS), st.integers(1, len(ANALYTIC_LAWS)),
           st.sampled_from([(8, 1, 2, 16), (10, 2, 3, 20), (8, 2, 0, 12)]), PFA)
    def test_plan_groups_equal_each_alone(self, order, k, dims, pfa):
        """Point laws (rank-one ones at p = 1), interference laws at N - q
        (merged with the point group at q = 0) and gkglrt/gamf."""
        N, p, q, L = dims
        cfg = sc.ScenarioConfig(N=N, p=p, q=q, L=L, pfa=pfa)
        dets = order[:k]
        etas = cli.analytic_thresholds(dets, cfg)
        assert list(etas) == [d for d in dets if cli._analytic_law(d, cfg)]
        for det, eta in etas.items():
            assert cli.analytic_threshold(det, cfg) == eta


class TestIntegrandCalls:
    def test_plan_thresholds_share_each_quadrature(self, monkeypatch):
        """The nine point laws of the benchmark's mc_point_grid plan take one
        quadrature per root-finding round, not one per detector and round
        (77 when each detector was solved alone)."""
        args = cli.build_parser()[0].parse_args(MC_POINT_GRID_ARGV)
        calls = _counting_integrations(monkeypatch)
        thresholds = cli._thresholds(cli._detectors(args), cli._scenario_from_args(args), args)
        assert len(thresholds) == 9
        assert 1 <= len(calls) <= 16

    @pytest.mark.parametrize("det", ["samf", "sabort"])
    def test_one_grid_is_one_bounded_integration(self, det, monkeypatch):
        """A 66-cell grid (6 SNRs x 11 mismatches, high-SNR cells included) is
        one integration of at most max_depth + 2 integrand calls."""
        eta = threshold_for_pfa(det, 12, 2, 24, 1e-3)
        snr_db, cos2 = np.meshgrid(np.arange(0.0, 41.0, 8.0), np.linspace(0.0, 1.0, 11))
        rho = 10.0 ** (snr_db.ravel() / 10.0)
        max_depth = detection.integrate_adaptive.__defaults__[2]
        calls = _counting_integrations(monkeypatch)
        pds = pd_point_grid(det, 12, 2, 24, rho, cos2.ravel(), eta)
        assert pds.shape == (66,) and len(calls) == 1
        assert 1 <= calls[0] <= max_depth + 2
