"""Lockstep quadrature contract: a grid call of the analytic engine gives
every cell the bits of its one-cell call, and costs a bounded number of
integrand calls.  The same holds for a plan's thresholds: one lockstep solve
over every law gives each detector the bits of its solve alone."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from adaptivedet import batcheval, cli, registry, scenario as sc
from adaptivedet.distributions import (
    detection,
    invert_pfa,
    pd_cells,
    pd_point,
    pfa_point,
    resolve_law,
    threshold_for_pfa,
    thresholds_for_pfa,
)

POINT_LAWS = registry.names(law="point", rank_one=False)
ANY_POINT_LAW = registry.names(law="point")
INTERFERENCE_LAWS = registry.names(law="interference")
DISTRIBUTED_LAWS = registry.names(law="distributed")
ANALYTIC_LAWS = ANY_POINT_LAW + INTERFERENCE_LAWS + DISTRIBUTED_LAWS

SETTINGS = settings(max_examples=100)

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
        grid = pd_cells(resolve_law(det, N, p, L), eta, rho, cos2)
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
        law = resolve_law(det, N, p, L, q=q)
        grid = pd_cells(law, eta, rho_eff, delta2)
        for i in range(len(cells)):
            assert grid[i] == pd_cells(law, eta, rho_eff[i], delta2[i])[0]

    @SETTINGS
    @given(st.sampled_from(DISTRIBUTED_LAWS), st.integers(2, 10),
           st.integers(1, 5), st.data(), ETA, CELLS)
    def test_distributed(self, det, N, K, data, eta, cells):
        L = data.draw(st.integers(N, 3 * N))
        rho, cos2 = _split(cells)
        if not registry.lookup(det).mismatch:  # gamf's PD law holds at cos2phi = 1 only
            cos2 = np.ones_like(cos2)
        law = resolve_law(det, N, 1, L, K=K)
        grid = pd_cells(law, eta, rho, cos2)
        for i in range(len(cells)):
            assert grid[i] == pd_cells(law, eta, rho[i], cos2[i])[0]


class TestGridOfLaws:
    @settings(max_examples=40)
    @given(st.permutations(ANALYTIC_LAWS), st.integers(1, len(ANALYTIC_LAWS)),
           st.sampled_from([(8, 1, 2, 16), (10, 2, 3, 20), (8, 2, 0, 12)]), st.booleans(),
           st.data())
    def test_each_law_has_the_bits_of_its_own_call(self, order, k, dims, jammer, data):
        """A grid that mixes point, interference and distributed laws, some
        sharing parameters (every mixture at q = 0, the rank-one rows with
        gkglrt), with no-PD rows (rank-one at p > 1, a jammer) and gamf's
        matched-only cells, is one ``pd_grid`` call; each law's PDs equal its
        own ``pd_cells`` call bit for bit."""
        N, p, q, L = dims
        cfg = sc.ScenarioConfig(N=N, p=p, q=q, L=L, pfa=1e-3)
        laws = list(cli._laws(order[:k], cfg, jammer=jammer and q > 0)[0].values())
        triples = []
        for law in laws:
            x, y = _split(data.draw(CELLS))
            triples.append((law, data.draw(ETA), (x, y * x if law.kind == "interference" else y)))
        grid = detection.pd_grid(triples)
        assert len(grid) == len(laws)
        for pds, (law, eta, cells) in zip(grid, triples):
            assert np.array_equal(pds, pd_cells(law, eta, *cells), equal_nan=True)
            x, y = cells
            no_pd = (y != 1.0) if law.matched else np.full(x.shape, law.no_pd is not None)
            assert np.array_equal(np.isnan(pds), no_pd)


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
        etas = thresholds_for_pfa([resolve_law(d, *dims) for d in dets], pfa, rtol)
        for det, eta in zip(dets, etas):
            assert threshold_for_pfa(det, *dims, pfa, rtol) == eta
            # the scalar per-detector solve through pfa_point, at the solve's tolerance
            tol = detection._inversion_tol(pfa, rtol)
            alone = invert_pfa(lambda e, at: [pfa_point(det, *dims, v, tol) for v in e], pfa,
                               rtol)
            assert alone[0] == eta

    # the full text stays: hypothesis seeds a derandomized method from its
    # source, decorators included, so trimming it would draw other cases
    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(st.permutations(ANALYTIC_LAWS), st.integers(1, len(ANALYTIC_LAWS)),
           st.sampled_from([(8, 1, 2, 16), (10, 2, 3, 20), (8, 2, 0, 12)]), PFA)
    def test_plan_groups_equal_each_alone(self, order, k, dims, pfa):
        """Plans that mix point laws (rank-one ones at p = 1), interference
        laws at N - q (sharing the point laws' parameters at q = 0) and
        gkglrt/gamf, in one solve."""
        N, p, q, L = dims
        cfg = sc.ScenarioConfig(N=N, p=p, q=q, L=L, pfa=pfa)
        laws = list(cli._laws(order[:k], cfg)[0].values())
        assert [law.name for law in laws] == list(order[:k])  # each has a law here
        etas = thresholds_for_pfa(laws, pfa)
        for law, eta in zip(laws, etas):
            assert cli.analytic_threshold(law.name, cfg) == eta

    def test_mixed_plan_is_one_solve(self, monkeypatch):
        """A plan with point, interference and distributed laws and Monte
        Carlo detectors makes one root solve for all its analytic thresholds."""
        solves = []
        original = detection.find_root

        def counting(*args, **kwargs):
            solves.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(detection, "find_root", counting)
        args = cli.build_parser()[0].parse_args(
            ["pd-vs-snr", "--N", "8", "--p", "1", "--q", "2", "--L", "16", "--trials", "200",
             "--pfa", "1e-2", "--detectors", "sglrt,kglrt,smf,aed,glrt_he_i,glrt_phe_i,gkglrt,"
             "gamf,smi,rao_he_i"])
        cfg = cli._scenario_from_args(args)
        laws, no_law = cli._laws(cli._detectors(args), cfg)
        assert {law.kind for law in laws.values()} == {"point", "interference", "distributed"}
        thresholds = cli._thresholds(laws, list(no_law), cfg, args)
        assert len(solves) == 1 and len(thresholds) == 10
        for det in laws:
            assert cli.analytic_threshold(det, cfg) == thresholds[det]

    def test_pfa_of_never_sees_a_converged_element(self, monkeypatch):
        """On the benchmark's mc_point_grid plan each element is evaluated
        at distinct thresholds only (a converged element would be evaluated
        again at its last one), and as often as when solved alone."""
        seen = []  # (element, threshold) of every evaluation
        original = detection.invert_pfa

        def recording(pfa_of, *args, **kwargs):
            def recorded(etas, at):
                seen.extend(zip(at.tolist(), etas.tolist()))
                return pfa_of(etas, at)

            return original(recorded, *args, **kwargs)

        monkeypatch.setattr(detection, "invert_pfa", recording)
        laws = [resolve_law(d, 12, 2, 24) for d in MC_POINT_GRID_ARGV[-5].split(",")]
        thresholds_for_pfa(laws, 1e-3)
        together = list(seen)
        assert len(together) == len(set(together))
        for i, law in enumerate(laws):
            seen.clear()
            thresholds_for_pfa([law], 1e-3)
            assert [eta for k, eta in together if k == i] == [eta for _, eta in seen]


class TestIntegrandCalls:
    def test_plan_thresholds_share_each_quadrature(self, monkeypatch):
        """The nine point laws of the benchmark's mc_point_grid plan take one
        quadrature per root-finding round, not one per detector and round
        (77 when each detector was solved alone)."""
        args = cli.build_parser()[0].parse_args(MC_POINT_GRID_ARGV)
        calls = _counting_integrations(monkeypatch)
        cfg = cli._scenario_from_args(args)
        laws, no_law = cli._laws(cli._detectors(args), cfg)
        thresholds = cli._thresholds(laws, list(no_law), cfg, args)
        assert len(thresholds) == 9
        assert 1 <= len(calls) <= 16

    @pytest.mark.parametrize("det", ["samf", "sabort"])
    def test_one_grid_is_one_bounded_integration(self, det, monkeypatch):
        """A 66-cell grid (6 SNRs x 11 mismatches, high-SNR cells included) is
        one integration of at most 3 integrand calls: the first round already
        brackets each narrow loss-factor bulk."""
        eta = threshold_for_pfa(det, 12, 2, 24, 1e-3)
        snr_db, cos2 = np.meshgrid(np.arange(0.0, 41.0, 8.0), np.linspace(0.0, 1.0, 11))
        rho = 10.0 ** (snr_db.ravel() / 10.0)
        calls = _counting_integrations(monkeypatch)
        pds = pd_cells(resolve_law(det, 12, 2, 24), eta, rho, cos2.ravel())
        assert pds.shape == (66,) and len(calls) == 1
        assert 1 <= calls[0] <= 3

    def test_laws_sharing_params_share_one_integration(self, monkeypatch, tmp_path):
        """The seven point mixtures of an analytic mesa share their
        parameters, so the grid is one integration, not one per detector;
        a law of other parameters adds none (aed is a closed form)."""
        sizes = []  # the number of integrals of each integration
        original = detection.integrate_adaptive

        def recording(f, *args, **kwargs):
            sizes.append(kwargs["n"])
            return original(f, *args, **kwargs)

        monkeypatch.setattr(detection, "integrate_adaptive", recording)
        dets = "sglrt,samf,srao,asd,sabort,wsabort,dnsamf,aed"
        assert cli.main(["mesa", "--mode", "analytic", "--N", "8", "--p", "2", "--L", "16",
                         "--snr", "0,10,20", "--cos2phi", "0.5,1", "--detectors", dets,
                         "--out", str(tmp_path / "m.csv")]) == 0
        # the threshold solve's first round integrates both bracket ends of the
        # seven laws, and every later round at most seven laws
        assert sizes[0] == 2 * 7 and max(sizes[1:-1]) <= 7 and sizes[-1] == 7 * 6
        # a second parameter set is a second integration
        sizes.clear()
        detection.pd_grid([(resolve_law("samf", 8, 2, 16), 1.0, ([1.0], [0.5])),
                           (resolve_law("sabort", 8, 2, 16), 1.0, ([1.0], [0.5])),
                           (resolve_law("samf", 8, 2, 24), 1.0, ([1.0], [0.5]))])
        assert sizes == [2, 1]

    def test_interference_grid_has_one_geometry(self, monkeypatch, tmp_path):
        """The interference laws of an analytic grid share one call of
        ``mismatch_geometry``, whatever the number of detectors."""
        calls = []
        original = batcheval.mismatch_geometry

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(batcheval, "mismatch_geometry", counting)
        assert cli.main(["mesa", "--mode", "analytic", "--N", "8", "--p", "2", "--q", "2",
                         "--L", "16", "--snr", "0,10", "--cos2phi", "0.5,1", "--detectors",
                         "glrt_he_i,ts_glrt_he_i,glrt_phe_i,sglrt",
                         "--out", str(tmp_path / "m.csv")]) == 0
        assert len(calls) == 1
