"""Monte Carlo agreement checks for the analytic detection-probability laws
beyond the point-target bank (which the acceptance suite covers).

Each check is the exact binomial test of :func:`oracles.assert_counts`: it
fails correct counts with chance below 6e-7, and its trial count
(:func:`oracles.trials_to_detect`) catches a PD off by 0.03 on any of its rows
with probability 0.99.
"""

import numpy as np
import pytest

import oracles
from adaptivedet import montecarlo as mc, scenario as sc
from adaptivedet.cli import analytic_threshold
from adaptivedet.batcheval import mismatch_geometry
from adaptivedet.distributions import pd_cells, resolve_law


class TestDistributedAgreement:
    N, K, L = 8, 4, 16

    def _run(self, detector, cos2phi, master_seed):
        cfg = sc.ScenarioConfig(N=self.N, p=1, L=self.L, K=self.K, pfa=1e-2)
        H, _ = sc.default_geometry(self.N, 1)
        cov = sc.CovarianceModel.ar1(0.9)
        R = cov.build(self.N)
        eta = analytic_threshold(detector, cfg)
        s0 = oracles.signal(H, R, 15.0, cos2phi, seed=5)
        coords = np.ones(self.K, dtype=complex) / np.sqrt(self.K)
        n = oracles.trials_to_detect(0.03)
        plan = mc.TrialPlan(n_trials=n, master_seed=master_seed, scenario=cfg,
                            covariance=cov, detectors=(detector,))
        est = oracles.estimate_pd(plan, detector, eta, np.outer(s0, coords.conj()))
        law = resolve_law(detector, self.N, 1, self.L, K=self.K)
        analytic = pd_cells(law, eta, sc.db_to_power(15.0), cos2phi)[0]
        oracles.assert_counts([(detector, round(est.pd * n), n, analytic)])

    def test_gkglrt_matched(self):
        self._run("gkglrt", 1.0, 1001)

    def test_gkglrt_mismatched(self):
        self._run("gkglrt", 0.7, 1002)

    def test_gamf_matched(self):
        self._run("gamf", 1.0, 1003)


class TestInterferenceAgreement:
    N, p, q, L = 12, 2, 3, 24

    @pytest.mark.parametrize("detector", ["glrt_he_i", "ts_glrt_he_i", "glrt_phe_i"])
    def test_matches_monte_carlo_with_jammer(self, detector):
        cfg = sc.ScenarioConfig(N=self.N, p=self.p, q=self.q, L=self.L, pfa=1e-2)
        H, J = sc.default_geometry(self.N, self.p, self.q)
        cov = sc.CovarianceModel.ar1(0.9)
        R = cov.build(self.N)
        eta = analytic_threshold(detector, cfg)
        s0 = oracles.signal(H, R, 18.0, 0.9, seed=6)
        # a strong coherent jammer must be rejected without changing PD
        jam = J @ (3.0 * np.ones(self.q))
        n = oracles.trials_to_detect(0.03)
        plan = mc.TrialPlan(n_trials=n, master_seed=2024, scenario=cfg,
                            covariance=cov, detectors=(detector,))
        est = oracles.estimate_pd(plan, detector, eta, (s0 + jam)[:, None])
        rho_eff, delta2_i = mismatch_geometry(s0[None], R, H, J)
        law = resolve_law(detector, self.N, self.p, self.L, q=self.q, jammer=True)
        analytic = pd_cells(law, eta, rho_eff, delta2_i)[0]
        oracles.assert_counts([(detector, round(est.pd * n), n, analytic)])

    def test_jammer_presence_does_not_shift_pd(self):
        """With and without a strong jammer, the count matches the analytic
        PD (two rows): a jammer leaking into the statistic fails it."""
        cfg = sc.ScenarioConfig(N=self.N, p=self.p, q=self.q, L=self.L, pfa=1e-2)
        H, J = sc.default_geometry(self.N, self.p, self.q)
        cov = sc.CovarianceModel.ar1(0.9)
        R = cov.build(self.N)
        eta = analytic_threshold("glrt_he_i", cfg)
        s0 = oracles.signal(H, R, 18.0, 0.9, seed=6)
        jam = J @ (5.0 * np.ones(self.q))
        n = oracles.trials_to_detect(0.03, rows=2)
        plan = mc.TrialPlan(n_trials=n, master_seed=31415, scenario=cfg, covariance=cov,
                            detectors=("glrt_he_i",))
        counts = mc.exceedance_counts(plan, [(s0 + jam)[:, None], s0[:, None]],
                                      {"glrt_he_i": eta})
        law = resolve_law("glrt_he_i", self.N, self.p, self.L, q=self.q, jammer=True)
        analytic = pd_cells(law, eta, *mismatch_geometry(s0[None], R, H, J))[0]
        oracles.assert_counts([("with jammer", counts[0, 0], n, analytic),
                               ("without", counts[1, 0], n, analytic)])
