"""Monte Carlo agreement checks for the analytic detection-probability laws
beyond the point-target bank (which the acceptance suite covers)."""

import numpy as np
import pytest

from adaptivedet import montecarlo as mc, scenario as sc
from adaptivedet.cli import analytic_threshold
from adaptivedet.batcheval import mismatch_geometry
from adaptivedet.distributions import pd_distributed, pd_interference


class TestDistributedAgreement:
    N, K, L = 8, 4, 16

    def _run(self, detector, cos2phi, master_seed):
        cfg = sc.ScenarioConfig(N=self.N, p=1, L=self.L, K=self.K, pfa=1e-2)
        geom = mc.Geometry.default(cfg)
        cov = sc.CovarianceModel.ar1(0.9)
        R = cov.build(self.N)
        eta = analytic_threshold(detector, cfg)
        spec = sc.SignalSpec(snr_db=15.0, cos2phi=cos2phi, seed=5)
        s0 = sc.actual_signal(geom.s[:, None], R, spec)
        coords = np.ones(self.K, dtype=complex) / np.sqrt(self.K)
        plan = mc.TrialPlan(n_trials=10_000, master_seed=master_seed, scenario=cfg,
                            covariance=cov, detectors=(detector,), hypothesis="h1",
                            geometry=geom, signal_mean=np.outer(s0, coords.conj()))
        est = mc.estimate_pd(plan, detector, eta)
        analytic = pd_distributed(detector, self.N, self.K, self.L,
                                  spec.rho, cos2phi, eta)
        assert est.ci_low <= analytic <= est.ci_high, (detector, est, analytic)

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
        geom = mc.Geometry.default(cfg)
        cov = sc.CovarianceModel.ar1(0.9)
        R = cov.build(self.N)
        eta = analytic_threshold(detector, cfg)
        s0 = sc.actual_signal(geom.H, R, sc.SignalSpec(snr_db=18.0, cos2phi=0.9, seed=6))
        # a strong coherent jammer must be rejected without changing PD
        jam = geom.J @ (3.0 * np.ones(self.q))
        plan = mc.TrialPlan(n_trials=10_000, master_seed=2024, scenario=cfg,
                            covariance=cov, detectors=(detector,), hypothesis="h1",
                            geometry=geom, signal_mean=s0[:, None],
                            interference_mean=jam[:, None])
        est = mc.estimate_pd(plan, detector, eta)
        geo = mismatch_geometry(s0, R, geom.H, geom.J)
        analytic = pd_interference(detector, self.N, self.p, self.q, self.L,
                                   geo.rho_eff, geo.delta2_i, eta)
        assert est.ci_low <= analytic <= est.ci_high, (detector, est, analytic)

    def test_jammer_presence_does_not_shift_pd(self):
        cfg = sc.ScenarioConfig(N=self.N, p=self.p, q=self.q, L=self.L, pfa=1e-2)
        geom = mc.Geometry.default(cfg)
        cov = sc.CovarianceModel.ar1(0.9)
        R = cov.build(self.N)
        eta = analytic_threshold("glrt_he_i", cfg)
        s0 = sc.actual_signal(geom.H, R, sc.SignalSpec(snr_db=18.0, cos2phi=0.9, seed=6))
        jam = geom.J @ (5.0 * np.ones(self.q))
        kw = dict(n_trials=10_000, master_seed=31415, scenario=cfg, covariance=cov,
                  detectors=("glrt_he_i",), hypothesis="h1", geometry=geom,
                  signal_mean=s0[:, None])
        with_jam = mc.estimate_pd(
            mc.TrialPlan(interference_mean=jam[:, None], **kw), "glrt_he_i", eta)
        without = mc.estimate_pd(mc.TrialPlan(**kw), "glrt_he_i", eta)
        assert with_jam.ci_low <= without.pd <= with_jam.ci_high
