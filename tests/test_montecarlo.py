from dataclasses import replace

import numpy as np
import pytest

import oracles
from adaptivedet import batcheval, cli, montecarlo as mc, registry, scenario as sc
from adaptivedet.distributions import ComplexChi2, threshold_for_pfa
from adaptivedet.errors import GeometryError, InfeasibleError


def _point_plan(n=2000, seed=11, hypothesis="h0", **kw):
    cfg = sc.ScenarioConfig(N=6, p=2, q=2, L=12, pfa=1e-2)
    return mc.TrialPlan(
        n_trials=n, master_seed=seed, scenario=cfg,
        covariance=sc.CovarianceModel.ar1(0.9),
        detectors=tuple(sorted(registry.names(family="point"))),
        hypothesis=hypothesis, **kw)


class TestReproducibility:
    def test_same_plan_identical(self):
        a = mc.run_trials(_point_plan())
        b = mc.run_trials(_point_plan())
        for name in a:
            assert np.array_equal(a[name], b[name])

    def test_batch_size_invariance(self):
        a = mc.run_trials(_point_plan(batch_size=64))
        b = mc.run_trials(_point_plan(batch_size=577))
        for name in a:
            assert np.array_equal(a[name], b[name])

    def test_trial_streams_are_prefix_stable(self):
        # trial i's statistics do not depend on how many trials run
        a = mc.run_trials(_point_plan(n=100))
        b = mc.run_trials(_point_plan(n=400))
        for name in a:
            assert np.array_equal(a[name], b[name][:100])


class TestTrialStreams:
    def test_reused_generator_matches_fresh_streams(self):
        streams = mc.TrialStreams(20240817)
        n = 2 * 6 * (12 + 1)
        out = np.empty(n)
        for i in (0, 1, 4095, 4096, 2**40 + 3, 1, 0):
            streams.standard_normal(i, out)
            assert np.array_equal(out, mc.trial_rng(20240817, i).standard_normal(n)), i


class TestExceedanceCounts:
    @staticmethod
    def _assert_counts_match(plan, means, batch_size):
        plan = replace(plan, batch_size=batch_size)
        base = mc.run_trials(replace(plan, signal_mean=means[0]))
        thresholds = {d: float(np.median(base[d])) for d in plan.detectors}
        counts = mc.exceedance_counts(plan, means, thresholds)
        assert counts.shape == (len(means), len(plan.detectors))
        for g, mean in enumerate(means):
            plan_g = replace(plan, signal_mean=mean)
            stats = mc.run_trials(plan_g)
            for d, det in enumerate(plan.detectors):
                ref = mc.estimate_pd(plan_g, det, thresholds[det], stats=stats[det])
                assert mc.pd_estimate(int(counts[g, d]), plan.n_trials) == ref, (g, det)

    @pytest.mark.parametrize("batch_size", [64, 577])
    def test_point_family_with_jammer(self, batch_size):
        cfg = sc.ScenarioConfig(N=8, p=2, q=2, L=16, pfa=1e-2)
        geom = mc.Geometry.default(cfg)
        cov = sc.CovarianceModel.ar1(0.9)
        R = cov.build(cfg.N)
        jammer = cli._jammer_mean(cfg, geom, R, 20.0)
        means = [sc.actual_signal(geom.H, R, sc.SignalSpec(snr_db=snr, cos2phi=0.8, seed=g))
                 for g, snr in enumerate((0.0, 6.0, 12.0))]
        plan = mc.TrialPlan(n_trials=700, master_seed=3, scenario=cfg, covariance=cov,
                            detectors=tuple(sorted(registry.names(family="point"))),
                            hypothesis="h1", geometry=geom, interference_mean=jammer)
        self._assert_counts_match(plan, means, batch_size)

    @pytest.mark.parametrize("batch_size", [64, 577])
    def test_distributed_family(self, batch_size):
        cfg = sc.ScenarioConfig(N=6, p=2, L=12, K=4, pfa=1e-2)
        geom = mc.Geometry.default(cfg)
        cov = sc.CovarianceModel.ar1(0.5)
        R = cov.build(cfg.N)
        means = [np.outer(sc.actual_signal(geom.s[:, None], R,
                                           sc.SignalSpec(snr_db=snr, seed=g)),
                          np.ones(cfg.K) / 2.0)
                 for g, snr in enumerate((0.0, 8.0))]
        plan = mc.TrialPlan(n_trials=300, master_seed=8, scenario=cfg, covariance=cov,
                            detectors=tuple(sorted(registry.names(family="distributed"))),
                            hypothesis="h1", geometry=geom)
        self._assert_counts_match(plan, means, batch_size)

    def test_grid_draws_each_trial_once(self, monkeypatch, tmp_path):
        drawn = []
        original = mc.TrialStreams.standard_normal

        def counting(self, trial_index, out):
            drawn.append(trial_index)
            return original(self, trial_index, out)

        monkeypatch.setattr(mc.TrialStreams, "standard_normal", counting)
        rc = cli.main(["pd-vs-snr", "--mode", "montecarlo", "--snr",
                       ",".join(str(s) for s in range(0, 25, 2)),
                       "--detectors", "sglrt,samf", "--trials", "300",
                       "--batch-size", "128", "--out", str(tmp_path / "grid.csv")])
        assert rc == 0
        assert sorted(drawn) == list(range(300))


class TestBankPreparation:
    """The noise pass prepares only the distributed banks the plan reads."""

    PHE = ("glrt_phe", "rao_phe", "wald_phe")

    @staticmethod
    def _run(detectors):
        cfg = sc.ScenarioConfig(N=6, p=2, L=12, K=4, pfa=1e-2)
        plan = mc.TrialPlan(n_trials=300, master_seed=5, scenario=cfg,
                            covariance=sc.CovarianceModel.ar1(0.5),
                            detectors=tuple(detectors), batch_size=128)
        return mc.run_trials(plan)

    @pytest.mark.parametrize("detectors", [
        ("gkglrt", "gamf", "rao_he", "gasd"),
        ("glrdd", "amdd", "snrdd", "gadd", "glrt_dos", "rao_dos", "wald_dos"),
        ("gasd", "snrdd"),
    ] + [(name,) for name in PHE])
    def test_root_solver_only_for_phe_detectors(self, detectors, monkeypatch):
        calls = []
        original = batcheval.solve_sigma_batch

        def counting(eigs, target):
            calls.append(len(eigs))
            return original(eigs, target)

        monkeypatch.setattr(batcheval, "solve_sigma_batch", counting)
        out = self._run(detectors)
        assert set(out) == set(detectors)
        if set(detectors) & set(self.PHE):
            assert calls == [128, 128, 128, 128, 44, 44]  # sigma0 and sigma1 per batch
        else:
            assert calls == []

    def test_partial_banks_give_the_full_pass_bits(self):
        full = self._run(registry.names(family="distributed"))
        for detectors in (("gkglrt", "gasd"), ("glrdd", "rao_dos"), ("wald_phe",)):
            part = self._run(detectors)
            for name in detectors:
                assert np.array_equal(part[name], full[name]), name


class TestClairvoyantPreparation:
    @pytest.mark.parametrize("detectors, has_map", [
        (("sglrt", "glrt_he_i"), False), (("sglrt", "smf"), True), (("mf",), True)])
    def test_map_only_for_clairvoyant_detectors(self, detectors, has_map):
        """The noise pass builds the clairvoyant map W only for a plan that
        has a clairvoyant detector."""
        cfg = sc.ScenarioConfig(N=6, p=2, q=1, L=12, pfa=1e-2)
        plan = mc.TrialPlan(n_trials=50, master_seed=5, scenario=cfg,
                            covariance=sc.CovarianceModel.ar1(0.5), detectors=detectors)
        (_, _, (point, _)), = mc._noise_pass(plan)
        assert (point.W is not None) == has_map


class TestFullSpaceGeometry:
    # p + q = N: [H J] spans the space, so wald_phe_i has nothing to normalize by
    CFG = sc.ScenarioConfig(N=4, p=2, q=2, L=8, pfa=1e-2)

    def test_wald_phe_i_is_nan_in_both_paths(self):
        geom = mc.Geometry.default(self.CFG)
        for seed in range(5):
            d = sc.synthesize(self.CFG, sc.CovarianceModel.ar1(0.9), seed=seed)
            ints = oracles.interference_bank(d.test_vector, d.scm, geom.H, geom.J)
            batched = batcheval.point_family_stats(
                d.test_vector[None], d.scm[None], geom.H, geom.J)
            assert np.isnan(ints["wald_phe_i"])
            assert np.isnan(batched["wald_phe_i"][0])
            assert batched["wald_he_i"][0] == pytest.approx(ints["wald_he_i"], rel=1e-10)

    def test_plan_rejects_wald_phe_i(self):
        with pytest.raises(GeometryError):
            mc.TrialPlan(n_trials=100, master_seed=0, scenario=self.CFG,
                         covariance=sc.CovarianceModel.identity(),
                         detectors=("glrt_he_i", "wald_phe_i"))
        mc.TrialPlan(n_trials=100, master_seed=0, scenario=self.CFG,
                     covariance=sc.CovarianceModel.identity(), detectors=("glrt_he_i",))


class TestBatchedMatchesPlain:
    def test_point_family(self):
        plan = _point_plan(n=16)
        cfg, geom = plan.scenario, plan.geometry
        R = plan.covariance.build(cfg.N)
        stats = mc.run_trials(plan)
        for i in range(plan.n_trials):
            d = sc.synthesize(cfg, plan.covariance, hypothesis="h0",
                              seed=mc.trial_rng(plan.master_seed, i))
            x = d.test_vector
            ps = oracles.subspace_bank(x, d.scm, geom.H)
            rs = oracles.rank_one_bank(x, d.scm, geom.s)
            ints = oracles.interference_bank(x, d.scm, geom.H, geom.J)
            for name, ref in (*ps.items(), *rs.items(), *ints.items()):
                assert stats[name][i] == pytest.approx(ref, rel=1e-10), name

    def test_distributed_family(self):
        cfg = sc.ScenarioConfig(N=6, p=2, L=12, K=3, pfa=1e-2)
        plan = mc.TrialPlan(
            n_trials=12, master_seed=5, scenario=cfg,
            covariance=sc.CovarianceModel.ar1(0.5),
            detectors=tuple(sorted(registry.names(family="distributed"))),
            hypothesis="h0")
        stats = mc.run_trials(plan)
        geom = plan.geometry
        for i in range(plan.n_trials):
            d = sc.synthesize(cfg, plan.covariance, hypothesis="h0",
                              seed=mc.trial_rng(plan.master_seed, i))
            ref = oracles.distributed_family(d.test, d.scm, geom.s, geom.H, cfg.L)
            for name in plan.detectors:
                assert stats[name][i] == pytest.approx(ref[name], rel=1e-9), name


class TestCalibration:
    def test_uniform_order_statistic(self, rng):
        plan = _point_plan(n=50_000)
        uniform = rng.uniform(size=plan.n_trials)
        thr = mc.calibrate_threshold(plan, "sglrt", stats=uniform)
        pfa = plan.scenario.pfa
        assert abs(thr - (1 - pfa)) < 3 * np.sqrt(pfa / plan.n_trials)

    def test_determinism(self):
        plan = _point_plan(n=5000)
        assert mc.calibrate_threshold(plan, "kglrt") == mc.calibrate_threshold(plan, "kglrt")

    def test_insufficient_trials(self):
        plan = _point_plan(n=50)
        with pytest.raises(InfeasibleError):
            mc.calibrate_threshold(plan, "kglrt")

    def test_h1_plan_rejected(self):
        plan = _point_plan(n=2000, hypothesis="h1")
        with pytest.raises(ValueError):
            mc.calibrate_threshold(plan, "kglrt")

    def test_warns_below_stable_trial_count(self, rng, caplog):
        stats = rng.uniform(size=5000)
        plan = _point_plan(n=5000)  # n * pfa = 50
        with caplog.at_level("WARNING", logger="adaptivedet.montecarlo"):
            mc.calibrate_threshold(plan, "kglrt", stats=stats)
        assert len(caplog.records) == 1
        message = caplog.records[0].getMessage()
        assert "n=5000" in message and "pfa=0.01" in message and "m=50" in message
        caplog.clear()
        with caplog.at_level("WARNING", logger="adaptivedet.montecarlo"):
            mc.calibrate_threshold(_point_plan(n=10_000), "kglrt",
                                   stats=rng.uniform(size=10_000))
        assert caplog.records == []

    def test_held_out_pfa(self):
        plan = _point_plan(n=40_000, seed=21)
        thr = mc.calibrate_threshold(plan, "kglrt")
        fresh = _point_plan(n=40_000, seed=22)
        est = mc.estimate_pd(fresh, "kglrt", thr)
        assert est.ci_low <= plan.scenario.pfa <= est.ci_high


class TestEstimatePd:
    def test_threshold_below_support(self):
        plan = _point_plan(n=500)
        est = mc.estimate_pd(plan, "aed", -1.0)
        assert est.pd == 1.0

    def test_smf_analytic_oracle(self):
        cfg = sc.ScenarioConfig(N=6, p=1, L=12, pfa=1e-2)
        geom = mc.Geometry.default(cfg)
        cov = sc.CovarianceModel.ar1(0.9)
        R = cov.build(cfg.N)
        spec = sc.SignalSpec(snr_db=8.0, cos2phi=1.0, seed=2)
        s0 = sc.actual_signal(geom.H, R, spec)
        eta = threshold_for_pfa("smf", cfg.N, 1, cfg.L, cfg.pfa)
        plan = mc.TrialPlan(n_trials=10_000, master_seed=31, scenario=cfg,
                            covariance=cov, detectors=("smf",), hypothesis="h1",
                            geometry=geom, signal_mean=s0[:, None])
        est = mc.estimate_pd(plan, "smf", eta)
        pd_true = float(ComplexChi2(1, spec.rho).sf(eta))
        assert est.ci_low <= pd_true <= est.ci_high

    def test_ci_width_scaling(self):
        a = mc.estimate_pd(_point_plan(n=4000), "kglrt", 0.2)
        b = mc.estimate_pd(_point_plan(n=8000), "kglrt", 0.2)
        ratio = (b.ci_high - b.ci_low) / (a.ci_high - a.ci_low)
        assert abs(ratio - 1 / np.sqrt(2)) < 0.2 / np.sqrt(2)

    def test_wilson_contains_estimate(self):
        lo, hi = mc.wilson_interval(10, 1000)
        assert lo <= 0.01 <= hi


class TestCfarSweep:
    COVS = (sc.CovarianceModel.identity(), sc.CovarianceModel.ar1(0.9),
            sc.CovarianceModel.ar1_plus_white(0.99, 30.0))

    def test_kglrt_passes(self):
        cfg = sc.ScenarioConfig(N=6, p=2, q=0, L=12, pfa=1e-2)
        plan = mc.TrialPlan(n_trials=20_000, master_seed=17, scenario=cfg,
                            covariance=self.COVS[0], detectors=("kglrt",),
                            hypothesis="h0")
        thr = mc.calibrate_threshold(plan, "kglrt")
        report = mc.cfar_sweep(("kglrt",), cfg, self.COVS, {"kglrt": thr}, 20_000,
                               master_seed=17)["kglrt"]
        assert report.passed

    def test_smi_fails_with_large_ratio(self):
        cfg = sc.ScenarioConfig(N=6, p=2, q=0, L=12, pfa=1e-2)
        plan = mc.TrialPlan(n_trials=20_000, master_seed=17, scenario=cfg,
                            covariance=self.COVS[0], detectors=("smi",),
                            hypothesis="h0")
        thr = mc.calibrate_threshold(plan, "smi")
        report = mc.cfar_sweep(("smi",), cfg, self.COVS, {"smi": thr}, 20_000,
                               master_seed=17)["smi"]
        assert not report.passed
        rates = [row.pfa_hat for row in report.rows]
        assert max(rates) > 2 * max(min(rates), 1e-12)


class TestOrientationAndScale:
    def test_glrt_phe_grows_under_h1(self):
        # sign test for the PHE GLRT: the detection probability at an
        # H0-calibrated threshold must far exceed the false-alarm rate
        cfg = sc.ScenarioConfig(N=6, p=1, L=12, K=3, pfa=1e-2)
        geom = mc.Geometry.default(cfg)
        cov = sc.CovarianceModel.ar1(0.9)
        R = cov.build(cfg.N)
        plan0 = mc.TrialPlan(n_trials=20_000, master_seed=77, scenario=cfg,
                             covariance=cov, detectors=("glrt_phe",),
                             hypothesis="h0", geometry=geom)
        thr = mc.calibrate_threshold(plan0, "glrt_phe")
        s0 = sc.actual_signal(geom.H, R, sc.SignalSpec(snr_db=15.0, seed=1))
        mean = np.outer(s0, np.ones(cfg.K) / np.sqrt(cfg.K))
        plan1 = mc.TrialPlan(n_trials=5_000, master_seed=78, scenario=cfg,
                             covariance=cov, detectors=("glrt_phe",),
                             hypothesis="h1", geometry=geom, signal_mean=mean)
        est = mc.estimate_pd(plan1, "glrt_phe", thr)
        assert est.pd > 0.5

    def test_wald_phe_i_scale_invariance(self):
        # the concatenated-subspace normalization makes the statistic exactly
        # scale invariant, hence false-alarm invariant to the PHE power level
        cfg = sc.ScenarioConfig(N=6, p=1, q=2, L=12, pfa=1e-2)
        geom = mc.Geometry.default(cfg)
        cov = sc.CovarianceModel.ar1(0.9)
        base = mc.TrialPlan(n_trials=20_000, master_seed=55, scenario=cfg,
                            covariance=cov, detectors=("wald_phe_i",),
                            hypothesis="h0", geometry=geom)
        thr = mc.calibrate_threshold(base, "wald_phe_i")
        est0 = mc.estimate_pd(base, "wald_phe_i", thr)
        for sigma2 in (0.5, 2.0):
            phe = sc.ScenarioConfig(N=6, p=1, q=2, L=12, environment="phe",
                                    sigma2=sigma2, pfa=1e-2)
            plan = mc.TrialPlan(n_trials=20_000, master_seed=55, scenario=phe,
                                covariance=cov, detectors=("wald_phe_i",),
                                hypothesis="h0", geometry=geom)
            est = mc.estimate_pd(plan, "wald_phe_i", thr)
            assert est0.ci_low <= est.pd <= est0.ci_high


def roc_invariance_check(detector: str, g, plan: mc.TrialPlan,
                         threshold: float = None) -> bool:
    """Decision-set equality under a strictly increasing statistic transform.

    Verifies that thresholding ``g(statistic)`` at ``g(threshold)`` reproduces
    exactly the decisions of thresholding the statistic itself on every trial.
    A sampled derivative-sign test rejects non-monotone maps up front.
    """
    stats = mc.run_trials(plan)[detector]
    if threshold is None:
        threshold = mc.calibrate_threshold(plan.under("h0"), detector, stats=stats)
    probe = np.unique(np.concatenate([stats, [threshold]]))
    gp = np.asarray([g(t) for t in probe], dtype=float)
    if np.any(np.diff(gp) <= 0):
        raise ValueError("transform is not strictly increasing on the statistic range")
    base = stats > threshold
    mapped = np.asarray([g(t) for t in stats], dtype=float) > g(threshold)
    return bool(np.all(base == mapped))


class TestRocInvariance:
    def test_linear_map(self):
        plan = _point_plan(n=5000)
        assert roc_invariance_check("kglrt", lambda t: 2.0 * t, plan)

    def test_theorem_map(self):
        plan = _point_plan(n=5000)
        assert roc_invariance_check("kglrt", lambda t: t / (1.0 + t), plan)

    def test_non_monotone_rejected(self):
        plan = _point_plan(n=2000)
        with pytest.raises(ValueError):
            roc_invariance_check("kglrt", lambda t: (t - 0.5) ** 2, plan)
