"""End-to-end acceptance suite.

Each criterion prints one pass/fail line (run with ``pytest -s`` to see them
inline).  Monte Carlo pieces are deterministic: every trial's randomness is a
pure function of the fixed master seeds below.
"""

import time

import numpy as np
import pytest
from scipy import optimize, stats as sstats

from adaptivedet import montecarlo as mc, scenario as sc
from adaptivedet.batcheval import solve_sigma_batch
from adaptivedet.cli import identity_suite, main as cli_main
from adaptivedet.distributions import ComplexBeta, ComplexChi2, ComplexF, pd_point, threshold_for_pfa
from conftest import crandn, distributed_b1, point_b1

MASTER_SEED = 20230817


class _Criterion:
    """Prints the required one-line verdict for each acceptance criterion."""

    def __init__(self, number, title, budget_s):
        self.number = number
        self.title = title
        self.budget_s = budget_s

    def __enter__(self):
        self.t0 = time.time()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.time() - self.t0
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.number:2d} {verdict} ({elapsed:6.1f} s / "
              f"budget {self.budget_s} s): {self.title}")
        if exc_type is None:
            assert elapsed < self.budget_s, (
                f"criterion {self.number} exceeded its runtime budget")
        return False


# ---------------------------------------------------------------------------
# 1. exact identity suite


def test_criterion_01_exact_identities():
    with _Criterion(1, "exact statistic identities to 1e-10 over 1000+ draws", 30):
        errs = identity_suite(1008, MASTER_SEED)
        worst = max(errs.values())
        assert worst <= 1e-10, errs


# ---------------------------------------------------------------------------
# 2. reduction suite


def test_criterion_02_reductions():
    with _Criterion(2, "K=1 / q=0 / p=1 reductions match the point bank", 30):
        rng = np.random.default_rng(MASTER_SEED + 1)
        N, L = 8, 16
        for _ in range(200):
            x = crandn(rng, N)
            s = crandn(rng, N)
            train = crandn(rng, N, L)
            S = train @ train.conj().T
            X = x[:, None]
            H1 = s[:, None]
            # the point family with H = s, q = 0; the distributed one at K = 1
            pt = point_b1(x, S, H1, np.zeros((N, 0)), s)
            dist = distributed_b1(X, S, s, H1, L)
            tol = dict(rel=1e-12)
            assert pt["kglrt"] == pytest.approx(pt["sglrt"], **tol)
            assert dist["gkglrt"] == pytest.approx(pt["kglrt"], **tol)
            assert dist["gamf"] == pytest.approx(pt["amf"], **tol)
            assert dist["gasd"] == pytest.approx(pt["ace"], **tol)
            assert dist["amdd"] == pytest.approx(pt["samf"], **tol)
            assert dist["gadd"] == pytest.approx(pt["asd"], **tol)
            assert dist["snrdd"] == pytest.approx(pt["samf"], **tol)
            assert dist["wald_dos"] == pytest.approx(pt["samf"], **tol)
            assert dist["glrt_dos"] == pytest.approx(1.0 + pt["sglrt"], **tol)
            assert dist["glrdd"] == pytest.approx(pt["kglrt"] / (1.0 + pt["kglrt"]), **tol)
            assert pt["glrt_he_i"] == pytest.approx(pt["sglrt"], **tol)
            assert pt["ts_glrt_he_i"] == pytest.approx(pt["samf"], **tol)
            assert pt["beta_i"] == pytest.approx(pt["beta"], **tol)


# ---------------------------------------------------------------------------
# 3. distribution validation (KS)


def test_criterion_03_distribution_ks():
    with _Criterion(3, "sampling KS validation of cchi2/cf/cbeta and the AED law", 120):
        rng = np.random.default_rng(MASTER_SEED + 2)
        n = 100_000
        suites = [
            ComplexChi2(1, 0.0), ComplexChi2(3, 2.5),
            ComplexF(2, 13, 0.0), ComplexF(2, 13, 8.0),
            ComplexBeta(13, 10, 0.0), ComplexBeta(13, 10, 20.0),
        ]
        for dist in suites:
            pvalue = sstats.kstest(dist.sample(rng, size=n), dist.cdf).pvalue
            assert pvalue > 0.01, (dist, pvalue)
        # AED histogram through the full synthesis/whitening path
        N, L, rho = 12, 24, 10.0
        cfg = sc.ScenarioConfig(N=N, p=1, L=L, pfa=1e-3)
        geometry = mc.Geometry.default(cfg)
        cov = sc.CovarianceModel.ar1(0.9)
        s0 = sc.actual_signal(geometry.H, cov.build(N),
                              sc.SignalSpec(snr_db=10 * np.log10(rho), cos2phi=1.0,
                                            seed=MASTER_SEED))
        plan = mc.TrialPlan(n_trials=n, master_seed=MASTER_SEED + 3, scenario=cfg,
                            covariance=cov, detectors=("aed",), hypothesis="h1",
                            geometry=geometry, signal_mean=s0[:, None])
        samples = mc.run_trials(plan)["aed"]
        pvalue = sstats.kstest(samples, ComplexF(N, L - N + 1, rho).cdf).pvalue
        assert pvalue > 0.01, pvalue


# ---------------------------------------------------------------------------
# 4-6. figure reproductions (shared analytic curves)

FIG_N, FIG_P, FIG_L, FIG_PFA = 12, 2, 24, 1e-3
ADAPTIVE_BANK = ("sglrt", "samf", "srao", "asd", "sabort", "wsabort", "dnsamf", "aed")


@pytest.fixture(scope="module")
def fig_thresholds():
    return {d: threshold_for_pfa(d, FIG_N, FIG_P, FIG_L, FIG_PFA, rtol=1e-6)
            for d in ADAPTIVE_BANK + ("smf",)}


def _pd(det, rho, cos2, thresholds):
    return pd_point(det, FIG_N, FIG_P, FIG_L, rho, cos2, thresholds[det])


def test_criterion_04_pd_vs_snr(fig_thresholds):
    with _Criterion(4, "PD-vs-SNR curves: orderings, 4 dB gap, MC spot checks", 300):
        snrs = np.arange(0.0, 25.0)
        curves = {d: np.array([_pd(d, 10 ** (s / 10), 1.0, fig_thresholds) for s in snrs])
                  for d in ADAPTIVE_BANK + ("smf",)}
        sg = curves["sglrt"]
        # (a) the GLRT tops the bank: within the figure's 0.03 PD resolution at
        # every sampled SNR, and strictly wherever the bank has separated
        # (below PD ~0.1 the selective variants genuinely cross it by ~2e-3)
        for d in ADAPTIVE_BANK:
            assert np.all(curves[d] - sg <= 0.03), d
            strict = (sg >= 0.2) & (sg <= 0.97)
            assert np.all(curves[d][strict] <= sg[strict]), d
        # (b) the doubly normalized statistic is the weakest where separated
        for d in ADAPTIVE_BANK:
            assert np.all(curves["dnsamf"] - curves[d] <= 0.03), d
            strict = sg >= 0.2
            if d != "dnsamf":
                assert np.all(curves["dnsamf"][strict] <= curves[d][strict]), d

        def snr_at_pd(det, target=0.9):
            f = lambda s: _pd(det, 10 ** (s / 10), 1.0, fig_thresholds) - target
            return optimize.brentq(f, 0.0, 30.0, xtol=1e-5)

        crossing = snr_at_pd("sglrt")
        for d in ("samf", "sabort"):
            delta = abs(_pd(d, 10 ** (crossing / 10), 1.0, fig_thresholds) - 0.9)
            assert delta <= 0.03, (d, delta)
        gap = crossing - snr_at_pd("smf")
        assert abs(gap - 4.0) <= 0.5, gap

        # MC spot checks at three SNRs, 1e4 trials, 99% Wilson agreement
        cfg = sc.ScenarioConfig(N=FIG_N, p=FIG_P, L=FIG_L, pfa=FIG_PFA)
        geometry = mc.Geometry.default(cfg)
        cov = sc.CovarianceModel.ar1(0.9)
        R = cov.build(FIG_N)
        for snr_db in (12.0, 15.0, 18.0):
            s0 = sc.actual_signal(geometry.H, R,
                                  sc.SignalSpec(snr_db=snr_db, cos2phi=1.0, seed=11))
            plan = mc.TrialPlan(n_trials=10_000, master_seed=43, scenario=cfg,
                                covariance=cov,
                                detectors=ADAPTIVE_BANK + ("smf",),
                                hypothesis="h1", geometry=geometry,
                                signal_mean=s0[:, None])
            stats = mc.run_trials(plan)
            rho = 10 ** (snr_db / 10)
            for d in ADAPTIVE_BANK + ("smf",):
                est = mc.estimate_pd(plan, d, fig_thresholds[d], stats=stats[d])
                analytic = _pd(d, rho, 1.0, fig_thresholds)
                assert est.ci_low <= analytic <= est.ci_high, (d, snr_db, est, analytic)


def test_criterion_05_pd_vs_mismatch(fig_thresholds):
    with _Criterion(5, "PD-vs-mismatch at 18 dB: AED flat, monotone bank, ordering", 120):
        rho = 10 ** 1.8
        cos2s = np.linspace(0.0, 1.0, 21)
        curves = {d: np.array([_pd(d, rho, c, fig_thresholds) for c in cos2s])
                  for d in ADAPTIVE_BANK}
        assert np.ptp(curves["aed"]) == 0.0  # exactly constant in mismatch
        for d in ADAPTIVE_BANK:
            assert np.all(np.diff(curves[d]) >= -1e-9), d
        at_half = {d: _pd(d, rho, 0.5, fig_thresholds) for d in ADAPTIVE_BANK}
        expected = ("samf", "sglrt", "sabort", "asd", "wsabort", "srao", "dnsamf")
        values = [at_half[d] for d in expected]
        assert all(a > b for a, b in zip(values, values[1:])), at_half


def test_criterion_06_mesa(fig_thresholds):
    with _Criterion(6, "mesa grid: robust SAMF vs selective SABORT plateau", 300):
        snrs = np.linspace(0.0, 40.0, 41)
        cos2s = np.linspace(0.0, 1.0, 21)
        samf = np.array([[_pd("samf", 10 ** (s / 10), c, fig_thresholds)
                          for c in cos2s] for s in snrs])
        sabort = np.array([[_pd("sabort", 10 ** (s / 10), c, fig_thresholds)
                            for c in cos2s] for s in snrs])
        assert samf.shape == sabort.shape == (41, 21)
        assert samf[:, 0].max() >= 0.9  # fully mismatched but still detectable
        mismatched = cos2s < 0.55
        assert sabort[:, mismatched].max() < 0.5


# ---------------------------------------------------------------------------
# 7. CFAR sweep

POINT_CFG = sc.ScenarioConfig(N=12, p=2, q=3, L=24, pfa=1e-2)
DIST_CFG = sc.ScenarioConfig(N=8, p=2, L=16, K=4, pfa=1e-2)
SWEEP_COVS = (sc.CovarianceModel.identity(), sc.CovarianceModel.ar1(0.9),
              sc.CovarianceModel.ar1_plus_white(0.99, 30.0))
CFAR_POINT = ("sglrt", "srao", "samf", "asd", "sabort", "wsabort", "dnsamf", "aed",
              "glrt_he_i", "ts_glrt_he_i", "glrt_phe_i")
GEOMETRY_DEPENDENT_I = ("rao_he_i", "ts_rao_he_i", "rao_phe_i",
                        "wald_he_i", "wald_phe_i")
CFAR_DIST = ("gkglrt", "gamf", "rao_he", "glrdd", "amdd", "snrdd", "gadd",
             "glrt_dos", "rao_dos", "wald_dos", "gasd")


def _h0_stats(cfg, detectors, covariances, n, geometry):
    """The plan under the first covariance and the H0 statistics under each
    covariance, from one sweep over common trial streams."""
    plan = mc.TrialPlan(n_trials=n, master_seed=MASTER_SEED, scenario=cfg,
                        covariance=covariances[0], detectors=detectors,
                        hypothesis="h0", geometry=geometry)
    return plan, mc.sweep_trials(plan, covariances)


def test_criterion_07_cfar_sweep():
    with _Criterion(7, "CFAR sweep across covariances (plus SMI failure, PHE scales)", 600):
        n = 100_000
        for cfg, dets in ((POINT_CFG, CFAR_POINT + GEOMETRY_DEPENDENT_I + ("smi",)),
                          (DIST_CFG, CFAR_DIST)):
            geometry = mc.Geometry.default(cfg)
            plan, stats = _h0_stats(cfg, dets, SWEEP_COVS, n, geometry)
            cfar_set = CFAR_POINT if cfg is POINT_CFG else CFAR_DIST
            rates = {}
            intervals = {}
            for det in dets:
                thr = mc.calibrate_threshold(plan, det, stats=stats[0][det])
                rates[det] = [float(np.mean(s[det] > thr)) for s in stats]
                intervals[det] = mc.wilson_interval(
                    int(round(rates[det][0] * n)), n)
            for det in cfar_set:
                lo, hi = intervals[det]
                for rate in rates[det][1:]:
                    assert lo <= rate <= hi, (det, rates[det], (lo, hi))
            for det in GEOMETRY_DEPENDENT_I if cfg is POINT_CFG else ():
                # diagnostic only: the interference Rao/Wald family's null law
                # depends on the whitened signal/jammer angles, so covariance
                # invariance is not a property these statistics have
                print(f"  [info] {det}: rates across covariances {rates[det]}")
            if cfg is POINT_CFG:
                smi_rates = rates["smi"]
                assert max(smi_rates) > 2 * max(min(smi_rates), 1e-12), smi_rates

        # scale-invariant detectors keep their false-alarm rate in the
        # partially homogeneous environment at sigma^2 in {0.5, 2}
        for cfg, det in ((POINT_CFG, "asd"), (POINT_CFG, "glrt_phe_i"),
                         (DIST_CFG, "gasd")):
            geometry = mc.Geometry.default(cfg)
            plan, (stats,) = _h0_stats(cfg, (det,), SWEEP_COVS[:1], n, geometry)
            thr = mc.calibrate_threshold(plan, det, stats=stats[det])
            lo, hi = mc.wilson_interval(
                int(round(float(np.mean(stats[det] > thr)) * n)), n)
            for sigma2 in (0.5, 2.0):
                phe_cfg = sc.ScenarioConfig(
                    N=cfg.N, p=cfg.p, q=cfg.q, K=cfg.K, L=cfg.L,
                    environment=sc.PARTIALLY_HOMOGENEOUS, sigma2=sigma2,
                    pfa=cfg.pfa)
                _, (phe_stats,) = _h0_stats(phe_cfg, (det,), SWEEP_COVS[:1], n, geometry)
                rate = float(np.mean(phe_stats[det] > thr))
                assert lo <= rate <= hi, (det, sigma2, rate, (lo, hi))


# ---------------------------------------------------------------------------
# 8. power-mismatch root solver


def test_criterion_08_sigma_solver():
    with _Criterion(8, "power-mismatch roots: 1e-10 residuals, exact closed form", 5):
        rng = np.random.default_rng(MASTER_SEED + 4)
        for _ in range(1000):
            r = int(rng.integers(1, 7))
            eigs = rng.exponential(2.0, size=r) + 1e-6
            target = float(rng.uniform(0.05, 0.95)) * r
            s2 = solve_sigma_batch(eigs[None], target)[0]
            assert abs(np.sum(eigs / (eigs + s2)) - target) <= 1e-10
        for lam, t in ((1.0, 0.5), (7.5, 0.25), (0.3, 0.9), (123.4, 0.01)):
            assert solve_sigma_batch(np.array([[lam]]), t)[0] == pytest.approx(
                lam * (1 - t) / t, rel=1e-12)


# ---------------------------------------------------------------------------
# 9. monotone-transform decision equality


def test_criterion_09_decision_set_equality():
    with _Criterion(9, "zero decision mismatches under monotone maps (1e5 trials)", 60):
        n = 100_000
        cfg = sc.ScenarioConfig(N=12, p=1, L=24, pfa=1e-2)
        geometry = mc.Geometry.default(cfg)
        plan = mc.TrialPlan(n_trials=n, master_seed=MASTER_SEED + 5, scenario=cfg,
                            covariance=sc.CovarianceModel.ar1(0.9),
                            detectors=("kglrt", "glrdd"), hypothesis="h0",
                            geometry=geometry)
        stats = mc.run_trials(plan)
        eta = mc.calibrate_threshold(plan, "kglrt", stats=stats["kglrt"])
        g = lambda t: t / (1.0 + t)
        base = stats["kglrt"] > eta
        mapped = g(stats["kglrt"]) > g(eta)
        assert int(np.sum(base != mapped)) == 0
        # GLRDD reproduces the KGLRT decisions when thresholded at the same
        # false-alarm rank of its own statistic (the mapped threshold)
        eta_g = mc.calibrate_threshold(plan, "glrdd", stats=stats["glrdd"])
        glrdd_decisions = stats["glrdd"] > eta_g
        assert int(np.sum(base != glrdd_decisions)) == 0


# ---------------------------------------------------------------------------
# 10. determinism of the experiment front end


def test_criterion_10_determinism(tmp_path):
    with _Criterion(10, "byte-identical CSV across reruns and batch sizes", 60):
        args = ["pd-vs-snr", "--snr", "10,14,18", "--detectors", "kglrt,asd,aed",
                "--mode", "both", "--trials", "2000", "--seed", "123",
                "--N", "8", "--p", "1", "--L", "16"]
        paths = [str(tmp_path / f"run{i}.csv") for i in range(3)]
        assert cli_main(args + ["--out", paths[0]]) == 0
        assert cli_main(args + ["--out", paths[1]]) == 0
        assert cli_main(args + ["--out", paths[2], "--batch-size", "311"]) == 0
        blobs = [open(p, "rb").read() for p in paths]
        assert blobs[0] == blobs[1] == blobs[2]
