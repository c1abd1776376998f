"""The Monte Carlo engine's canonical frame: a pass whose means all lie in
the flag s in H in [H J] (of dimension m = p + q), zero means included,
draws each trial in K + m dimensions instead of N when K + m < N
(``montecarlo._canonical``).

The reduced trial is checked four ways: statistic by statistic against the
per-instance oracles on its embedding in N dimensions
(:func:`oracles.synthesize` with ``flag``), by its counts against the
analytic detection probabilities, by the law of its statistics against the
full draw's, and by the engine's contracts (grid and single-mean counts
agree, the CSV ignores the batch size, CFAR rows keep their power to tell
covariances apart).  Passes the reduction does not apply to keep the bits
of the full N-dimensional draw.
"""

import contextlib
import csv
import hashlib
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats as sstats

import oracles
from adaptivedet import cli, montecarlo as mc, registry, scenario as sc
from golden import write_digests

POINT = registry.names(family="point")
DISTRIBUTED = registry.names(family="distributed")
COVARIANCES = (sc.CovarianceModel.identity(), sc.CovarianceModel.ar1(0.9),
               sc.CovarianceModel.ar1_plus_white(0.99, 30.0))


@contextlib.contextmanager
def _recorded_dims():
    """The dimension each batch's Bartlett factor is assembled in: the flag
    dimension m of a reduced pass, N of a full one.  The K x K factors G and
    E, assembled with no test block, are not recorded."""
    seen = []
    assemble = sc.assemble_noise

    def recording(normals, gammas, test, N, K):
        if K:
            seen.append(N)
        return assemble(normals, gammas, test, N, K)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sc, "assemble_noise", recording)
        yield seen


@pytest.fixture
def dims():
    with _recorded_dims() as seen:
        yield seen


def _in_flag_mean(cfg, cov, snr_db, jnr_db=None, seed=0):
    """An (N, 1) mean in the flag: a matched signal in span(H), plus a
    jammer in span(J) at ``jnr_db``."""
    H, J = sc.default_geometry(cfg.N, cfg.p, cfg.q)
    R = cov.build(cfg.N)
    return oracles.signal(H, R, snr_db, 1.0, seed)[:, None] + cli._jammer_mean(cfg, J, R, jnr_db)


def _rel_err(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-300)


class TestEmbedding:
    """Every statistic of a reduced trial equals the oracles' value on the
    trial embedded in N dimensions, rotated back and coloured."""

    @settings(max_examples=40)
    @given(st.data())
    def test_every_statistic_matches_the_oracles(self, data):
        """Draws: N <= 8, L in {N, N + 1, 2N}, p + q <= N - 2, either family
        at K = 1 with all its names (the PHE ones at the ambient N), three
        covariances, both environments, a matched signal of 0-20 dB and, with
        q > 0, a jammer in span(J); the first three trials of the pass."""
        N = data.draw(st.integers(3, 8))
        p = data.draw(st.integers(1, N - 2))
        q = data.draw(st.integers(0, N - 2 - p))
        L = data.draw(st.sampled_from((N, N + 1, 2 * N)))
        env = data.draw(st.sampled_from((sc.HOMOGENEOUS, sc.PARTIALLY_HOMOGENEOUS)))
        cfg = sc.ScenarioConfig(N=N, p=p, q=q, L=L, environment=env,
                                sigma2=2.0 if env == sc.PARTIALLY_HOMOGENEOUS else 1.0)
        cov = data.draw(st.sampled_from(COVARIANCES))
        family = data.draw(st.sampled_from(("point", "distributed")))
        seed = data.draw(st.integers(0, 2**32 - 1))
        snr_db = data.draw(st.floats(0.0, 20.0))
        jnr_db = data.draw(st.sampled_from((None, 10.0))) if q else None
        mean = _in_flag_mean(cfg, cov, snr_db, jnr_db, seed)
        names = POINT if family == "point" else DISTRIBUTED
        plan = mc.TrialPlan(n_trials=3, master_seed=seed, scenario=cfg, covariance=cov,
                            detectors=names)
        stats = mc.run_trials(plan, mean)
        H, J = sc.default_geometry(N, p, q)
        R = cov.build(N)
        for trial in range(plan.n_trials):
            d = oracles.synthesize(cfg, cov, signal=mean, hypothesis="h1", seed=seed,
                                   trial=trial, flag=np.concatenate([H, J], axis=1))
            ref = (oracles.point_family(d.test_vector, d.scm, H, J, R) if family == "point"
                   else oracles.distributed_family(d.test, d.scm, H[:, 0], H, L))
            for name in names:
                err = _rel_err(stats[name][trial], ref[name])
                assert err <= 1e-10, (name, trial, stats[name][trial], ref[name])

    @pytest.mark.parametrize("K", [1, 2, 4])
    @pytest.mark.parametrize("signal", [False, True], ids=["null", "in flag"])
    def test_distributed_statistics_match_the_oracles(self, K, signal, dims):
        """The K x K leading factor: every distributed statistic and both PHE
        noise-power MLEs, at K in {1, 2, 4}, null and with a matched signal,
        under three covariances in one sweep, against the oracles on the
        embedding, across the first block boundary."""
        cfg = sc.ScenarioConfig(N=9, p=2, q=1, L=11 + K, K=K, environment=sc.PARTIALLY_HOMOGENEOUS,
                                sigma2=2.0)
        H, J = sc.default_geometry(cfg.N, cfg.p, cfg.q)
        names = DISTRIBUTED
        plan = mc.TrialPlan(n_trials=66, master_seed=21 + K, scenario=cfg,
                            covariance=COVARIANCES[0], detectors=names)
        means = [np.outer(oracles.signal(H, cov.build(cfg.N), 10.0, seed=K), np.ones(K))
                 if signal else 0.0 for cov in COVARIANCES]
        for cov, mean in zip(COVARIANCES, means):
            (stats,) = mc.sweep_trials(plan, (cov,), mean)
            for trial in (0, 1, 63, 64, 65):
                d = oracles.synthesize(cfg, cov, signal=mean if signal else None,
                                       hypothesis="h1", seed=plan.master_seed, trial=trial,
                                       flag=np.concatenate([H, J], axis=1))
                ref = oracles.distributed_family(d.test, d.scm, H[:, 0], H, cfg.L)
                for name in names:
                    err = _rel_err(stats[name][trial], ref[name])
                    assert err <= 1e-9, (name, trial, stats[name][trial], ref[name])
        assert set(dims) == {cfg.p + cfg.q}

    @pytest.mark.parametrize("trial, K", [(t, K) for K in (1, 2) for t in (0, 63, 64, 130)],
                             ids=[f"{t}{'' if K == 1 else '-K=2'}" for K in (1, 2)
                                  for t in (0, 63, 64, 130)])
    def test_reduced_trial_follows_the_block_layout(self, trial, K):
        """The engine's reduced whitener and test noise are the oracle's
        embedding restricted to its first K and its last m coordinates."""
        cfg = sc.ScenarioConfig(N=7, p=2, q=1, L=9, K=K)
        plan = mc.TrialPlan(n_trials=200, master_seed=12, scenario=cfg,
                            covariance=sc.CovarianceModel.ar1(0.5),
                            detectors=("sglrt",) if K == 1 else ("gkglrt",), batch_size=64)
        mean = _in_flag_mean(cfg, plan.covariance, 10.0) if K == 1 else 0.0
        batches = list(mc._noise_pass(plan, (plan.covariance,), mean))
        trials, noise, free, _, _ = batches[trial // 64]
        T, w = oracles.draw_trial(12, trial, cfg.N, cfg.L, K, m=3)
        keep = [*range(K), 4, 5, 6]
        assert np.array_equal(noise[trial - trials.start], w[keep])
        np.testing.assert_allclose(free.T[trial - trials.start] @ T[np.ix_(keep, keep)],
                                   np.eye(K + 3), rtol=0, atol=1e-12)
        assert np.array_equal(T[K:4, K:4], np.eye(4 - K)) and not T[4:, K:4].any()


class TestLaws:
    """Counts of reduced passes against the analytic detection probabilities,
    each an exact binomial test (:func:`oracles.assert_counts`) sized to catch
    a PD off by 0.03 on any row with probability 0.99."""

    SHAPES = {
        "he": ["--N", "10", "--p", "2", "--q", "2", "--L", "20", "--covariance", "ar1:0.9",
               "--detectors", "sglrt,samf,srao,asd,sabort,wsabort,dnsamf,aed,smf,"
                              "glrt_he_i,ts_glrt_he_i,glrt_phe_i", "--snr", "0,6,12"],
        "L=N": ["--N", "8", "--p", "1", "--q", "1", "--L", "8",
                "--covariance", "ar1w:0.99:30", "--detectors",
                "kglrt,amf,dmrao,ace,sglrt,aed,smf,glrt_he_i,ts_glrt_he_i,glrt_phe_i,gkglrt,gamf",
                "--snr", "0,6,12"],
        "phe:2": ["--N", "8", "--p", "2", "--q", "2", "--L", "16", "--env", "phe:2",
                  "--jnr-db", "10", "--detectors", "glrt_phe_i", "--snr", "0,4,8,12,16"],
    }

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_counts_match_the_analytic_pd(self, shape, tmp_path, dims):
        argv = self.SHAPES[shape]
        rows = int(len(argv[argv.index("--detectors") + 1].split(",")) *
                   len(argv[argv.index("--snr") + 1].split(",")))
        n = oracles.trials_to_detect(0.03, rows=rows)
        out = tmp_path / "grid.csv"
        assert cli.main(["pd-vs-snr", "--mode", "both", "--pfa", "1e-2", "--seed", "29",
                         "--trials", str(n), *argv, "--out", str(out)]) == 0
        N, p, q = (int(argv[argv.index(flag) + 1]) for flag in ("--N", "--p", "--q"))
        assert set(dims) == {p + q} and 1 + p + q < N
        with open(out, newline="") as fh:
            counted = [(f"{r['detector']}@{r['snr_db']}", round(float(r["pd_mc"]) * n), n,
                        float(r["pd_analytic"])) for r in csv.DictReader(fh) if r["pd_analytic"]]
        assert len(counted) == rows
        oracles.assert_counts(counted)

    # (N, p, q, K, L, environment, SNR in dB or None for a null pass)
    KS_SHAPES = ((8, 2, 1, 1, 16, sc.HOMOGENEOUS, None),
                 (10, 3, 1, 3, 20, sc.HOMOGENEOUS, 3.0),
                 (8, 2, 0, 4, 16, sc.PARTIALLY_HOMOGENEOUS, None))

    def test_statistics_follow_the_full_draws_law(self, monkeypatch):
        """Two-sample KS tests of every statistic of a reduced pass against
        the same pass forced to the full draw (m = N), on independent seeds:
        a K = 1 point-family null, a K = 3 distributed pass with a matched
        signal, and a K = 4 distributed null under phe, all under ar1:0.9.
        Each of the 53 comparisons must have p above 0.01 / 53 (Bonferroni:
        a correct engine fails with probability at most 0.01)."""
        full = mc._canonical
        pvalues = {}
        for N, p, q, K, L, env, snr_db in self.KS_SHAPES:
            cfg = sc.ScenarioConfig(N=N, p=p, q=q, L=L, K=K, environment=env,
                                    sigma2=2.0 if env == sc.PARTIALLY_HOMOGENEOUS else 1.0)
            cov = sc.CovarianceModel.ar1(0.9)
            H, _ = sc.default_geometry(N, p, q)
            mean = 0.0 if snr_db is None else np.outer(
                oracles.signal(H, cov.build(N), snr_db, seed=3), np.ones(K) / np.sqrt(K))
            names = POINT if K == 1 else DISTRIBUTED
            samples = []
            for seed, canonical in ((31, full), (32, lambda plan, frames, energy: (N, frames))):
                monkeypatch.setattr(mc, "_canonical", canonical)
                plan = mc.TrialPlan(n_trials=10_000, master_seed=seed, scenario=cfg,
                                    covariance=cov, detectors=names)
                samples.append(mc.run_trials(plan, mean))
            for name in names:
                pvalues[(K, name)] = sstats.ks_2samp(samples[0][name], samples[1][name]).pvalue
        assert len(pvalues) == 53
        worst = min(pvalues, key=pvalues.get)
        assert pvalues[worst] > 0.01 / len(pvalues), (worst, pvalues[worst])


class TestContracts:
    CFG = sc.ScenarioConfig(N=8, p=2, q=2, L=16, pfa=1e-2)
    COV = sc.CovarianceModel.ar1(0.9)

    @pytest.mark.parametrize("batch_size", [64, 577])
    def test_grid_of_in_flag_means_equals_its_single_mean_counts(self, batch_size, dims):
        """Matched signals with a jammer in span(J) are in the flag: the grid
        and each single-mean pass share the reduced frame and its draws."""
        means = [_in_flag_mean(self.CFG, self.COV, snr, 20.0, g)
                 for g, snr in enumerate((0.0, 6.0, 12.0))]
        plan = mc.TrialPlan(n_trials=700, master_seed=3, scenario=self.CFG, covariance=self.COV,
                            detectors=tuple(sorted(POINT)), batch_size=batch_size)
        base = mc.run_trials(plan, means[0])
        thresholds = {d: float(np.median(base[d])) for d in plan.detectors}
        counts = mc.exceedance_counts(plan, means, thresholds)
        for g, mean in enumerate(means):
            stats = mc.run_trials(plan, mean)
            for d, det in enumerate(plan.detectors):
                ref = oracles.estimate_pd(plan, det, thresholds[det], stats=stats[det])
                assert counts[g, d] / plan.n_trials == ref.pd, (g, det)
        assert set(dims) == {self.CFG.p + self.CFG.q}

    def test_csv_ignores_the_batch_size(self, tmp_path, dims):
        texts = []
        for batch in ([], ["--batch-size", "64"], ["--batch-size", "577"]):
            out = tmp_path / f"grid{len(texts)}.csv"
            assert cli.main(["pd-vs-snr", "--mode", "montecarlo", "--N", "8", "--p", "2",
                             "--q", "1", "--L", "12", "--pfa", "1e-2", "--snr", "0,5,10,15",
                             "--jnr-db", "10", "--detectors", ",".join(POINT + ("gkglrt",)),
                             "--trials", "1500", *batch, "--out", str(out)]) == 0
            texts.append(out.read_bytes())
        assert texts[1] == texts[0] and texts[2] == texts[0]
        # the null pass behind the thresholds of the names without a law reduces too
        assert set(dims) == {3}

    @settings(max_examples=30)
    @given(st.data())
    def test_every_pass_in_the_flag_reduces(self, data):
        """Draws: N <= 9, p + q < N, K <= N + 1, a zero or a matched mean, one
        covariance or a sweep of three.  The pass draws at the flag dimension
        p + q exactly when K + p + q < N (which gives n1 > K), and at N
        otherwise, K > N included."""
        N = data.draw(st.integers(3, 9))
        p = data.draw(st.integers(1, N - 1))
        q = data.draw(st.integers(0, N - 1 - p))
        K = data.draw(st.integers(1, N + 1))
        cfg = sc.ScenarioConfig(N=N, p=p, q=q, L=N + K, K=K)
        H, _ = sc.default_geometry(N, p, q)
        covs = data.draw(st.sampled_from((COVARIANCES[:1], COVARIANCES)))
        signal = data.draw(st.booleans())
        mean = np.outer(oracles.signal(H, covs[0].build(N), 6.0), np.ones(K)) if signal else 0.0
        plan = mc.TrialPlan(n_trials=1, master_seed=7, scenario=cfg, covariance=covs[0],
                            detectors=("sglrt", "kglrt") if K == 1 else ("gkglrt", "glrdd"))
        with _recorded_dims() as dims:
            mc.sweep_trials(plan, covs, mean)
        assert set(dims) == {p + q if K + p + q < N else N}

    # sha256 of each statistic's bytes, names sorted, as the full draw writes
    # them: a zero mean at K + m = N, a mean off the flag at K = 1 and K = 3
    # (the flag's H is that of q = 0, the mean's that of q = 2), and K > N
    PINNED = {
        "zero mean": "deb384d7b075a2c32564cd476ff6ecb7ef99e8f93dd5d80433c9e3e9cc1e3718",
        "mismatched mean": "eee1bedb221f9a54a685fcc27b7269f528d956c12af36ca542782b33f83701e1",
        "K = 3": "b9a956ab7253916ade53b70921a60f0bf7bdd5254f07ac78dc2cc149a7f1f54e",
        "K > N": "9f8b19d67740fbc16392b429e906091dba756e74550281ef30de0c0cf69ed10b",
    }

    @pytest.mark.parametrize("case", sorted(PINNED))
    def test_passes_it_does_not_apply_to_keep_their_bits(self, case, dims):
        """Pinned in the numerical environment of the output ledger, like it."""
        ledger = json.loads(write_digests.LEDGER.read_text(encoding="utf-8"))["environment"]
        assert write_digests.environment() == ledger
        N, p, q, K = {"zero mean": (6, 2, 3, 1), "mismatched mean": (6, 2, 2, 1),
                      "K = 3": (6, 2, 0, 3), "K > N": (4, 2, 0, 5)}[case]
        cfg = sc.ScenarioConfig(N=N, p=p, q=q, L=2 * N, K=K, pfa=1e-2)
        H, _ = sc.default_geometry(6, 2, 2)
        R = self.COV.build(6)
        mean = {"mismatched mean": oracles.signal(H, R, 10.0, 0.5, seed=1)[:, None],
                "K = 3": np.outer(oracles.signal(H[:, :1], R, 10.0, seed=1),
                                  np.ones(3) / np.sqrt(3))}.get(case, 0.0)
        plan = mc.TrialPlan(n_trials=300, master_seed=5, scenario=cfg, covariance=self.COV,
                            detectors=tuple(sorted(DISTRIBUTED if K > 1 else POINT)))
        stats = mc.run_trials(plan, mean)
        digest = hashlib.sha256()
        for name in sorted(stats):
            digest.update(np.ascontiguousarray(stats[name]).tobytes())
        assert digest.hexdigest() == self.PINNED[case]
        assert set(dims) == {N}


class TestCfarPower:
    """A null pass in the canonical frame keeps ``cfar-check`` able to tell
    covariances apart where the statistics depend on them.  The frame puts
    span(H) and s on the same coordinates under every covariance, so the
    subspace, rank-one and distributed CFAR rows are evaluated once and have
    the same bits under all three (and pass by construction); the rows that
    read J or the scale of s do not."""

    @staticmethod
    def _sweep(cfg, names):
        plan = mc.TrialPlan(n_trials=500, master_seed=8, scenario=cfg,
                            covariance=COVARIANCES[0], detectors=names)
        return mc.sweep_trials(plan, COVARIANCES)

    def test_invariant_rows_are_equal_and_the_rest_differ(self, dims):
        point = self._sweep(sc.ScenarioConfig(N=8, p=2, q=2, L=16), POINT)
        dist = self._sweep(sc.ScenarioConfig(N=8, p=2, L=16, K=4), DISTRIBUTED)
        assert set(dims) == {4, 2}
        invariant = [n for n in POINT if registry.DETECTORS[n].cfar
                     and "J" not in registry.DETECTORS[n].reads]
        assert {"sglrt", "asd", "smf", "kglrt", "ace"} <= set(invariant)
        for stats, names in ((point, invariant), (dist, DISTRIBUTED)):
            for other in stats[1:]:
                for name in names:
                    assert np.array_equal(other[name], stats[0][name]), name
        for name in ("wald_he_i", "smi", "mf"):
            for other in point[1:]:
                assert _rel_err(other[name], point[0][name]).max() > 1e-3, name

    def test_cfar_check_still_fails_smi_and_mf(self, tmp_path, dims):
        out = tmp_path / "cfar.csv"
        assert cli.main(["cfar-check", "--N", "8", "--p", "2", "--q", "2", "--L", "16",
                         "--detectors", "sglrt,kglrt,smf,smi,mf",
                         "--covariances", ",".join(cov.label() for cov in COVARIANCES),
                         "--pfa", "1e-2", "--trials", "3000", "--seed", "5",
                         "--out", str(out)]) == 0
        assert set(dims) == {4}
        with open(out, newline="") as fh:
            status = {r["detector"]: r["status"] for r in csv.DictReader(fh)}
        assert status == {"sglrt": "pass", "kglrt": "pass", "smf": "pass",
                          "smi": "fail", "mf": "fail"}


class TestSnrBound:
    """The 100 dB bound holds at the engine: a white mean past it is a
    ``ValueError`` before any statistic is formed, and at it every point,
    rank-one and interference statistic is computed without a warning."""

    CFG = sc.ScenarioConfig(N=6, p=2, q=1, L=12, pfa=1e-2)
    COV = sc.CovarianceModel.ar1(0.9)

    def _plan(self, detectors):
        return mc.TrialPlan(n_trials=200, master_seed=4, scenario=self.CFG,
                            covariance=self.COV, detectors=detectors)

    def test_160_db_is_refused(self, stream_draws):
        H, _ = sc.default_geometry(6, 2, 1)
        mean = oracles.signal(H, self.COV.build(6), 160.0)[:, None]
        plan = self._plan(("sglrt", "asd"))
        with pytest.raises(ValueError, match="100 dB"):
            mc.run_trials(plan, mean)
        with pytest.raises(ValueError, match="100 dB"):
            mc.exceedance_counts(plan, [mean], {"sglrt": 1.0, "asd": 0.5})
        assert stream_draws == []

    @pytest.mark.parametrize("cos2phi", [1.0, 0.5])
    @pytest.mark.parametrize("detectors", [
        registry.names(family="point", reads=("H",)),
        registry.names(family="point", reads=("s",)),
        registry.names(family="point", reads=("H", "J")),
    ])
    def test_100_db_runs_without_a_warning(self, detectors, cos2phi, dims):
        H, _ = sc.default_geometry(6, 2, 1)
        mean = oracles.signal(H, self.COV.build(6), 100.0, cos2phi)[:, None]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            stats = mc.run_trials(self._plan(detectors), mean)
        assert set(dims) == {3 if cos2phi == 1.0 else 6}
        for name in detectors:
            finite = stats[name][np.isfinite(stats[name])]
            assert finite.size == stats[name].size, name
