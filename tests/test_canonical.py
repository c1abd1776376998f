"""The Monte Carlo engine's canonical frame: a K = 1 pass whose means all lie
in the flag s in H in [H J] (of dimension m = p + q) draws each trial in
1 + m dimensions instead of N (``montecarlo._canonical``).

The reduced trial is checked three ways: statistic by statistic against the
per-instance oracles on its embedding in N dimensions
(:func:`oracles.synthesize` with ``flag``), by its counts against the
analytic detection probabilities, and by the engine's contracts (grid and
single-mean counts agree, the CSV ignores the batch size).  Passes the
reduction does not apply to keep the bits of the full N-dimensional draw.
"""

import csv
import hashlib
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from adaptivedet import cli, montecarlo as mc, registry, scenario as sc
from golden import write_digests

POINT = registry.names(family="point")
DISTRIBUTED = registry.names(family="distributed")
COVARIANCES = (sc.CovarianceModel.identity(), sc.CovarianceModel.ar1(0.9),
               sc.CovarianceModel.ar1_plus_white(0.99, 30.0))


@pytest.fixture
def dims(monkeypatch):
    """The dimension each batch's Bartlett factor is assembled in: the flag
    dimension m of a reduced pass, N of a full one."""
    seen = []
    assemble = sc.assemble_noise

    def recording(normals, gammas, test, N, K):
        seen.append(N)
        return assemble(normals, gammas, test, N, K)

    monkeypatch.setattr(sc, "assemble_noise", recording)
    return seen


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

    @pytest.mark.parametrize("trial", [0, 63, 64, 130])
    def test_reduced_trial_follows_the_block_layout(self, trial):
        """The engine's reduced factor and test noise are the oracle's
        embedding restricted to its first and its last m coordinates."""
        cfg = sc.ScenarioConfig(N=7, p=2, q=1, L=9)
        plan = mc.TrialPlan(n_trials=200, master_seed=12, scenario=cfg,
                            covariance=sc.CovarianceModel.ar1(0.5), detectors=("sglrt",),
                            batch_size=64)
        mean = _in_flag_mean(cfg, plan.covariance, 10.0)
        batches = list(mc._noise_pass(plan, (plan.covariance,), mean))
        trials, noise, (prep,), _ = batches[trial // 64]
        T, w = oracles.draw_trial(12, trial, cfg.N, cfg.L, 1, m=3)
        keep = [0, 4, 5, 6]
        assert np.array_equal(noise[trial - trials.start], w[keep])
        np.testing.assert_allclose(prep.T[trial - trials.start] @ T[np.ix_(keep, keep)],
                                   np.eye(4), rtol=0, atol=1e-12)
        assert np.array_equal(T[1:4, 1:4], np.eye(3)) and not T[4:, 1:4].any()


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
        # the thresholds of the names without a law come from a null, full pass
        assert set(dims) == {3, 8}

    # sha256 of each statistic's bytes, names sorted, as the full draw wrote them
    # before the canonical frame existed
    PINNED = {
        "zero mean": "b48d11d6b79c152f329b7051bb7150720f0d811e9d49d6e6a0bf27728134d14d",
        "mismatched mean": "eee1bedb221f9a54a685fcc27b7269f528d956c12af36ca542782b33f83701e1",
        "K = 3": "b9a956ab7253916ade53b70921a60f0bf7bdd5254f07ac78dc2cc149a7f1f54e",
    }

    @pytest.mark.parametrize("case", sorted(PINNED))
    def test_passes_it_does_not_apply_to_keep_their_bits(self, case, dims):
        """Pinned in the numerical environment of the output ledger, like it."""
        ledger = json.loads(write_digests.LEDGER.read_text(encoding="utf-8"))["environment"]
        assert write_digests.environment() == ledger
        K = 3 if case == "K = 3" else 1
        cfg = sc.ScenarioConfig(N=6, p=2, q=0 if K > 1 else 2, L=12, K=K, pfa=1e-2)
        H, _ = sc.default_geometry(6, 2, 2)
        R = self.COV.build(6)
        mean = {"zero mean": 0.0,
                "mismatched mean": oracles.signal(H, R, 10.0, 0.5, seed=1)[:, None],
                "K = 3": np.outer(oracles.signal(H[:, :1], R, 10.0, seed=1),
                                  np.ones(3) / np.sqrt(3))}[case]
        plan = mc.TrialPlan(n_trials=300, master_seed=5, scenario=cfg, covariance=self.COV,
                            detectors=tuple(sorted(DISTRIBUTED if K > 1 else POINT)))
        stats = mc.run_trials(plan, mean)
        digest = hashlib.sha256()
        for name in sorted(stats):
            digest.update(np.ascontiguousarray(stats[name]).tobytes())
        assert digest.hexdigest() == self.PINNED[case]
        assert set(dims) == {6}


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
