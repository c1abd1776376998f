import math
from dataclasses import fields, replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy import stats

import oracles
from adaptivedet import batcheval, cli, linalg, montecarlo as mc, registry, scenario as sc
from adaptivedet.distributions import ComplexChi2, threshold_for_pfa
from adaptivedet.errors import GeometryError, InfeasibleError
from conftest import crandn


def _point_plan(n=2000, seed=11, **kw):
    cfg = sc.ScenarioConfig(N=6, p=2, q=2, L=12, pfa=1e-2)
    return mc.TrialPlan(
        n_trials=n, master_seed=seed, scenario=cfg,
        covariance=sc.CovarianceModel.ar1(0.9),
        detectors=tuple(sorted(registry.names(family="point"))), **kw)


def _calibrate(plan, detector):
    """The detector's threshold calibrated on the plan's own H0 statistics."""
    return mc.calibrate_threshold(plan, detector, mc.run_trials(plan)[detector])


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

    @pytest.mark.parametrize("batch_size", [0, -3])
    def test_batch_size_below_one_rejected(self, batch_size):
        # no batch would run, and the statistics would be uninitialized memory
        with pytest.raises(ValueError, match="batch size"):
            _point_plan(batch_size=batch_size)

    @pytest.mark.parametrize("detectors", [("sglrt",), ("gkglrt", "smf")])
    def test_point_detectors_need_one_snapshot(self, detectors, stream_draws):
        # refused by the constructor, before any pass draws a block
        cfg = sc.ScenarioConfig(N=6, p=2, L=12, K=2, pfa=1e-2)
        with pytest.raises(ValueError, match="K = 1"):
            mc.TrialPlan(n_trials=100, master_seed=1, scenario=cfg,
                         covariance=sc.CovarianceModel.ar1(0.5), detectors=detectors)
        assert stream_draws == []
        mc.TrialPlan(n_trials=100, master_seed=1, scenario=cfg,
                     covariance=sc.CovarianceModel.ar1(0.5), detectors=("gkglrt",))

    def test_trial_streams_are_prefix_stable(self):
        # trial i's statistics do not depend on how many trials run
        a = mc.run_trials(_point_plan(n=100))
        b = mc.run_trials(_point_plan(n=400))
        for name in a:
            assert np.array_equal(a[name], b[name][:100])


class TestBlockStreams:
    """Trials come in 64-trial Philox blocks: each block is drawn once per
    pass whatever the batch size, and its Bartlett factor has the complex
    Wishart factor's exact laws."""

    BATCHES = (1, 63, 64, 65, 311, 4096)

    @pytest.mark.parametrize("batch_size", BATCHES)
    def test_each_block_drawn_once_per_pass(self, batch_size, stream_draws):
        mc.run_trials(_point_plan(n=300, seed=11, batch_size=batch_size))
        assert stream_draws == [(11, b) for b in range(5)]  # 300 trials, 5 blocks

    def test_statistics_ignore_batch_size(self):
        point = [mc.run_trials(_point_plan(n=300, batch_size=b)) for b in self.BATCHES]
        cfg = sc.ScenarioConfig(N=6, p=2, L=12, K=3, pfa=1e-2)
        dist = [mc.run_trials(mc.TrialPlan(
            n_trials=300, master_seed=4, scenario=cfg, covariance=sc.CovarianceModel.ar1(0.5),
            detectors=registry.names(family="distributed"), batch_size=b))
            for b in self.BATCHES]
        for runs in (point, dist):
            for run in runs[1:]:
                for name in run:
                    assert np.array_equal(run[name], runs[0][name]), name

    def test_bartlett_factor_laws(self):
        """KS tests of every diagonal ``T_ii^2`` against Gamma(L - i + 1) and
        of the pooled real and imaginary parts of the strict lower triangle
        against N(0, 1/2), each at alpha = 1e-7 (size below 1e-6 in all).  At
        n = 6400 the L - N DOF law, one shape unit less, gives p below 1e-20
        on every diagonal, and off-diagonals of variance 1/4 or 1 fail too."""
        N, L = 5, 9
        cfg = sc.ScenarioConfig(N=N, p=1, L=L, pfa=1e-2)
        T, w = sc.assemble_noise(*mc._draw_blocks(99, range(100), cfg, N), N, 1)
        assert np.all(np.triu(T, 1) == 0)
        for i in range(N):
            t2 = T[:, i, i]
            assert np.all(t2.imag == 0) and np.all(t2.real > 0)
            pvalue = stats.kstest(t2.real ** 2, stats.gamma(L - i).cdf).pvalue
            assert pvalue > 1e-7, (i, pvalue)
        rows, cols = np.tril_indices(N, -1)
        below = T[:, rows, cols]
        parts = np.concatenate([below.real.ravel(), below.imag.ravel()])
        assert stats.kstest(parts, stats.norm(scale=np.sqrt(0.5)).cdf).pvalue > 1e-7
        test = np.concatenate([w.real.ravel(), w.imag.ravel()])
        assert stats.kstest(test, stats.norm(scale=np.sqrt(0.5)).cdf).pvalue > 1e-7

    @pytest.mark.parametrize("N, p, L", [(6, 2, 12), (6, 1, 6)])
    def test_loss_factor_law(self, N, p, L):
        """The engine's loss factor under H0 against its exact law
        Beta(L - N + p + 1, N - p), KS at alpha = 1e-6; at n = 20000 the
        L - N DOF law Beta(L - N + p, N - p) gives p below 1e-20."""
        cfg = sc.ScenarioConfig(N=N, p=p, L=L, pfa=1e-2)
        plan = mc.TrialPlan(n_trials=20_000, master_seed=8, scenario=cfg,
                            covariance=sc.CovarianceModel.ar1(0.9), detectors=("beta",))
        beta = mc.run_trials(plan)["beta"]
        assert stats.kstest(beta, stats.beta(L - N + p + 1, N - p).cdf).pvalue > 1e-6


class TestExceedanceCounts:
    @staticmethod
    def _assert_counts_match(plan, means, batch_size):
        plan = replace(plan, batch_size=batch_size)
        base = mc.run_trials(plan, means[0])
        thresholds = {d: float(np.median(base[d])) for d in plan.detectors}
        counts = mc.exceedance_counts(plan, means, thresholds)
        assert counts.shape == (len(means), len(plan.detectors))
        for g, mean in enumerate(means):
            stats = mc.run_trials(plan, mean)
            for d, det in enumerate(plan.detectors):
                ref = oracles.estimate_pd(plan, det, thresholds[det], stats=stats[det])
                assert counts[g, d] / plan.n_trials == ref.pd, (g, det)

    @pytest.mark.parametrize("batch_size", [64, 577])
    def test_point_family_with_jammer(self, batch_size):
        cfg = sc.ScenarioConfig(N=8, p=2, q=2, L=16, pfa=1e-2)
        H, J = sc.default_geometry(cfg.N, cfg.p, cfg.q)
        cov = sc.CovarianceModel.ar1(0.9)
        R = cov.build(cfg.N)
        jammer = cli._jammer_mean(cfg, J, R, 20.0)
        means = [oracles.signal(H, R, snr, 0.8, g)[:, None] + jammer
                 for g, snr in enumerate((0.0, 6.0, 12.0))]
        plan = mc.TrialPlan(n_trials=700, master_seed=3, scenario=cfg, covariance=cov,
                            detectors=tuple(sorted(registry.names(family="point"))))
        self._assert_counts_match(plan, means, batch_size)

    @pytest.mark.parametrize("batch_size", [64, 577])
    def test_distributed_family(self, batch_size):
        cfg = sc.ScenarioConfig(N=6, p=2, L=12, K=4, pfa=1e-2)
        H, _ = sc.default_geometry(cfg.N, cfg.p)
        cov = sc.CovarianceModel.ar1(0.5)
        R = cov.build(cfg.N)
        means = [np.outer(oracles.signal(H[:, :1], R, snr, seed=g), np.ones(cfg.K) / 2.0)
                 for g, snr in enumerate((0.0, 8.0))]
        plan = mc.TrialPlan(n_trials=300, master_seed=8, scenario=cfg, covariance=cov,
                            detectors=tuple(sorted(registry.names(family="distributed"))))
        self._assert_counts_match(plan, means, batch_size)

    def test_threshold_on_a_single_mean_statistic(self):
        """Each threshold sits exactly on one trial's statistic at one mean, so
        the grid count there may round that trial across it: every count
        differs from the single-mean count by at most the trials within 1e-12
        relative of the threshold (the ``exceedance_counts`` contract)."""
        cfg = sc.ScenarioConfig(N=8, p=2, q=2, L=16, pfa=1e-2)
        H, _ = sc.default_geometry(cfg.N, cfg.p, cfg.q)
        cov = sc.CovarianceModel.ar1(0.9)
        R = cov.build(cfg.N)
        means = [oracles.signal(H, R, snr, 0.8, g)[:, None]
                 for g, snr in enumerate((0.0, 3.0, 6.0, 9.0, 12.0))]
        plan = mc.TrialPlan(n_trials=700, master_seed=3, scenario=cfg, covariance=cov,
                            detectors=tuple(sorted(registry.names(family="point"))))
        singles = [mc.run_trials(plan, mean) for mean in means]
        # the middle order statistic of each detector at the middle mean
        thresholds = {d: float(np.sort(singles[2][d])[plan.n_trials // 2])
                      for d in plan.detectors}
        counts = mc.exceedance_counts(plan, means, thresholds)
        for g, stats in enumerate(singles):
            for d, det in enumerate(plan.detectors):
                eta = thresholds[det]
                near = np.count_nonzero(np.abs(stats[det] - eta) <= 1e-12 * abs(eta))
                assert near >= (g == 2), (g, det)
                assert abs(counts[g, d] - np.count_nonzero(stats[det] > eta)) <= near, (g, det)

    def test_grid_draws_each_block_once(self, tmp_path, stream_draws):
        rc = cli.main(["pd-vs-snr", "--mode", "montecarlo", "--snr",
                       ",".join(str(s) for s in range(0, 25, 2)),
                       "--detectors", "sglrt,samf", "--trials", "300",
                       "--batch-size", "128", "--out", str(tmp_path / "grid.csv")])
        assert rc == 0
        assert stream_draws == [(0, b) for b in range(5)]  # 300 trials, 5 blocks


class TestStackedGrid:
    """``exceedance_counts`` evaluates a grid's point means together, in
    chunks of ``GRID_CHUNK`` fixed by the grid alone."""

    def test_grid_csv_ignores_batch_size(self, tmp_path):
        blobs = []
        for size in (64, 577, 4096):
            out = tmp_path / f"b{size}.csv"
            assert cli.main(["pd-vs-snr", "--mode", "montecarlo", "--N", "8", "--p", "2",
                             "--q", "2", "--L", "16", "--pfa", "1e-2",
                             "--snr", ",".join(str(s) for s in range(0, 25, 2)),
                             "--detectors", "sglrt,kglrt,glrt_he_i,smf,mf", "--trials", "1200",
                             "--seed", "5", "--batch-size", str(size), "--out", str(out)]) == 0
            blobs.append(out.read_bytes())
        assert blobs[0].count(b"\n") == 1 + 13 * 5
        assert blobs[1] == blobs[0] and blobs[2] == blobs[0]

    def test_large_grid_stays_within_the_chunk_bound(self, tmp_path, monkeypatch):
        """The 861 means of the default mesa grid pass ``evaluate`` at most
        ``GRID_CHUNK`` at a time, each once per batch."""
        real = batcheval.evaluate
        widths = []

        def recording(prep, X, means=None):
            widths.append(len(means))
            return real(prep, X, means)

        monkeypatch.setattr(batcheval, "evaluate", recording)
        assert cli.main(["mesa", "--mode", "montecarlo", "--N", "6", "--p", "2", "--L", "12",
                         "--pfa", "1e-2", "--detectors", "sglrt,smf", "--trials", "100",
                         "--batch-size", "64", "--out", str(tmp_path / "mesa.csv")]) == 0
        chunks = [min(mc.GRID_CHUNK, 861 - first) for first in range(0, 861, mc.GRID_CHUNK)]
        assert widths == chunks * 2  # 100 trials: two batches of whole 64-trial blocks
        assert max(widths) <= mc.GRID_CHUNK

    def test_empty_grid_counts_nothing(self, tmp_path):
        out = tmp_path / "empty.csv"
        assert cli.main(["pd-vs-snr", "--mode", "montecarlo", "--snr", "", "--trials", "100",
                         "--pfa", "1e-2", "--detectors", "sglrt,smf", "--out", str(out)]) == 0
        assert out.read_text().count("\n") == 1


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
    @pytest.mark.parametrize("detectors, has_W, has_mvdr", [
        (("sglrt", "glrt_he_i"), False, False), (("sglrt", "smf"), True, False),
        (("mf",), False, True), (("smf", "kglrt"), True, False)])
    def test_map_only_for_clairvoyant_detectors(self, detectors, has_W, has_mvdr):
        """The noise pass builds the clairvoyant map W only for a plan with
        ``smf`` and the MVDR weight only for one with ``mf``, even when an
        adaptive detector of the plan reads s."""
        cfg = sc.ScenarioConfig(N=6, p=2, q=1, L=12, pfa=1e-2)
        plan = mc.TrialPlan(n_trials=50, master_seed=5, scenario=cfg,
                            covariance=sc.CovarianceModel.ar1(0.5), detectors=detectors)
        (_, _, (prepared,), _), = mc._noise_pass(plan, (plan.covariance,))
        assert (prepared.W is not None, prepared.mvdr is not None) == (has_W, has_mvdr)


class TestPointBankPreparation:
    """The noise pass prepares and evaluates only the point banks the plan
    reads, and a plan of part of the family gives the full plan's bits."""

    @staticmethod
    def _run(detectors, p, q, batch_size):
        cfg = sc.ScenarioConfig(N=6, p=p, q=q, L=12, pfa=1e-2)
        plan = mc.TrialPlan(n_trials=300, master_seed=5, scenario=cfg,
                            covariance=sc.CovarianceModel.ar1(0.5),
                            detectors=tuple(detectors), batch_size=batch_size)
        return mc.run_trials(plan)

    @pytest.mark.parametrize("batch_size", [128, 300])
    @pytest.mark.parametrize("detectors, p, q", [
        (registry.names(family="point", reads=("H",), clairvoyant=False), 2, 3),
        (registry.names(family="point", reads=("s",), clairvoyant=False), 1, 3),
        (registry.names(family="point", reads=("H", "J")), 2, 3),
        (registry.names(family="point", reads=("H", "J")), 2, 0),
        (("smf", "mf"), 2, 3),
        (registry.names(family="point"), 2, 3),
        (("glrt_he_i", "ts_glrt_he_i", "beta_i"), 2, 3),
        (("rao_he_i", "ts_rao_he_i", "rao_phe_i"), 2, 3),
        (("wald_he_i", "glrt_phe_i"), 2, 3),
        (("wald_phe_i",), 2, 0),
    ])
    def test_partial_banks_give_the_full_pass_bits(self, detectors, p, q, batch_size):
        full = self._run(registry.names(family="point"), p, q, 97)
        part = self._run(detectors, p, q, batch_size)
        assert set(part) == set(detectors)
        for name in detectors:
            assert np.array_equal(part[name], full[name]), name

    @pytest.mark.parametrize("detectors, held", [
        (("sglrt", "aed", "beta"), ("T", "QH", "RH")),
        (("sglrt", "kglrt"), ("T", "QH", "RH", "st", "ss")),
        (("glrt_he_i", "wald_phe_i"), ("T", "QH", "RH", "QJ", "QHp", "QB", "E")),
        (("sglrt", "smf"), ("T", "QH", "RH", "W")),
        (("smf",), ("W",)),
        (("mf",), ("mvdr",)),
        (("smf", "mf"), ("W", "mvdr")),
        (("wald_he_i",), ("T", "QH", "RH", "QJ", "QHp", "QB", "E")),
        (("glrt_he_i", "ts_glrt_he_i", "beta_i"), ("T", "QH", "RH", "QJ", "QHp")),
        (("rao_he_i", "rao_phe_i"), ("T", "QH", "RH", "QJ", "QHp")),
    ])
    def test_only_the_read_banks_are_prepared(self, detectors, held):
        """A subspace-only plan with q > 0 holds no rank-one or interference
        state, a plan of clairvoyant detectors no whitener and no adaptive
        bank, and an interference plan the Wald map and the [J H] basis only
        for a Wald name; every other plan holds exactly its banks' state."""
        cfg = sc.ScenarioConfig(N=6, p=2, q=1, L=12, pfa=1e-2)
        plan = mc.TrialPlan(n_trials=50, master_seed=5, scenario=cfg,
                            covariance=sc.CovarianceModel.ar1(0.5), detectors=detectors)
        (_, _, (prepared,), _), = mc._noise_pass(plan, (plan.covariance,))
        assert prepared.names == detectors
        assert {f.name for f in fields(prepared)
                if f.name not in ("names", "banks")
                and getattr(prepared, f.name) is not None} == set(held)

    @pytest.mark.parametrize("detectors, returned", [
        (("smf",), {"smf"}),
        (("smf", "mf"), {"smf", "mf"}),
        (("mf",), {"mf"}),
    ])
    def test_clairvoyant_plan_skips_whitening(self, detectors, returned, monkeypatch):
        """A plan of clairvoyant detectors never inverts the training factor
        and returns only the clairvoyant statistics it names: each builds
        only its own map, the MVDR weight for ``mf`` and ``W`` for ``smf``."""
        cfg = sc.ScenarioConfig(N=6, p=2, q=1, L=12, pfa=1e-2)
        plan = mc.TrialPlan(n_trials=100, master_seed=5, scenario=cfg,
                            covariance=sc.CovarianceModel.ar1(0.5), detectors=detectors)
        real = linalg.lower_inverse

        def refuse(T):  # the covariance's own whitening is one (N, N) factor
            if T.shape[:-2] == (plan.n_trials,):
                raise AssertionError("inverted the training factor")
            return real(T)

        monkeypatch.setattr(linalg, "lower_inverse", refuse)
        (_, noise, (prepared,), (white,)), = mc._noise_pass(plan, (plan.covariance,))
        assert set(batcheval.evaluate(prepared, noise, white)) == returned


class TestMixedFamilyPlan:
    """One preparation serves both families: at K = 1 a plan that mixes them
    gives each name the bits of a plan of its own family alone, and the
    distributed rank-one pair reduces to its point twins, ``gkglrt`` to
    ``kglrt`` and ``gamf`` to ``amf``."""

    DETECTORS = ("sglrt", "kglrt", "glrt_he_i", "smf", "gkglrt", "gamf", "glrdd")
    CFG = sc.ScenarioConfig(N=6, p=2, q=1, L=12, pfa=1e-2)
    COVARIANCES = (sc.CovarianceModel.ar1(0.5), sc.CovarianceModel.identity())

    def _sweep(self, detectors, mean):
        plan = mc.TrialPlan(n_trials=300, master_seed=11, scenario=self.CFG,
                            covariance=self.COVARIANCES[0], detectors=detectors,
                            batch_size=128)
        return mc.sweep_trials(plan, self.COVARIANCES, mean)

    @pytest.mark.parametrize("snr_db", [None, 8.0])
    def test_each_family_keeps_its_bits(self, snr_db):
        H, _ = sc.default_geometry(self.CFG.N, self.CFG.p, self.CFG.q)
        mean = 0.0 if snr_db is None else oracles.signal(
            H, self.COVARIANCES[0].build(self.CFG.N), snr_db, seed=1)[:, None]
        mixed = self._sweep(self.DETECTORS, mean)
        alone = [{} for _ in self.COVARIANCES]
        for family in ("point", "distributed"):
            names = tuple(d for d in self.DETECTORS if registry.DETECTORS[d].family == family)
            for ours, theirs in zip(alone, self._sweep(names, mean)):
                ours.update(theirs)
        twins = self._sweep(("kglrt", "amf"), mean)
        for c, (ours, theirs) in enumerate(zip(mixed, alone)):
            assert set(ours) == set(self.DETECTORS)
            for name in self.DETECTORS:
                assert np.array_equal(ours[name], theirs[name]), (c, name)
            for dist, point in (("gkglrt", "kglrt"), ("gamf", "amf")):
                np.testing.assert_allclose(ours[dist], twins[c][point], rtol=1e-12, atol=0,
                                           err_msg=f"{c} {dist}")

    def test_runs_only_the_banks_its_names_read(self, monkeypatch):
        """``sglrt`` reads the subspace QR and ``gkglrt`` the whitened
        steering vector, so the plan holds both, yet neither the point
        rank-one bank (which reads s) nor the direction and DOS banks (which
        read H) run for it, nor the interference bank."""
        def refuse(*args):
            raise AssertionError("ran a bank that no name of the plan reads")

        for bank in ("_point_rank_one_bank", "_interference_bank", "_subspace_banks"):
            monkeypatch.setattr(batcheval, bank, refuse)
        for stats in self._sweep(("sglrt", "gkglrt"), 0.0):
            assert set(stats) == {"sglrt", "gkglrt"}


class TestFullSpaceGeometry:
    # p + q = N: [H J] spans the space, so wald_phe_i has nothing to normalize by
    CFG = sc.ScenarioConfig(N=4, p=2, q=2, L=8, pfa=1e-2)

    def test_wald_phe_i_is_nan_in_both_paths(self):
        H, J = sc.default_geometry(self.CFG.N, self.CFG.p, self.CFG.q)
        for seed in range(5):
            d = oracles.synthesize(self.CFG, sc.CovarianceModel.ar1(0.9), seed=seed)
            ints = oracles.interference_bank(d.test_vector, d.scm, H, J)
            batched = batcheval.point_family_stats(d.test_vector[None], d.scm[None], H, J)
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
    """The engine's trials equal the per-instance oracles on the oracle's own
    draw of each trial, across the first block boundary.  Both null passes
    have K + p + q < N, so they run in the canonical frame, and the oracle
    draws the reduced trial embedded in N dimensions (``flag``)."""

    def test_point_family(self):
        plan = _point_plan(n=66)
        cfg = plan.scenario
        H, J = sc.default_geometry(cfg.N, cfg.p, cfg.q)
        stats = mc.run_trials(plan)
        for i in range(plan.n_trials):
            d = oracles.synthesize(cfg, plan.covariance, hypothesis="h0",
                                   seed=plan.master_seed, trial=i,
                                   flag=np.concatenate([H, J], axis=1))
            x = d.test_vector
            ps = oracles.subspace_bank(x, d.scm, H)
            rs = oracles.rank_one_bank(x, d.scm, H[:, 0])
            ints = oracles.interference_bank(x, d.scm, H, J)
            for name, ref in (*ps.items(), *rs.items(), *ints.items()):
                assert stats[name][i] == pytest.approx(ref, rel=1e-10), name

    def test_distributed_family(self):
        cfg = sc.ScenarioConfig(N=6, p=2, L=12, K=3, pfa=1e-2)
        plan = mc.TrialPlan(
            n_trials=66, master_seed=5, scenario=cfg,
            covariance=sc.CovarianceModel.ar1(0.5),
            detectors=tuple(sorted(registry.names(family="distributed"))))
        stats = mc.run_trials(plan)
        H, _ = sc.default_geometry(cfg.N, cfg.p)
        for i in (*range(4), *range(60, 66)):
            d = oracles.synthesize(cfg, plan.covariance, hypothesis="h0",
                                   seed=plan.master_seed, trial=i, flag=H)
            ref = oracles.distributed_family(d.test, d.scm, H[:, 0], H, cfg.L)
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
        assert _calibrate(plan, "kglrt") == _calibrate(plan, "kglrt")

    def test_insufficient_trials(self):
        plan = _point_plan(n=50)
        with pytest.raises(InfeasibleError):
            _calibrate(plan, "kglrt")

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

    @pytest.mark.parametrize("n, pfa, m", [(100, 0.07, 7), (300_000, 1e-5, 3)])
    def test_order_statistic_is_exact_in_decimal(self, n, pfa, m, caplog):
        """In floats 100 * 0.07 = 7.000000000000001 and 300000 * 1e-5 =
        3.0000000000000004, whose ceilings are one too many; the threshold is
        still the m-th largest statistic, with m = n * pfa exactly."""
        cfg = sc.ScenarioConfig(N=6, p=2, q=2, L=12, pfa=pfa)
        plan = mc.TrialPlan(n_trials=n, master_seed=0, scenario=cfg,
                            covariance=sc.CovarianceModel.identity(), detectors=("kglrt",))
        stats = np.arange(float(n))
        with caplog.at_level("WARNING", logger="adaptivedet.montecarlo"):
            assert mc.calibrate_threshold(plan, "kglrt", stats) == n - m
        assert f"m={m} " in caplog.records[0].getMessage()

    @staticmethod
    def _order_statistic(n, pfa):
        """The m that ``calibrate_threshold`` takes: the threshold is the m-th
        largest of ``0, 1, ..., n - 1``, which is ``n - m``."""
        cfg = sc.ScenarioConfig(N=6, p=2, q=2, L=12, pfa=pfa)
        plan = mc.TrialPlan(n_trials=n, master_seed=0, scenario=cfg,
                            covariance=sc.CovarianceModel.identity(), detectors=("kglrt",))
        return n - int(mc.calibrate_threshold(plan, "kglrt", np.arange(float(n))))

    @settings(max_examples=200)
    @given(n=st.integers(1, 200_000), digits=st.integers(1, 999), exponent=st.integers(1, 9))
    def test_order_statistic_is_the_decimal_ceiling(self, n, digits, exponent):
        """m is ``ceil(n * pfa)`` of the decimal ``pfa``, and n * pfa below 1 is
        an error, over decimal pfa of up to three significant digits."""
        pfa = float(f"{digits}e-{exponent}")
        assume(pfa < 1.0)
        expected = n * Fraction(repr(pfa))
        if expected < 1:
            with pytest.raises(InfeasibleError):
                self._order_statistic(n, pfa)
        else:
            assert self._order_statistic(n, pfa) == math.ceil(expected)

    @pytest.mark.parametrize("n, pfa, m, warns", [
        (99_999, 1e-5, None, False), (100_000, 1e-5, 1, True),
        (78_124, 0.00128, 100, True), (78_125, 0.00128, 100, False)])
    def test_order_statistic_edges(self, n, pfa, m, warns, caplog):
        """n * pfa below 1 is an error and below 100 a warning, compared
        exactly: in floats 78125 * 0.00128 = 100.00000000000001."""
        with caplog.at_level("WARNING", logger="adaptivedet.montecarlo"):
            if m is None:
                with pytest.raises(InfeasibleError):
                    self._order_statistic(n, pfa)
            else:
                assert self._order_statistic(n, pfa) == m
        assert len(caplog.records) == warns

    def test_held_out_pfa(self):
        """The threshold is the m-th largest of n H0 statistics, so the count
        of n fresh H0 trials above it follows BetaBinomial(n, m, n - m + 1)
        whatever the statistic's law.  Both exact tails must stay above
        ``MC_TAIL`` (size below 6e-7); a threshold placed at half or twice
        the nominal pfa is caught with probability above 0.99."""
        n = 40_000
        plan = _point_plan(n=n, seed=21)
        thr = _calibrate(plan, "kglrt")
        m = int(np.ceil(n * plan.scenario.pfa))
        k = round(oracles.estimate_pd(_point_plan(n=n, seed=22), "kglrt", thr).pd * n)
        law = stats.betabinom(n, m, n - m + 1)
        assert oracles.tail_probability(k, law) >= oracles.MC_TAIL, (k, m)


class TestEstimatePd:
    def test_threshold_below_support(self):
        plan = _point_plan(n=500)
        est = oracles.estimate_pd(plan, "aed", -1.0)
        assert est.pd == 1.0

    def test_smf_analytic_oracle(self):
        """The exact binomial test against the CChi2 law (size below 6e-7);
        the trial count catches a PD off by 0.03 with probability 0.99."""
        cfg = sc.ScenarioConfig(N=6, p=1, L=12, pfa=1e-2)
        H, _ = sc.default_geometry(cfg.N, cfg.p)
        cov = sc.CovarianceModel.ar1(0.9)
        R = cov.build(cfg.N)
        s0 = oracles.signal(H, R, 8.0, seed=2)
        eta = threshold_for_pfa("smf", cfg.N, 1, cfg.L, cfg.pfa)
        n = oracles.trials_to_detect(0.03)
        plan = mc.TrialPlan(n_trials=n, master_seed=31, scenario=cfg,
                            covariance=cov, detectors=("smf",))
        est = oracles.estimate_pd(plan, "smf", eta, s0[:, None])
        pd_true = float(ComplexChi2(1, sc.db_to_power(8.0)).sf(eta))
        oracles.assert_counts([("smf", round(est.pd * n), n, pd_true)])

    def test_ci_width_scaling(self):
        a = oracles.estimate_pd(_point_plan(n=4000), "kglrt", 0.2)
        b = oracles.estimate_pd(_point_plan(n=8000), "kglrt", 0.2)
        ratio = (b.ci_high - b.ci_low) / (a.ci_high - a.ci_low)
        assert abs(ratio - 1 / np.sqrt(2)) < 0.2 / np.sqrt(2)

    def test_wilson_contains_estimate(self):
        lo, hi = mc.wilson_interval(10, 1000)
        assert lo <= 0.01 <= hi


class TestCfarSweep:
    COVS = (sc.CovarianceModel.identity(), sc.CovarianceModel.ar1(0.9),
            sc.CovarianceModel.ar1_plus_white(0.99, 30.0))

    def _check(self, detector):
        """``cfar-check`` rows and failed CFAR detectors over ``COVS``."""
        args = cli.build_parser()[0].parse_args(
            ["cfar-check", "--N", "6", "--p", "2", "--q", "0", "--L", "12", "--pfa", "1e-2",
             "--trials", "20000", "--seed", "17", "--detectors", detector,
             "--covariances", ",".join(cov.label() for cov in self.COVS)])
        return cli.run_cfar_check(args)

    def test_kglrt_passes(self):
        rows, failed = self._check("kglrt")
        assert failed == []
        assert [row["status"] for row in rows] == ["pass"] * len(self.COVS)

    def test_smi_fails_with_large_ratio(self):
        rows, _ = self._check("smi")
        assert [row["status"] for row in rows] == ["fail"] * len(self.COVS)
        rates = [row["pfa_hat"] for row in rows]
        assert max(rates) > 2 * max(min(rates), 1e-12)


class TestSweepTrials:
    COVS = TestCfarSweep.COVS

    @pytest.mark.parametrize("batch_size", [97, 4096])
    @pytest.mark.parametrize("cfg, detectors", [
        # smf: the clairvoyant map must come from each covariance's own R
        (sc.ScenarioConfig(N=6, p=2, q=1, L=12, pfa=1e-2),
         ("sglrt", "samf", "smf", "glrt_he_i", "kglrt", "mf")),
        (sc.ScenarioConfig(N=6, p=2, L=12, K=4, pfa=1e-2),
         ("gkglrt", "gasd", "glrt_phe", "rao_phe", "rao_he", "glrdd")),
    ])
    def test_each_covariance_equals_its_own_run(self, cfg, detectors, batch_size):
        plan = mc.TrialPlan(n_trials=300, master_seed=21, scenario=cfg,
                            covariance=self.COVS[0], detectors=detectors,
                            batch_size=batch_size)
        swept = mc.sweep_trials(plan, self.COVS)
        assert len(swept) == len(self.COVS)
        for cov, stats in zip(self.COVS, swept):
            alone = mc.run_trials(replace(plan, covariance=cov))
            for name in detectors:
                assert np.array_equal(stats[name], alone[name]), (cov.label(), name)

    @pytest.mark.parametrize("covariances", [[], ()])
    def test_no_covariance_is_a_value_error(self, covariances):
        plan = mc.TrialPlan(n_trials=64, master_seed=21, covariance=self.COVS[0],
                            scenario=sc.ScenarioConfig(N=4, p=1, L=8, pfa=1e-2),
                            detectors=("sglrt",))
        with pytest.raises(ValueError, match="need at least one covariance model"):
            mc.sweep_trials(plan, covariances)

    POOL = COVS + (sc.CovarianceModel.ar1(0.5),)

    @settings(max_examples=60)
    @given(st.data())
    def test_each_covariance_equals_its_own_run_on_draws(self, data):
        """On draws of 1-3 covariance models (repeats allowed), plans of both
        families with their PHE and direction/DOS names, K in {1, 4}, zero
        and nonzero test means and two batch sizes, each covariance of the
        sweep equals its own ``run_trials`` bit for bit."""
        K = data.draw(st.sampled_from((1, 4)))
        cfg = sc.ScenarioConfig(N=6, p=2, q=1, L=12, K=K, pfa=1e-2)
        names = [name for name in sorted(registry.DETECTORS)
                 if K == 1 or registry.DETECTORS[name].family == "distributed"]
        covariances = data.draw(st.lists(st.sampled_from(self.POOL), min_size=1, max_size=3))
        seed = data.draw(st.integers(0, 2**32 - 1))
        rng = np.random.default_rng(seed)
        # names chosen by the drawn seed, so that no family shrinks away
        detectors = tuple(rng.permutation(names)[:rng.integers(1, 9)].tolist())
        mean = data.draw(st.sampled_from((0.0, 2.0))) * crandn(rng, 6, K)
        plan = mc.TrialPlan(n_trials=150, master_seed=seed, scenario=cfg,
                            covariance=covariances[0], detectors=detectors,
                            batch_size=data.draw(st.sampled_from((64, 4096))))
        for cov, stats in zip(covariances, mc.sweep_trials(plan, covariances, mean)):
            alone = mc.run_trials(replace(plan, covariance=cov), mean)
            assert set(stats) == set(detectors)
            for name in detectors:
                assert np.array_equal(stats[name], alone[name], equal_nan=True), (
                    cov.label(), name)

    @pytest.mark.parametrize("snr_db, per_batch", [(None, 1), (8.0, 3)])
    def test_zero_mean_whitens_the_test_block_once_per_batch(self, snr_db, per_batch,
                                                             monkeypatch):
        """At a zero mean the three covariances of a batch share one whitened
        test block for each family, and with it one distributed rank-one
        bank (one ``(I + G0)`` solve of three columns); a nonzero mean is
        whitened per covariance."""
        calls = {"point": [], "distributed": []}
        point, distributed = batcheval._point_whitened, batcheval._distributed_banks

        def counting_point(T, x, M):
            calls["point"].append(len(T))
            return point(T, x, M)

        def counting_distributed(preps, X):
            calls["distributed"].append(len(preps))
            return distributed(preps, X)

        monkeypatch.setattr(batcheval, "_point_whitened", counting_point)
        monkeypatch.setattr(batcheval, "_distributed_banks", counting_distributed)
        cfg = sc.ScenarioConfig(N=6, p=2, q=1, L=12, pfa=1e-2)
        H, _ = sc.default_geometry(cfg.N, cfg.p, cfg.q)
        mean = 0.0 if snr_db is None else oracles.signal(H, np.eye(cfg.N), snr_db,
                                                          seed=1)[:, None]
        plan = mc.TrialPlan(n_trials=300, master_seed=21, scenario=cfg,
                            covariance=self.COVS[0], detectors=("sglrt", "smf", "gkglrt"),
                            batch_size=128)
        mc.sweep_trials(plan, self.COVS, mean)
        batches = [128, 128, 44]
        assert calls["point"] == [b for b in batches for _ in range(per_batch)]
        assert calls["distributed"] == [len(self.COVS) // per_batch] * per_batch * len(batches)


class TestOrientationAndScale:
    def test_glrt_phe_grows_under_h1(self):
        # sign test for the PHE GLRT: the detection probability at an
        # H0-calibrated threshold must far exceed the false-alarm rate
        cfg = sc.ScenarioConfig(N=6, p=1, L=12, K=3, pfa=1e-2)
        H, _ = sc.default_geometry(cfg.N, cfg.p)
        cov = sc.CovarianceModel.ar1(0.9)
        R = cov.build(cfg.N)
        plan0 = mc.TrialPlan(n_trials=20_000, master_seed=77, scenario=cfg,
                             covariance=cov, detectors=("glrt_phe",))
        thr = _calibrate(plan0, "glrt_phe")
        s0 = oracles.signal(H, R, 15.0, seed=1)
        mean = np.outer(s0, np.ones(cfg.K) / np.sqrt(cfg.K))
        plan1 = mc.TrialPlan(n_trials=5_000, master_seed=78, scenario=cfg,
                             covariance=cov, detectors=("glrt_phe",))
        est = oracles.estimate_pd(plan1, "glrt_phe", thr, mean)
        assert est.pd > 0.5

    def test_wald_phe_i_scale_invariance(self):
        """The concatenated-subspace normalization makes the statistic exactly
        scale invariant, hence false-alarm invariant to the PHE power level.
        The counts at sigma2 0.5 and 2 pass the exact binomial test against
        the HE rate (two rows, size below 6e-7); a statistic whose false-alarm
        rate doubles or halves with the power level fails it with
        probability above 0.99."""
        n = 20_000
        cfg = sc.ScenarioConfig(N=6, p=1, q=2, L=12, pfa=1e-2)
        cov = sc.CovarianceModel.ar1(0.9)
        base = mc.TrialPlan(n_trials=n, master_seed=55, scenario=cfg,
                            covariance=cov, detectors=("wald_phe_i",))
        h0 = mc.run_trials(base)["wald_phe_i"]
        thr = mc.calibrate_threshold(base, "wald_phe_i", h0)
        rate = oracles.estimate_pd(base, "wald_phe_i", thr, stats=h0).pd
        rows = []
        for sigma2 in (0.5, 2.0):
            phe = sc.ScenarioConfig(N=6, p=1, q=2, L=12, environment="phe",
                                    sigma2=sigma2, pfa=1e-2)
            plan = mc.TrialPlan(n_trials=n, master_seed=55, scenario=phe,
                                covariance=cov, detectors=("wald_phe_i",))
            rows.append((sigma2, round(oracles.estimate_pd(plan, "wald_phe_i", thr).pd * n),
                         n, rate))
        oracles.assert_counts(rows)


def roc_invariance_check(detector: str, g, plan: mc.TrialPlan,
                         threshold: float = None) -> bool:
    """Decision-set equality under a strictly increasing statistic transform.

    Verifies that thresholding ``g(statistic)`` at ``g(threshold)`` reproduces
    exactly the decisions of thresholding the statistic itself on every trial.
    A sampled derivative-sign test rejects non-monotone maps up front.
    """
    stats = mc.run_trials(plan)[detector]
    if threshold is None:
        threshold = mc.calibrate_threshold(plan, detector, stats)
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
