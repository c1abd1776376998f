import numpy as np
import pytest

import oracles
from adaptivedet import linalg, montecarlo as mc, scenario as sc
from adaptivedet.errors import GeometryError, RankError


class TestCovariance:
    def test_ar1_zero_is_identity(self):
        np.testing.assert_allclose(sc.CovarianceModel.ar1(0.0).build(4),
                                   np.eye(4))

    def test_ar1_entries(self):
        R = sc.CovarianceModel.ar1(0.9).build(3)
        expected = np.array([[1, 0.9, 0.81], [0.9, 1, 0.9], [0.81, 0.9, 1]])
        np.testing.assert_allclose(R, expected)

    def test_clutter_plus_white_floor(self):
        R = sc.CovarianceModel.ar1_plus_white(0.99, 30.0).build(8)
        assert np.linalg.eigvalsh(R).min() >= 1.0

    def test_overflowing_cnr_rejected(self):
        # finite in dB, but 10^(dB/10) overflows a float
        with pytest.raises(ValueError, match="finite"):
            sc.CovarianceModel.ar1_plus_white(0.9, 4000.0)

    def test_bad_correlation(self):
        with pytest.raises(ValueError):
            sc.CovarianceModel.ar1(1.0)

    def test_parse_labels_roundtrip(self):
        for text in ("identity", "ar1:0.9", "ar1w:0.99:30"):
            assert sc.CovarianceModel.parse(text).label() == text


class TestSubspace:
    def test_zero_frequency_is_ones(self):
        H = sc.nominal_subspace(5, 1, [0.0])
        np.testing.assert_allclose(H[:, 0], np.ones(5))

    def test_quarter_frequency(self):
        H = sc.nominal_subspace(4, 1, [0.25])
        np.testing.assert_allclose(H[:, 0], [1, 1j, -1, -1j], atol=1e-14)

    def test_vandermonde_rank(self):
        H = sc.nominal_subspace(12, 2, [0.1, 0.3])
        assert np.linalg.matrix_rank(H) == 2

    def test_duplicate_frequencies(self):
        with pytest.raises(RankError):
            sc.nominal_subspace(6, 2, [0.2, 0.2])

    def test_default_geometry_disjoint(self):
        H, J = sc.default_geometry(12, 2, 3)
        assert H.shape == (12, 2) and J.shape == (12, 3)
        linalg.orthonormal_basis(np.concatenate([H, J], axis=1))


class TestSignalBuilder:
    def setup_method(self):
        g = np.random.default_rng(7)
        A = (g.standard_normal((6, 9)) + 1j * g.standard_normal((6, 9))) / np.sqrt(2)
        self.R = A @ A.conj().T
        self.H = sc.nominal_subspace(6, 2, [0.1, 0.4])

    def _check(self, snr_db, cos2phi, seed):
        rho = sc.db_to_power(snr_db)
        s0 = sc.signal_builder(self.H, self.R)(rho, cos2phi, np.random.default_rng(seed))
        Ri = np.linalg.inv(self.R)
        rho_hat = float(np.real(s0.conj() @ Ri @ s0))
        num = s0.conj() @ Ri @ self.H @ np.linalg.solve(
            self.H.conj().T @ Ri @ self.H, self.H.conj().T @ Ri @ s0)
        cos2_hat = float(np.real(num)) / rho_hat
        assert abs(rho_hat - rho) <= 1e-9 * rho
        assert abs(cos2_hat - cos2phi) <= 1e-9
        return s0

    def test_matched_in_subspace(self):
        s0 = self._check(12.0, 1.0, 5)
        T = linalg.inv_sqrt(self.R)
        P = oracles.ortho_projector(T @ self.H)
        resid = (np.eye(6) - P) @ (T @ s0)
        assert np.linalg.norm(resid) < 1e-9 * np.linalg.norm(T @ s0)

    def test_orthogonal_case(self):
        s0 = self._check(12.0, 0.0, 5)
        proj = self.H.conj().T @ np.linalg.solve(self.R, s0)
        assert np.linalg.norm(proj) < 1e-9 * np.linalg.norm(s0)

    def test_direct_formula_oracle(self):
        self._check(7.0, 0.37, 9)

    def test_positive_homogeneity(self):
        a, b = (oracles.signal(self.H, self.R, snr_db, 0.5, seed=3)
                for snr_db in (10.0, 10.0 + 10 * np.log10(2)))
        np.testing.assert_allclose(b, np.sqrt(2.0) * a, rtol=1e-9)

    @pytest.mark.parametrize("snr_db", [4000.0, np.nan])
    def test_snr_must_be_a_finite_power(self, snr_db):
        with pytest.raises(ValueError, match="finite"):
            sc.signal_builder(self.H, self.R)(sc.db_to_power(snr_db), 1.0,
                                              np.random.default_rng(0))

    def test_no_orthocomplement(self):
        H_full = sc.nominal_subspace(3, 3, [0.1, 0.4, 0.7])
        with pytest.raises(GeometryError):
            oracles.signal(H_full, np.eye(3), 0.0, 0.5)

    def test_reused_builder_gives_fresh_builder_bits(self):
        """One builder, whitened once, serves many cells with the bits of a
        fresh builder per cell."""
        build = sc.signal_builder(self.H, self.R)
        for i, cos2 in enumerate((1.0, 0.6, 0.0)):
            rho = sc.db_to_power(3.0 * i)
            assert np.array_equal(build(rho, cos2, np.random.default_rng((1, i))),
                                  sc.signal_builder(self.H, self.R)(
                                      rho, cos2, np.random.default_rng((1, i))))


class TestSynthesize:
    def setup_method(self):
        self.cfg = sc.ScenarioConfig(N=4, p=1, L=8, pfa=1e-2)
        self.model = sc.CovarianceModel.ar1(0.9)

    def test_same_seed_bit_identical(self):
        a = oracles.synthesize(self.cfg, self.model, hypothesis="h0", seed=44)
        b = oracles.synthesize(self.cfg, self.model, hypothesis="h0", seed=44)
        assert np.array_equal(a.test, b.test)
        assert np.array_equal(a.factor, b.factor)
        assert np.array_equal(a.scm, b.scm)

    @pytest.mark.parametrize("trial", [0, 63, 64, 70, 200])
    def test_noise_follows_the_block_layout(self, trial):
        """The oracle's per-trial assembly of its row of the block is the
        engine's: the same draws in the same places."""
        N, L, K = 4, 8, 3
        first = trial // 64 * 64
        draws = mc._draw_blocks(12, range(trial // 64, trial // 64 + 1),
                                sc.ScenarioConfig(N=N, p=1, L=L, K=K), N)
        T, w = sc.assemble_noise(*draws, N, K)
        T0, w0 = oracles.draw_trial(12, trial, N, L, K)
        assert np.array_equal(T0, T[trial - first])
        assert np.array_equal(w0, w[trial - first])

    def test_factor_is_the_cholesky_factor(self):
        d = oracles.synthesize(self.cfg, self.model, hypothesis="h0", seed=1)
        np.testing.assert_allclose(np.linalg.cholesky(d.scm), d.factor, rtol=1e-12)

    def test_insufficient_training(self):
        with pytest.raises(ValueError):
            sc.ScenarioConfig(N=4, p=1, L=3, pfa=1e-2)

    def test_h0_moments(self):
        R = self.model.build(4)
        A = oracles.herm_sqrt(R)
        rng = np.random.default_rng(10)
        n = 100_000
        w = (rng.standard_normal((n, 4)) + 1j * rng.standard_normal((n, 4))) / np.sqrt(2)
        x = w @ A.T  # rows ~ CN(0, R) since A is symmetric under transpose-conj pairing
        entry = x[:, 1]
        assert abs(entry.mean()) < 4 / np.sqrt(n)
        var = np.mean(np.abs(entry) ** 2)
        assert abs(var - R[1, 1].real) < 0.02 * R[1, 1].real

    def test_h1_mean_envelope(self):
        rng = np.random.default_rng(3)
        s0 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        n = 100_000
        # vectorized re-draw of the synthesize noise model for H1 means
        R = self.model.build(4)
        A = oracles.herm_sqrt(R)
        w = (rng.standard_normal((n, 4)) + 1j * rng.standard_normal((n, 4))) / np.sqrt(2)
        acc = (w @ A.T + s0).mean(axis=0)
        sigma = np.sqrt(np.diag(R).real / n)
        assert np.all(np.abs(acc - s0) < 4 * sigma * np.sqrt(2))

    def test_he_empirical_covariance(self):
        R = self.model.build(4)
        A = oracles.herm_sqrt(R)
        rng = np.random.default_rng(8)
        n = 100_000
        w = (rng.standard_normal((n, 4)) + 1j * rng.standard_normal((n, 4))) / np.sqrt(2)
        x = w @ A.T
        Rhat = (x[:, :, None] * x.conj()[:, None, :]).mean(axis=0)
        assert np.linalg.norm(Rhat - R) < 0.03 * np.linalg.norm(R)

    def test_phe_power_ratio(self):
        cfg = sc.ScenarioConfig(N=4, p=1, L=8, environment="phe", sigma2=2.0, pfa=1e-2)
        d = [oracles.synthesize(cfg, self.model, hypothesis="h0", seed=s) for s in range(2000)]
        test_p = np.mean([np.mean(np.abs(x.test) ** 2) for x in d])
        # tr(S) / (N L) estimates the mean training power per entry
        train_p = np.mean([np.trace(x.scm).real / (cfg.N * cfg.L) for x in d])
        assert abs(test_p / train_p - 2.0) < 0.05 * 2.0

    def test_h1_means_added_only_under_h1(self):
        s0 = np.ones(4, dtype=complex)
        h0 = oracles.synthesize(self.cfg, self.model, signal=s0, hypothesis="h0", seed=2)
        h1 = oracles.synthesize(self.cfg, self.model, signal=s0, hypothesis="h1", seed=2)
        np.testing.assert_allclose(h1.test - h0.test, s0[:, None], atol=1e-12)
