import numpy as np
import pytest

from adaptivedet import batcheval, detectors
from adaptivedet.detectors import subspace_bank
from adaptivedet.errors import DefinitenessError, RankError
from conftest import crandn, point_b1, random_hpd


def _random_instance(rng, N, p, L):
    x = crandn(rng, N)
    H = crandn(rng, N, p)
    train = crandn(rng, N, L)
    return x, train @ train.conj().T, H


class TestSubspaceBank:
    def test_hand_case(self):
        x = np.array([1.0, 1.0], dtype=complex)
        ps = subspace_bank(x, np.eye(2), np.array([[1.0], [0.0]], dtype=complex))
        assert ps.sglrt == pytest.approx(0.5, abs=1e-14)
        assert ps.srao == pytest.approx(1 / 6, abs=1e-14)
        assert ps.samf == pytest.approx(1.0, abs=1e-14)
        assert ps.asd == pytest.approx(0.5, abs=1e-14)
        assert ps.sabort == pytest.approx(1.0, abs=1e-14)
        assert ps.wsabort == pytest.approx(0.75, abs=1e-14)
        assert ps.dnsamf == pytest.approx(0.25, abs=1e-14)
        assert ps.aed == pytest.approx(2.0, abs=1e-14)
        assert ps.beta == pytest.approx(0.5, abs=1e-14)

    def test_orthogonal_test_data(self, rng):
        # x orthogonal to span(H) in the whitened space: signal terms vanish
        N = 5
        H = np.zeros((N, 2), dtype=complex)
        H[0, 0] = H[1, 1] = 1.0
        x = np.zeros(N, dtype=complex)
        x[3] = 1.7
        x[4] = -0.4 + 0.2j
        ps = subspace_bank(x, np.eye(N), H)
        assert ps.sglrt == ps.srao == ps.samf == ps.asd == 0.0
        assert ps.sabort == pytest.approx(ps.beta, abs=1e-14)
        assert ps.aed == pytest.approx(float(np.real(x.conj() @ x)), rel=1e-12)

    def test_loss_factor_identity_random(self, rng):
        for _ in range(50):
            x, S, H = _random_instance(rng, 8, 2, 16)
            ps = subspace_bank(x, S, H)
            assert ps.samf == pytest.approx(ps.sglrt / ps.beta, rel=1e-12)

    def test_invariant_bounds(self, rng):
        for _ in range(100):
            x, S, H = _random_instance(rng, 6, 3, 12)
            ps = subspace_bank(x, S, H)
            assert ps.samf >= ps.sglrt >= 0.0
            assert 0.0 < ps.beta <= 1.0
            assert 0.0 <= ps.asd <= 1.0
            assert ps.aed >= ps.samf

    def test_asd_scale_invariance(self, rng):
        x, S, H = _random_instance(rng, 6, 2, 12)
        a = subspace_bank(x, S, H).asd
        b = subspace_bank(5.5 * x, S, H).asd
        c = subspace_bank((0.1 - 2.0j) * x, S, H).asd
        assert a == pytest.approx(b, rel=1e-12)
        assert a == pytest.approx(c, rel=1e-12)

    def test_monotone_transform_preserves_ranking(self, rng):
        vals = []
        for _ in range(200):
            x, S, H = _random_instance(rng, 6, 2, 12)
            vals.append(subspace_bank(x, S, H).sglrt)
        vals = np.asarray(vals)
        mapped = vals / (1.0 + vals)
        assert np.array_equal(np.argsort(vals), np.argsort(mapped))


class TestInputChecks:
    """The kernels check their outside input in ``prepare_*``, from the
    Cholesky and QR factors they compute anyway; the two single-instance
    banks also reject a non-Hermitian covariance."""

    N, p = 5, 2

    def _case(self, rng, stacked):
        """``(S, H, J, s)`` of two trials, with the geometry shared or stacked."""
        lead = (2,) if stacked else ()
        train = crandn(rng, 2, self.N, 2 * self.N)
        return (train @ train.conj().transpose(0, 2, 1), crandn(rng, *lead, self.N, self.p),
                crandn(rng, *lead, self.N, 1), crandn(rng, *lead, self.N))

    @staticmethod
    def _prepare(family, S, H, J, s):
        if family == "point":
            return batcheval.prepare_point(S, H, J, s)
        return batcheval.prepare_distributed(S, s, H, 10)

    @staticmethod
    def _spoil(A, stacked, row):
        """``A`` with ``row`` put in place of its last entry along the
        geometry axis, in the second trial only when stacked."""
        A = A.copy()
        if stacked:
            A[1, ..., -1] = row[1]
        else:
            A[..., -1] = row
        return A

    @pytest.mark.parametrize("family", ["point", "distributed"])
    @pytest.mark.parametrize("stacked", [False, True])
    def test_indefinite_covariance(self, family, stacked, rng):
        S, H, J, s = self._case(rng, stacked)
        with pytest.raises(DefinitenessError):
            self._prepare(family, -S, H, J, s)

    @pytest.mark.parametrize("family", ["point", "distributed"])
    @pytest.mark.parametrize("stacked", [False, True])
    def test_dependent_subspace_column(self, family, stacked, rng):
        S, H, J, s = self._case(rng, stacked)
        low = self._spoil(H, stacked, 2 * H[..., 0])
        with pytest.raises(RankError):
            self._prepare(family, S, low, J, s)

    @pytest.mark.parametrize("stacked", [False, True])
    def test_interference_inside_signal_subspace(self, stacked, rng):
        S, H, J, s = self._case(rng, stacked)
        inside = self._spoil(J, stacked, H[..., 0] - 0.5j * H[..., 1])
        with pytest.raises(RankError):
            self._prepare("point", S, H, inside, s)

    @pytest.mark.parametrize("family", ["point", "distributed"])
    @pytest.mark.parametrize("stacked", [False, True])
    def test_steering_must_be_nonzero(self, family, stacked, rng):
        S, H, J, s = self._case(rng, stacked)
        zero = 0 * s
        if stacked:
            zero[0] = s[0]  # only the second trial's s is zero
        with pytest.raises(ValueError, match="nonzero"):
            self._prepare(family, S, H, J, zero)

    def test_banks_reject_non_hermitian_covariance(self, rng):
        x, S, H = _random_instance(rng, 5, 2, 10)
        for bad in (-S, S + np.triu(np.ones((5, 5)), 1)):
            for bank in (lambda: subspace_bank(x, bad, H),
                         lambda: detectors.interference_bank(x, bad, H, None)):
                with pytest.raises(DefinitenessError):
                    bank()

    def test_banks_check_subspace_rank(self, rng):
        x, S, H = _random_instance(rng, 5, 2, 10)
        with pytest.raises(RankError):
            subspace_bank(x, S, np.stack([H[:, 0], 2 * H[:, 0]], axis=1))
        with pytest.raises(RankError):
            detectors.interference_bank(x, S, H, H[:, :1])


class TestRankOneBank:
    """The p = 1 bank: the point kernel given a steering vector ``s``."""

    def test_matches_subspace_specialization(self, rng):
        for _ in range(25):
            x, S, _ = _random_instance(rng, 7, 1, 14)
            s = crandn(rng, 7)
            rs = point_b1(x, S, s[:, None], s=s)
            ps = subspace_bank(x, S, s[:, None])
            assert rs["kglrt"] == pytest.approx(ps.sglrt, rel=1e-12)
            assert rs["amf"] == pytest.approx(ps.samf, rel=1e-12)
            assert rs["dmrao"] == pytest.approx(ps.srao, rel=1e-12)
            assert rs["ace"] == pytest.approx(ps.asd, rel=1e-12)

    def test_hand_case(self):
        x = np.array([1.0, 1.0], dtype=complex)
        s = np.array([1.0, 0.0], dtype=complex)
        rs = point_b1(x, np.eye(2), s[:, None], s=s)
        assert (rs["kglrt"], rs["amf"], rs["dmrao"], rs["ace"], rs["smi"]) == \
            pytest.approx((0.5, 1.0, 1 / 6, 0.5, 1.0), abs=1e-14)

    def test_smi_weight_constraint(self, rng):
        """The SMI weight ``w = S^-1 s / (s^H S^-1 s)`` passes ``s`` with unit
        gain, and the SMI statistic is the power of its output, ``|w^H x|^2``."""
        for _ in range(25):
            x, S, _ = _random_instance(rng, 6, 1, 12)
            s = crandn(rng, 6)
            Si_s = np.linalg.solve(S, s)
            w = Si_s / np.real(s.conj() @ Si_s)
            assert abs(w.conj() @ s - 1.0) < 1e-10
            assert point_b1(x, S, s[:, None], s=s)["smi"] == pytest.approx(
                abs(w.conj() @ x) ** 2, rel=1e-10)

    def test_zero_steering_rejected(self, rng):
        with pytest.raises(ValueError):
            point_b1(crandn(rng, 4), np.eye(4), crandn(rng, 4, 1), s=np.zeros(4, dtype=complex))


class TestClairvoyantBank:
    """The known-covariance pair: the point kernel given the true ``R``."""

    def test_projection_case(self):
        x = np.array([3.0, 4.0], dtype=complex)
        H = np.array([[1.0], [0.0]], dtype=complex)
        cs = point_b1(x, np.eye(2), H, s=H[:, 0], R=np.eye(2))
        assert cs["smf"] == pytest.approx(9.0, abs=1e-12)
        assert cs["mf"] == pytest.approx(9.0, abs=1e-12)

    def test_white_noise_mvdr(self, rng):
        s = crandn(rng, 5)
        w_mvdr = batcheval.prepare_point(np.eye(5)[None], s[:, None], s=s, R=np.eye(5)).W[-1].conj()
        np.testing.assert_allclose(w_mvdr, s / float(np.real(s.conj() @ s)), rtol=1e-12)

    def test_formula_substitution_oracle(self, rng):
        # smf equals the subspace Wald statistic with the true covariance in
        # place of the sample covariance
        x = crandn(rng, 6)
        H = crandn(rng, 6, 2)
        R = random_hpd(rng, 6)
        cs = point_b1(x, R, H, R=R)
        ps = subspace_bank(x, R, H)
        assert cs["smf"] == pytest.approx(ps.samf, rel=1e-10)
