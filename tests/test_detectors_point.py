import numpy as np
import pytest

from adaptivedet import detectors
from adaptivedet.detectors import clairvoyant_bank, rank_one_bank, subspace_bank
from adaptivedet.errors import DefinitenessError, RankError
from conftest import crandn, random_hpd


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
    """Every bank checks the outside input before the batched kernel runs."""

    def test_covariance_must_be_hermitian_positive_definite(self, rng):
        x, S, H = _random_instance(rng, 5, 2, 10)
        X = crandn(rng, 5, 3)
        for bad in (-S, S + np.triu(np.ones((5, 5)), 1)):
            for call in (lambda: subspace_bank(x, bad, H),
                         lambda: detectors.interference_bank(x, bad, H, None),
                         lambda: detectors.distributed_rank1_he(X, bad, H[:, 0]),
                         lambda: detectors.dos_bank(X, bad, H)):
                with pytest.raises(DefinitenessError):
                    call()

    def test_subspaces_must_have_full_rank(self, rng):
        x, S, H = _random_instance(rng, 5, 2, 10)
        low = np.stack([H[:, 0], 2 * H[:, 0]], axis=1)
        with pytest.raises(RankError):
            subspace_bank(x, S, low)
        with pytest.raises(RankError):
            detectors.direction_bank(crandn(rng, 5, 3), S, low)
        with pytest.raises(RankError):
            detectors.interference_bank(x, S, H, H[:, :1])

    def test_steering_must_be_nonzero(self, rng):
        x, S, _ = _random_instance(rng, 5, 1, 10)
        zero = np.zeros(5, dtype=complex)
        with pytest.raises(ValueError, match="nonzero"):
            detectors.distributed_rank1_phe(crandn(rng, 5, 2), S, zero, 10)


class TestRankOneBank:
    def test_matches_subspace_specialization(self, rng):
        for _ in range(25):
            x, S, _ = _random_instance(rng, 7, 1, 14)
            s = crandn(rng, 7)
            rs = rank_one_bank(x, S, s)
            ps = subspace_bank(x, S, s[:, None])
            assert rs.kglrt == ps.sglrt
            assert rs.amf == ps.samf
            assert rs.dmrao == ps.srao
            assert rs.ace == ps.asd

    def test_hand_case(self):
        x = np.array([1.0, 1.0], dtype=complex)
        rs = rank_one_bank(x, np.eye(2), np.array([1.0, 0.0], dtype=complex))
        assert (rs.kglrt, rs.amf, rs.dmrao, rs.ace, rs.smi) == \
            pytest.approx((0.5, 1.0, 1 / 6, 0.5, 1.0), abs=1e-14)

    def test_smi_weight_constraint(self, rng):
        for _ in range(25):
            x, S, _ = _random_instance(rng, 6, 1, 12)
            s = crandn(rng, 6)
            rs = rank_one_bank(x, S, s)
            assert abs(rs.w_smi.conj() @ s - 1.0) < 1e-10

    def test_zero_steering_rejected(self, rng):
        with pytest.raises(ValueError):
            rank_one_bank(crandn(rng, 4), np.eye(4), np.zeros(4, dtype=complex))


class TestClairvoyantBank:
    def test_projection_case(self):
        x = np.array([3.0, 4.0], dtype=complex)
        cs = clairvoyant_bank(x, np.eye(2), np.array([[1.0], [0.0]], dtype=complex))
        assert cs.smf == pytest.approx(9.0, abs=1e-12)
        assert cs.mf == pytest.approx(9.0, abs=1e-12)

    def test_white_noise_mvdr(self, rng):
        s = crandn(rng, 5)
        cs = clairvoyant_bank(crandn(rng, 5), np.eye(5), s[:, None])
        np.testing.assert_allclose(cs.w_mvdr, s / float(np.real(s.conj() @ s)),
                                   rtol=1e-12)

    def test_formula_substitution_oracle(self, rng):
        # smf equals the subspace Wald statistic with the true covariance in
        # place of the sample covariance
        x = crandn(rng, 6)
        H = crandn(rng, 6, 2)
        R = random_hpd(rng, 6)
        cs = clairvoyant_bank(x, R, H)
        ps = subspace_bank(x, R, H)
        assert cs.smf == pytest.approx(ps.samf, rel=1e-10)
