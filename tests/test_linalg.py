import numpy as np
import pytest

import oracles
from adaptivedet import linalg
from adaptivedet.errors import DefinitenessError, RankError
from conftest import crandn, random_hpd


class TestInvSqrt:
    def test_identity(self):
        np.testing.assert_allclose(linalg.inv_sqrt(np.eye(4)), np.eye(4), atol=1e-14)

    def test_diagonal(self):
        T = linalg.inv_sqrt(np.diag([4.0, 9.0]))
        np.testing.assert_allclose(T, np.diag([0.5, 1.0 / 3.0]), atol=1e-14)

    def test_reconstruction(self, rng):
        S = random_hpd(rng, 6)
        T = linalg.inv_sqrt(S)
        resid = np.linalg.norm(T @ S @ T - np.eye(6)) / np.linalg.norm(np.eye(6))
        assert resid < 1e-10

    def test_hermitian_and_commutes(self, rng):
        S = random_hpd(rng, 5)
        T = linalg.inv_sqrt(S)
        assert np.linalg.norm(T - T.conj().T) < 1e-12 * np.linalg.norm(T)
        assert np.linalg.norm(T @ S - S @ T) < 1e-10 * np.linalg.norm(S @ T)

    def test_rejects_indefinite(self):
        with pytest.raises(DefinitenessError):
            linalg.inv_sqrt(np.diag([1.0, -2.0]))
        with pytest.raises(DefinitenessError):
            linalg.inv_sqrt(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_herm_sqrt(self, rng):
        S = random_hpd(rng, 5)
        A = linalg.herm_sqrt(S)
        np.testing.assert_allclose(A @ A, S, rtol=1e-10)


class TestOrthoProjector:
    def test_first_canonical(self):
        e1 = np.zeros((3, 1), dtype=complex)
        e1[0] = 1.0
        np.testing.assert_allclose(oracles.ortho_projector(e1), np.diag([1.0, 0, 0]),
                                   atol=1e-14)

    def test_idempotent_hermitian(self, rng):
        A = crandn(rng, 6, 2)
        P = oracles.ortho_projector(A)
        assert np.linalg.norm(P @ P - P) < 1e-12
        assert np.linalg.norm(P - P.conj().T) < 1e-12
        np.testing.assert_allclose(P @ A, A, atol=1e-12)

    def test_trace_equals_rank(self, rng):
        A = crandn(rng, 5, 2)
        assert abs(np.trace(oracles.ortho_projector(A)).real - 2.0) < 1e-10

    def test_basis_invariance(self, rng):
        A = crandn(rng, 7, 3)
        G = crandn(rng, 3, 3) + 2 * np.eye(3)
        P1 = oracles.ortho_projector(A)
        P2 = oracles.ortho_projector(A @ G)
        assert np.linalg.norm(P1 - P2) < 1e-10

    def test_rank_deficient(self, rng):
        a = crandn(rng, 4)
        A = np.stack([a, 2 * a], axis=1)
        with pytest.raises(RankError):
            oracles.ortho_projector(A)


class TestObliqueProjector:
    def test_orthogonal_subspaces_reduce(self, rng):
        H = np.zeros((5, 2), dtype=complex)
        H[0, 0] = H[1, 1] = 1.0
        J = np.zeros((5, 1), dtype=complex)
        J[3, 0] = 1.0
        np.testing.assert_allclose(oracles.oblique_projector(H, J),
                                   oracles.ortho_projector(H), atol=1e-12)

    def test_defining_properties(self, rng):
        H = crandn(rng, 7, 2)
        J = crandn(rng, 7, 2)
        P = oracles.oblique_projector(H, J)
        assert np.linalg.norm(P @ H - H) < 1e-10 * np.linalg.norm(H)
        assert np.linalg.norm(P @ J) < 1e-10 * np.linalg.norm(J)
        assert np.linalg.norm(P @ P - P) < 1e-10 * max(np.linalg.norm(P), 1)

    def test_overlapping_subspaces(self, rng):
        H = crandn(rng, 5, 2)
        with pytest.raises(RankError):
            oracles.oblique_projector(H, H[:, :1])


class TestMaxEigPair:
    def test_equal_matrices(self, rng):
        B = random_hpd(rng, 4)
        lam, _ = oracles.max_eig_pair(B, B)
        assert abs(lam - 1.0) < 1e-10

    def test_diagonal(self):
        lam, v = oracles.max_eig_pair(np.diag([3.0, 1.0]), np.eye(2))
        assert abs(lam - 3.0) < 1e-12
        assert abs(abs(v[0]) - 1.0) < 1e-12

    def test_residual_and_bisection_oracle(self, rng):
        A0 = crandn(rng, 3, 5)
        A = A0 @ A0.conj().T
        B = random_hpd(rng, 3)
        lam, v = oracles.max_eig_pair(A, B)
        assert np.linalg.norm(A @ v - lam * (B @ v)) <= 1e-9 * np.linalg.norm(A)
        # brute-force largest root of det(A - lam B) by scalar bisection
        def det(l):
            return np.linalg.det(A - l * B).real
        hi = lam + 10.0
        lo = lam - min(1.0, lam) * 0.5
        while det(hi) * det(lo) > 0:
            lo = 0.5 * lo
        a, b = lo, hi
        for _ in range(200):
            mid = 0.5 * (a + b)
            if det(mid) * det(b) <= 0:
                a = mid
            else:
                b = mid
        assert abs(lam - 0.5 * (a + b)) < 1e-8 * max(1.0, lam)

    def test_reduction_invariant(self, rng):
        A0 = crandn(rng, 4, 6)
        A = A0 @ A0.conj().T
        B = random_hpd(rng, 4)
        lam1, _ = oracles.max_eig_pair(A, B)
        T = linalg.inv_sqrt(B)
        lam2, _ = oracles.max_eig_pair(T @ A @ T)
        assert abs(lam1 - lam2) < 1e-9 * max(1.0, abs(lam1))

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError):
            oracles.max_eig_pair(np.eye(3), np.eye(2))
