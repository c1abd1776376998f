import re
from pathlib import Path

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
        A = oracles.herm_sqrt(S)
        np.testing.assert_allclose(A @ A, S, rtol=1e-10)


class TestWhitener:
    """The one whitening of ``src/``: the inverse Cholesky factor by forward
    substitution, for a stacked or a single Hermitian positive definite S."""

    @pytest.mark.parametrize("N", [1, 4, 12])
    def test_whitens_lower_triangular_and_stack_free(self, N, rng):
        S = np.stack([random_hpd(rng, N) for _ in range(5)])
        T = linalg.whitener(S)
        single = [linalg.whitener(S_b) for S_b in S]
        for T_b in (T, *single):
            assert np.array_equal(T_b, np.tril(T_b))
        white = T @ S @ T.conj().transpose(0, 2, 1)
        assert np.abs(white - np.eye(N)).max() <= 1e-13
        for T_b, single_b in zip(T, single):
            assert T_b.tobytes() == single_b.tobytes()

    @pytest.mark.parametrize("N", [1, 4, 12])
    def test_lower_inverse_takes_a_single_factor(self, N, rng):
        A = np.linalg.cholesky(random_hpd(rng, N))
        X = linalg.lower_inverse(A)
        assert X.shape == (N, N)
        assert X.tobytes() == linalg.lower_inverse(A[None])[0].tobytes()
        np.testing.assert_allclose(X @ A, np.eye(N), atol=1e-13)

    def test_rejects_indefinite(self):
        with pytest.raises(DefinitenessError):
            linalg.whitener(np.diag([1.0, -2.0]))
        with pytest.raises(DefinitenessError):
            linalg.whitener(np.stack([np.eye(2), np.diag([1.0, 0.0])]))


# eigen square roots and a general inverse: only linalg itself and the single-
# instance banks of detectors.py may use them; every other covariance is
# whitened by linalg.whitener or linalg.lower_inverse
FORBIDDEN = re.compile(r"np\.linalg\.inv\(|inv_sqrt\(|herm_sqrt\(|hermitian_pd_eigh\(")
EXEMPT = {"linalg.py", "detectors.py"}


def test_src_whitens_only_through_the_cholesky_factor():
    src = Path(linalg.__file__).resolve().parent
    found = [f"{path.relative_to(src)}:{n}: {line.strip()}"
             for path in sorted(src.rglob("*.py")) if path.name not in EXEMPT
             for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
             if FORBIDDEN.search(line)]
    assert not found, found


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
