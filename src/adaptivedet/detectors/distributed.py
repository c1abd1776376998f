"""Distributed-target detector statistics.

Rank-one homogeneous and partially homogeneous banks (including the noise
power-mismatch root solver), direction detectors for subspace-constrained
steering, and the double-subspace GLRT/Rao/Wald trio.
"""

from dataclasses import dataclass

import numpy as np

from .. import batcheval, linalg


@dataclass(frozen=True)
class DistributedHEStats:
    gkglrt: float
    gamf: float
    rao_he: float


@dataclass(frozen=True)
class DistributedPHEStats:
    glrt_phe: float
    gasd: float
    rao_phe: float
    wald_phe: float
    sigma0_hat: float
    sigma1_hat: float


@dataclass(frozen=True)
class DistributedStats:
    """Combined rank-one distributed bank (HE and PHE statistics)."""

    gkglrt: float
    gamf: float
    rao_he: float
    glrt_phe: float
    gasd: float
    rao_phe: float
    wald_phe: float
    sigma0_hat: float
    sigma1_hat: float


@dataclass(frozen=True)
class DirectionStats:
    glrdd: float
    amdd: float
    snrdd: float
    gadd: float
    theta_max: np.ndarray


@dataclass(frozen=True)
class DosStats:
    glrt_dos: float
    rao_dos: float
    wald_dos: float


def _whitened(X, S, s):
    T = linalg.inv_sqrt(S)
    Xt = T @ np.asarray(X, dtype=np.complex128)
    st = T @ np.asarray(s, dtype=np.complex128)
    return Xt, st


def distributed_rank1_he(X, S, s) -> DistributedHEStats:
    """GLRT, 2S-GLRT (generalized AMF), and Rao statistics in the
    homogeneous environment for an N x K test block."""
    X = np.asarray(X, dtype=np.complex128)
    S = np.asarray(S, dtype=np.complex128)
    s = np.asarray(s, dtype=np.complex128)
    N, K = X.shape
    Xt, st = _whitened(X, S, s)
    ss = float(np.real(st.conj() @ st))
    c = Xt.conj().T @ st
    G0 = Xt.conj().T @ Xt
    num = float(np.real(c.conj() @ np.linalg.solve(np.eye(K) + G0, c)))
    gkglrt = num / (ss - num)
    gamf = float(np.real(c.conj() @ c)) / ss
    M = S + X @ X.conj().T
    Mi_s = np.linalg.solve(M, s)
    Mi_X = np.linalg.solve(M, X)
    rao_he = float(np.real(
        (s.conj() @ Mi_X) @ (Mi_X.conj().T @ s)
    )) / float(np.real(s.conj() @ Mi_s))
    return DistributedHEStats(gkglrt=gkglrt, gamf=gamf, rao_he=rao_he)


def rao_he_recast(X, S, s) -> float:
    """Whitened-space recast of the HE Rao statistic (matrix-inversion-lemma
    form); agrees with :func:`distributed_rank1_he` to rounding error."""
    X = np.asarray(X, dtype=np.complex128)
    N, K = X.shape
    Xt, st = _whitened(X, S, s)
    ss = float(np.real(st.conj() @ st))
    G0 = Xt.conj().T @ Xt
    c = Xt.conj().T @ st
    G1 = G0 - np.outer(c, c.conj()) / ss
    inner = np.linalg.solve(np.eye(K) + G1, np.linalg.solve(np.eye(K) + G0, c))
    return float(np.real(c.conj() @ inner)) / ss


def solve_sigma(eigs, target: float) -> float:
    """Root of ``sum_k lam_k / (lam_k + sigma^2) = target``: one row of
    :func:`adaptivedet.batcheval.solve_sigma_batch`.

    Eigenvalues at or below ``1e-12`` times the largest are treated as
    zero; the left side decreases strictly from the count of positive
    eigenvalues to zero, so the root exists iff ``0 < target < count``.
    """
    return float(batcheval.solve_sigma_batch(np.reshape(eigs, (1, -1)), target)[0])


def distributed_rank1_phe(X, S, s, L: int) -> DistributedPHEStats:
    """Partially homogeneous rank-one bank with the power-mismatch MLEs.

    ``L`` is the number of training vectors behind ``S``; the solvability
    precondition is ``N K / (L + K)`` below the positive-eigenvalue counts of
    the data Gram matrices.
    """
    X = np.asarray(X, dtype=np.complex128)
    S = np.asarray(S, dtype=np.complex128)
    s = np.asarray(s, dtype=np.complex128)
    N, K = X.shape
    Xt, st = _whitened(X, S, s)
    ss = float(np.real(st.conj() @ st))
    c = Xt.conj().T @ st
    G0 = Xt.conj().T @ Xt
    G1 = G0 - np.outer(c, c.conj()) / ss
    target = N * K / (L + K)
    sigma0 = solve_sigma(np.clip(np.linalg.eigvalsh(G0).real, 0.0, None), target)
    sigma1 = solve_sigma(np.clip(np.linalg.eigvalsh(G1).real, 0.0, None), target)
    exponent = N * K / (L + K)
    num = sigma0 ** exponent * float(np.real(np.linalg.det(np.eye(K) + G0 / sigma0)))
    den = sigma1 ** exponent * float(np.real(np.linalg.det(np.eye(K) + G1 / sigma1)))
    glrt_phe = num / den
    gasd = float(np.real(c.conj() @ c)) / (ss * float(np.real(np.trace(G0))))

    R0 = (S + X @ X.conj().T / sigma0) / (L + K)
    R0i_s = np.linalg.solve(R0, s)
    rao_phe = float(np.real(
        (s.conj() @ np.linalg.solve(R0, X)) @ (X.conj().T @ R0i_s)
    )) / float(np.real(s.conj() @ R0i_s)) / sigma0

    A = linalg.herm_sqrt(S)
    P_perp = np.eye(N) - np.outer(st, st.conj()) / ss
    Z = P_perp @ Xt
    R1 = A @ (np.eye(N) + Z @ Z.conj().T / sigma1) @ A / (L + K)
    R1i_s = np.linalg.solve(R1, s)
    wald_phe = float(np.real(
        (s.conj() @ np.linalg.solve(R1, X)) @ (X.conj().T @ R1i_s)
    )) / float(np.real(s.conj() @ R1i_s)) / sigma1
    return DistributedPHEStats(
        glrt_phe=glrt_phe, gasd=gasd, rao_phe=rao_phe, wald_phe=wald_phe,
        sigma0_hat=sigma0, sigma1_hat=sigma1,
    )


def distributed_bank(X, S, s, L: int) -> DistributedStats:
    """Convenience wrapper evaluating the HE and PHE banks together."""
    he = distributed_rank1_he(X, S, s)
    phe = distributed_rank1_phe(X, S, s, L)
    return DistributedStats(
        gkglrt=he.gkglrt, gamf=he.gamf, rao_he=he.rao_he,
        glrt_phe=phe.glrt_phe, gasd=phe.gasd, rao_phe=phe.rao_phe,
        wald_phe=phe.wald_phe, sigma0_hat=phe.sigma0_hat, sigma1_hat=phe.sigma1_hat,
    )


def direction_bank(X, S, H) -> DirectionStats:
    """Direction detectors: the steering vector is known only to lie in
    span(H), so the statistics maximize over that subspace via eigenpairs."""
    X = np.asarray(X, dtype=np.complex128)
    H = np.asarray(H, dtype=np.complex128)
    N, K = X.shape
    T = linalg.inv_sqrt(S)
    Xt = T @ X
    Ht = T @ H
    Q = linalg.orthonormal_basis(Ht)
    W = Q.conj().T @ Xt                      # p x K
    A = W.conj().T @ W                       # X~^H P_H~ X~
    G0 = Xt.conj().T @ Xt
    amdd, _ = linalg.max_eig_pair(A)
    glrdd, _ = linalg.max_eig_pair(A, np.eye(K) + G0)
    gadd = amdd / float(np.real(np.trace(G0)))
    HX = Ht.conj().T @ Xt                    # p x K
    Ap = HX @ np.linalg.solve(np.eye(K) + G0, HX.conj().T)
    Bp = Ht.conj().T @ Ht
    _, theta = linalg.max_eig_pair(Ap, Bp)
    y = HX.conj().T @ theta
    snrdd = float(np.real(y.conj() @ y)) / float(np.real(theta.conj() @ Bp @ theta))
    return DirectionStats(glrdd=float(glrdd), amdd=float(amdd),
                          snrdd=snrdd, gadd=float(gadd), theta_max=theta)


def dos_bank(X, S, H) -> DosStats:
    """GLRT, Rao, and Wald statistics for a matrix signal with column
    structure in span(H) (double-subspace model with identity row structure)."""
    X = np.asarray(X, dtype=np.complex128)
    S = np.asarray(S, dtype=np.complex128)
    H = np.asarray(H, dtype=np.complex128)
    N, K = X.shape
    T = linalg.inv_sqrt(S)
    Xt = T @ X
    Ht = T @ H
    Q = linalg.orthonormal_basis(Ht)
    W = Q.conj().T @ Xt
    G0 = Xt.conj().T @ Xt
    IK = np.eye(K)
    glrt_dos = float(np.real(np.linalg.det(IK + G0))) / float(
        np.real(np.linalg.det(IK + G0 - W.conj().T @ W)))
    wald_dos = float(np.real(np.trace(W.conj().T @ W)))
    M = S + X @ X.conj().T
    Mi_H = np.linalg.solve(M, H)
    G = H.conj().T @ Mi_H
    B = X.conj().T @ Mi_H
    rao_dos = float(np.real(np.trace(B @ np.linalg.solve(G, B.conj().T))))
    return DosStats(glrt_dos=glrt_dos, rao_dos=rao_dos, wald_dos=wald_dos)
