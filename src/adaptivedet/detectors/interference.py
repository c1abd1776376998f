"""Detector statistics with coherent subspace interference rejection.

The test data may contain, besides the wanted signal in span(H), a
deterministic jamming component in a known subspace span(J).  The bank
projects the whitened data onto the orthocomplement of the whitened J before
matching, and the Wald pair uses the oblique projector onto H along J.
"""

from dataclasses import dataclass

import numpy as np

from .. import linalg


@dataclass(frozen=True)
class InterferenceStats:
    glrt_he_i: float
    ts_glrt_he_i: float
    glrt_phe_i: float
    rao_he_i: float
    ts_rao_he_i: float
    rao_phe_i: float
    wald_he_i: float
    wald_phe_i: float
    beta_i: float


@dataclass(frozen=True)
class InterferenceGeometry:
    """Noncentrality split of a signal against the (H, J) pair: the effective
    SNR surviving interference rejection, and the rejected/mismatched rest."""

    rho_eff: float
    delta2_i: float


def _empty_like(J, N):
    if J is None:
        return np.zeros((N, 0), dtype=np.complex128)
    return np.asarray(J, dtype=np.complex128)


def interference_bank(x, S, H, J) -> InterferenceStats:
    """All eight interference-rejection statistics plus the loss factor.

    With an empty ``J`` the bank reduces exactly to the corresponding
    point-target statistics.  ``wald_phe_i`` is nan when [H J] fills the
    space (p + q = N): the orthocomplement that normalizes it is empty.
    """
    x = np.asarray(x, dtype=np.complex128)
    H = np.asarray(H, dtype=np.complex128)
    N = x.shape[0]
    J = _empty_like(J, N)
    if J.shape[1]:
        linalg.orthonormal_basis(np.concatenate([H, J], axis=1))
    T = linalg.inv_sqrt(S)
    xt = T @ x
    Ht = T @ H
    Jt = T @ J
    QJ = linalg.orthonormal_basis(Jt)
    x_perp = xt - QJ @ (QJ.conj().T @ xt)
    H_perp = Ht - QJ @ (QJ.conj().T @ Ht)
    QHp = linalg.orthonormal_basis(H_perp)
    u = float(np.sum(np.abs(QHp.conj().T @ x_perp) ** 2))
    v = float(np.real(x_perp.conj() @ x_perp))
    denom = 1.0 + v - u
    QH = linalg.orthonormal_basis(Ht)
    a = float(np.sum(np.abs(QH.conj().T @ x_perp) ** 2))
    coords = np.linalg.solve(Ht.conj().T @ H_perp, H_perp.conj().T @ xt)
    y = Ht @ coords
    wald_he = float(np.real(y.conj() @ y))
    wald_phe = np.nan
    if H.shape[1] + J.shape[1] < N:
        QB = linalg.orthonormal_basis(np.concatenate([Ht, Jt], axis=1))
        v_b = float(np.real(xt.conj() @ xt)) - float(np.sum(np.abs(QB.conj().T @ xt) ** 2))
        wald_phe = wald_he / v_b if v_b > 0 else 0.0
    return InterferenceStats(
        glrt_he_i=u / denom,
        ts_glrt_he_i=u,
        glrt_phe_i=u / v if v > 0 else 0.0,
        rao_he_i=a / ((1.0 + v) * (1.0 + v - a)),
        ts_rao_he_i=a,
        rao_phe_i=a / v if v > 0 else 0.0,
        wald_he_i=wald_he,
        wald_phe_i=wald_phe,
        beta_i=1.0 / denom,
    )


def mismatch_geometry(s0, R, H, J) -> InterferenceGeometry:
    """Effective SNR and loss-factor noncentrality of an actual signal.

    Both quantities are energies in the true-covariance whitened space:
    the part of the J-orthogonalized signal matched by the J-orthogonalized
    nominal subspace, and the remainder.
    """
    s0 = np.asarray(s0, dtype=np.complex128)
    H = np.asarray(H, dtype=np.complex128)
    N = s0.shape[0]
    J = _empty_like(J, N)
    if J.shape[1]:
        linalg.orthonormal_basis(np.concatenate([H, J], axis=1))
    T = linalg.inv_sqrt(R)
    sb = T @ s0
    Hb = T @ H
    Jb = T @ J
    QJ = linalg.orthonormal_basis(Jb)
    s_perp = sb - QJ @ (QJ.conj().T @ sb)
    H_perp = Hb - QJ @ (QJ.conj().T @ Hb)
    QHp = linalg.orthonormal_basis(H_perp)
    rho_eff = float(np.sum(np.abs(QHp.conj().T @ s_perp) ** 2))
    delta2 = float(np.real(s_perp.conj() @ s_perp)) - rho_eff
    return InterferenceGeometry(rho_eff=rho_eff, delta2_i=max(delta2, 0.0))
