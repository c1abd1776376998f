"""Vectorized (stacked-trial) evaluation of the detector banks.

The per-instance functions in :mod:`adaptivedet.detectors` are the normative
definitions; this module recomputes the same statistics for a whole batch of
trials (point geometry shared or stacked per trial) with stacked LAPACK calls
so Monte Carlo runs and the identity suite stay fast.  Each family splits
into ``prepare_*`` (everything that depends only on the training SCM and the
geometry) and ``evaluate_*`` (the test-data part), so one prepared batch
serves any number of test means.  Consistency between the two paths is
enforced by the test suite.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleError
from .roots import find_root

POINT_FAMILY = frozenset({
    "sglrt", "srao", "samf", "asd", "sabort", "wsabort", "dnsamf", "aed", "beta",
    "kglrt", "amf", "dmrao", "ace", "smi",
    "glrt_he_i", "ts_glrt_he_i", "glrt_phe_i", "rao_he_i", "ts_rao_he_i",
    "rao_phe_i", "wald_he_i", "wald_phe_i", "beta_i",
    "smf", "mf",
})
DISTRIBUTED_FAMILY = frozenset({
    "gkglrt", "gamf", "rao_he", "glrt_phe", "gasd", "rao_phe", "wald_phe",
    "glrdd", "amdd", "snrdd", "gadd",
    "glrt_dos", "rao_dos", "wald_dos",
})
ALL_DETECTORS = POINT_FAMILY | DISTRIBUTED_FAMILY


def _ct(a):
    return np.conj(np.swapaxes(a, -2, -1))


def _inv_sqrt_stack(S):
    w, V = np.linalg.eigh(S)
    return (V * (1.0 / np.sqrt(w))[..., None, :]) @ _ct(V)


def _basis(A):
    return np.linalg.qr(A)[0]


def _energy(Q, x):
    """|Q^H x|^2 summed over basis columns; Q (B,N,p), x (B,N) -> (B,)."""
    proj = np.einsum("bnp,bn->bp", Q.conj(), x)
    return np.einsum("bp,bp->b", proj.conj(), proj).real


@dataclass(frozen=True)
class PointPrepared:
    """Point-family state that depends only on the training SCM and geometry.

    ``T`` whitens by S^-1/2; ``QH``/``QHp``/``QB`` are orthonormal bases of the
    whitened H, of H with the whitened J projected out, and of [H J];
    ``QJ`` is None without interference and ``QB`` is None when [H J] fills
    the space (p + q = N).  ``Ri_H``/``G``/``Ri_s`` carry the
    clairvoyant references and are None without a true covariance.
    """

    T: np.ndarray
    Ht: np.ndarray
    QH: np.ndarray
    st: np.ndarray
    ss: np.ndarray
    QJ: np.ndarray
    Hp: np.ndarray
    QHp: np.ndarray
    QB: np.ndarray
    HtHp: np.ndarray
    Ri_H: np.ndarray = None
    G: np.ndarray = None
    Ri_s: np.ndarray = None
    s_energy: float = None


def prepare_point(S, H, J=None, s=None, R=None) -> PointPrepared:
    """The test-independent half of :func:`point_family_stats`.

    ``S`` is (B, N, N); ``H`` (N, p) or (B, N, p), ``J`` (N, q) or (B, N, q)
    and ``s`` (N,) or (B, N) are shared or stacked per trial.  The true
    covariance ``R`` (clairvoyant references) needs shared geometry.
    """
    N = S.shape[-1]
    H = np.asarray(H, dtype=np.complex128)
    J = np.zeros((N, 0), dtype=np.complex128) if J is None else np.asarray(J, dtype=np.complex128)
    s = H[..., 0] if s is None else np.asarray(s, dtype=np.complex128)

    T = _inv_sqrt_stack(S)
    Ht = T @ H
    QH = _basis(Ht)
    st = np.einsum("...ij,...j->...i", T, s)
    ss = np.einsum("bn,bn->b", st.conj(), st).real
    if J.shape[-1]:
        Jt = T @ J
        QJ = _basis(Jt)
        Hp = Ht - QJ @ (_ct(QJ) @ Ht)
        QHp = _basis(Hp)
        QB = _basis(np.concatenate([Ht, Jt], axis=-1))
    else:
        QJ, Hp, QHp, QB = None, Ht, QH, QH
    if H.shape[-1] + J.shape[-1] >= N:
        QB = None
    prep = dict(T=T, Ht=Ht, QH=QH, st=st, ss=ss, QJ=QJ, Hp=Hp, QHp=QHp, QB=QB,
                HtHp=_ct(Ht) @ Hp)
    if R is not None:
        R = np.asarray(R, dtype=np.complex128)
        Ri_s = np.linalg.solve(R, s)
        Ri_H = np.linalg.solve(R, H)
        prep.update(Ri_H=Ri_H, G=H.conj().T @ Ri_H, Ri_s=Ri_s,
                    s_energy=float(np.real(s.conj() @ Ri_s)))
    return PointPrepared(**prep)


def evaluate_point(prep: PointPrepared, x) -> dict:
    """All point-family statistics of the stacked test vectors ``x`` (B, N).

    ``wald_phe_i`` is nan when [H J] fills the space (p + q = N): its
    normalizing orthocomplement is empty there.
    """
    x = np.asarray(x)
    T, QH, st, ss = prep.T, prep.QH, prep.st, prep.ss
    xt = np.einsum("bij,bj->bi", T, x)
    u = _energy(QH, xt)
    v = np.einsum("bn,bn->b", xt.conj(), xt).real
    denom = 1.0 + v - u
    safe_v = np.where(v > 0, v, 1.0)
    out = {
        "sglrt": u / denom,
        "srao": u / ((1.0 + v) * denom),
        "samf": u,
        "asd": np.where(v > 0, u / safe_v, 0.0),
        "sabort": (1.0 + u) / denom,
        "wsabort": (1.0 + v) / denom ** 2,
        "dnsamf": np.where(v > 0, u / (safe_v * denom), 0.0),
        "aed": v,
        "beta": 1.0 / denom,
    }

    cs = np.einsum("bn,bn->b", st.conj(), xt)
    u1 = np.abs(cs) ** 2 / ss
    denom1 = 1.0 + v - u1
    out.update({
        "kglrt": u1 / denom1,
        "amf": u1,
        "dmrao": u1 / ((1.0 + v) * denom1),
        "ace": np.where(v > 0, u1 / safe_v, 0.0),
        "smi": u1 / ss,
    })

    QJ = prep.QJ
    if QJ is not None:
        xp = xt - np.einsum("bnq,bq->bn", QJ, np.einsum("bnq,bn->bq", QJ.conj(), xt))
    else:
        xp = xt
    ui = _energy(prep.QHp, xp)
    vi = np.einsum("bn,bn->b", xp.conj(), xp).real
    denom_i = 1.0 + vi - ui
    a = _energy(QH, xp)
    coords = np.linalg.solve(prep.HtHp, np.einsum("bnp,bn->bp", prep.Hp.conj(), xt)[..., None])
    y = np.einsum("bnp,bp->bn", prep.Ht, coords[..., 0])
    wald_he = np.einsum("bn,bn->b", y.conj(), y).real
    if prep.QB is not None:
        v_b = v - _energy(prep.QB, xt)
        wald_phe = wald_he / np.maximum(v_b, np.finfo(float).tiny)
    else:
        wald_phe = np.full_like(wald_he, np.nan)
    safe_vi = np.where(vi > 0, vi, 1.0)
    out.update({
        "glrt_he_i": ui / denom_i,
        "ts_glrt_he_i": ui,
        "glrt_phe_i": np.where(vi > 0, ui / safe_vi, 0.0),
        "rao_he_i": a / ((1.0 + vi) * (1.0 + vi - a)),
        "ts_rao_he_i": a,
        "rao_phe_i": np.where(vi > 0, a / safe_vi, 0.0),
        "wald_he_i": wald_he,
        "wald_phe_i": wald_phe,
        "beta_i": 1.0 / denom_i,
    })

    if prep.Ri_H is not None:
        Ri_H = prep.Ri_H
        coef = np.linalg.solve(prep.G, np.einsum("np,bn->bp", Ri_H.conj(), x).T).T
        smf = np.einsum("bp,bp->b", np.einsum("np,bn->bp", Ri_H.conj(), x).conj(), coef).real
        out["smf"] = smf
        out["mf"] = np.abs(np.einsum("n,bn->b", prep.Ri_s.conj(), x)) ** 2 / prep.s_energy ** 2
    return out


def point_family_stats(x, S, H, J=None, s=None, R=None):
    """All point-family statistics for stacked trials.

    ``x`` is (B, N), ``S`` is (B, N, N); the geometry (H, J, s) is shared
    or stacked per trial as in :func:`prepare_point`.
    """
    return evaluate_point(prepare_point(S, H, J, s, R), x)


def solve_sigma_batch(eigs, target: float):
    """Root ``sigma^2`` of ``sum_k lam_k / (lam_k + sigma^2) = target``, row by row.

    ``eigs`` is (B, r); negative entries count as zero, and so do entries at
    or below ``1e-12`` times the row's largest.  The left side decreases
    strictly from the row's count of positive eigenvalues to zero, so a root
    exists iff ``0 < target < count``.  It lies between ``lam_min (count -
    target) / target`` (halved for rounding) and ``trace / target``, where
    the left side is at least ``count lam_min / (lam_min + sigma^2)`` and
    below ``trace / sigma^2``.
    """
    eigs = np.clip(np.asarray(eigs, dtype=float), 0.0, None)
    top = eigs.max(axis=1, initial=0.0)
    if np.any(top <= 0):
        raise InfeasibleError("every trial needs a positive eigenvalue")
    eigs = np.where(eigs > 1e-12 * top[:, None], eigs, 0.0)
    counts = (eigs > 0).sum(axis=1)
    if np.any(counts <= target) or target <= 0:
        raise InfeasibleError("root target outside the feasible range for some trial")

    def f(s2):
        with np.errstate(divide="ignore", invalid="ignore"):
            frac = np.where(eigs > 0, eigs / (eigs + s2[:, None]), 0.0)
        return frac.sum(axis=1) - target

    smallest = np.where(eigs > 0, eigs, np.inf).min(axis=1)
    lo = 0.5 * smallest * (counts - target) / target
    hi = eigs.sum(axis=1) / target
    return find_root(f, lo, hi)[0]


@dataclass(frozen=True)
class DistributedPrepared:
    """Distributed-family state that depends only on the training SCM and
    geometry: the whitener, the whitened steering vector and subspace, and the
    inverse square root ``Cb`` of the whitened subspace Gram ``Bp``."""

    L: int
    T: np.ndarray
    st: np.ndarray
    ss: np.ndarray
    Ht: np.ndarray
    QH: np.ndarray
    Bp: np.ndarray
    Cb: np.ndarray


def prepare_distributed(S, s, H, L: int) -> DistributedPrepared:
    """The test-independent half of :func:`distributed_family_stats`."""
    s = np.asarray(s, dtype=np.complex128)
    H = np.asarray(H, dtype=np.complex128)
    T = _inv_sqrt_stack(S)
    st = np.einsum("bij,j->bi", T, s)
    Ht = T @ H
    Bp = _ct(Ht) @ Ht
    return DistributedPrepared(
        L=L, T=T, st=st, ss=np.einsum("bn,bn->b", st.conj(), st).real,
        Ht=Ht, QH=_basis(Ht), Bp=Bp, Cb=_inv_sqrt_stack(Bp))


def evaluate_distributed(prep: DistributedPrepared, X) -> dict:
    """All distributed-family statistics of the stacked test blocks ``X`` (B, N, K)."""
    X = np.asarray(X)
    B, N, K = X.shape
    L, st, ss, Ht, QH = prep.L, prep.st, prep.ss, prep.Ht, prep.QH
    IK = np.eye(K)

    Xt = prep.T @ X
    c = np.einsum("bnk,bn->bk", Xt.conj(), st)
    G0 = _ct(Xt) @ Xt
    M0 = IK + G0
    num = np.einsum("bk,bk->b", c.conj(), np.linalg.solve(M0, c[..., None])[..., 0]).real
    gamf_num = np.einsum("bk,bk->b", c.conj(), c).real
    trG0 = np.trace(G0, axis1=-2, axis2=-1).real

    out = {
        "gkglrt": num / (ss - num),
        "gamf": gamf_num / ss,
    }
    # Rao (HE), matrix-inversion-lemma form
    G1 = G0 - c[..., None] @ _ct(c[..., None]) / ss[:, None, None]
    inner = np.linalg.solve(IK + G1, np.linalg.solve(M0, c[..., None]))
    out["rao_he"] = np.einsum("bk,bk->b", c.conj(), inner[..., 0]).real / ss

    # PHE bank
    target = N * K / (L + K)
    eig0 = np.linalg.eigvalsh(G0).real
    eig1 = np.linalg.eigvalsh(0.5 * (G1 + _ct(G1))).real
    sigma0 = solve_sigma_batch(eig0, target)
    sigma1 = solve_sigma_batch(eig1, target)
    det0 = np.linalg.det(IK + G0 / sigma0[:, None, None]).real
    det1 = np.linalg.det(IK + G1 / sigma1[:, None, None]).real
    out["glrt_phe"] = sigma0 ** target * det0 / (sigma1 ** target * det1)
    out["gasd"] = gamf_num / (ss * trG0)
    out["sigma0_hat"] = sigma0
    out["sigma1_hat"] = sigma1

    # Rao (PHE): X^H R0^-1 s through the Woodbury identity in whitened space
    e0 = np.linalg.solve(sigma0[:, None, None] * IK + G0, c[..., None])[..., 0]
    E0s = st - np.einsum("bnk,bk->bn", Xt, e0)
    num_vec = np.einsum("bnk,bn->bk", Xt.conj(), E0s)
    den = np.einsum("bn,bn->b", st.conj(), E0s).real
    out["rao_phe"] = (L + K) / sigma0 * np.einsum(
        "bk,bk->b", num_vec.conj(), num_vec).real / den
    # Wald (PHE): the projected-data Gram kills the steering component, so the
    # statistic collapses onto the generalized AMF rescaled by the H1 MLE.
    out["wald_phe"] = (L + K) / sigma1 * out["gamf"]

    # Direction detectors
    W = _ct(QH) @ Xt                     # (B, p, K)
    A = _ct(W) @ W
    out["amdd"] = np.linalg.eigvalsh(A).real[:, -1]
    C0 = _inv_sqrt_stack(M0)
    out["glrdd"] = np.linalg.eigvalsh(C0 @ A @ C0).real[:, -1]
    out["gadd"] = out["amdd"] / trG0
    HX = _ct(Ht) @ Xt                    # (B, p, K)
    Ap = HX @ np.linalg.solve(M0, _ct(HX))
    Bp, Cb = prep.Bp, prep.Cb
    Mb = Cb @ Ap @ Cb
    wb, Vb = np.linalg.eigh(Mb)
    theta = np.einsum("bpq,bq->bp", Cb, Vb[..., -1])
    y = np.einsum("bpk,bp->bk", HX.conj(), theta)          # Xt^H Ht theta
    denom_t = np.einsum("bp,bpq,bq->b", theta.conj(), Bp, theta).real
    out["snrdd"] = np.einsum("bk,bk->b", y.conj(), y).real / denom_t

    # Double-subspace trio
    out["wald_dos"] = np.einsum("bpk,bpk->b", W.conj(), W).real
    out["glrt_dos"] = np.linalg.det(M0).real / np.linalg.det(M0 - _ct(W) @ W).real
    XH = np.linalg.solve(M0, _ct(Xt) @ Ht)
    DH = Ht - Xt @ XH                    # (I + Xt Xt^H)^-1 Ht via Woodbury
    G = _ct(Ht) @ DH
    A2 = _ct(Xt) @ DH
    out["rao_dos"] = np.einsum(
        "bkp,bpk->b", A2, np.linalg.solve(G, _ct(A2))
    ).real
    return out


def distributed_family_stats(X, S, s, H, L: int):
    """All distributed-family statistics for stacked trials.

    ``X`` is (B, N, K), ``S`` is (B, N, N); ``s`` (rank-one steering), ``H``
    (direction/DOS subspace), and the training count ``L`` are shared.
    """
    return evaluate_distributed(prepare_distributed(S, s, H, L), X)
