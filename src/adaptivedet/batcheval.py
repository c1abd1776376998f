"""Vectorized (stacked-trial) evaluation of the detector banks.

This is the one implementation of every statistic: the Monte Carlo engine
and the identity suite call it on batches of trials (point geometry shared or
stacked per trial), and :mod:`adaptivedet.detectors` on a single instance
(B = 1).  Each family splits into ``prepare_*`` (everything that depends only
on the training SCM and the geometry) and ``evaluate_*`` (the test-data
part), so one prepared batch serves any number of test means.  Both
families whiten with the inverse Cholesky factor of the sample covariance
(:func:`_whitener`); a covariance that is not positive definite raises
:class:`~adaptivedet.errors.DefinitenessError`.  The normative
per-instance forms (projectors, ``M = S + X X^H`` and the ``R0``/``R1``
covariance MLEs, generalized eigenpairs) live in ``tests/oracles.py``, and
the test suite holds these kernels to them.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DefinitenessError, InfeasibleError
from .roots import find_root


def _ct(a):
    return np.conj(np.swapaxes(a, -2, -1))


def _whitener(S):
    """Inverse Cholesky factor ``T`` of the stacked Hermitian positive
    definite ``S``: ``T S T^H = I``, so ``T^H T = S^-1`` and every ``S^-1``
    quadratic form is an inner product of whitened vectors.  Any square root
    of ``S`` whitens equally well; the triangular one is the cheapest."""
    try:
        factor = np.linalg.cholesky(S)
    except np.linalg.LinAlgError:
        raise DefinitenessError("matrix is not positive definite") from None
    return np.linalg.inv(factor)


def _ratio(num, den):
    """``num / den`` for nonnegative ``num``, with the edge values of a zero
    ``den``: 0 over a zero ``num`` (null data) and +inf over a positive one."""
    return np.divide(num, den, out=np.where(num > 0, np.inf, 0.0), where=den > 0)


def _energy(Q, x):
    """|Q^H x|^2 summed over basis columns; Q (B,N,p), x (B,N) -> (B,)."""
    proj = np.einsum("bnp,bn->bp", Q.conj(), x)
    return np.einsum("bp,bp->b", proj.conj(), proj).real


@dataclass(frozen=True)
class PointPrepared:
    """Point-family state that depends only on the training SCM and geometry.

    ``T`` whitens (``T S T^H = I``); ``QH``/``QHp``/``QB`` are orthonormal
    bases of the whitened H, of H with the whitened J projected out, and of
    [J H]; ``QJ`` is None without interference and ``QB`` is None when
    [J H] fills the space (p + q = N).  ``E`` maps a whitened vector to the
    coordinates, in the [J H] basis, of its oblique projection onto H along
    J.
    ``W`` is the clairvoyant map, None without a true covariance: its first
    p rows are the R-whitened basis of H and its last the MVDR weight
    ``(R^-1 s / s^H R^-1 s)^H``.
    """

    T: np.ndarray
    QH: np.ndarray
    st: np.ndarray
    ss: np.ndarray
    QJ: np.ndarray
    QHp: np.ndarray
    QB: np.ndarray
    E: np.ndarray
    W: np.ndarray = None


def prepare_point(S, H, J=None, s=None, R=None) -> PointPrepared:
    """The test-independent half of :func:`point_family_stats`.

    ``S`` is (B, N, N); ``H`` (N, p) or (B, N, p), ``J`` (N, q) or (B, N, q)
    and ``s`` (N,) or (B, N) are shared or stacked per trial.  The true
    covariance ``R`` (clairvoyant references) needs shared geometry: the
    clairvoyant pair is ``smf`` and ``mf`` whitened by R instead of S, one
    ``(p + 1, N)`` map ``W`` of the test vector.

    One QR ``[Jt Ht] = Q R`` gives ``QJ`` (its first q columns), ``QHp``
    (its last p) and ``QB`` (all of Q).  With ``R22`` the trailing p x p
    block, the oblique projection of ``xt`` onto ``Ht`` along ``Jt`` is
    ``Ht a`` with ``a = R22^-1 QHp^H xt``, so its error grows with
    cond(R22) = cond(Hp), not with the square of it.
    """
    N = S.shape[-1]
    H = np.asarray(H, dtype=np.complex128)
    J = np.zeros((N, 0), dtype=np.complex128) if J is None else np.asarray(J, dtype=np.complex128)
    s = H[..., 0] if s is None else np.asarray(s, dtype=np.complex128)
    q = J.shape[-1]

    T = _whitener(S)
    Ht = T @ H
    QH, RH = np.linalg.qr(Ht)
    st = np.einsum("...ij,...j->...i", T, s)
    ss = np.einsum("bn,bn->b", st.conj(), st).real
    Q, Rb = np.linalg.qr(np.concatenate([T @ J, Ht], axis=-1)) if q else (QH, RH)
    QHp = Q[..., q:]
    E = Rb[..., q:] @ np.linalg.solve(Rb[..., q:, q:], _ct(QHp))
    prep = dict(T=T, QH=QH, st=st, ss=ss, QJ=Q[..., :q] if q else None, QHp=QHp,
                QB=Q if H.shape[-1] + q < N else None, E=E)
    if R is not None:
        TR = _whitener(np.asarray(R, dtype=np.complex128))
        sR = TR @ s
        mvdr = (sR.conj() / np.real(sR.conj() @ sR)) @ TR
        prep["W"] = np.vstack([_ct(np.linalg.qr(TR @ H)[0]) @ TR, mvdr])
    return PointPrepared(**prep)


def evaluate_point(prep: PointPrepared, x) -> dict:
    """All point-family statistics of the stacked test vectors ``x`` (B, N).

    ``wald_phe_i`` is nan when [H J] fills the space (p + q = N): its
    normalizing orthocomplement is empty there.  A ratio over a zero energy
    is 0 for null data and +inf otherwise (:func:`_ratio`).
    """
    x = np.asarray(x)
    T, QH, st, ss = prep.T, prep.QH, prep.st, prep.ss
    xt = np.einsum("bij,bj->bi", T, x)
    u = _energy(QH, xt)
    v = np.einsum("bn,bn->b", xt.conj(), xt).real
    denom = 1.0 + v - u
    out = {
        "sglrt": u / denom,
        "srao": u / ((1.0 + v) * denom),
        "samf": u,
        "asd": _ratio(u, v),
        "sabort": (1.0 + u) / denom,
        "wsabort": (1.0 + v) / denom ** 2,
        "dnsamf": _ratio(u, v * denom),
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
        "ace": _ratio(u1, v),
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
    y = np.einsum("bin,bn->bi", prep.E, xt)
    wald_he = np.einsum("bi,bi->b", y.conj(), y).real
    if prep.QB is not None:
        # the residual itself, not v less the energy in [J H], which cancels
        # when the data lies close to that span
        res = xt - np.einsum("bni,bi->bn", prep.QB, np.einsum("bni,bn->bi", prep.QB.conj(), xt))
        wald_phe = _ratio(wald_he, np.einsum("bn,bn->b", res.conj(), res).real)
    else:
        wald_phe = np.full_like(wald_he, np.nan)
    out.update({
        "glrt_he_i": ui / denom_i,
        "ts_glrt_he_i": ui,
        "glrt_phe_i": _ratio(ui, vi),
        "rao_he_i": a / ((1.0 + vi) * (1.0 + vi - a)),
        "ts_rao_he_i": a,
        "rao_phe_i": _ratio(a, vi),
        "wald_he_i": wald_he,
        "wald_phe_i": wald_phe,
        "beta_i": 1.0 / denom_i,
    })

    if prep.W is not None:
        y = np.abs(x @ prep.W.T) ** 2
        out["smf"] = y[:, :-1].sum(axis=1)
        out["mf"] = y[:, -1]
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
    geometry: the whitener, the whitened steering vector of the rank-one bank,
    and the whitened subspace of the direction and DOS banks with the
    whitener ``Cb`` of its Gram ``Bp`` (``Cb Bp Cb^H = I``).  The parts of a
    bank left out are None."""

    L: int
    T: np.ndarray
    st: np.ndarray
    ss: np.ndarray
    Ht: np.ndarray
    QH: np.ndarray
    Bp: np.ndarray
    Cb: np.ndarray


def prepare_distributed(S, s, H, L) -> DistributedPrepared:
    """The test-independent half of :func:`distributed_family_stats`.

    ``s`` None leaves out the rank-one bank, ``L`` None its partially
    homogeneous half, and ``H`` None the direction and DOS banks.
    """
    T = _whitener(S)
    st = ss = Ht = QH = Bp = Cb = None
    if s is not None:
        st = np.einsum("bij,j->bi", T, np.asarray(s, dtype=np.complex128))
        ss = np.einsum("bn,bn->b", st.conj(), st).real
    if H is not None:
        Ht = T @ np.asarray(H, dtype=np.complex128)
        Bp = _ct(Ht) @ Ht
        QH, Cb = np.linalg.qr(Ht)[0], _whitener(Bp)
    return DistributedPrepared(L=L, T=T, st=st, ss=ss, Ht=Ht, QH=QH, Bp=Bp, Cb=Cb)


def evaluate_distributed(prep: DistributedPrepared, X) -> dict:
    """The distributed-family statistics of the stacked test blocks ``X``
    (B, N, K) for the banks ``prep`` holds.

    Besides the statistics, the PHE half gives the noise-power MLEs
    ``sigma0_hat``/``sigma1_hat`` and the direction bank the unit-norm
    maximizing direction ``theta_max`` (B, p) of ``snrdd``.
    """
    X = np.asarray(X)
    K = X.shape[-1]
    Xt = prep.T @ X
    G0 = _ct(Xt) @ Xt
    M0 = np.eye(K) + G0
    trG0 = np.trace(G0, axis1=-2, axis2=-1).real
    out = {}
    if prep.st is not None:
        out.update(_rank_one_bank(prep, Xt, G0, M0, trG0))
    if prep.QH is not None:
        out.update(_subspace_banks(prep, Xt, G0, M0, trG0))
    return out


def _rank_one_bank(prep, Xt, G0, M0, trG0):
    B, N, K = Xt.shape
    L, st, ss = prep.L, prep.st, prep.ss
    IK = np.eye(K)
    c = np.einsum("bnk,bn->bk", Xt.conj(), st)
    num = np.einsum("bk,bk->b", c.conj(), np.linalg.solve(M0, c[..., None])[..., 0]).real
    gamf_num = np.einsum("bk,bk->b", c.conj(), c).real
    out = {
        "gkglrt": num / (ss - num),
        "gamf": gamf_num / ss,
        "gasd": _ratio(gamf_num, ss * trG0),
    }
    # Rao (HE), matrix-inversion-lemma form
    G1 = G0 - c[..., None] @ _ct(c[..., None]) / ss[:, None, None]
    inner = np.linalg.solve(IK + G1, np.linalg.solve(M0, c[..., None]))
    out["rao_he"] = np.einsum("bk,bk->b", c.conj(), inner[..., 0]).real / ss
    if L is None:
        return out

    # PHE bank
    target = N * K / (L + K)
    eig0 = np.linalg.eigvalsh(G0).real
    eig1 = np.linalg.eigvalsh(0.5 * (G1 + _ct(G1))).real
    # G1 is G0 less a rank-one part, so its rounding noise is on G0's scale
    # (with N = 1 it is all noise): it counts as zero against G0's top eigenvalue
    eig1 = np.where(eig1 > 1e-12 * eig0[:, -1:], eig1, 0.0)
    sigma0 = solve_sigma_batch(eig0, target)
    sigma1 = solve_sigma_batch(eig1, target)
    det0 = np.linalg.det(IK + G0 / sigma0[:, None, None]).real
    det1 = np.linalg.det(IK + G1 / sigma1[:, None, None]).real
    out["glrt_phe"] = sigma0 ** target * det0 / (sigma1 ** target * det1)
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
    return out


def _subspace_banks(prep, Xt, G0, M0, trG0):
    """The direction detectors and the double-subspace trio."""
    Ht, QH = prep.Ht, prep.QH
    out = {}
    W = _ct(QH) @ Xt                     # (B, p, K)
    A = _ct(W) @ W
    out["amdd"] = np.linalg.eigvalsh(A).real[:, -1]
    C0 = _whitener(M0)
    out["glrdd"] = np.linalg.eigvalsh(C0 @ A @ _ct(C0)).real[:, -1]
    out["gadd"] = _ratio(out["amdd"], trG0)
    HX = _ct(Ht) @ Xt                    # (B, p, K)
    Ap = HX @ np.linalg.solve(M0, _ct(HX))
    Bp, Cb = prep.Bp, prep.Cb
    # theta^H Ap theta / theta^H Bp theta is largest at theta = Cb^H v, with v
    # the top eigenvector of Cb Ap Cb^H
    Vb = np.linalg.eigh(Cb @ Ap @ _ct(Cb))[1]
    theta = np.einsum("bqp,bq->bp", Cb.conj(), Vb[..., -1])
    y = np.einsum("bpk,bp->bk", HX.conj(), theta)          # Xt^H Ht theta
    denom_t = np.einsum("bp,bpq,bq->b", theta.conj(), Bp, theta).real
    out["snrdd"] = np.einsum("bk,bk->b", y.conj(), y).real / denom_t
    out["theta_max"] = theta / np.linalg.norm(theta, axis=-1, keepdims=True)

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
    (direction/DOS subspace), and the training count ``L`` are shared, and
    each may be None to leave out the banks that need it (see
    :func:`prepare_distributed`).
    """
    return evaluate_distributed(prepare_distributed(S, s, H, L), X)
