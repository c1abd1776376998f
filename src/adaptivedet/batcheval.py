"""Vectorized (stacked-trial) evaluation of the detector banks.

This is the one implementation of every statistic: the Monte Carlo engine,
the identity suite and the analytic mismatch geometry (:func:`mismatch_geometry`,
the interference kernel at S = R) call it on batches of trials, with the point
geometry shared or stacked per trial.  Each family splits into ``prepare_*``
(everything that depends only on the training SCM and the geometry) and
``evaluate_*`` (the test-data part), so one prepared batch serves any number
of test means; both hold only the banks whose inputs ``prepare_*`` is given
(registry column ``reads``).  ``prepare_*`` checks its input from the factors
it computes anyway: the Cholesky factor of the sample covariance
(:func:`_whitener`) raises :class:`~adaptivedet.errors.DefinitenessError`, the
QR of a whitened subspace :class:`~adaptivedet.errors.RankError`
(:func:`_qr`), and an all-zero steering vector ``ValueError``.  The normative
per-instance forms (projectors, ``M = S + X X^H`` and the ``R0``/``R1``
covariance MLEs, generalized eigenpairs) live in ``tests/oracles.py``, and
the test suite holds these kernels to them.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DefinitenessError, InfeasibleError, RankError
from .linalg import RCOND_LIMIT
from .roots import find_root


def _ct(a):
    return np.conj(np.swapaxes(a, -2, -1))


def _whitener(S):
    """Inverse Cholesky factor ``T`` of the stacked Hermitian positive
    definite ``S``: ``T S T^H = I``, so ``T^H T = S^-1`` and every ``S^-1``
    quadratic form is an inner product of whitened vectors.  Any square root
    of ``S`` whitens equally well; the triangular one is the cheapest.

    The Cholesky factorization reads only the lower triangle of ``S``, so a
    non-Hermitian ``S`` is taken as the Hermitian matrix of that triangle,
    not rejected; no symmetry pass runs here."""
    try:
        factor = np.linalg.cholesky(S)
    except np.linalg.LinAlgError:
        raise DefinitenessError("matrix is not positive definite") from None
    return np.linalg.inv(factor)


def _qr(A):
    """Reduced QR ``(Q, R)`` of the stacked ``A`` (..., N, m), after checking
    that every ``A`` has full column rank: ``m <= N`` and the smallest
    ``|diag R|`` above ``RCOND_LIMIT`` times the largest (:class:`RankError`)."""
    Q, R = np.linalg.qr(A)
    d = np.abs(R.diagonal(0, -2, -1))
    if A.shape[-1] > A.shape[-2] or (d.min(-1) <= RCOND_LIMIT * d.max(-1)).any():
        raise RankError("subspace is numerically rank deficient")
    return Q, R


def _steering(T, s):
    """The whitened steering vector ``T s`` (B, N) and its energy (B,);
    ``s`` (N,) or (B, N) must not be all zero (``ValueError``)."""
    s = np.asarray(s, dtype=np.complex128)
    if not s.any(-1).all():
        raise ValueError("steering vector must be nonzero")
    st = np.einsum("...ij,...j->...i", T, s)
    return st, np.einsum("bn,bn->b", st.conj(), st).real


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

    ``T`` whitens (``T S T^H = I``); ``QH`` is an orthonormal basis of the
    whitened H, and ``st``/``ss`` the whitened steering vector and its energy.
    ``QJ``/``QHp``/``QB`` are bases of J, of H with J projected out, and of
    [J H] (whitened), with ``QJ`` None at q = 0 and ``QB`` None when [J H]
    fills the space (p + q = N); ``E`` maps a whitened vector to the
    coordinates, in the [J H] basis, of its oblique projection onto H along J.
    ``W`` is the clairvoyant map: its first p rows are the R-whitened basis
    of H and its last the MVDR weight ``(R^-1 s / s^H R^-1 s)^H``.  The parts
    of a bank left out are None.
    """

    T: np.ndarray
    QH: np.ndarray
    st: np.ndarray = None
    ss: np.ndarray = None
    QJ: np.ndarray = None
    QHp: np.ndarray = None
    QB: np.ndarray = None
    E: np.ndarray = None
    W: np.ndarray = None


def prepare_point(S, H, J=None, s=None, R=None) -> PointPrepared:
    """The test-independent half of :func:`point_family_stats`.

    ``S`` is (B, N, N); ``H`` (N, p) or (B, N, p), ``J`` (N, q) or (B, N, q)
    and ``s`` (N,) or (B, N) are shared or stacked per trial.  ``s`` None
    leaves out the rank-one bank and ``mf``, ``J`` None the interference bank
    (an (N, 0) ``J`` keeps it at q = 0).  The true covariance ``R`` needs
    shared geometry: the clairvoyant pair is ``smf`` and ``mf`` whitened by R
    instead of S, one ``(p + 1, N)`` map ``W`` of the test vector.

    One QR ``[Jt Ht] = Q R`` gives ``QJ`` (its first q columns), ``QHp``
    (its last p) and ``QB`` (all of Q).  With ``R22`` the trailing p x p
    block, the oblique projection of ``xt`` onto ``Ht`` along ``Jt`` is
    ``Ht a`` with ``a = R22^-1 QHp^H xt``, so its error grows with
    cond(R22) = cond(Hp), not with the square of it.  Both QRs check that
    their whitened matrix has full column rank (:func:`_qr`).
    """
    H = np.asarray(H, dtype=np.complex128)
    T = _whitener(S)
    Ht = T @ H
    QH, RH = _qr(Ht)
    prep = dict(T=T, QH=QH)
    if s is not None:
        prep["st"], prep["ss"] = _steering(T, s)
    if J is not None:
        J = np.asarray(J, dtype=np.complex128)
        q = J.shape[-1]
        Q, Rb = _qr(np.concatenate([T @ J, Ht], axis=-1)) if q else (QH, RH)
        QHp = Q[..., q:]
        prep.update(QJ=Q[..., :q] if q else None, QHp=QHp,
                    QB=Q if H.shape[-1] + q < S.shape[-1] else None,
                    E=Rb[..., q:] @ np.linalg.solve(Rb[..., q:, q:], _ct(QHp)))
    if R is not None:
        TR = _whitener(np.asarray(R, dtype=np.complex128))
        sR = TR @ (H[..., 0] if s is None else s)
        mvdr = (sR.conj() / np.real(sR.conj() @ sR)) @ TR
        prep["W"] = np.vstack([_ct(np.linalg.qr(TR @ H)[0]) @ TR, mvdr])
    return PointPrepared(**prep)


def evaluate_point(prep: PointPrepared, x) -> dict:
    """The statistics of the banks ``prep`` holds for test vectors ``x`` (B, N).

    ``wald_phe_i`` is nan when [H J] fills the space (p + q = N): its
    normalizing orthocomplement is empty there.  A ratio over a zero energy
    is 0 for null data and +inf otherwise (:func:`_ratio`).
    """
    x = np.asarray(x)
    xt = np.einsum("bij,bj->bi", prep.T, x)
    u = _energy(prep.QH, xt)
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
    if prep.st is not None:
        out.update(_point_rank_one_bank(prep, xt, v))
    if prep.QHp is not None:
        out.update(_interference_bank(prep, xt))
    if prep.W is not None:
        y = np.abs(x @ prep.W.T) ** 2
        out["smf"] = y[:, :-1].sum(axis=1)
        if prep.st is not None:
            out["mf"] = y[:, -1]
    return out


def _point_rank_one_bank(prep, xt, v):
    u1 = np.abs(np.einsum("bn,bn->b", prep.st.conj(), xt)) ** 2 / prep.ss
    denom1 = 1.0 + v - u1
    return {
        "kglrt": u1 / denom1,
        "amf": u1,
        "dmrao": u1 / ((1.0 + v) * denom1),
        "ace": _ratio(u1, v),
        "smi": u1 / prep.ss,
    }


def _interference_bank(prep, xt):
    QJ = prep.QJ
    xp = xt if QJ is None else xt - np.einsum(
        "bnq,bq->bn", QJ, np.einsum("bnq,bn->bq", QJ.conj(), xt))
    ui = _energy(prep.QHp, xp)
    vi = np.einsum("bn,bn->b", xp.conj(), xp).real
    denom_i = 1.0 + vi - ui
    a = _energy(prep.QH, xp)
    y = np.einsum("bin,bn->bi", prep.E, xt)
    wald_he = np.einsum("bi,bi->b", y.conj(), y).real
    if prep.QB is not None:
        # the residual itself, not v less the energy in [J H], which cancels
        # when the data lies close to that span
        res = xt - np.einsum("bni,bi->bn", prep.QB, np.einsum("bni,bn->bi", prep.QB.conj(), xt))
        wald_phe = _ratio(wald_he, np.einsum("bn,bn->b", res.conj(), res).real)
    else:
        wald_phe = np.full_like(wald_he, np.nan)
    return {
        "glrt_he_i": ui / denom_i,
        "ts_glrt_he_i": ui,
        "glrt_phe_i": _ratio(ui, vi),
        "rao_he_i": a / ((1.0 + vi) * (1.0 + vi - a)),
        "ts_rao_he_i": a,
        "rao_phe_i": _ratio(a, vi),
        "wald_he_i": wald_he,
        "wald_phe_i": wald_phe,
        "beta_i": 1.0 / denom_i,
    }


def point_family_stats(x, S, H, J=None, s=None, R=None):
    """All point-family statistics for stacked trials.

    ``x`` is (B, N), ``S`` is (B, N, N); the geometry (H, J, s) is shared
    or stacked per trial as in :func:`prepare_point`.
    """
    return evaluate_point(prepare_point(S, H, J, s, R), x)


@dataclass(frozen=True)
class InterferenceGeometry:
    """Noncentrality split of a signal against the (H, J) pair: the effective
    SNR surviving interference rejection, and the rejected/mismatched rest
    (floats for one signal, arrays for a stack)."""

    rho_eff: float
    delta2_i: float


def mismatch_geometry(s0, R, H, J) -> InterferenceGeometry:
    """Effective SNR and loss-factor noncentrality of an actual signal ``s0``
    (N,), or arrays of them for a stack of signals (G, N).

    They are the interference kernel's energies at S = R: ``rho_eff`` is
    ``ts_glrt_he_i``, the part of the J-orthogonalized signal matched by the
    J-orthogonalized nominal subspace, and ``delta2_i = 1/beta_i - 1`` the
    remainder.  ``J`` None is q = 0.
    """
    R = np.asarray(R, dtype=np.complex128)
    x = np.reshape(s0, (-1, R.shape[0]))
    J = np.zeros((R.shape[0], 0)) if J is None else J
    stats = point_family_stats(x, np.broadcast_to(R, (len(x),) + R.shape), H, J)
    rho_eff, delta2_i = stats["ts_glrt_he_i"], np.maximum(1.0 / stats["beta_i"] - 1.0, 0.0)
    if np.ndim(s0) == 1:
        return InterferenceGeometry(rho_eff=float(rho_eff[0]), delta2_i=float(delta2_i[0]))
    return InterferenceGeometry(rho_eff=rho_eff, delta2_i=delta2_i)


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

    ``s`` (N,) or (B, N) and ``H`` (N, p) or (B, N, p) are shared or stacked
    per trial.  ``s`` None leaves out the rank-one bank, ``L`` None its
    partially homogeneous half, and ``H`` None the direction and DOS banks.
    The input checks are those of :func:`prepare_point`.
    """
    T = _whitener(S)
    st = ss = Ht = QH = Bp = Cb = None
    if s is not None:
        st, ss = _steering(T, s)
    if H is not None:
        Ht = T @ np.asarray(H, dtype=np.complex128)
        Bp = _ct(Ht) @ Ht
        QH, Cb = _qr(Ht)[0], _whitener(Bp)
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

    ``X`` is (B, N, K), ``S`` is (B, N, N); ``s`` (rank-one steering) and
    ``H`` (direction/DOS subspace) are shared or stacked per trial, the
    training count ``L`` is shared, and each may be None to leave out the
    banks that need it (see :func:`prepare_distributed`).
    """
    return evaluate_distributed(prepare_distributed(S, s, H, L), X)
