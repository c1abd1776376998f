"""Vectorized (stacked-trial) evaluation of the detector banks.

This is the one implementation of every statistic: the Monte Carlo engine,
the identity suite and the analytic mismatch geometry (:func:`mismatch_geometry`,
the interference kernel at S = R) call it on batches of trials, with the point
geometry shared or stacked per trial.  Every statistic of both families is a
function of the same whitened quantities (the whitened steering vector or
subspace basis and the whitened test data), so one :func:`prepare` computes
everything that depends only on the training SCM and the geometry, and
``evaluate_point``/``evaluate_distributed`` the test-data part: one prepared
batch serves both families and any number of test means.  It holds only the
banks whose inputs it is given, and a ``want`` of names narrows them to the
banks those names read (registry column ``reads``).  :func:`prepare` takes the whitener of the sample covariance, not the
covariance: the Monte Carlo engine has it from the drawn Cholesky factor
without forming S, and a caller that holds S gets it from :func:`whitener`,
which raises :class:`~adaptivedet.errors.DefinitenessError`.  :func:`prepare`
checks the rest of its input from the factors it computes anyway: the QR of
a whitened subspace raises :class:`~adaptivedet.errors.RankError`
(:func:`~adaptivedet.linalg.full_rank_qr`), and an all-zero steering vector
``ValueError``.  The normative per-instance forms (projectors,
``M = S + X X^H`` and the ``R0``/``R1`` covariance MLEs, generalized
eigenpairs) live in ``tests/oracles.py``, and the test suite holds these
kernels to them.
"""

from dataclasses import dataclass

import numpy as np

from . import registry
from .errors import DefinitenessError, InfeasibleError
from .linalg import full_rank_qr
from .roots import find_root

# the PHE half's outputs, and every output of evaluate_distributed
_PHE = ("glrt_phe", "rao_phe", "wald_phe", "sigma0_hat", "sigma1_hat")
_OUTPUTS = {*registry.names(family="distributed"), *_PHE, "theta_max"}


def _ct(a):
    return np.conj(np.swapaxes(a, -2, -1))


def whitener(S):
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


def _sqnorm(z):
    """Squared norms of the columns of the stacked ``z`` (..., N, G) -> (..., G)."""
    return (np.einsum("...ng,...ng->...g", z.real, z.real)
            + np.einsum("...ng,...ng->...g", z.imag, z.imag))


def _energy(Q, x):
    """|Q^H x|^2 of each column of ``x``; Q (B, N, p), x (B, N, G) -> (B, G)."""
    return _sqnorm(_ct(Q) @ x)


@dataclass(frozen=True)
class Prepared:
    """The state of both families that depends only on the training SCM and
    the geometry.

    ``T`` whitens (``T S T^H = I``), None for a plan of clairvoyant
    statistics only; ``Ht = T H = QH RH`` is the reduced QR of the whitened
    subspace and ``st``/``ss`` are the whitened steering vector and its
    energy.  ``QJ``/``QHp``/``QB`` are bases of J, of H with J projected
    out, and of [J H] (whitened), with ``QJ`` None at q = 0 and ``QB`` None
    when [J H] fills the space (p + q = N); ``E`` maps a whitened vector to
    the coordinates, in the [J H] basis, of its oblique projection onto H
    along J.  The clairvoyant maps are ``W``, the R-whitened basis of H as p
    rows, for ``smf``, and ``mvdr``, the MVDR weight ``(R^-1 s / s^H R^-1
    s)^H``, for ``mf``.  ``L`` is the training count of the distributed
    PHE half.  The parts of a bank left out are None.
    """

    T: np.ndarray = None
    QH: np.ndarray = None
    RH: np.ndarray = None
    st: np.ndarray = None
    ss: np.ndarray = None
    QJ: np.ndarray = None
    QHp: np.ndarray = None
    QB: np.ndarray = None
    E: np.ndarray = None
    W: np.ndarray = None
    mvdr: np.ndarray = None
    L: int = None


def prepare(T, H, J=None, s=None, R=None, L=None, want=None) -> Prepared:
    """The test-independent half of both families' statistics.

    ``T`` (B, N, N) whitens the sample covariance (``T S T^H = I``, see
    :func:`whitener`); ``H`` (N, p) or (B, N, p), ``J`` (N, q) or (B, N, q)
    and ``s`` (N,) or (B, N) are shared or stacked per trial.  ``want``
    (detector names) keeps only the banks its adaptive names read (registry
    column ``reads``) and the clairvoyant maps it names; None keeps every
    bank whose inputs are given.  ``H`` gives the QR of ``Ht = T H``, which
    every adaptive point statistic and the direction and DOS banks read;
    ``s`` the rank-one banks, ``J`` the interference bank (an (N, 0) ``J``
    keeps it at q = 0) and ``L`` the distributed PHE half.  The true
    covariance ``R`` needs shared geometry: the clairvoyant pair is ``smf``
    and ``mf`` whitened by R instead of S, the maps ``W`` and (with ``s``)
    ``mvdr`` of the test vector.  ``T`` None leaves out every adaptive
    bank, for a plan whose statistics are all clairvoyant.

    One QR ``[Jt Ht] = Q R`` gives ``QJ`` (its first q columns), ``QHp``
    (its last p) and ``QB`` (all of Q).  With ``R22`` the trailing p x p
    block, the oblique projection of ``xt`` onto ``Ht`` along ``Jt`` is
    ``Ht a`` with ``a = R22^-1 QHp^H xt``, so its error grows with
    cond(R22) = cond(Hp), not with the square of it.  Both QRs check that
    their whitened matrix has full column rank (:func:`full_rank_qr`).
    """
    rows = registry.DETECTORS.values() if want is None else [registry.lookup(n) for n in want]
    named = {row.name for row in rows}
    given = dict(H=H, J=J, s=s, L=L)
    reads = {arg for row in rows if not row.clairvoyant for arg in row.reads
             if given[arg] is not None}
    prep = dict(T=T, L=L if "L" in reads else None)
    if T is not None and "s" in reads:
        prep["st"], prep["ss"] = _steering(T, s)
    if T is not None and "H" in reads:
        H = np.asarray(H, dtype=np.complex128)
        Ht = T @ H
        QH, RH = full_rank_qr(Ht)
        prep.update(QH=QH, RH=RH)
        if "J" in reads:
            J = np.asarray(J, dtype=np.complex128)
            q = J.shape[-1]
            Q, Rb = full_rank_qr(np.concatenate([T @ J, Ht], axis=-1)) if q else (QH, RH)
            QHp = Q[..., q:]
            prep.update(QJ=Q[..., :q] if q else None, QHp=QHp,
                        QB=Q if H.shape[-1] + q < T.shape[-1] else None,
                        E=Rb[..., q:] @ np.linalg.solve(Rb[..., q:, q:], _ct(QHp)))
    if R is not None and not named.isdisjoint(("smf", "mf")):
        TR = whitener(np.asarray(R, dtype=np.complex128))
        if "smf" in named:
            prep["W"] = _ct(np.linalg.qr(TR @ H)[0]) @ TR
        if s is not None and "mf" in named:
            sR = TR @ s
            prep["mvdr"] = (sR.conj() / np.real(sR.conj() @ sR)) @ TR
    return Prepared(**prep)


def evaluate_point(prep: Prepared, x, means=None) -> dict:
    """The statistics of the banks ``prep`` holds for test vectors ``x`` (B, N).

    With ``means`` (N, G), shared by every trial, each trial has the G test
    vectors ``x + means[:, g]``, and each statistic is (B, G).  The maps are
    linear, so ``x`` and the means are mapped apart, the whitened means in one
    (B N, N) x (N, G) product whose rows keep their bits whatever B.
    ``wald_phe_i`` is nan when [H J] fills the space (p + q = N): its
    normalizing orthocomplement is empty there.  A ratio over a zero energy
    is 0 for null data and +inf otherwise (:func:`_ratio`).
    """
    x = np.asarray(x)
    M = np.asarray(np.zeros((x.shape[-1], 1)) if means is None else means, dtype=np.complex128)
    out = {}
    if prep.QH is not None:
        B, N = x.shape
        xt = prep.T.reshape(B * N, N) @ M
        # T x added in place along the transposed view: B N long rows, not G short ones
        np.add(xt.T, np.einsum("bij,bj->bi", prep.T, x).ravel(), out=xt.T)
        out.update(_subspace_bank(prep, xt.reshape(B, N, M.shape[1])))
    if prep.W is not None:
        out["smf"] = _sqnorm((x @ prep.W.T)[..., None] + prep.W @ M)
    if prep.mvdr is not None:
        out["mf"] = np.abs((x @ prep.mvdr)[..., None] + prep.mvdr @ M) ** 2
    return out if means is not None else {name: value[..., 0] for name, value in out.items()}


def _subspace_bank(prep, xt):
    """The subspace bank, with the rank-one and interference banks ``prep``
    holds, of the whitened test vectors ``xt`` (B, N, G)."""
    u = _energy(prep.QH, xt)
    v = _sqnorm(xt)
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
    return out


def _point_rank_one_bank(prep, xt, v):
    ss = prep.ss[:, None]
    u1 = _sqnorm(prep.st.conj()[:, None] @ xt) / ss
    denom1 = 1.0 + v - u1
    return {
        "kglrt": u1 / denom1,
        "amf": u1,
        "dmrao": u1 / ((1.0 + v) * denom1),
        "ace": _ratio(u1, v),
        "smi": u1 / ss,
    }


def _interference_bank(prep, xt):
    QJ = prep.QJ
    xp = xt if QJ is None else xt - QJ @ (_ct(QJ) @ xt)
    ui = _energy(prep.QHp, xp)
    vi = _sqnorm(xp)
    denom_i = 1.0 + vi - ui
    a = _energy(prep.QH, xp)
    wald_he = _sqnorm(prep.E @ xt)
    if prep.QB is not None:
        # the residual itself, not v less the energy in [J H], which cancels
        # when the data lies close to that span
        wald_phe = _ratio(wald_he, _sqnorm(xt - prep.QB @ (_ct(prep.QB) @ xt)))
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
    or stacked per trial as in :func:`prepare`.
    """
    return evaluate_point(prepare(whitener(S), H, J, s, R), x)


def mismatch_geometry(s0, R, H, J):
    """Effective SNR and loss-factor noncentrality ``(rho_eff, delta2_i)`` of
    a stack of actual signals ``s0`` (G, N), two arrays of G.

    They are the interference kernel's energies at S = R: ``rho_eff`` is
    ``ts_glrt_he_i``, the part of the J-orthogonalized signal matched by the
    J-orthogonalized nominal subspace, and ``delta2_i = 1/beta_i - 1`` the
    remainder.  ``J`` None is q = 0.  R is prepared once, as one trial of
    null data whose stacked means are the signals.
    """
    R = np.asarray(R, dtype=np.complex128)
    J = np.zeros((len(R), 0)) if J is None else J
    stats = evaluate_point(prepare(whitener(R[None]), H, J), np.zeros((1, len(R))), s0.T)
    return stats["ts_glrt_he_i"][0], np.maximum(1.0 / stats["beta_i"][0] - 1.0, 0.0)


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

    def f(s2, at):
        rows = eigs[at]
        with np.errstate(divide="ignore", invalid="ignore"):
            frac = np.where(rows > 0, rows / (rows + s2[:, None]), 0.0)
        return frac.sum(axis=1) - target

    smallest = np.where(eigs > 0, eigs, np.inf).min(axis=1)
    lo = 0.5 * smallest * (counts - target) / target
    hi = eigs.sum(axis=1) / target
    return find_root(f, lo, hi)[0]


def evaluate_distributed(prep: Prepared, X, want=None) -> dict:
    """The distributed-family statistics of the stacked test blocks ``X``
    (B, N, K) for the banks ``prep`` holds, with the PHE noise-power MLEs
    ``sigma0_hat``/``sigma1_hat`` and the unit-norm maximizing direction
    ``theta_max`` (B, p) of ``snrdd``.  ``want`` (names; None for all) keeps
    only those, bit for bit as in the full evaluation, and skips the rest.
    """
    want = _OUTPUTS if want is None else set(want)
    Xt = prep.T @ np.asarray(X)
    G0 = _ct(Xt) @ Xt
    trG0 = np.trace(G0, axis1=-2, axis2=-1).real
    out = {}
    if prep.st is not None:
        out.update(_rank_one_bank(prep, Xt, G0, trG0, want))
    if prep.QH is not None:
        out.update(_subspace_banks(prep, Xt, trG0, want))
    return {name: value for name, value in out.items() if name in want}


def _rank_one_bank(prep, Xt, G0, trG0, want):
    B, N, K = Xt.shape
    L, st, ss = prep.L, prep.st, prep.ss
    IK = np.eye(K)
    c = np.einsum("bnk,bn->bk", Xt.conj(), st)
    Mc = np.linalg.solve(IK + G0, c[..., None])
    num = np.einsum("bk,bk->b", c.conj(), Mc[..., 0]).real
    gamf_num = np.einsum("bk,bk->b", c.conj(), c).real
    out = {
        "gkglrt": num / (ss - num),
        "gamf": gamf_num / ss,
        "gasd": _ratio(gamf_num, ss * trG0),
    }
    phe = L is not None and not want.isdisjoint(_PHE)
    if phe or "rao_he" in want:
        G1 = G0 - c[..., None] @ _ct(c[..., None]) / ss[:, None, None]
    if "rao_he" in want:  # matrix-inversion-lemma form
        inner = np.linalg.solve(IK + G1, Mc)
        out["rao_he"] = np.einsum("bk,bk->b", c.conj(), inner[..., 0]).real / ss
    if not phe:
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
    out.update(glrt_phe=sigma0 ** target * det0 / (sigma1 ** target * det1),
               sigma0_hat=sigma0, sigma1_hat=sigma1)

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


def _subspace_banks(prep, Xt, trG0, want):
    """The direction detectors and the double-subspace trio from ``W = QH^H
    Xt`` (B, p, K) and the residual ``U = Xt - QH W``: with ``Y = (I + U^H
    U)^-1 W^H`` and the p x p Gram ``Q = W Y``, ``Ht = QH RH`` turns ``(Ap,
    Bp)`` into ``RH^H (Q (I + Q)^-1, I) RH``.  So Q's top eigenpair ``(mu,
    phi)`` gives ``glrdd = mu / (1 + mu)``, ``theta_max = RH^-1 phi`` and
    ``snrdd = |W^H phi|^2``; by Woodbury ``rao_dos = tr(Y (I + Q)^-1 Y^H)``,
    and as ``M0 - W^H W = I + U^H U``, ``glrt_dos = det(I + Q) = prod(1 + mu)``.
    No term cancels near span(Ht), as ``M0 - W^H W`` itself would.
    """
    W = _ct(prep.QH) @ Xt
    out = {"wald_dos": np.einsum("bpk,bpk->b", W.conj(), W).real}
    if not want.isdisjoint(("amdd", "gadd")):
        out["amdd"] = np.linalg.eigvalsh(W @ _ct(W)).real[:, -1]
        out["gadd"] = _ratio(out["amdd"], trG0)
    if want.isdisjoint(("glrdd", "snrdd", "theta_max", "rao_dos", "glrt_dos")):
        return out
    U = Xt - prep.QH @ W
    Y = np.linalg.solve(np.eye(Xt.shape[-1]) + _ct(U) @ U, _ct(W))  # (B, K, p)
    mu, Phi = np.linalg.eigh(W @ Y)
    out.update(glrdd=mu[:, -1] / (1.0 + mu[:, -1]), snrdd=_energy(W, Phi[..., -1:])[:, 0],
               glrt_dos=np.prod(1.0 + mu, axis=-1))
    if "theta_max" in want:
        theta = np.linalg.solve(prep.RH, Phi[..., -1:])[..., 0]
        out["theta_max"] = theta / np.linalg.norm(theta, axis=-1, keepdims=True)
    if "rao_dos" in want:
        YPhi = Y @ Phi
        out["rao_dos"] = np.einsum("bkj,bkj,bj->b", YPhi.conj(), YPhi, 1.0 / (1.0 + mu)).real
    return out


def distributed_family_stats(X, S, s, H, L: int):
    """All distributed-family statistics for stacked trials.

    ``X`` is (B, N, K), ``S`` is (B, N, N); ``s`` (rank-one steering) and
    ``H`` (direction/DOS subspace) are shared or stacked per trial, the
    training count ``L`` is shared, and each may be None to leave out the
    banks that need it (see :func:`prepare`).
    """
    return evaluate_distributed(prepare(whitener(S), H, s=s, L=L), X)
