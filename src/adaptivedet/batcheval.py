"""Vectorized (stacked-trial) evaluation of the detector banks.

This is the one implementation of every statistic: the Monte Carlo engine,
the identity suite and the analytic mismatch geometry (:func:`mismatch_geometry`,
the interference kernel at S = R) call it on batches of trials, with the point
geometry shared or stacked per trial.  Every statistic of both families is a
function of the same whitened quantities (the whitened steering vector or
subspace basis and the whitened test data), so :func:`prepare` computes
everything that depends only on the training SCM and the geometry, and
:func:`evaluate` the test-data part, for both families and any number of
test means.  The names :func:`prepare` keeps, and their registry column
``reads``, alone decide which banks it builds and which :func:`evaluate`
runs.  :func:`prepare` takes the whitener of the sample covariance, from the
drawn Cholesky factor (:func:`~adaptivedet.linalg.lower_inverse`) or from S
(:func:`~adaptivedet.linalg.whitener`, which raises
:class:`~adaptivedet.errors.DefinitenessError`), and checks the rest of its
input from the factors it computes anyway: the QR of a whitened subspace
raises :class:`~adaptivedet.errors.RankError`
(:func:`~adaptivedet.linalg.full_rank_qr`), and an all-zero steering vector
``ValueError``.  The normative per-instance forms (projectors,
``M = S + X X^H`` and the ``R0``/``R1`` covariance MLEs, generalized
eigenpairs) live in ``tests/oracles.py``, and the test suite holds these
kernels to them.
"""

from dataclasses import dataclass

import numpy as np

from . import registry
from .errors import InfeasibleError
from .linalg import full_rank_qr, whitener
from .roots import find_root

# every name prepare takes: the registry's, and the by-products of the
# distributed banks as rows of the bank that forms each
_ROWS = {**registry.DETECTORS, **{n: registry.Detector(n, "distributed", reads=r) for n, r in (
    ("theta_max", ("H",)), ("sigma0_hat", ("s", "L")), ("sigma1_hat", ("s", "L")))}}


def _ct(a):
    return np.conj(np.swapaxes(a, -2, -1))


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


# the nine subspace-bank statistics as forms in the energy u of a whitened test
# vector in a detection subspace and its whole energy v, with d = 1 + v - u
_FORMS = {
    "sglrt": lambda u, v, d: u / d,
    "srao": lambda u, v, d: u / ((1.0 + v) * d),
    "samf": lambda u, v, d: u,
    "asd": lambda u, v, d: _ratio(u, v),
    "sabort": lambda u, v, d: (1.0 + u) / d,
    "wsabort": lambda u, v, d: (1.0 + v) / d ** 2,
    "dnsamf": lambda u, v, d: _ratio(u, v * d),
    "aed": lambda u, v, d: v,
    "beta": lambda u, v, d: 1.0 / d,
}
# a point row with a ``canonical`` is that form at its bank's energies (H, s or J), and
# the interference Rao trio at the J-cleaned data's in span(H), not in span(QHp)
_RAO_I = frozenset(("rao_he_i", "ts_rao_he_i", "rao_phe_i"))
_ENERGIES = {row.name: "rao" if row.name in _RAO_I else row.reads[-1]
             for row in registry.DETECTORS.values() if row.family == "point" and row.canonical}


@dataclass(frozen=True)
class Prepared:
    """What the statistics (and by-products) ``names`` need of the training
    SCM and the geometry, for both families, and the ``banks`` that compute
    them as (family, input) pairs: an adaptive row's ``reads`` besides ``H``
    (``s`` a rank-one bank, ``J`` the interference bank, ``L`` the PHE
    half), or ``H`` read alone (the point subspace, direction and DOS banks).

    ``T`` whitens (``T S T^H = I``; None for clairvoyant names only); ``Ht =
    T H = QH RH`` is the reduced QR of the whitened subspace and ``st``/``ss``
    the whitened steering vector and its energy.  ``QJ``/``QHp``/``QB`` are
    bases of J, of H with J projected out, and of [J H] (whitened), ``QJ``
    None at q = 0 and ``QB`` None when p + q = N; ``E`` maps a whitened vector
    to the [J H]-basis coordinates of its oblique projection onto H along J.
    ``W``, the R-whitened basis of H as p rows, is the map of ``smf``, the
    MVDR weight ``mvdr = (R^-1 s / s^H R^-1 s)^H`` that of ``mf``, and ``L``
    the training count of the PHE half and ``N`` the ambient dimension of its
    target ``N K / (L + K)``.  The parts of a bank left out are None.
    """

    names: tuple = ()
    banks: frozenset = frozenset()
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
    N: int = None


def prepare(T, H, J=None, s=None, R=None, L=None, want=None) -> Prepared:
    """The test-independent half of both families' statistics, for the names
    ``want`` (None: every registry name and the by-products ``theta_max``,
    ``sigma0_hat`` and ``sigma1_hat``).

    ``T`` (B, N, N) whitens the sample covariance (``T S T^H = I``); ``H``
    (N, p) or (B, N, p), ``J`` (N, q) or (B, N, q) and ``s`` (N,) or (B, N)
    are shared or stacked per trial.  A name is kept in ``names`` when its
    inputs are given (the geometry its registry row ``reads``, and ``T``, or
    ``R`` for a clairvoyant one), and the kept names' ``reads`` alone decide
    the banks built: ``H`` the QR of ``Ht = T H``, ``s`` the rank-one banks,
    ``J`` the interference bank (an (N, 0) ``J`` keeps it at q = 0) and
    ``L`` the PHE half.  ``smf`` and ``mf`` are whitened by the true
    covariance ``R`` instead of S, with shared geometry, and each builds
    its own map of the test vector, ``W`` and ``mvdr``.

    One QR ``[Jt Ht] = Q R`` gives ``QJ`` (its first q columns), ``QHp``
    (its last p) and ``QB`` (all of Q).  With ``R22`` the trailing p x p
    block, the oblique projection of ``xt`` onto ``Ht`` along ``Jt`` is
    ``Ht a`` with ``a = R22^-1 QHp^H xt``, so its error grows with
    cond(R22) = cond(Hp), not with the square of it.  Both QRs check that
    their whitened matrix has full column rank (:func:`full_rank_qr`).
    """
    given = dict(H=H, J=J, s=s, L=L)
    rows = [_ROWS[name] for name in (_ROWS if want is None else want)]
    rows = [row for row in rows if (R if row.clairvoyant else T) is not None
            and all(given[arg] is not None for arg in row.reads)]
    names = tuple(row.name for row in rows)
    adaptive = [row for row in rows if not row.clairvoyant]
    reads = {arg for row in adaptive for arg in row.reads}
    banks = {(row.family, arg) for row in adaptive for arg in (set(row.reads) - {"H"} or {"H"})}
    prep = dict(names=names, banks=frozenset(banks), T=T, L=L if "L" in reads else None,
                N=T.shape[-1] if "L" in reads else None)
    if "s" in reads:
        prep["st"], prep["ss"] = _steering(T, s)
    if "H" in reads:
        H = np.asarray(H, dtype=np.complex128)
        Ht = T @ H
        QH, RH = full_rank_qr(Ht)
        prep.update(QH=QH, RH=RH)
        if "J" in reads:
            J = np.asarray(J, dtype=np.complex128)
            q = J.shape[-1]
            Q, Rb = full_rank_qr(np.concatenate([T @ J, Ht], axis=-1)) if q else (QH, RH)
            QHp = Q[..., q:]
            prep.update(QJ=Q[..., :q] if q else None, QHp=QHp)
            if not {"wald_he_i", "wald_phe_i"}.isdisjoint(names):
                prep.update(QB=Q if H.shape[-1] + q < T.shape[-1] else None,
                            E=Rb[..., q:] @ np.linalg.solve(Rb[..., q:, q:], _ct(QHp)))
    if "smf" in names or "mf" in names:
        TR = whitener(np.asarray(R, dtype=np.complex128))
        if "smf" in names:
            prep["W"] = _ct(np.linalg.qr(TR @ H)[0]) @ TR
        if "mf" in names:
            sR = TR @ s
            prep["mvdr"] = (sR.conj() / np.real(sR.conj() @ sR)) @ TR
    return Prepared(**prep)


def evaluate(prep: Prepared, X, means=None) -> dict:
    """The statistics ``prep.names`` of the test blocks ``X`` (B, N, K), from
    the banks ``prep.banks`` those names read and no other: (B, G) for the
    G test blocks ``X + means[g]`` of each trial, with ``means`` (G, N, K),
    and (B,) without.  The point banks (K = 1) are linear, so ``X`` and the
    means are whitened apart, the means in one (B N, N) x (N, G) product
    whose rows keep their bits whatever B; the distributed banks run once
    per mean.  ``wald_phe_i`` is nan when [H J] fills the space (p + q = N):
    its normalizing orthocomplement is empty.  A ratio over a zero energy is
    0 for null data and +inf otherwise (:func:`_ratio`)."""
    X = np.asarray(X)
    stacked = means is not None
    means = np.asarray(means if stacked else np.zeros((1, *X.shape[1:])), dtype=np.complex128)
    banks, names = prep.banks, prep.names
    x, M = X[:, :, 0], means[:, :, 0].T
    out = {}
    if any(family == "point" for family, _ in banks):
        xt, v = _point_whitened(prep.T, x, M)
    if ("point", "H") in banks:
        out.update(_forms(prep, "H", _energy(prep.QH, xt), v))
    if ("point", "s") in banks:
        out.update(_point_rank_one_bank(prep, xt, v))
    if ("point", "J") in banks:
        out.update(_interference_bank(prep, xt))
    if "smf" in names:
        out["smf"] = _sqnorm((x @ prep.W.T)[..., None] + prep.W @ M)
    if "mf" in names:
        out["mf"] = np.abs((x @ prep.mvdr)[..., None] + prep.mvdr @ M) ** 2
    if any(family == "distributed" for family, _ in banks):
        per_mean = [_distributed_banks(prep, X + mean) for mean in means]
        out.update({k: np.stack([s[k] for s in per_mean], axis=-1) for k in per_mean[0]})
    return {name: out[name] if stacked else out[name][..., 0] for name in names}


def _point_whitened(T, x, M):
    """``T (x + M[:, g])`` (B, N, G) of ``x`` (B, N), ``M`` (N, G), and its energies."""
    B, N = x.shape
    xt = T.reshape(B * N, N) @ M
    # T x added in place along the transposed view: B N long rows, not G short ones
    np.add(xt.T, np.einsum("bij,bj->bi", T, x).ravel(), out=xt.T)
    xt = xt.reshape(B, N, M.shape[1])
    return xt, _sqnorm(xt)


def _forms(prep, energies, u, v):
    """Each name of ``prep`` read at ``energies``, as its :data:`_FORMS` at ``u``, ``v``."""
    d = 1.0 + v - u
    return {name: _FORMS[_ROWS[name].canonical](u, v, d) for name in prep.names
            if _ENERGIES.get(name) == energies}


def _point_rank_one_bank(prep, xt, v):
    ss = prep.ss[:, None]
    u = _sqnorm(prep.st.conj()[:, None] @ xt) / ss
    return {**_forms(prep, "s", u, v), "smi": u / ss}


def _interference_bank(prep, xt):
    xp = xt if prep.QJ is None else xt - prep.QJ @ (_ct(prep.QJ) @ xt)
    vi = _sqnorm(xp)
    out = _forms(prep, "J", _energy(prep.QHp, xp), vi)
    if not _RAO_I.isdisjoint(prep.names):
        out.update(_forms(prep, "rao", _energy(prep.QH, xp), vi))
    if prep.E is not None:
        wald_he = _sqnorm(prep.E @ xt)
        # the residual itself, not v less the energy in [J H], which cancels
        # when the data lies close to that span
        out.update(wald_he_i=wald_he, wald_phe_i=np.full_like(wald_he, np.nan) if prep.QB is None
                   else _ratio(wald_he, _sqnorm(xt - prep.QB @ (_ct(prep.QB) @ xt))))
    return out


def point_family_stats(x, S, H, J=None, s=None, R=None):
    """The point-family statistics whose inputs are given, of the stacked test
    vectors ``x`` (B, N) and sample covariances ``S`` (B, N, N), the rest as
    in :func:`prepare`."""
    want = registry.names(family="point")
    return evaluate(prepare(whitener(S), H, J, s, R, want=want), np.asarray(x)[:, :, None])


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
    prep = prepare(whitener(R[None]), H, J, want=("ts_glrt_he_i", "beta_i"))
    stats = evaluate(prep, np.zeros((1, len(R), 1)), s0[:, :, None])
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


def _distributed_banks(prep, X):
    """The distributed banks of ``prep.banks`` on the test blocks ``X``
    (B, N, K), with the PHE noise-power MLEs and ``snrdd``'s unit direction
    (B, p)."""
    Xt = prep.T @ X
    G0 = _ct(Xt) @ Xt
    trG0 = np.trace(G0, axis1=-2, axis2=-1).real
    out = _rank_one_bank(prep, Xt, G0, trG0) if ("distributed", "s") in prep.banks else {}
    if ("distributed", "H") in prep.banks:
        out.update(_subspace_banks(prep, Xt, trG0))
    return out


def _rank_one_bank(prep, Xt, G0, trG0):
    """The distributed rank-one bank, from ``c = Xt^H st``."""
    K, N, L, names, st, ss = Xt.shape[-1], prep.N, prep.L, prep.names, prep.st, prep.ss
    phe = ("distributed", "L") in prep.banks
    IK = np.eye(K)
    c = np.einsum("bnk,bn->bk", Xt.conj(), st)
    Mc = np.linalg.solve(IK + G0, c[..., None])[..., 0]
    num = np.einsum("bk,bk->b", c.conj(), Mc).real
    gamf_num = np.einsum("bk,bk->b", c.conj(), c).real
    out = {"gkglrt": num / (ss - num), "gamf": gamf_num / ss,
           "gasd": _ratio(gamf_num, ss * trG0)}
    if phe or "rao_he" in names:
        G1 = G0 - c[..., None] @ _ct(c[..., None]) / ss[:, None, None]
    if "rao_he" in names:  # matrix-inversion-lemma form
        inner = np.linalg.solve(IK + G1, Mc[..., None])
        out["rao_he"] = np.einsum("bk,bk->b", c.conj(), inner[..., 0]).real / ss
    if not phe:
        return out

    # PHE bank
    target = N * K / (L + K)
    eig0 = np.linalg.eigvalsh(G0).real
    sigma0 = solve_sigma_batch(eig0, target)
    det0 = np.linalg.det(IK + G0 / sigma0[:, None, None]).real
    eig1 = np.linalg.eigvalsh(0.5 * (G1 + _ct(G1))).real
    # G1 is G0 less a rank-one part, so its rounding noise is on G0's scale
    # (with N = 1 it is all noise): it counts as zero against G0's top eigenvalue
    eig1 = np.where(eig1 > 1e-12 * eig0[:, -1:], eig1, 0.0)
    sigma1 = solve_sigma_batch(eig1, target)
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


def _subspace_banks(prep, Xt, trG0):
    """The direction detectors and the double-subspace trio from ``W = QH^H
    Xt`` (B, p, K) and the residual ``U = Xt - QH W``: with ``Y = (I + U^H
    U)^-1 W^H`` and the p x p Gram ``Q = W Y``, ``Ht = QH RH`` turns ``(Ap,
    Bp)`` into ``RH^H (Q (I + Q)^-1, I) RH``.  So Q's top eigenpair ``(mu,
    phi)`` gives ``glrdd = mu / (1 + mu)``, ``theta_max = RH^-1 phi`` and
    ``snrdd = |W^H phi|^2``; by Woodbury ``rao_dos = tr(Y (I + Q)^-1 Y^H)``,
    and as ``M0 - W^H W = I + U^H U``, ``glrt_dos = det(I + Q) = prod(1 + mu)``.
    No term cancels near span(Ht), as ``M0 - W^H W`` itself would.
    """
    names = set(prep.names)
    W = _ct(prep.QH) @ Xt
    out = {"wald_dos": np.einsum("bpk,bpk->b", W.conj(), W).real}
    if not names.isdisjoint(("amdd", "gadd")):
        out["amdd"] = np.linalg.eigvalsh(W @ _ct(W)).real[:, -1]
        out["gadd"] = _ratio(out["amdd"], trG0)
    if names.isdisjoint(("glrdd", "snrdd", "theta_max", "rao_dos", "glrt_dos")):
        return out
    U = Xt - prep.QH @ W
    Y = np.linalg.solve(np.eye(Xt.shape[-1]) + _ct(U) @ U, _ct(W))  # (B, K, p)
    mu, Phi = np.linalg.eigh(W @ Y)
    out.update(glrdd=mu[:, -1] / (1.0 + mu[:, -1]), snrdd=_energy(W, Phi[..., -1:])[:, 0],
               glrt_dos=np.prod(1.0 + mu, axis=-1))
    if "theta_max" in names:
        theta = np.linalg.solve(prep.RH, Phi[..., -1:])[..., 0]
        out["theta_max"] = theta / np.linalg.norm(theta, axis=-1, keepdims=True)
    if "rao_dos" in names:
        YPhi = Y @ Phi
        out["rao_dos"] = np.einsum("bkj,bkj,bj->b", YPhi.conj(), YPhi, 1.0 / (1.0 + mu)).real
    return out


def distributed_family_stats(X, S, s, H, L: int):
    """The distributed-family statistics whose inputs are given, and the
    by-products, of the stacked test blocks ``X`` (B, N, K) and sample
    covariances ``S`` (B, N, N); ``s``, ``H`` and ``L`` may each be None to
    leave out the banks that read it (see :func:`prepare`)."""
    want = [name for name, row in _ROWS.items() if row.family == "distributed"]
    return evaluate(prepare(whitener(S), H, s=s, L=L, want=want), X)
