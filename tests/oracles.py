"""Per-instance forms of every detector statistic: the independent cross-check
of the batched kernels in ``adaptivedet.batcheval``.

Each bank is written on one instance from its defining formula (projectors,
``M = S + X X^H``, the ``R0``/``R1`` covariance MLEs, generalized eigenpairs),
with its own whitening and its own noise-power root solve, and returns a dict
of floats.  This module must import neither ``adaptivedet.batcheval`` nor
``adaptivedet.detectors`` (``test_registry`` checks it), or the cross-check
would compare the kernels with themselves.
"""

import numpy as np
from scipy import optimize

from adaptivedet import linalg
from adaptivedet.errors import InfeasibleError, RankError


def _c(a):
    return np.asarray(a, dtype=np.complex128)


def _ratio(num: float, den: float) -> float:
    """``num / den``, and at ``den = 0`` the kernels' edge values: 0 over a
    zero ``num`` (null data) and +inf over a positive one."""
    if den > 0:
        return num / den
    return np.inf if num > 0 else 0.0


def ortho_projector(A) -> np.ndarray:
    """Orthogonal projector onto the column span of ``A``: ``A (A^H A)^-1 A^H``."""
    A = _c(A)
    if A.shape[-1] == 0:
        n = A.shape[-2]
        return np.zeros(A.shape[:-2] + (n, n), dtype=np.complex128)
    Q = linalg.orthonormal_basis(A)
    return Q @ np.conj(np.swapaxes(Q, -2, -1))


def perp_projector(A) -> np.ndarray:
    """Projector onto the orthogonal complement of the column span of ``A``."""
    A = _c(A)
    return np.eye(A.shape[-2], dtype=np.complex128) - ortho_projector(A)


def oblique_projector(H, J) -> np.ndarray:
    """Oblique projector onto span(H) along span(J).

    ``P H = H`` and ``P J = 0``; requires ``[H J]`` to have full column rank.
    """
    H, J = _c(H), _c(J)
    if J.shape[-1] == 0:
        return ortho_projector(H)
    linalg.orthonormal_basis(np.concatenate([H, J], axis=-1))  # rank check on [H J]
    PJp = perp_projector(J)
    G = np.conj(np.swapaxes(H, -2, -1)) @ PJp @ H
    if np.linalg.cond(G) > 1.0 / linalg.RCOND_LIMIT:
        raise RankError("signal and interference subspaces overlap")
    return H @ np.linalg.solve(G, np.conj(np.swapaxes(H, -2, -1)) @ PJp)


def max_eig_pair(A, B=None):
    """Largest generalized eigenpair ``(lam, v)`` of ``A v = lam B v``.

    ``A`` must be Hermitian positive semidefinite and ``B`` Hermitian positive
    definite (``B = I`` when omitted).  Solved by reduction with
    ``B^{-1/2}``; ``v`` has unit norm.
    """
    A = _c(A)
    if B is None:
        w, V = np.linalg.eigh(0.5 * (A + A.conj().T))
        return float(w[-1]), V[:, -1]
    B = _c(B)
    if A.shape != B.shape:
        raise ValueError("A and B must have identical shapes")
    T = linalg.inv_sqrt(B)
    M = T @ A @ T
    w, V = np.linalg.eigh(0.5 * (M + M.conj().T))
    v = T @ V[:, -1]
    return float(w[-1]), v / np.linalg.norm(v)


def draw_noise(rng, N: int, L: int, K: int):
    """White training (N, L) and test (N, K) draws of one trial: one flat block
    of ``2 N (L + K)`` standard normals, laid out as training-real,
    training-imag, test-real, test-imag."""
    flat = rng.standard_normal(2 * N * (L + K))
    re_train, im_train, re_test, im_test = np.split(
        flat, [N * L, 2 * N * L, 2 * N * L + N * K])
    return ((re_train + 1j * im_train).reshape(N, L) / np.sqrt(2.0),
            (re_test + 1j * im_test).reshape(N, K) / np.sqrt(2.0))


def subspace_bank(x, S, H) -> dict:
    """The subspace bank from the two whitened energies ``u`` (in span(H))
    and ``v`` (total)."""
    T = linalg.inv_sqrt(S)
    xt = T @ _c(x)
    Q = linalg.orthonormal_basis(T @ _c(H))
    u = float(np.sum(np.abs(Q.conj().T @ xt) ** 2))
    v = float(np.real(xt.conj() @ xt))
    denom = 1.0 + v - u
    return {
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


def rank_one_bank(x, S, s) -> dict:
    """The p = 1 subspace bank, and the SMI: the AMF over ``s^H S^-1 s``."""
    s = _c(s)
    point = subspace_bank(x, S, s[:, None])
    s_energy = float(np.real(s.conj() @ np.linalg.solve(_c(S), s)))
    return {"kglrt": point["sglrt"], "amf": point["samf"], "dmrao": point["srao"],
            "ace": point["asd"], "smi": point["samf"] / s_energy}


def clairvoyant_bank(x, R, H) -> dict:
    """Known-covariance references; ``mf`` steers along the first column of ``H``."""
    x, R, H = _c(x), _c(R), _c(H)
    T = linalg.inv_sqrt(R)
    smf = float(np.sum(np.abs(ortho_projector(T @ H) @ (T @ x)) ** 2))
    s = H[:, 0]
    Ri_s = np.linalg.solve(R, s)
    s_energy = float(np.real(s.conj() @ Ri_s))
    return {"smf": smf, "mf": float(np.abs(Ri_s.conj() @ x) ** 2) / s_energy ** 2}


def interference_bank(x, S, H, J) -> dict:
    """Interference rejection: whitened data and H with the whitened J
    projected out.  The Wald pair projects obliquely onto H along J by an
    SVD least-squares fit of the whitened data on [J H]: the H part of the
    fit is the projection, and the fit's residual normalizes ``wald_phe_i``."""
    x, H = _c(x), _c(H)
    N = x.shape[0]
    J = np.zeros((N, 0), dtype=np.complex128) if J is None else _c(J)
    T = linalg.inv_sqrt(S)
    xt, Ht, Jt = T @ x, T @ H, T @ J
    QJ = linalg.orthonormal_basis(Jt)
    x_perp = xt - QJ @ (QJ.conj().T @ xt)
    H_perp = Ht - QJ @ (QJ.conj().T @ Ht)
    QHp = linalg.orthonormal_basis(H_perp)
    u = float(np.sum(np.abs(QHp.conj().T @ x_perp) ** 2))
    v = float(np.real(x_perp.conj() @ x_perp))
    denom = 1.0 + v - u
    QH = linalg.orthonormal_basis(Ht)
    a = float(np.sum(np.abs(QH.conj().T @ x_perp) ** 2))
    basis = np.concatenate([Jt, Ht], axis=1)
    coef = np.linalg.lstsq(basis, xt, rcond=None)[0]
    wald_he = float(np.linalg.norm(Ht @ coef[J.shape[1]:]) ** 2)
    wald_phe = np.nan
    if H.shape[1] + J.shape[1] < N:
        wald_phe = _ratio(wald_he, float(np.linalg.norm(xt - basis @ coef) ** 2))
    return {
        "glrt_he_i": u / denom,
        "ts_glrt_he_i": u,
        "glrt_phe_i": _ratio(u, v),
        "rao_he_i": a / ((1.0 + v) * (1.0 + v - a)),
        "ts_rao_he_i": a,
        "rao_phe_i": _ratio(a, v),
        "wald_he_i": wald_he,
        "wald_phe_i": wald_phe,
        "beta_i": 1.0 / denom,
    }


def mismatch_geometry(s0, R, H, J) -> dict:
    """``rho_eff`` and ``delta2_i`` of an actual signal: in the R-whitened
    space, the energy of the J-orthogonalized signal in the J-orthogonalized
    nominal subspace, and the rest of its energy."""
    s0, H = _c(s0), _c(H)
    J = np.zeros((s0.shape[0], 0), dtype=np.complex128) if J is None else _c(J)
    T = linalg.inv_sqrt(R)
    QJ = linalg.orthonormal_basis(T @ J)
    s_perp = T @ s0 - QJ @ (QJ.conj().T @ (T @ s0))
    QHp = linalg.orthonormal_basis(T @ H - QJ @ (QJ.conj().T @ (T @ H)))
    rho_eff = float(np.sum(np.abs(QHp.conj().T @ s_perp) ** 2))
    return {"rho_eff": rho_eff,
            "delta2_i": max(float(np.real(s_perp.conj() @ s_perp)) - rho_eff, 0.0)}


def point_family(x, S, H, J=None, R=None) -> dict:
    """Every point-family statistic; ``s`` is the first column of ``H`` and
    the clairvoyant pair needs the true covariance ``R``."""
    out = subspace_bank(x, S, H)
    out.update(rank_one_bank(x, S, _c(H)[:, 0]))
    out.update(interference_bank(x, S, H, J))
    if R is not None:
        out.update(clairvoyant_bank(x, R, H))
    return out


def _whitened(X, S, s):
    T = linalg.inv_sqrt(S)
    return T @ _c(X), T @ _c(s)


def distributed_rank1_he(X, S, s) -> dict:
    """GLRT and 2S-GLRT in whitened space; Rao through ``M = S + X X^H``."""
    X, S, s = _c(X), _c(S), _c(s)
    K = X.shape[1]
    Xt, st = _whitened(X, S, s)
    ss = float(np.real(st.conj() @ st))
    c = Xt.conj().T @ st
    num = float(np.real(c.conj() @ np.linalg.solve(np.eye(K) + Xt.conj().T @ Xt, c)))
    M = S + X @ X.conj().T
    Mi_s = np.linalg.solve(M, s)
    Mi_X = np.linalg.solve(M, X)
    rao_he = float(np.real((s.conj() @ Mi_X) @ (Mi_X.conj().T @ s))) / float(
        np.real(s.conj() @ Mi_s))
    return {"gkglrt": num / (ss - num), "gamf": float(np.real(c.conj() @ c)) / ss,
            "rao_he": rao_he}


def rao_he_recast(X, S, s) -> float:
    """Whitened-space recast of the HE Rao statistic (matrix-inversion-lemma
    form)."""
    K = _c(X).shape[1]
    Xt, st = _whitened(X, S, s)
    ss = float(np.real(st.conj() @ st))
    G0 = Xt.conj().T @ Xt
    c = Xt.conj().T @ st
    G1 = G0 - np.outer(c, c.conj()) / ss
    inner = np.linalg.solve(np.eye(K) + G1, np.linalg.solve(np.eye(K) + G0, c))
    return float(np.real(c.conj() @ inner)) / ss


def solve_sigma(eigs, target: float) -> float:
    """Root of ``sum_k lam_k / (lam_k + sigma^2) = target`` by Brent's method,
    over the eigenvalues above ``1e-12`` times the largest; InfeasibleError
    unless ``0 < target <`` their count."""
    eigs = np.clip(np.asarray(eigs, dtype=float), 0.0, None)
    eigs = eigs[eigs > 1e-12 * eigs.max()] if eigs.max() > 0 else eigs[:0]
    if not 0 < target < eigs.size:
        raise InfeasibleError("no noise-power root for this target")
    lo = 0.5 * eigs.min() * (eigs.size - target) / target
    return optimize.brentq(lambda s2: np.sum(eigs / (eigs + s2)) - target, lo,
                           eigs.sum() / target, xtol=1e-300, rtol=4 * np.finfo(float).eps)


def distributed_rank1_phe(X, S, s, L: int) -> dict:
    """Partially homogeneous bank: the noise-power MLEs, the GLRT from the
    Gram determinants, and the Rao and Wald statistics through the H0 and H1
    covariance MLEs ``R0`` and ``R1``."""
    X, S, s = _c(X), _c(S), _c(s)
    N, K = X.shape
    Xt, st = _whitened(X, S, s)
    ss = float(np.real(st.conj() @ st))
    c = Xt.conj().T @ st
    G0 = Xt.conj().T @ Xt
    G1 = G0 - np.outer(c, c.conj()) / ss
    target = N * K / (L + K)
    eig0, eig1 = np.linalg.eigvalsh(G0), np.linalg.eigvalsh(G1)
    sigma0 = solve_sigma(eig0, target)
    # G1's eigenvalues below 1e-12 of G0's largest are rounding noise
    sigma1 = solve_sigma(np.where(eig1 > 1e-12 * eig0.max(), eig1, 0.0), target)
    num = sigma0 ** target * float(np.real(np.linalg.det(np.eye(K) + G0 / sigma0)))
    den = sigma1 ** target * float(np.real(np.linalg.det(np.eye(K) + G1 / sigma1)))

    def rao_form(R, sigma):
        Ri_s = np.linalg.solve(R, s)
        return float(np.real((s.conj() @ np.linalg.solve(R, X)) @ (X.conj().T @ Ri_s))) / float(
            np.real(s.conj() @ Ri_s)) / sigma

    R0 = (S + X @ X.conj().T / sigma0) / (L + K)
    A = linalg.herm_sqrt(S)
    Z = (np.eye(N) - np.outer(st, st.conj()) / ss) @ Xt
    R1 = A @ (np.eye(N) + Z @ Z.conj().T / sigma1) @ A / (L + K)
    return {
        "glrt_phe": num / den,
        "gasd": _ratio(float(np.real(c.conj() @ c)), ss * float(np.real(np.trace(G0)))),
        "rao_phe": rao_form(R0, sigma0),
        "wald_phe": rao_form(R1, sigma1),
        "sigma0_hat": sigma0,
        "sigma1_hat": sigma1,
    }


def direction_bank(X, S, H) -> dict:
    """Direction detectors as largest generalized eigenvalues over span(H)."""
    X, H = _c(X), _c(H)
    K = X.shape[1]
    T = linalg.inv_sqrt(S)
    Xt, Ht = T @ X, T @ H
    W = linalg.orthonormal_basis(Ht).conj().T @ Xt
    A = W.conj().T @ W
    G0 = Xt.conj().T @ Xt
    amdd, _ = max_eig_pair(A)
    glrdd, _ = max_eig_pair(A, np.eye(K) + G0)
    HX = Ht.conj().T @ Xt
    Bp = Ht.conj().T @ Ht
    _, theta = max_eig_pair(HX @ np.linalg.solve(np.eye(K) + G0, HX.conj().T), Bp)
    y = HX.conj().T @ theta
    return {"glrdd": glrdd, "amdd": amdd,
            "snrdd": float(np.real(y.conj() @ y)) / float(np.real(theta.conj() @ Bp @ theta)),
            "gadd": _ratio(amdd, float(np.real(np.trace(G0))))}


def dos_bank(X, S, H) -> dict:
    """Double-subspace GLRT and Wald in whitened space; Rao through ``M``."""
    X, S, H = _c(X), _c(S), _c(H)
    K = X.shape[1]
    T = linalg.inv_sqrt(S)
    Xt = T @ X
    W = linalg.orthonormal_basis(T @ H).conj().T @ Xt
    M0 = np.eye(K) + Xt.conj().T @ Xt
    M = S + X @ X.conj().T
    Mi_H = np.linalg.solve(M, H)
    B = X.conj().T @ Mi_H
    return {
        "glrt_dos": float(np.real(np.linalg.det(M0))) / float(
            np.real(np.linalg.det(M0 - W.conj().T @ W))),
        "rao_dos": float(np.real(np.trace(B @ np.linalg.solve(H.conj().T @ Mi_H, B.conj().T)))),
        "wald_dos": float(np.real(np.trace(W.conj().T @ W))),
    }


def distributed_family(X, S, s, H, L: int) -> dict:
    """Every distributed-family statistic, with the noise-power MLEs."""
    out = distributed_rank1_he(X, S, s)
    out.update(distributed_rank1_phe(X, S, s, L))
    out.update(direction_bank(X, S, H))
    out.update(dos_bank(X, S, H))
    return out
