"""Complex Hermitian linear-algebra kernel.

Checked whitening and basis primitives: the one whitening of every
covariance, the inverse of its Cholesky factor (:func:`whitener`), the
rank-checked QR of the batched kernels, and the eigendecomposition checks of
the per-instance banks.  All functions accept stacked inputs (leading batch
axes) wherever the underlying LAPACK routines do.
"""

import numpy as np

from .errors import DefinitenessError, RankError

# Reciprocal condition numbers below this are treated as rank deficiency.
RCOND_LIMIT = 1e-12
# Relative departures from Hermitian symmetry above this are rejected.
HERMITIAN_RTOL = 1e-12


def hermitian_pd_eigh(S):
    """Eigendecomposition ``(w, V)`` of a Hermitian positive definite ``S``.

    ``S`` is symmetrized to ``(S + S^H)/2`` first so the eigensolver sees an
    exactly Hermitian matrix.  Raises :class:`DefinitenessError` if ``S``
    deviates from Hermitian symmetry by more than ``HERMITIAN_RTOL``
    (relative) or has a non-positive eigenvalue.
    """
    S = np.asarray(S, dtype=np.complex128)
    scale = np.linalg.norm(S, axis=(-2, -1), keepdims=True)
    asym = np.linalg.norm(S - np.conj(np.swapaxes(S, -2, -1)), axis=(-2, -1), keepdims=True)
    if np.any(asym > HERMITIAN_RTOL * np.maximum(scale, np.finfo(float).tiny)):
        raise DefinitenessError("matrix is not Hermitian to the required tolerance")
    w, V = np.linalg.eigh(0.5 * (S + np.conj(np.swapaxes(S, -2, -1))))
    if np.any(w[..., 0] <= 0):
        raise DefinitenessError("matrix has a non-positive eigenvalue")
    return w, V


# perfbench's tracer resolves this name (tracer.WRAPS)
def inv_sqrt(S) -> np.ndarray:
    """Hermitian inverse square root ``T`` with ``T S T = I``.

    Computed from the eigendecomposition of ``S`` so the result is itself
    Hermitian positive definite and commutes with ``S``.
    """
    w, V = hermitian_pd_eigh(S)
    T = (V * (1.0 / np.sqrt(w))[..., None, :]) @ np.conj(np.swapaxes(V, -2, -1))
    return 0.5 * (T + np.conj(np.swapaxes(T, -2, -1)))


def cholesky(S) -> np.ndarray:
    """Lower Cholesky factor ``A`` (``A A^H = S``) of the stacked Hermitian
    positive definite ``S``, else :class:`DefinitenessError`.  Only the lower
    triangle of ``S`` is read: no symmetry check runs here."""
    try:
        return np.linalg.cholesky(S)
    except np.linalg.LinAlgError:
        raise DefinitenessError("matrix is not positive definite") from None


def lower_inverse(T) -> np.ndarray:
    """Inverse of the lower-triangular ``T`` (..., N, N) with real positive
    diagonal, by forward substitution one row at a time: exactly lower
    triangular, and each matrix's bits independent of the stack, so the
    batched callers' output ignores the batch size."""
    N = T.shape[-1]
    diag = np.diagonal(T, axis1=-2, axis2=-1).real
    X = np.zeros_like(T)
    for i in range(N):
        X[..., i, i] = 1.0 / diag[..., i]
        X[..., i:i + 1, :i] = -(T[..., i:i + 1, :i] @ X[..., :i, :i]) / diag[..., i, None, None]
    return X


def whitener(S) -> np.ndarray:
    """Inverse Cholesky factor ``T`` of the stacked Hermitian positive
    definite ``S`` (:func:`cholesky`): ``T S T^H = I``, so ``T^H T = S^-1``
    and every ``S^-1`` quadratic form is an inner product of whitened
    vectors.  Any square root of ``S`` whitens equally well; the triangular
    one is the cheapest."""
    return lower_inverse(cholesky(S))


def full_rank_qr(A):
    """Reduced QR ``(Q, R)`` of the stacked ``A`` (..., N, m), m >= 1, after
    checking that every ``A`` has full column rank: ``m <= N`` and the
    smallest ``|diag R|`` above ``RCOND_LIMIT`` times the largest (a
    reciprocal condition number); raises :class:`RankError` otherwise."""
    if A.shape[-1] > A.shape[-2]:
        raise RankError("more columns than rows: cannot have full column rank")
    Q, R = np.linalg.qr(A)
    d = np.abs(np.diagonal(R, axis1=-2, axis2=-1))
    if np.any(d.min(axis=-1) <= RCOND_LIMIT * d.max(axis=-1)):
        raise RankError("matrix is numerically rank deficient")
    return Q, R


# perfbench's tracer resolves this name (tracer.WRAPS)
def orthonormal_basis(A) -> np.ndarray:
    """Orthonormal basis ``Q`` for the column span of a full-column-rank ``A``
    (:func:`full_rank_qr`); an ``A`` with no columns is its own basis."""
    A = np.asarray(A, dtype=np.complex128)
    if A.shape[-1] == 0:
        return A
    return full_rank_qr(A)[0]
