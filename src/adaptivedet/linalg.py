"""Complex Hermitian linear-algebra kernel.

Checked whitening, square-root and basis primitives for per-instance work:
signal geometry, and the input checks of the detector banks.  All functions
accept stacked inputs (leading batch axes) wherever the underlying LAPACK
drivers do.
"""

import numpy as np

from .errors import DefinitenessError, RankError

# Reciprocal condition numbers below this are treated as rank deficiency.
RCOND_LIMIT = 1e-12


def _as_complex(a) -> np.ndarray:
    return np.asarray(a, dtype=np.complex128)


def hermitian_pd_eigh(S, rtol: float = 1e-12):
    """Eigendecomposition ``(w, V)`` of a Hermitian positive definite ``S``.

    ``S`` is symmetrized to ``(S + S^H)/2`` first so the eigensolver sees an
    exactly Hermitian matrix.  Raises :class:`DefinitenessError` if ``S``
    deviates from Hermitian symmetry by more than ``rtol`` (relative) or has
    a non-positive eigenvalue.
    """
    S = _as_complex(S)
    scale = np.linalg.norm(S, axis=(-2, -1), keepdims=True)
    asym = np.linalg.norm(S - np.conj(np.swapaxes(S, -2, -1)), axis=(-2, -1), keepdims=True)
    if np.any(asym > rtol * np.maximum(scale, np.finfo(float).tiny)):
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


def herm_sqrt(S) -> np.ndarray:
    """Hermitian square root ``A`` with ``A A = S`` (eigendecomposition based)."""
    w, V = hermitian_pd_eigh(S)
    A = (V * np.sqrt(w)[..., None, :]) @ np.conj(np.swapaxes(V, -2, -1))
    return 0.5 * (A + np.conj(np.swapaxes(A, -2, -1)))


# perfbench's tracer resolves this name (tracer.WRAPS)
def orthonormal_basis(A) -> np.ndarray:
    """Orthonormal basis ``Q`` for the column span of a full-column-rank ``A``.

    Raises :class:`RankError` when the columns are numerically dependent
    (reciprocal condition number below ``RCOND_LIMIT``).
    """
    A = _as_complex(A)
    if A.shape[-1] == 0:
        return A
    if A.shape[-1] > A.shape[-2]:
        raise RankError("more columns than rows: cannot have full column rank")
    Q, R = np.linalg.qr(A)
    d = np.abs(np.diagonal(R, axis1=-2, axis2=-1))
    if np.any(d.min(axis=-1) <= RCOND_LIMIT * d.max(axis=-1)):
        raise RankError("matrix is numerically rank deficient")
    return Q
