"""Two single-instance banks: B = 1 calls of the point kernel.

Every statistic lives in the batched kernels of :mod:`adaptivedet.batcheval`,
which check their own input; reach a family there, at B = 1 if need be.
These two banks remain because the benchmark's tracer resolves them by name.
Each checks that ``S`` is Hermitian positive definite and that [H J] has full
column rank, through :mod:`adaptivedet.linalg`, and returns the statistics of
one test vector as a frozen dataclass.  The normative per-instance forms the
kernels are tested against live in ``tests/oracles.py``.
"""

from dataclasses import dataclass, fields

import numpy as np

from . import batcheval, linalg


@dataclass(frozen=True)
class PointStats:
    """Subspace-bank statistics plus the loss factor ``beta``."""

    sglrt: float
    srao: float
    samf: float
    asd: float
    sabort: float
    wsabort: float
    dnsamf: float
    aed: float
    beta: float


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


def _row(cls, x, S, H, J=None):
    """``cls`` filled from the point kernel on ``x`` (N,), after checking that
    ``S`` is Hermitian positive definite (:class:`DefinitenessError`) and
    that [H J] has full column rank (:class:`RankError`)."""
    S = np.asarray(S, dtype=np.complex128)
    H = np.asarray(H, dtype=np.complex128)
    linalg.hermitian_pd_eigh(S)
    linalg.orthonormal_basis(H if J is None else np.concatenate([H, J], axis=1))
    stats = batcheval.point_family_stats(np.reshape(x, (1, -1)), S[None], H, J)
    return cls(**{f.name: float(stats[f.name][0]) for f in fields(cls)})


# perfbench's tracer resolves this name (tracer.WRAPS)
def subspace_bank(x, S, H) -> PointStats:
    """All subspace-bank statistics for test vector ``x``, sample covariance
    ``S``, and nominal subspace ``H``."""
    return _row(PointStats, x, S, H)


# perfbench's tracer resolves this name (tracer.WRAPS)
def interference_bank(x, S, H, J) -> InterferenceStats:
    """All eight interference-rejection statistics plus the loss factor.

    With an empty or None ``J`` the bank reduces exactly to the corresponding
    point-target statistics.  ``wald_phe_i`` is nan when [H J] fills the
    space (p + q = N): the orthocomplement that normalizes it is empty.
    """
    return _row(InterferenceStats, x, S, H, np.zeros((np.shape(H)[0], 0)) if J is None else J)
