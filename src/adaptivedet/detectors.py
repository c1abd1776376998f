"""Detector banks for a single instance: B = 1 calls of the batched kernels.

Each bank checks its outside input (a Hermitian positive definite sample
covariance, full-column-rank subspaces, a nonzero steering vector) and
returns the statistics that :mod:`adaptivedet.batcheval` computes for one
test vector or block, as a frozen dataclass.  The normative per-instance
forms the kernels are tested against live in ``tests/oracles.py``.
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
class RankOneStats:
    """Rank-one bank statistics and the SMI/AMF filter weights."""

    kglrt: float
    amf: float
    dmrao: float
    ace: float
    smi: float
    w_smi: np.ndarray
    w_amf: np.ndarray


@dataclass(frozen=True)
class ClairvoyantStats:
    """Known-covariance references: subspace matched filter, rank-one matched
    filter, and the MVDR weight."""

    smf: float
    mf: float
    w_mvdr: np.ndarray


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
    SNR surviving interference rejection, and the rejected/mismatched rest
    (floats for one signal, arrays for a stack)."""

    rho_eff: float
    delta2_i: float


@dataclass(frozen=True)
class DistributedHEStats:
    gkglrt: float
    gamf: float
    rao_he: float


@dataclass(frozen=True)
class DistributedPHEStats:
    glrt_phe: float
    gasd: float
    rao_phe: float
    wald_phe: float
    sigma0_hat: float
    sigma1_hat: float


@dataclass(frozen=True)
class DistributedStats(DistributedPHEStats, DistributedHEStats):
    """Combined rank-one distributed bank: the HE fields, then the PHE ones."""


@dataclass(frozen=True)
class DirectionStats:
    glrdd: float
    amdd: float
    snrdd: float
    gadd: float
    theta_max: np.ndarray


@dataclass(frozen=True)
class DosStats:
    glrt_dos: float
    rao_dos: float
    wald_dos: float


def _checked(S, *subspaces, steering=None):
    """``S`` as a one-instance stack, after checking that it is Hermitian
    positive definite (:class:`DefinitenessError`), that every subspace has
    full column rank (:class:`RankError`) and that ``steering`` is nonzero."""
    if steering is not None and not np.any(steering):
        raise ValueError("steering vector must be nonzero")
    S = np.asarray(S, dtype=np.complex128)
    linalg.hermitian_pd_eigh(S)
    for A in subspaces:
        linalg.orthonormal_basis(A)
    return S[None]


def _row(cls, stats, **extra):
    """``cls`` filled from row 0 of batched ``stats``; ``extra`` gives the
    fields that are not statistics."""
    return cls(**{f.name: float(stats[f.name][0]) for f in fields(cls)
                  if f.name not in extra}, **extra)


def _point(x, S, H, J=None, steering=None):
    """The point family of ``x`` (N,), or of a stack (G, N) against one ``S``."""
    H = np.asarray(H, dtype=np.complex128)
    HJ = H if J is None else np.concatenate([H, J], axis=1)
    x = np.reshape(x, (-1, H.shape[0]))
    S1 = _checked(S, HJ, steering=steering)
    return batcheval.point_family_stats(x, np.broadcast_to(S1, (len(x),) + S1.shape[1:]), H, J)


def _distributed(X, S, s=None, H=None, L=None):
    subspaces = () if H is None else (np.asarray(H, dtype=np.complex128),)
    S1 = _checked(S, *subspaces, steering=s)
    return batcheval.distributed_family_stats(np.asarray(X)[None], S1, s, H, L)


def subspace_bank(x, S, H) -> PointStats:
    """All subspace-bank statistics for test vector ``x``, sample covariance
    ``S``, and nominal subspace ``H``."""
    return _row(PointStats, _point(x, S, H))


def rank_one_bank(x, S, s) -> RankOneStats:
    """Rank-one statistics for steering vector ``s`` (the p = 1 bank).

    ``kglrt``/``amf``/``dmrao``/``ace`` are the p = 1 specializations of the
    subspace bank; the SMI additionally divides the AMF by the whitened
    steering energy and is therefore not CFAR.
    """
    s = np.asarray(s, dtype=np.complex128)
    stats = _point(x, S, s[:, None], steering=s)
    Si_s = np.linalg.solve(np.asarray(S, dtype=np.complex128), s)
    s_energy = float(np.real(s.conj() @ Si_s))
    return RankOneStats(
        kglrt=float(stats["sglrt"][0]),
        amf=float(stats["samf"][0]),
        dmrao=float(stats["srao"][0]),
        ace=float(stats["asd"][0]),
        smi=float(stats["smi"][0]),
        w_smi=Si_s / s_energy,
        w_amf=Si_s / np.sqrt(s_energy),
    )


def clairvoyant_bank(x, R, H) -> ClairvoyantStats:
    """Known-covariance references; the rank-one entries use the first column
    of ``H`` as the steering vector, and ``w_mvdr`` is the conjugated last row
    of the clairvoyant map."""
    R1 = _checked(R, H)
    prep = batcheval.prepare_point(R1, H, R=R1[0])
    stats = batcheval.evaluate_point(prep, np.asarray(x)[None])
    return ClairvoyantStats(smf=float(stats["smf"][0]), mf=float(stats["mf"][0]),
                            w_mvdr=prep.W[-1].conj())


def interference_bank(x, S, H, J) -> InterferenceStats:
    """All eight interference-rejection statistics plus the loss factor.

    With an empty ``J`` the bank reduces exactly to the corresponding
    point-target statistics.  ``wald_phe_i`` is nan when [H J] fills the
    space (p + q = N): the orthocomplement that normalizes it is empty.
    """
    return _row(InterferenceStats, _point(x, S, H, J))


def mismatch_geometry(s0, R, H, J) -> InterferenceGeometry:
    """Effective SNR and loss-factor noncentrality of an actual signal ``s0``
    (N,), or arrays of them for a stack of signals (G, N).

    They are the interference kernel's energies at S = R: ``rho_eff`` is
    ``ts_glrt_he_i``, the part of the J-orthogonalized signal matched by the
    J-orthogonalized nominal subspace, and ``delta2_i = 1/beta_i - 1`` the
    remainder.
    """
    stats = _point(s0, R, H, J)
    rho_eff, delta2_i = stats["ts_glrt_he_i"], np.maximum(1.0 / stats["beta_i"] - 1.0, 0.0)
    if np.ndim(s0) == 1:
        return InterferenceGeometry(rho_eff=float(rho_eff[0]), delta2_i=float(delta2_i[0]))
    return InterferenceGeometry(rho_eff=rho_eff, delta2_i=delta2_i)


def distributed_rank1_he(X, S, s) -> DistributedHEStats:
    """GLRT, 2S-GLRT (generalized AMF), and Rao statistics in the
    homogeneous environment for an N x K test block."""
    return _row(DistributedHEStats, _distributed(X, S, s=s))


def solve_sigma(eigs, target: float) -> float:
    """Root of ``sum_k lam_k / (lam_k + sigma^2) = target``: one row of
    :func:`adaptivedet.batcheval.solve_sigma_batch`.

    Eigenvalues at or below ``1e-12`` times the largest are treated as
    zero; the left side decreases strictly from the count of positive
    eigenvalues to zero, so the root exists iff ``0 < target < count``.
    """
    return float(batcheval.solve_sigma_batch(np.reshape(eigs, (1, -1)), target)[0])


def distributed_rank1_phe(X, S, s, L: int) -> DistributedPHEStats:
    """Partially homogeneous rank-one bank with the power-mismatch MLEs.

    ``L`` is the number of training vectors behind ``S``; the solvability
    precondition is ``N K / (L + K)`` below the positive-eigenvalue counts of
    the data Gram matrices.
    """
    return _row(DistributedPHEStats, _distributed(X, S, s=s, L=L))


def distributed_bank(X, S, s, L: int) -> DistributedStats:
    """The HE and PHE rank-one banks together."""
    return _row(DistributedStats, _distributed(X, S, s=s, L=L))


def direction_bank(X, S, H) -> DirectionStats:
    """Direction detectors: the steering vector is known only to lie in
    span(H), so the statistics maximize over that subspace via eigenpairs."""
    stats = _distributed(X, S, H=H)
    return _row(DirectionStats, stats, theta_max=stats["theta_max"][0])


def dos_bank(X, S, H) -> DosStats:
    """GLRT, Rao, and Wald statistics for a matrix signal with column
    structure in span(H) (double-subspace model with identity row structure)."""
    return _row(DosStats, _distributed(X, S, H=H))
