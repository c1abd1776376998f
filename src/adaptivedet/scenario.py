"""Simulation scenarios: covariance models, steering subspaces, mismatch
geometry, and Gaussian test/training data synthesis."""

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import GeometryError, RankError

HOMOGENEOUS = "he"
PARTIALLY_HOMOGENEOUS = "phe"


def db_to_power(db: float) -> float:
    """The power ratio ``10^(db/10)``: inf where it overflows, which a finite
    ``db`` above about 3082.5 does."""
    try:
        return 10.0 ** (db / 10.0)
    except OverflowError:
        return math.inf


def complex_normal(rng, shape) -> np.ndarray:
    """Standard circular complex Gaussian draws with E[w w^H] = I.

    Real and imaginary parts are independent N(0, 1/2); the real block is
    drawn before the imaginary block so the consumption order is part of the
    reproducibility contract.
    """
    g1 = rng.standard_normal(shape)
    g2 = rng.standard_normal(shape)
    return (g1 + 1j * g2) / np.sqrt(2.0)


@dataclass(frozen=True)
class CovarianceModel:
    """Noise covariance family: identity, AR(1), or AR(1) clutter plus white floor."""

    kind: str = "ar1"
    rho: float = 0.9
    cnr_db: float = 30.0

    def __post_init__(self):
        if self.kind not in ("identity", "ar1", "ar1_plus_white"):
            raise ValueError(f"unknown covariance kind {self.kind!r}")
        if self.kind != "identity" and not 0.0 <= self.rho < 1.0:
            raise ValueError("one-lag correlation must lie in [0, 1)")
        if not (np.isfinite(self.cnr_db) and np.isfinite(db_to_power(self.cnr_db))):
            raise ValueError("clutter-to-noise ratio must be finite, in dB and as a power ratio")

    @classmethod
    def identity(cls) -> "CovarianceModel":
        return cls(kind="identity", rho=0.0)

    @classmethod
    def ar1(cls, rho: float) -> "CovarianceModel":
        return cls(kind="ar1", rho=rho)

    @classmethod
    def ar1_plus_white(cls, rho: float, cnr_db: float) -> "CovarianceModel":
        return cls(kind="ar1_plus_white", rho=rho, cnr_db=cnr_db)

    @classmethod
    def parse(cls, text: str) -> "CovarianceModel":
        """Parse ``identity``, ``ar1:RHO``, or ``ar1w:RHO:CNR_DB``."""
        parts = text.strip().split(":")
        if parts[0] == "identity":
            return cls.identity()
        if parts[0] == "ar1" and len(parts) == 2:
            return cls.ar1(float(parts[1]))
        if parts[0] in ("ar1w", "ar1_plus_white") and len(parts) == 3:
            return cls.ar1_plus_white(float(parts[1]), float(parts[2]))
        raise ValueError(f"cannot parse covariance model {text!r}")

    def label(self) -> str:
        if self.kind == "identity":
            return "identity"
        if self.kind == "ar1":
            return f"ar1:{self.rho:g}"
        return f"ar1w:{self.rho:g}:{self.cnr_db:g}"

    def build(self, N: int) -> np.ndarray:
        """The model's N x N Hermitian positive definite covariance matrix."""
        if N < 1:
            raise ValueError("dimension must be at least 1")
        if self.kind == "identity":
            return np.eye(N, dtype=np.complex128)
        idx = np.arange(N)
        ar1 = self.rho ** np.abs(idx[:, None] - idx[None, :])
        if self.kind == "ar1":
            return ar1.astype(np.complex128)
        cnr = db_to_power(self.cnr_db)
        return (cnr * ar1 + np.eye(N)).astype(np.complex128)


@dataclass(frozen=True)
class ScenarioConfig:
    """Dimensions and environment of one detection experiment."""

    N: int
    p: int
    L: int
    q: int = 0
    K: int = 1
    environment: str = HOMOGENEOUS
    sigma2: float = 1.0
    pfa: float = 1e-3

    def __post_init__(self):
        if not 1 <= self.p <= self.N:
            raise ValueError("need 1 <= p <= N")
        if self.q < 0 or self.p + self.q > self.N:
            raise ValueError("need q >= 0 and p + q <= N")
        if self.K < 1:
            raise ValueError("need K >= 1")
        if self.L < self.N:
            raise ValueError("need L >= N so the sample covariance is invertible")
        if self.environment not in (HOMOGENEOUS, PARTIALLY_HOMOGENEOUS):
            raise ValueError("environment must be 'he' or 'phe'")
        if not 0.0 < self.sigma2 < np.inf:
            raise ValueError("sigma2 must be positive and finite")
        if not 0.0 < self.pfa < 1.0:
            raise ValueError("pfa must lie in (0, 1)")

    @property
    def test_scale(self) -> float:
        """Amplitude scaling of the test-data noise relative to training."""
        if self.environment == PARTIALLY_HOMOGENEOUS:
            return float(np.sqrt(self.sigma2))
        return 1.0


def steering_vector(N: int, freq: float) -> np.ndarray:
    """Temporal steering vector [1, e^{j2 pi f}, ..., e^{j2 pi f (N-1)}]^T."""
    return np.exp(2j * np.pi * freq * np.arange(N))


def nominal_subspace(N: int, p: int, freqs) -> np.ndarray:
    """N x p full-rank subspace matrix of steering vectors at ``freqs``.

    Duplicate frequencies make the matrix rank deficient and are rejected.
    """
    freqs = [float(f) for f in freqs]
    if len(freqs) != p:
        raise ValueError("need exactly p frequencies")
    if len(set(freqs)) != len(freqs):
        raise RankError("duplicate steering frequencies give a rank-deficient subspace")
    H = np.stack([steering_vector(N, f) for f in freqs], axis=1)
    linalg.orthonormal_basis(H)
    return H


def default_geometry(N: int, p: int, q: int = 0):
    """Deterministic (H, J) steering subspaces on one evenly spread frequency grid."""
    freqs = [(i + 1.0) / (p + q + 1.0) for i in range(p + q)]
    H = nominal_subspace(N, p, freqs[:p])
    J = nominal_subspace(N, q, freqs[p:]) if q else np.zeros((N, 0), dtype=np.complex128)
    return H, J


def signal_builder(H: np.ndarray, R: np.ndarray):
    """Signal vectors of exact output SNR and mismatch angle for one (H, R),
    whitened once, as ``build(rho, cos2phi, rng)``: ``ValueError`` unless
    ``0 <= rho < inf`` and ``0 <= cos2phi <= 1``.

    In the white frame of ``R = A A^H``, A its Cholesky factor (the trial
    engine's frame, :func:`~adaptivedet.linalg.whitener`), the signal is
    ``s_bar = sqrt(rho) (cos(phi) u + sin(phi) w)``, ``u`` and ``w`` unit
    vectors drawn from ``rng`` in the whitened span of ``H`` and in its
    orthocomplement; ``build`` returns ``A s_bar``.
    """
    N, p = H.shape
    A = linalg.cholesky(R)
    Q = linalg.orthonormal_basis(linalg.lower_inverse(A) @ H)

    def build(rho: float, cos2phi: float, rng: np.random.Generator) -> np.ndarray:
        if not 0.0 <= cos2phi <= 1.0:
            raise ValueError("cos2phi must lie in [0, 1]")
        if not 0.0 <= rho < math.inf:
            raise ValueError("SNR must be a finite, nonnegative power ratio")
        u = Q @ complex_normal(rng, p)
        u, w = u / np.linalg.norm(u), 0.0
        if cos2phi < 1.0:
            if p == N:
                raise GeometryError("cannot mismatch a signal when the subspace fills the space")
            raw = complex_normal(rng, N)
            w = raw - Q @ (Q.conj().T @ raw)
            norm = np.linalg.norm(w)
            if norm < 1e-12:
                raise GeometryError("degenerate orthocomplement draw")
            w = w / norm
        s_bar = np.sqrt(rho) * (np.sqrt(cos2phi) * u + np.sqrt(1.0 - cos2phi) * w)
        return A @ s_bar

    return build


def assemble_noise(normals, gammas, test, N: int, K: int):
    """Turn flat white draws, one trial per row, into the Bartlett factor
    ``T`` (B, N, N) and the complex test noise (B, N, K).

    ``normals`` (B, N(N-1)) holds the real, then the imaginary parts of T's
    strict lower triangle in row-major order, ``gammas`` (B, N) the squared
    diagonal, and ``test`` (B, 2NK) the real, then the imaginary test noise.
    With ``T_ii^2 ~ Gamma(L - i + 1)`` (i = 1..N), ``T T^H`` is a white
    sample covariance of L snapshots, CW(L, I) (the Bartlett decomposition of
    the complex Wishart law, Goodman 1963), and T its Cholesky factor.  This
    layout is the trial engine's reproducibility contract.
    """
    B = normals.shape[0]
    m = N * (N - 1) // 2
    rows, cols = np.tril_indices(N, -1)
    # (real, imaginary) pairs, row-major and flat-indexed, viewed as complex
    T = np.zeros((B, N * N, 2))
    T[:, rows * N + cols] = (normals / np.sqrt(2.0)).reshape(B, 2, m).transpose(0, 2, 1)
    T[:, ::N + 1, 0] = np.sqrt(gammas)
    ns = N * K
    w = (test / np.sqrt(2.0)).reshape(B, 2, ns).transpose(0, 2, 1).copy()
    return T.view(np.complex128).reshape(B, N, N), w.view(np.complex128).reshape(B, N, K)
