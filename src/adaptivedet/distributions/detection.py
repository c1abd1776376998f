"""Analytic detection probability, false-alarm probability, and thresholds.

Every supported detector reduces, conditionally on its loss factor, to a
complex noncentral F variable compared against a detector-specific threshold
map into that conditional scale.  Detection probability is the loss-factor
average of the conditional survival, computed by adaptive Gauss-Legendre
quadrature with panel splits at the event-region kinks.
"""

import numpy as np

from ..errors import InfeasibleError
from ..roots import find_root
from .core import ComplexChi2, ComplexF, cbeta_pdf_grid, cf_sf_nodes

QUAD_TOL = 1e-6
# log-threshold range searched for a false-alarm target: every supported
# false-alarm curve is near 1 at exp(-40) and negligible at exp(40)
LOG_ETA_BRACKET = (-40.0, 40.0)

POINT_DETECTORS = (
    "sglrt", "samf", "srao", "asd", "sabort", "wsabort", "dnsamf", "aed", "smf",
)
DISTRIBUTED_DETECTORS = ("gkglrt", "gamf")
INTERFERENCE_DETECTORS = ("glrt_he_i", "ts_glrt_he_i", "glrt_phe_i")

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(15)


def integrate_adaptive(f, a: float, b: float, breakpoints=(), tol: float = QUAD_TOL,
                       max_depth: int = 48):
    """Adaptive 15-point Gauss-Legendre quadrature of a vectorized ``f``.

    Panels are pre-split at ``breakpoints`` and then bisected until the
    two-half refinement of a panel changes its value by less than the
    panel's share of the absolute tolerance ``tol``.
    """
    pts = [a] + sorted(p for p in set(breakpoints) if a < p < b) + [b]

    def panel(lo, hi):
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        return half * float(_GL_WEIGHTS @ f(mid + half * _GL_NODES))

    total = 0.0
    stack = [(lo, hi, panel(lo, hi), 0) for lo, hi in zip(pts[:-1], pts[1:])]
    while stack:
        lo, hi, coarse, depth = stack.pop()
        mid = 0.5 * (lo + hi)
        left = panel(lo, mid)
        right = panel(mid, hi)
        fine = left + right
        if depth >= max_depth or abs(fine - coarse) <= tol * (hi - lo) / (b - a):
            total += fine
        else:
            stack.append((lo, mid, left, depth + 1))
            stack.append((mid, hi, right, depth + 1))
    return total


def _sglrt_space_threshold(detector: str, eta: float, beta: np.ndarray):
    """Map a detector threshold to the conditional (SGLRT-scale) threshold.

    Returns ``(g, feasible)``: the event ``statistic > eta`` given a loss
    factor ``beta`` equals ``conditional F > g`` where feasible, and has
    probability zero elsewhere.  ``g <= 0`` means certain exceedance.
    """
    feasible = np.ones_like(beta, dtype=bool)
    if detector in ("sglrt", "glrt_he_i", "gkglrt"):
        g = np.full_like(beta, eta)
    elif detector in ("samf", "ts_glrt_he_i", "gamf"):
        g = eta * beta
    elif detector == "sabort":
        g = eta - beta
    elif detector == "wsabort":
        with np.errstate(divide="ignore"):
            g = eta / beta - 1.0
    elif detector == "srao":
        feasible = beta > eta
        with np.errstate(divide="ignore", invalid="ignore"):
            g = np.where(feasible, eta / (beta - eta), np.inf)
    elif detector == "dnsamf":
        feasible = beta > eta
        with np.errstate(divide="ignore", invalid="ignore"):
            g = np.where(feasible, eta * (1.0 - beta) / (beta - eta), np.inf)
    elif detector in ("asd", "glrt_phe_i"):
        if eta >= 1.0:
            feasible = np.zeros_like(beta, dtype=bool)
            g = np.full_like(beta, np.inf)
        else:
            g = eta * (1.0 - beta) / (1.0 - eta)
    elif detector == "aed":
        g = (1.0 + eta) * beta - 1.0
    else:
        raise ValueError(f"no conditional threshold map for detector {detector!r}")
    return g, feasible


def _event_breakpoints(detector: str, eta: float):
    if detector in ("srao", "dnsamf", "sabort"):
        return (eta,)
    if detector == "aed":
        return (1.0 / (1.0 + eta),)
    return ()


def _pd_beta_mixture(detector, eta, f_m, f_n, f_noncentrality, beta_a, beta_b,
                     beta_delta, tol):
    """Average the conditional F survival over the loss-factor law.

    ``f_noncentrality`` is the coefficient multiplying ``beta`` in the
    conditional noncentrality.
    """
    if eta <= 0.0:
        return 1.0

    def integrand(beta):
        dens = cbeta_pdf_grid(beta_a, beta_b, beta_delta, beta)
        g, feasible = _sglrt_space_threshold(detector, eta, beta)
        sf = np.zeros_like(beta)
        certain = feasible & (g <= 0.0)
        sf[certain] = 1.0
        todo = feasible & (g > 0.0) & np.isfinite(g)
        if np.any(todo):
            sf[todo] = cf_sf_nodes(f_m, f_n, f_noncentrality * beta[todo], g[todo])
        return dens * sf

    return float(np.clip(
        integrate_adaptive(integrand, 0.0, 1.0,
                           breakpoints=_event_breakpoints(detector, eta), tol=tol),
        0.0, 1.0))


def pd_point(detector: str, N: int, p: int, L: int, rho: float, cos2phi: float,
             eta: float, tol: float = QUAD_TOL) -> float:
    """Detection probability of a point-target detector at threshold ``eta``.

    ``rho`` is the output SNR (linear) and ``cos2phi`` the cosine-squared
    mismatch angle between the whitened actual signal and the whitened
    nominal subspace.
    """
    _check_point_args(detector, N, p, L, rho, cos2phi, eta)
    if detector == "aed":
        return float(ComplexF(N, L - N + 1, rho).sf(eta)) if eta > 0 else 1.0
    if detector == "smf":
        return float(ComplexChi2(p, rho).sf(eta)) if eta > 0 else 1.0
    return _pd_beta_mixture(
        detector, eta,
        f_m=p, f_n=L - N + 1, f_noncentrality=rho * cos2phi,
        beta_a=L - N + p + 1, beta_b=N - p, beta_delta=rho * (1.0 - cos2phi),
        tol=tol,
    )


def pfa_point(detector: str, N: int, p: int, L: int, eta: float,
              tol: float = QUAD_TOL) -> float:
    """False-alarm probability: the zero-SNR case of :func:`pd_point`."""
    return pd_point(detector, N, p, L, 0.0, 1.0, eta, tol=tol)


def pd_distributed(detector: str, N: int, K: int, L: int, rho: float,
                   cos2phi_rk1: float, eta: float, tol: float = QUAD_TOL) -> float:
    """Detection probability of the rank-one distributed-target GLRT/2S-GLRT."""
    if detector not in DISTRIBUTED_DETECTORS:
        raise ValueError(f"unsupported distributed detector {detector!r}")
    if L < N or K < 1:
        raise ValueError("need L >= N and K >= 1")
    _check_common(rho, cos2phi_rk1, eta)
    if detector == "gkglrt":
        beta_a, beta_b, beta_delta = L + K - N + 1, N - 1, rho * (1.0 - cos2phi_rk1)
    else:  # gamf: the loss factor is central under both hypotheses
        beta_a, beta_b, beta_delta = L - N + 2, N - 1, 0.0
    return _pd_beta_mixture(
        detector, eta,
        f_m=K, f_n=L - N + 1, f_noncentrality=rho * cos2phi_rk1,
        beta_a=beta_a, beta_b=beta_b, beta_delta=beta_delta,
        tol=tol,
    )


def pd_interference(detector: str, N: int, p: int, q: int, L: int,
                    rho_eff: float, delta2_i: float, eta: float,
                    tol: float = QUAD_TOL) -> float:
    """Detection probability of the interference-rejection GLRT family.

    ``rho_eff`` is the effective SNR surviving interference rejection and
    ``delta2_i`` the rejected/mismatched energy driving the loss factor.
    """
    if detector not in INTERFERENCE_DETECTORS:
        raise ValueError(f"unsupported interference detector {detector!r}")
    if p + q >= N:
        raise ValueError("need p + q < N for a proper loss-factor law")
    if L < N:
        raise ValueError("need L >= N")
    if rho_eff < 0 or delta2_i < 0 or eta < 0:
        raise ValueError("rho_eff, delta2_i, and eta must be nonnegative")
    return _pd_beta_mixture(
        detector, eta,
        f_m=p, f_n=L - N + q + 1, f_noncentrality=rho_eff,
        beta_a=L - N + p + q + 1, beta_b=N - p - q, beta_delta=delta2_i,
        tol=tol,
    )


def invert_pfa(pfa_of, pfa: float, rtol: float = 1e-3) -> float:
    """Threshold ``eta`` with ``|pfa_of(eta) - pfa| <= rtol * pfa``.

    ``pfa_of`` is a nonincreasing false-alarm curve.  :func:`find_root`
    solves ``log(pfa_of / pfa) = 0`` in ``log eta`` over ``LOG_ETA_BRACKET``
    (tails are near-linear there), with the tolerance band flattened into an
    exact zero so that it stops at the first threshold inside the band.
    """
    if not 0.0 < pfa < 1.0:
        raise InfeasibleError("target false-alarm probability must lie in (0, 1)")

    def excess(log_eta):
        ratio = pfa_of(float(np.exp(log_eta))) / pfa
        return 0.0 if abs(ratio - 1.0) <= rtol else float(np.log(max(ratio, 1e-300)))

    try:
        root, value = find_root(excess, *LOG_ETA_BRACKET, xtol=1e-12)
    except InfeasibleError as exc:
        raise InfeasibleError(f"false-alarm inversion failed: {exc}") from None
    if value != 0.0:
        raise InfeasibleError("false-alarm inversion did not converge")
    return float(np.exp(root))


def threshold_for_pfa(detector: str, N: int, p: int, L: int, pfa: float,
                      rtol: float = 1e-3, tol: float = QUAD_TOL) -> float:
    """Invert ``pfa_point`` to relative accuracy ``rtol`` (see :func:`invert_pfa`)."""
    return invert_pfa(lambda eta: pfa_point(detector, N, p, L, eta, tol=tol), pfa, rtol)


def _check_point_args(detector, N, p, L, rho, cos2phi, eta):
    if detector not in POINT_DETECTORS:
        raise ValueError(f"unsupported point detector {detector!r}")
    if L < N:
        raise ValueError("need L >= N training vectors")
    if not 1 <= p <= N:
        raise ValueError("need 1 <= p <= N")
    if p == N and detector not in ("aed", "smf"):
        raise ValueError("loss-factor mixture needs p < N")
    _check_common(rho, cos2phi, eta)


def _check_common(rho, cos2phi, eta):
    if rho < 0:
        raise ValueError("SNR must be nonnegative")
    if not 0.0 <= cos2phi <= 1.0:
        raise ValueError("cos2phi must lie in [0, 1]")
    if eta < 0:
        raise ValueError("threshold must be nonnegative")
