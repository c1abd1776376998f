"""Analytic detection probability, false-alarm probability, and thresholds.

Every supported detector reduces, conditionally on its loss factor, to a
complex noncentral F variable compared against a threshold mapped into that
conditional scale; the map and the law's capabilities are the detector's row
in :mod:`adaptivedet.registry`.  Detection probability is the loss-factor
average of the conditional survival, computed by adaptive Gauss-Legendre
quadrature with panel splits at the event-region kinks.

A grid of cells that share a law (detector, threshold and degrees of
freedom) is integrated in lockstep: :func:`integrate_adaptive` keeps one
array of active panels over every cell and refines them all in one integrand
call per round, so a grid costs about ``max_depth`` vectorized calls instead
of one Python-level call per panel.  The loss-factor density is the finite
Kummer sum :func:`~.core.cbeta_pdf_nodes`, which takes each cell's own
noncentrality.  Every per-node operation is elementwise, so a cell's value
does not depend on which other cells share the call: :func:`pd_point` and
its siblings are one-cell calls of the grid functions.

A plan's thresholds are solved alike: :func:`thresholds_for_pfa` inverts the
point laws of many detectors in one elementwise root solve, each round one
quadrature whose cells carry their own detector and threshold, and each
threshold has the bits of its detector solved alone.
"""

import logging

import numpy as np

from .. import registry
from ..errors import InfeasibleError
from ..roots import find_root
from .core import cbeta_pdf_nodes, cchi2_sf_nodes, cf_sf_nodes
from .core import cbeta_pdf_grid  # noqa: F401 -- perfbench's tracer wraps this name here

QUAD_TOL = 1e-6
# log-threshold range searched for a false-alarm target: every supported
# false-alarm curve is near 1 at exp(-40) and negligible at exp(40)
LOG_ETA_BRACKET = (-40.0, 40.0)

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(15)

logger = logging.getLogger(__name__)


def integrate_adaptive(f, a: float, b: float, breakpoints=(), tol: float = QUAD_TOL,
                       max_depth: int = 48, n=None):
    """Adaptive 15-point Gauss-Legendre quadrature over ``[a, b]``, of one
    integral or of ``n`` integrals in lockstep.

    Panels are pre-split at ``breakpoints`` and then bisected until the
    two-half refinement of a panel changes its value by at most the panel's
    share of the absolute tolerance ``tol``; a panel still unresolved at
    ``max_depth`` is accepted as it stands, and one warning is logged per call
    that had any.  Each refinement round makes one call of ``f`` over every
    active panel of every integral, so there are at most ``max_depth + 1``.

    With ``n`` None, ``f(x)`` is one vectorized integrand on a 1-D array of
    nodes and a float is returned.  With an integer ``n``, ``f((cell, x))``
    evaluates integrand ``cell[i]`` at node ``x[i]``, and an array of the
    ``n`` integrals is returned; ``breakpoints`` may then also be one
    sequence per integral.  An integral's value does not depend on the
    others: panel sums run node by node and each integral adds its accepted
    panels in its own order.
    """
    count = 1 if n is None else int(n)
    width = len(_GL_NODES)
    shared = n is None or not any(np.ndim(bp) for bp in breakpoints)
    pts = [np.array([a] + sorted(p for p in set(bp) if a < p < b) + [b], dtype=float)
           for bp in ([breakpoints] if shared else breakpoints)]
    pts = pts * count if shared else pts

    def panel_sums(cell, lo, hi):
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        x = (mid[:, None] + half[:, None] * _GL_NODES).ravel()
        values = f(x) if n is None else f((np.repeat(cell, width), x))
        # a row-wise reduction, not a BLAS product: its result for a panel
        # must not depend on how many panels share the call
        return half * (np.asarray(values, dtype=float).reshape(-1, width) * _GL_WEIGHTS).sum(axis=1)

    cell = np.repeat(np.arange(count), [e.size - 1 for e in pts])
    lo = np.concatenate([e[:-1] for e in pts])
    hi = np.concatenate([e[1:] for e in pts])
    coarse = None
    total = np.zeros(count)
    for depth in range(max_depth + 1):
        mid = 0.5 * (lo + hi)
        # both halves of every active panel, and the first round's whole panels
        parts = ((lo, mid), (mid, hi)) + (((lo, hi),) if coarse is None else ())
        sums = panel_sums(np.tile(cell, len(parts)), np.concatenate([p[0] for p in parts]),
                          np.concatenate([p[1] for p in parts]))
        k = cell.size
        left, right = sums[:k], sums[k:2 * k]
        coarse = sums[2 * k:] if coarse is None else coarse
        fine = left + right
        done = np.abs(fine - coarse) <= tol * (hi - lo) / (b - a)
        if depth == max_depth and not done.all():
            logger.warning("quadrature reached max_depth=%d with %d unresolved panels in "
                           "%d of %d integrals; their values are accepted unrefined",
                           max_depth, np.count_nonzero(~done), np.unique(cell[~done]).size,
                           count)
            done[:] = True
        total += np.bincount(cell[done], weights=fine[done], minlength=count)
        if done.all():
            break
        # each split panel becomes its two halves in place, so every
        # integral's panels keep their left-to-right order
        keep = ~done
        cell = np.repeat(cell[keep], 2)
        lo, hi = (np.column_stack((lo[keep], mid[keep])).ravel(),
                  np.column_stack((mid[keep], hi[keep])).ravel())
        coarse = np.column_stack((left[keep], right[keep])).ravel()
    return float(total[0]) if n is None else total


def _pd_beta_mixture(detector, eta, f_m, f_n, f_noncentrality, beta_a, beta_b,
                     beta_delta, tol):
    """Average the conditional F survival over the loss-factor law, for every
    cell at once.

    ``eta``, ``f_noncentrality`` (the coefficient multiplying ``beta`` in the
    conditional noncentrality) and ``beta_delta`` are per-cell values that
    broadcast together; the result has their shape.  ``detector`` is one name,
    or a sequence of one per cell.
    """
    cells = np.broadcast_arrays(np.asarray(eta, dtype=float),
                                np.asarray(f_noncentrality, dtype=float),
                                np.asarray(beta_delta, dtype=float))
    shape, (etas, f_nc, beta_delta) = cells[0].shape, (c.ravel() for c in cells)
    dets = [detector] * etas.size if isinstance(detector, str) else detector
    pairs = list(zip(dets, etas.tolist()))
    # the distinct (detector, threshold) pairs, and the one of each cell
    index = {pair: k for k, pair in enumerate(dict.fromkeys(pairs))}
    laws, law = list(index), np.array([index[pair] for pair in pairs])

    def integrand(cell_beta):
        cell, beta = cell_beta
        dens = cbeta_pdf_nodes(beta_a, beta_b, beta_delta[cell], beta)
        g = np.empty_like(beta)
        for k, (d, e) in enumerate(laws):
            at = law[cell] == k if len(laws) > 1 else slice(None)
            g[at] = registry.lookup(d).threshold_map(e, beta[at])
        sf = np.zeros_like(beta)
        sf[g <= 0.0] = 1.0
        todo = (g > 0.0) & np.isfinite(g)
        if todo.any():
            sf[todo] = cf_sf_nodes(f_m, f_n, f_nc[cell[todo]] * beta[todo], g[todo])
        return dens * sf

    breaks = [registry.lookup(d).breakpoints(e) for d, e in laws]
    pd = integrate_adaptive(integrand, 0.0, 1.0, tol=tol, n=etas.size,
                            breakpoints=breaks[0] if len(laws) == 1 else [breaks[k] for k in law])
    # a threshold <= 0 is crossed with certainty
    return np.where(etas > 0.0, np.clip(pd, 0.0, 1.0), 1.0).reshape(shape)


def _cells(*values):
    """Per-cell arguments as equal-shape float arrays of at least one dimension."""
    return np.broadcast_arrays(*(np.atleast_1d(np.asarray(v, dtype=float)) for v in values))


def pd_point_grid(detector: str, N: int, p: int, L: int, rho, cos2phi, eta: float,
                  tol: float = QUAD_TOL) -> np.ndarray:
    """Detection probabilities of a point-target detector at threshold ``eta``
    over cells of output SNR ``rho`` (linear) and ``cos2phi``, the
    cosine-squared mismatch angle between the whitened actual signal and the
    whitened nominal subspace; one lockstep quadrature serves every cell.
    """
    rho, cos2phi = _cells(rho, cos2phi)
    spec = _check_point_args(detector, N, p, L, rho, cos2phi, eta)
    if not spec.loss_factor:  # the known-covariance chi-square, or the F law of the AED
        if spec.clairvoyant:  # the SMF sees only the matched energy
            return cchi2_sf_nodes(p, rho * cos2phi, eta)
        return cf_sf_nodes(N, L - N + 1, rho, eta)
    return _subspace_law(detector, N, p, 0, L, rho * cos2phi, rho * (1.0 - cos2phi), eta, tol)


def _subspace_law(detector, N, p, q, L, rho_eff, delta2, eta, tol):
    """The loss-factor mixture of a subspace GLRT-family law with ``q``
    interference dimensions rejected (q = 0 for the point bank)."""
    return _pd_beta_mixture(
        detector, eta,
        f_m=p, f_n=L - N + q + 1, f_noncentrality=rho_eff,
        beta_a=L - N + p + q + 1, beta_b=N - p - q, beta_delta=delta2,
        tol=tol,
    )


def pd_point(detector: str, N: int, p: int, L: int, rho: float, cos2phi: float,
             eta: float, tol: float = QUAD_TOL) -> float:
    """Detection probability of one cell of :func:`pd_point_grid`."""
    return float(pd_point_grid(detector, N, p, L, rho, cos2phi, eta, tol=tol)[0])


def pfa_point(detector: str, N: int, p: int, L: int, eta: float,
              tol: float = QUAD_TOL) -> float:
    """False-alarm probability: the zero-SNR case of :func:`pd_point`."""
    return pd_point(detector, N, p, L, 0.0, 1.0, eta, tol=tol)


def pd_distributed_grid(detector: str, N: int, K: int, L: int, rho, cos2phi_rk1,
                        eta: float, tol: float = QUAD_TOL) -> np.ndarray:
    """Detection probabilities of the rank-one distributed-target GLRT/2S-GLRT
    over cells of ``(rho, cos2phi_rk1)``."""
    spec = _law(detector, "distributed")
    if L < N or K < 1:
        raise ValueError("need L >= N and K >= 1")
    rho, cos2phi_rk1 = _cells(rho, cos2phi_rk1)
    _check_common(rho, cos2phi_rk1, eta)
    if spec.mismatch:  # the GLRT's loss factor carries the mismatched energy
        beta_a, beta_b, beta_delta = L + K - N + 1, N - 1, rho * (1.0 - cos2phi_rk1)
    else:  # the 2S-GLRT's loss factor is central under both hypotheses
        beta_a, beta_b, beta_delta = L - N + 2, N - 1, 0.0
    return _pd_beta_mixture(
        detector, eta,
        f_m=K, f_n=L - N + 1, f_noncentrality=rho * cos2phi_rk1,
        beta_a=beta_a, beta_b=beta_b, beta_delta=beta_delta,
        tol=tol,
    )


def pd_distributed(detector: str, N: int, K: int, L: int, rho: float,
                   cos2phi_rk1: float, eta: float, tol: float = QUAD_TOL) -> float:
    """Detection probability of one cell of :func:`pd_distributed_grid`."""
    return float(pd_distributed_grid(detector, N, K, L, rho, cos2phi_rk1, eta, tol=tol)[0])


def pd_interference_grid(detector: str, N: int, p: int, q: int, L: int, rho_eff,
                         delta2_i, eta: float, tol: float = QUAD_TOL) -> np.ndarray:
    """Detection probabilities of the interference-rejection GLRT family over
    cells of ``(rho_eff, delta2_i)``.

    ``rho_eff`` is the effective SNR surviving interference rejection and
    ``delta2_i`` the rejected/mismatched energy driving the loss factor.
    """
    _law(detector, "interference")
    if p + q >= N:
        raise ValueError("need p + q < N for a proper loss-factor law")
    if L < N:
        raise ValueError("need L >= N")
    rho_eff, delta2_i = _cells(rho_eff, delta2_i)
    if np.any(rho_eff < 0) or np.any(delta2_i < 0) or eta < 0:
        raise ValueError("rho_eff, delta2_i, and eta must be nonnegative")
    return _subspace_law(detector, N, p, q, L, rho_eff, delta2_i, eta, tol)


def pd_interference(detector: str, N: int, p: int, q: int, L: int,
                    rho_eff: float, delta2_i: float, eta: float,
                    tol: float = QUAD_TOL) -> float:
    """Detection probability of one cell of :func:`pd_interference_grid`."""
    return float(pd_interference_grid(detector, N, p, q, L, rho_eff, delta2_i, eta,
                                      tol=tol)[0])


def invert_pfa(pfa_of, pfa: float, rtol: float = 1e-3, names=("eta",)) -> np.ndarray:
    """Thresholds ``eta`` with ``|pfa_of(eta) - pfa| <= rtol * pfa``, one per
    element of ``names``; ``pfa_of`` maps an array of them elementwise.

    One :func:`find_root` call solves ``log(pfa_of / pfa) = 0`` in ``log eta``
    over ``LOG_ETA_BRACKET`` (tails are near-linear there), with the tolerance
    band flattened into an exact zero so that each element stops at its first
    threshold inside the band.  A failure names its elements and the target.
    """
    if not 0.0 < pfa < 1.0:
        raise InfeasibleError("target false-alarm probability must lie in (0, 1)")

    def excess(log_eta):
        ratio = np.asarray(pfa_of(np.exp(log_eta)), dtype=float) / pfa
        return np.where(np.abs(ratio - 1.0) <= rtol, 0.0, np.log(np.maximum(ratio, 1e-300)))

    try:
        root, value = find_root(excess, *(np.full(len(names), end) for end in LOG_ETA_BRACKET),
                                xtol=1e-12)
        failed, reason = value != 0.0, "did not converge"
    except InfeasibleError as exc:
        failed, reason = np.broadcast_to(exc.failed, len(names)), str(exc)
    if failed.any():
        raise InfeasibleError(f"false-alarm inversion for {', '.join(np.array(names)[failed])} "
                              f"at pfa {pfa:g} failed: {reason}")
    return np.exp(root)


def thresholds_for_pfa(detectors, N: int, p: int, L: int, pfa: float,
                       rtol: float = 1e-3, tol: float = QUAD_TOL) -> np.ndarray:
    """Thresholds inverting :func:`pfa_point` of each of ``detectors`` at
    (N, p, L) to relative accuracy ``rtol``, in one :func:`invert_pfa` solve
    whose closed forms (``smf``, ``aed``) and quadrature cells go in lockstep."""
    specs = [_check_point_args(d, N, p, L, 0.0, 1.0, 0.0) for d in detectors]
    mix = np.array([s.loss_factor for s in specs], dtype=bool)
    mixtures = [d for d, s in zip(detectors, specs) if s.loss_factor]

    def pfa_of(etas):
        out = np.array([0.0 if s.loss_factor else pd_point_grid(d, N, p, L, 0.0, 1.0, e)[0]
                        for d, s, e in zip(detectors, specs, etas)])
        if mixtures:
            out[mix] = _subspace_law(mixtures, N, p, 0, L, 0.0, 0.0, etas[mix], tol)
        return out

    return invert_pfa(pfa_of, pfa, rtol, names=detectors)


def threshold_for_pfa(detector: str, N: int, p: int, L: int, pfa: float,
                      rtol: float = 1e-3, tol: float = QUAD_TOL) -> float:
    """The threshold of one detector by :func:`thresholds_for_pfa`."""
    return float(thresholds_for_pfa([detector], N, p, L, pfa, rtol, tol)[0])


def _law(detector, kind):
    """The registry row of ``detector``, which must have a ``kind`` law."""
    spec = registry.lookup(detector)
    if spec.law != kind:
        raise ValueError(f"no {kind} law for detector {detector!r}")
    return spec


def _check_point_args(detector, N, p, L, rho, cos2phi, eta):
    spec = _law(detector, "point")
    if L < N:
        raise ValueError("need L >= N training vectors")
    if not 1 <= p <= N:
        raise ValueError("need 1 <= p <= N")
    if spec.rank_one and p != 1:
        raise ValueError(f"{detector!r} is a rank-one detector: its law needs p = 1")
    if p == N and spec.loss_factor:
        raise ValueError("loss-factor mixture needs p < N")
    _check_common(rho, cos2phi, eta)
    return spec


def _check_common(rho, cos2phi, eta):
    if np.any(rho < 0):
        raise ValueError("SNR must be nonnegative")
    if not np.all((0.0 <= cos2phi) & (cos2phi <= 1.0)):
        raise ValueError("cos2phi must lie in [0, 1]")
    if eta < 0:
        raise ValueError("threshold must be nonnegative")
