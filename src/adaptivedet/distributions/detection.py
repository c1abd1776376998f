"""Analytic detection probability, false-alarm probability, and thresholds.

Every analytic law here is the complex noncentral F of Kelly (1986) averaged
over a loss factor, a mixture with four integer parameters, or one of two
closed forms (the ``smf`` chi-square and the ``aed`` F).  :func:`resolve_law`
decides once per detector and scenario which law applies and with what
parameters, or why none does; everything else takes its :class:`Law`.

Detection probability is the loss-factor average of the conditional
survival, by adaptive Gauss-Legendre quadrature with panel splits at the
event's kinks and, where the loss factor's density is narrow (high SNR off
the subspace), on its bulk, which the first round then already brackets
(:func:`_bulk_breakpoints`).  :func:`integrate_adaptive` refines the panels
of every cell of a call in one integrand call per round, and every per-node
operation is elementwise, so a cell's value does not depend on which other
cells share the call.  :func:`pd_grid` evaluates several laws, each at its
threshold and cells, in one such call, so laws that share parameters share
each round, and each keeps the bits of its own call (:func:`pd_cells`;
:func:`pd_point` is one cell of a point law).  A PD needs only the absolute
``QUAD_TOL``, so the integrand's noncentral survivals are ``1 - cdf``
(:func:`_pd_sf`); the false-alarm probabilities, all central, keep their
relative accuracy.  Thresholds are solved alike: :func:`thresholds_for_pfa`
inverts any mix of laws in one elementwise root solve, with one evaluation
per distinct law parameters each round, and each threshold has the bits of
its law solved alone.
"""

import logging
import math
from dataclasses import dataclass

import numpy as np

from .. import registry
from ..errors import InfeasibleError
from ..roots import find_root
from ..scenario import HOMOGENEOUS, PARTIALLY_HOMOGENEOUS
from .core import _cf_series, cbeta_pdf_nodes, cchi2_sf_nodes, cf_sf_nodes
from .core import cbeta_pdf_grid  # noqa: F401 -- perfbench's tracer wraps this name here

QUAD_TOL = 1e-6
# unresolved panels an integral may carry into a refinement round: past it the
# integrand's own rounding, not the quadrature, limits the accuracy
MAX_PANELS = 256
# a narrow loss-factor density starts its quadrature with breakpoints on its
# bulk: the Gamma(a, 1) quantiles of about BULK_TAIL in each tail, scaled to
# the cell, where the upper one lies below BULK_CUT (_bulk_breakpoints)
BULK_TAIL = 1e-12
BULK_CUT = 0.5
# log-threshold range searched for a false-alarm target: every supported
# false-alarm curve is near 1 at exp(-40) and negligible at exp(40)
LOG_ETA_BRACKET = (-40.0, 40.0)

# leggauss(15) as a literal table (bit-equal, tested), so that no run imports
# numpy.polynomial: the nonnegative nodes and their weights, mirrored below
_GL_X = (0.0, 0.20119409399743451, 0.3941513470775634, 0.5709721726085388,
         0.7244177313601701, 0.8482065834104272, 0.9372733924007058, 0.9879925180204854)
_GL_W = (0.2025782419255613, 0.1984314853271116, 0.1861610000155622, 0.16626920581699398,
         0.13957067792615444, 0.10715922046717141, 0.0703660474881084, 0.030753241996117203)
_GL_NODES = np.array([-x for x in _GL_X[:0:-1]] + list(_GL_X))
_GL_WEIGHTS = np.array(_GL_W[:0:-1] + _GL_W)

logger = logging.getLogger(__name__)


def integrate_adaptive(f, a: float, b: float, n: int, breakpoints=(), tol: float = QUAD_TOL,
                       max_depth: int = 48) -> np.ndarray:
    """Adaptive 15-point Gauss-Legendre quadrature of ``n`` integrals over
    ``[a, b]`` in lockstep; ``f((cell, x))`` evaluates integrand ``cell[i]``
    at node ``x[i]``.

    Panels are pre-split at ``breakpoints``, one sequence shared by every
    integral or one sequence per integral, and then bisected until the
    two-half refinement of a panel changes its value by at most the panel's
    share of the absolute tolerance ``tol``.  A panel still unresolved at
    ``max_depth``, and every panel of an integral with more than
    ``MAX_PANELS`` unresolved (a ``tol`` below the integrand's rounding), is
    accepted as it stands, and one warning is logged per call that had any.
    A non-finite panel sum, which no refinement resolves, is a ValueError in
    the round that meets it.  Each refinement round makes one call of ``f``
    over every active panel of every integral, so there are at most
    ``max_depth + 1``, each of at most ``4 MAX_PANELS`` panels per integral.
    An integral's value does not depend on the others: panel sums run node by
    node and each integral adds its accepted panels in its own order.
    """
    width = len(_GL_NODES)
    shared = not any(np.ndim(bp) for bp in breakpoints)
    pts = [np.array([a] + sorted(p for p in set(bp) if a < p < b) + [b], dtype=float)
           for bp in ([breakpoints] if shared else breakpoints)]
    pts = pts * n if shared else pts

    def panel_sums(cell, lo, hi):
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        x = (mid[:, None] + half[:, None] * _GL_NODES).ravel()
        values = f((np.repeat(cell, width), x))
        # a row-wise reduction, not a BLAS product: its result for a panel
        # must not depend on how many panels share the call
        return half * (np.asarray(values, dtype=float).reshape(-1, width) * _GL_WEIGHTS).sum(axis=1)

    cell = np.repeat(np.arange(n), [e.size - 1 for e in pts])
    lo = np.concatenate([e[:-1] for e in pts])
    hi = np.concatenate([e[1:] for e in pts])
    coarse = None
    total = np.zeros(n)
    unrefined = np.zeros(n, dtype=int)
    for depth in range(max_depth + 1):
        mid = 0.5 * (lo + hi)
        # both halves of every active panel, and the first round's whole panels
        parts = ((lo, mid), (mid, hi)) + (((lo, hi),) if coarse is None else ())
        sums = panel_sums(np.tile(cell, len(parts)), np.concatenate([p[0] for p in parts]),
                          np.concatenate([p[1] for p in parts]))
        if not np.isfinite(sums).all():
            raise ValueError("non-finite panel sum: no refinement can resolve it")
        k = cell.size
        left, right = sums[:k], sums[k:2 * k]
        coarse = sums[2 * k:] if coarse is None else coarse
        fine = left + right
        done = np.abs(fine - coarse) <= tol * (hi - lo) / (b - a)
        left_over = np.bincount(cell[~done], minlength=n)
        accept = (left_over > MAX_PANELS) | (depth == max_depth)
        unrefined += np.where(accept, left_over, 0)
        done |= accept[cell]
        total += np.bincount(cell[done], weights=fine[done], minlength=n)
        if done.all():
            break
        # each split panel becomes its two halves in place, so every
        # integral's panels keep their left-to-right order
        keep = ~done
        cell = np.repeat(cell[keep], 2)
        lo, hi = (np.column_stack((lo[keep], mid[keep])).ravel(),
                  np.column_stack((mid[keep], hi[keep])).ravel())
        coarse = np.column_stack((left[keep], right[keep])).ravel()
    if unrefined.any():
        logger.warning("quadrature accepted %d unresolved panels unrefined in %d of %d integrals "
                       "(max_depth=%d, at most %d unresolved panels an integral)",
                       unrefined.sum(), np.count_nonzero(unrefined), n, max_depth, MAX_PANELS)
    return total


def _pd_sf(m, n, deltas, ts):
    """Survival of ``CF(m, n, delta_i)`` at interior ``t_i`` to a PD's absolute
    accuracy: :func:`cf_sf_nodes` at central nodes (every false alarm), and
    ``1 - cdf`` of the same series, with no tail sum, at noncentral ones."""
    out = np.empty_like(ts)
    nc = deltas > 0.0
    if not nc.all():
        out[~nc] = cf_sf_nodes(m, n, deltas[~nc], ts[~nc])
    if nc.any():
        out[nc] = 1.0 - _cf_series(m, n, deltas[nc], ts[nc])
    return out


def _gamma_bulk(a):
    """``(t_lo, t_hi)`` holding all but about ``BULK_TAIL`` of ``Gamma(a, 1)``
    in each tail, in closed forms: ``t_lo`` from ``P(G < t) <= t^a / a!``,
    and ``t_hi = a + 7 sqrt(a) + 21`` (``lgamma``, as ``a!`` overflows a
    float past 170)."""
    return math.exp((math.log(BULK_TAIL) + math.lgamma(a + 1)) / a), a + 7.0 * math.sqrt(a) + 21.0


def _bulk_breakpoints(a, b, deltas):
    """Three loss factors on the bulk of each ``CBeta(a, b, delta_i)``, or
    none where that bulk is not narrow against [0, 1].

    Once ``delta`` is large, ``beta`` is about ``G s`` with ``G ~ Gamma(a,
    1)``, F's denominator, and ``s = 1 / (a + b + delta)``.  A cell gets
    ``t_lo s``, ``a s`` and ``t_hi s`` (:func:`_gamma_bulk`) when ``delta >
    0`` and ``t_hi s < BULK_CUT``.
    """
    t_lo, t_hi = _gamma_bulk(a)
    s = 1.0 / (a + b + deltas)
    narrow = (deltas > 0.0) & (t_hi * s < BULK_CUT)
    return [(t_lo * si, a * si, t_hi * si) if ok else () for si, ok in zip(s.tolist(), narrow)]


def _pd_beta_mixture(detectors, etas, f_m, f_n, f_nc, beta_a, beta_b, beta_delta, tol):
    """Average the conditional F survival over the loss-factor law, for every
    cell at once: cell ``i`` has the threshold map of ``detectors[i]``,
    threshold ``etas[i]``, conditional noncentrality ``f_nc[i] * beta`` and
    loss-factor noncentrality ``beta_delta[i]`` (1-D arrays).

    A cell's panels start at its threshold map's kinks and, where its
    loss-factor density is narrow, at three points on that density's bulk
    (:func:`_bulk_breakpoints`), so that the first round already brackets
    it: a bulk narrower than the end panels' node spacing would otherwise
    go unseen, and its empty panels be accepted.  Both depend on the cell
    alone, so each PD keeps the bits of its one-cell call.
    """
    pairs = list(zip(detectors, etas.tolist()))
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
            sf[todo] = _pd_sf(f_m, f_n, f_nc[cell[todo]] * beta[todo], g[todo])
        return dens * sf

    breaks = [registry.lookup(d).breakpoints(e) for d, e in laws]
    bulk = _bulk_breakpoints(beta_a, beta_b, beta_delta)
    if len(laws) > 1 or any(bulk):
        breaks = [breaks[k] + cell_bulk for k, cell_bulk in zip(law, bulk)]
    pd = integrate_adaptive(integrand, 0.0, 1.0, tol=tol, n=etas.size,
                            breakpoints=breaks[0] if len(breaks) == 1 else breaks)
    # a threshold <= 0 is crossed with certainty
    return np.where(etas > 0.0, np.clip(pd, 0.0, 1.0), 1.0)


@dataclass(frozen=True)
class Law:
    """The finite-sample law of one detector at fixed dimensions (see
    :func:`resolve_law`).

    ``params`` is ``("mixture", f_m, f_n, beta_a, beta_b)``: given its loss
    factor ``beta ~ CBeta(beta_a, beta_b, delta)``, the statistic exceeds
    ``eta`` when ``CF(f_m, f_n, c beta)`` exceeds the threshold map of registry
    row ``canonical``.  Or a closed form: ``("cchi2", f_m, ...)`` is ``CChi2(f_m,
    c)`` and ``("cf", f_m, f_n, ...)`` is ``CF(f_m, f_n, rho)``.  A cell
    ``(rho, cos2phi)`` has ``c = rho cos2phi`` and ``delta = rho (1 -
    cos2phi)``; an ``interference`` law's cell is ``(c, delta) = (rho_eff,
    delta2_i)``.  ``no_pd`` says why the law gives no detection probability
    (None: it gives every cell's); a ``matched`` law still gives it at
    ``cos2phi = 1``.
    """

    name: str
    kind: str
    canonical: str
    params: tuple
    no_pd: str = None
    matched: bool = False


def resolve_law(detector: str, N: int, p: int, L: int, q: int = 0, K: int = 1,
                environment: str = HOMOGENEOUS, jammer: bool = False):
    """The :class:`Law` of ``detector`` at (N, p, q, K, L) in ``environment``
    (``he`` or ``phe``), with a coherent jammer in span(J) under H1 when
    ``jammer`` is set, or a short reason why it has none.  Every condition
    under which an analytic law applies is decided here."""
    spec = registry.lookup(detector)
    if spec.law is None:
        return f"{detector} has no finite-sample law"
    if L < N or K < 1 or not 1 <= p <= N:
        return "need L >= N, K >= 1 and 1 <= p <= N"
    if environment == PARTIALLY_HOMOGENEOUS and not spec.scale_invariant:
        # the test noise power then only rescales the SNR
        return f"under phe only a scale-invariant statistic keeps its law; {detector} is not"
    # H0 carries no jammer, so the threshold keeps its law; only a detector
    # that rejects span(J) keeps its PD
    no_pd = (f"{detector} does not reject the jammer: no PD law under one"
             if jammer and spec.law != "interference" else None)
    if spec.law == "distributed":
        if N < 2:
            return "a distributed law needs N > 1"
        if K == 1 and p != 1:  # a K = 1 signal's cos2phi is measured against H, not s
            no_pd = no_pd or f"{detector} reads s alone: no PD law at K = 1 and p = {p}"
        # gamf's loss factor is central only without mismatch
        return Law(detector, spec.law, spec.canonical,
                   ("mixture", K, L - N + 1, L + K - N + 1 if spec.mismatch else L - N + 2, N - 1),
                   no_pd or (None if spec.mismatch else f"{detector}'s PD law needs cos2phi = 1"),
                   matched=not (spec.mismatch or no_pd))
    if K != 1:
        return "point and interference laws need K = 1"
    if spec.rank_one and p != 1:  # cos2phi is measured against the subspace, not s
        p, no_pd = 1, f"{detector} is rank-one: its law is the one at p = 1, with no PD at p = {p}"
    if spec.law == "interference":  # the point law at dimension N - q
        N -= q
    if not spec.loss_factor:
        params = ("cchi2", p, 0, 0, 0) if spec.clairvoyant else ("cf", N, L - N + 1, 0, 0)
    elif p < N:
        params = ("mixture", p, L - N + 1, L - N + p + 1, N - p)
    else:
        return "a loss factor needs p < N (p + q < N with interference rejected)"
    return Law(detector, spec.law, spec.canonical, params, no_pd)


def _pd_laws(laws, etas, c, delta, rho, tol):
    """Detection probability of cell ``i`` under ``laws[i]`` at ``etas[i]``,
    ``c[i]``, ``delta[i]`` and SNR ``rho[i]`` (see :class:`Law`): one
    evaluation per distinct law parameters, whose cells go in lockstep."""
    out = np.empty(len(laws))
    groups = {}
    for i, law in enumerate(laws):
        groups.setdefault(law.params, []).append(i)
    for (form, f_m, f_n, beta_a, beta_b), at in groups.items():
        if form == "cchi2":
            out[at] = cchi2_sf_nodes(f_m, c[at], etas[at])
        elif form == "cf":
            out[at] = cf_sf_nodes(f_m, f_n, rho[at], etas[at])
        else:
            out[at] = _pd_beta_mixture([laws[i].canonical for i in at], etas[at], f_m, f_n,
                                       c[at], beta_a, beta_b, delta[at], tol)
    return out


def pd_grid(triples, tol: float = QUAD_TOL) -> list:
    """Detection probabilities of each ``(law, eta, (x, y))`` triple over its
    cells (see :class:`Law`), NaN where the law gives none, from one
    :func:`_pd_laws` call: laws that share parameters share each quadrature
    round, and each triple's array has the bits of its call alone."""
    outs, laws, cells = [], [], [np.empty((4, 0))]
    for law, eta, (x, y) in triples:
        x, y = np.broadcast_arrays(*(np.atleast_1d(np.asarray(v, dtype=float)) for v in (x, y)))
        if not (np.all(np.isfinite(x) & np.isfinite(y) & (x >= 0.0) & (y >= 0.0)
                       & ((y <= 1.0) | (law.kind == "interference"))) and 0.0 <= eta < np.inf):
            raise ValueError("cells and threshold must be finite and nonnegative, "
                             "and cos2phi at most 1")
        out = np.full(x.shape, np.nan)
        at = (y == 1.0) if law.matched else np.full(x.shape, law.no_pd is None)
        x, y = x[at], y[at]
        c, delta = (x, y) if law.kind == "interference" else (x * y, x * (1.0 - y))
        outs.append((out, at))
        laws += [law] * x.size
        cells.append(np.stack((np.full(x.size, eta), c, delta, x)))
    pds = _pd_laws(laws, *np.concatenate(cells, axis=1), tol)
    for (out, at), pd in zip(outs, np.split(pds, np.cumsum([at.sum() for _, at in outs]))):
        out[at] = pd
    return [out for out, _ in outs]


def pd_cells(law: Law, eta: float, x, y, tol: float = QUAD_TOL) -> np.ndarray:
    """Detection probabilities of ``law`` at threshold ``eta`` over cells
    ``(x, y)``: the one-law call of :func:`pd_grid`."""
    return pd_grid([(law, eta, (x, y))], tol)[0]


def _require_law(kind, detector, N, p, L):
    """The ``kind`` law of ``detector`` at (N, p, L) (see :func:`resolve_law`),
    or ValueError with the reason it has none."""
    law = resolve_law(detector, N, p, L)
    if isinstance(law, str) or law.kind != kind:
        raise ValueError(law if isinstance(law, str) else f"no {kind} law for {detector!r}")
    return law


def pd_point(detector: str, N: int, p: int, L: int, rho: float, cos2phi: float,
             eta: float, tol: float = QUAD_TOL) -> float:
    """Detection probability of a point-target detector at threshold ``eta``,
    output SNR ``rho`` (linear) and ``cos2phi``, the cosine-squared mismatch
    angle between the whitened actual signal and the whitened nominal
    subspace: one cell of :func:`pd_cells`, with ValueError where the law
    gives no detection probability."""
    law = _require_law("point", detector, N, p, L)
    pd = pd_cells(law, eta, rho, cos2phi, tol)[0]
    if np.isnan(pd):
        raise ValueError(law.no_pd)
    return float(pd)


def pfa_point(detector: str, N: int, p: int, L: int, eta: float,
              tol: float = QUAD_TOL) -> float:
    """False-alarm probability: the zero-SNR case of :func:`pd_point`."""
    return pd_point(detector, N, p, L, 0.0, 1.0, eta, tol=tol)


def invert_pfa(pfa_of, pfa: float, rtol: float = 1e-3, names=("eta",)) -> np.ndarray:
    """Thresholds ``eta`` with ``|pfa_of(eta) - pfa| <= rtol * pfa``, one per
    element of ``names``; ``pfa_of(etas, at)`` maps the thresholds of the
    elements ``at`` (indices into ``names``) elementwise.

    One :func:`find_root` call solves ``log(pfa_of / pfa) = 0`` in ``log eta``
    over ``LOG_ETA_BRACKET`` (tails are near-linear there), with the tolerance
    band flattened into an exact zero so that each element stops at its first
    threshold inside the band; a converged element is not evaluated again.  A
    failure names its elements and the target.
    """
    if not 0.0 < pfa < 1.0:
        raise InfeasibleError("target false-alarm probability must lie in (0, 1)")

    def excess(log_eta, at):
        ratio = np.asarray(pfa_of(np.exp(log_eta), at), dtype=float) / pfa
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


def _inversion_tol(pfa, rtol):
    """The quadrature tolerance of a false-alarm inversion: ``QUAD_TOL`` while
    that is within the band ``rtol * pfa`` (pfa >= 1e-3 at the default
    ``rtol``, where it set every threshold so far), and a tenth of the band
    below, so that a small pfa is not lost in the quadrature error."""
    return QUAD_TOL if rtol * pfa >= QUAD_TOL else 0.1 * rtol * pfa


def thresholds_for_pfa(laws, pfa: float, rtol: float = 1e-3) -> np.ndarray:
    """Thresholds at false-alarm probability ``pfa`` of ``laws`` (any mix of
    :class:`Law`) to relative accuracy ``rtol``, in one :func:`invert_pfa`
    solve whose rounds evaluate the active laws at zero SNR together; each
    threshold has the bits of its law solved alone."""
    zeros, tol = np.zeros(len(laws)), _inversion_tol(pfa, rtol)

    def pfa_of(etas, at):
        return _pd_laws([laws[i] for i in at], etas, zeros[at], zeros[at], zeros[at], tol)

    return invert_pfa(pfa_of, pfa, rtol, names=[law.name for law in laws])


def threshold_for_pfa(detector: str, N: int, p: int, L: int, pfa: float,
                      rtol: float = 1e-3) -> float:
    """The threshold of one detector's point law at (N, p, L) by
    :func:`thresholds_for_pfa`."""
    law = _require_law("point", detector, N, p, L)
    return float(thresholds_for_pfa([law], pfa, rtol)[0])
