"""Complex noncentral chi-square, F, and Beta distributions.

Conventions (fixed package-wide):

* ``t ~ CChi2(k, delta)``  iff  ``2 t`` is real noncentral chi-square with
  ``2 k`` degrees of freedom and noncentrality ``2 delta``.  The central case
  is a unit-rate Erlang with shape ``k``.
* ``CF(m, n, delta)`` is the ratio ``A / B`` of independent ``A ~ CChi2(m,
  delta)`` and central ``B ~ CChi2(n)`` with no degree-of-freedom
  normalization.
* ``CBeta(a, b, delta)`` is ``A / (A + B)`` with central ``A ~ CChi2(a)`` and
  noncentral ``B ~ CChi2(b, delta)``: the noncentrality sits on the *b*
  component, so increasing ``delta`` pushes mass toward zero (loss-factor
  semantics).

Every law is one of scipy's real noncentral laws at doubled parameters:
``CChi2(k, delta)`` is ``ncx2(2k, 2 delta)`` at ``2 t``, and ``CF(m, n,
delta)`` is ``ncf(2m, 2n, 2 delta)`` at ``t n / m``.  ``CBeta(a, b, delta)``
follows from ``CF(b, a, delta)``: ``A / (A + B) <= x`` exactly when
``B / A >= (1 - x) / x``.

The degrees of freedom are integers (Kelly 1986, IEEE TAES 22(2)), so every
law on the detectors' paths is a finite sum of positive terms, evaluated with
numpy and ``math`` alone:

* the central ``CF(m, n)`` survival at ``t`` is the binomial tail
  ``P(Bin(n + m - 1, 1 / (1 + t)) >= n)``, ``m`` terms;
* the central ``CChi2(k)`` survival is the Poisson sum
  ``e^{-t} sum_{j<k} t^j / j!``;
* with ``x = t / (1 + t)`` the noncentral ``CF(m, n, delta)`` cdf is
  ``x^m e^{-delta (1 - x)} sum_{j<n} (1 - x)^j L_j^{(m-1)}(-delta x)``, ``L``
  the generalized Laguerre polynomial.  Term ``j`` is ``P(J = j)`` for a
  Poisson count ``J`` of mean ``A / t`` (``B`` is an Erlang waiting time, so
  the cdf is ``P(J < n)``); the terms come from the three-term Laguerre
  recurrence, started at the prefactor.

A survival function is not ``1 - cdf`` where the cdf is close to 1: the
difference keeps only the cdf's absolute accuracy, and pfa <= 1e-6 needs
relative accuracy.  Each central sum is the tail's own sum.  The noncentral F
recurrence runs on over ``j >= n`` wherever ``1 - cdf`` falls below
``min(_TAIL_SWITCH * (n + 4), _TAIL_CAP)``: by the Laguerre generating
function the whole series sums to ``x^{-m} e^{delta (1 - x)}``, the
prefactor's inverse, so the terms ``j >= n`` sum to the survival function
itself.  They are log-concave in ``j`` (a Poisson mixture over the
log-concave ``A / t``), so each node stops once a geometric series at its
last term ratio bounds what is left.  A detection probability needs only
absolute accuracy, so the PD integrand takes ``1 - cdf`` of this series at
its noncentral nodes and never continues the tail; false-alarm
probabilities, at central nodes, keep the tails' relative accuracy.

The noncentral F costs ``n - 1`` whole-array steps, and a continued tail
about ``37 / x`` more where it decays slowly (small ``delta x``, whose terms
fall like ``(1 - x)^j``).  At the ``n = 13`` of the default ``mesa`` it is
faster than boost's ``_ncf_sf``; it is slower from ``n`` of about 25 on
(training sizes ``L`` from about ``3N`` at ``N = 12``).  Its accuracy also
falls with ``n``: against mpmath the cdf errs by about 2e-15 at ``n = 13``,
5e-14 at ``n = 100`` and 1e-12 at ``n = 500`` (largest at small ``delta x``,
where the recurrence's two solutions grow alike and its rounding errors add
up).

scipy stays where there is no finite form or only validation goes, imported
inside the function that needs it: the noncentral chi-square survival
(``_ncx2_sf``, a generalized Marcum Q: the ``smf`` law at nonzero SNR),
``ComplexChi2.cdf`` (``chndtr``/``gammainc``) and boost's noncentral-F
density in :func:`cbeta_pdf_grid`.  The private ``_ncx2_sf``/``_ncf_pdf``
ufuncs give the bits of the ``scipy.stats`` methods without importing
``scipy.stats``; importing ``scipy.special`` at all would double the package's
start-up.

The loss-factor density that quadrature integrates has a closed form.  By
Kummer's transformation (Abramowitz & Stegun 13.1.27) the hypergeometric
series of the ``CBeta(a, b, delta)`` density ends after ``a + 1`` terms:
``f(x) = Beta(a, b)pdf(x) e^{-delta x} sum_{k=0}^{a} C(a, k) (delta (1 - x))^k
/ (b)_k``, a generalized Laguerre polynomial (A&S 13.6.9) with positive
terms.  :func:`cbeta_pdf_nodes` evaluates it for an array of ``delta``, which
the scalar-``delta`` :func:`cbeta_pdf_grid` (boost's noncentral-F density,
kept as the cross-check and for laws too wide for the sum) cannot take; it is
also the more accurate of the two, so ``ComplexBeta.pdf`` uses it.

Every kernel here is elementwise over its nodes (no BLAS product, whose
blocking depends on the array size): a node's value does not depend on the
other nodes of the call, which the lockstep quadrature relies on.
"""

import functools
import math

import numpy as np

# the noncentral F survival continues the Laguerre series where 1 - cdf is
# below _TAIL_SWITCH * (n + 4), to follow the cdf's absolute error as it grows
# with n: 1 - cdf above the switch keeps about 1e-12 relative accuracy up to
# n = 100.  The switch is capped at _TAIL_CAP (from n = 497 on): only nodes
# with most of their mass below n continue, so their terms soon fall off
_TAIL_SWITCH = 5e-4
_TAIL_CAP = 0.25
# the series starts at the prefactor, or at e**_LOG_FLOOR below it (then kept
# apart in log space); terms 1e-16 of a sum above e**_LOG_FLOOR stay normal
_LOG_FLOOR = -600.0
# terms above _BIG are scaled down by the power of two _BIG (exactly)
_BIG = 2.0 ** 900
_LOG_BIG = 900 * math.log(2.0)
_EPS = 2.0 ** -53
# a tail node tests its stopping bound after every _TAIL_CHECK-th term
_TAIL_CHECK = 4


def _beta_log_pdf(a, b, x):
    """Central Beta(a, b) log-density at ``x``, ``-inf`` where the density is 0.

    ``1 / B(a, b) = (a + b - 1) C(a + b - 2, a - 1)`` is an exact integer, so
    its log is correctly rounded; a unit shape drops its power, as ``xlogy``
    takes ``0 log 0 = 0`` at the endpoints.
    """
    a, b = int(a), int(b)
    out = np.full(x.shape, _log_inverse_beta(a, b))
    with np.errstate(divide="ignore"):
        if a != 1:
            out += (a - 1) * np.log(x)
        if b != 1:
            out += (b - 1) * np.log1p(-x)
    return out


@functools.lru_cache(maxsize=None)
def _log_inverse_beta(a, b):
    return math.log((a + b - 1) * math.comb(a + b - 2, a - 1))


def cbeta_pdf_grid(a: int, b: int, delta: float, x: np.ndarray) -> np.ndarray:
    """Noncentral-Beta density on a grid: the ``CF(b, a, delta)`` density at
    ``(1 - x) / x`` times the Jacobian ``1 / x**2``."""
    x = np.asarray(x, dtype=float)
    if delta == 0.0:  # central Beta(a, b), endpoints included
        return np.exp(_beta_log_pdf(a, b, x))
    from scipy.special import _ufuncs  # boost's noncentral-F density

    out = np.zeros_like(x)
    inner = (x > 0.0) & (x < 1.0)
    xi = x[inner]
    dens = _ufuncs._ncf_pdf((1.0 - xi) / xi * a / b, 2 * b, 2 * a, 2.0 * delta) * (a / b)
    # the Jacobian 1 / x**2; x**2 underflows below about 1e-162, where dividing
    # by x twice keeps the density finite
    sq = xi * xi
    out[inner] = np.divide(dens, sq, out=dens / xi / xi, where=sq > 0.0)
    # the density is finite at an endpoint only for a unit shape there
    if a == 1:
        out[x == 0.0] = b + delta
    if b == 1:
        out[x == 1.0] = a * np.exp(-delta)
    return out


def cbeta_pdf_nodes(a: int, b: int, deltas, x) -> np.ndarray:
    """Noncentral-Beta density at nodes ``x_i`` with noncentralities
    ``delta_i``, by the finite Kummer sum of the module docstring.

    ``delta_i = 0`` nodes get the central Beta(a, b) density, bit-equal to
    :func:`cbeta_pdf_grid`.  The polynomial in ``y = delta (1 - x)`` is
    summed in scaled Horner form: its coefficients are multiplied by ``G**k``,
    with ``G`` chosen to give the first and last the value 1, and it runs in
    ``y / G`` where that is at most 1 and in ``G / y`` (times ``(y / G)**a``)
    elsewhere.  Every partial sum then lies between 1 and the sum of the
    scaled coefficients, so nothing overflows, and the factors meet in log
    space.  Every node goes through the same whole-array operations, so its
    value does not depend on the other nodes of the call.  Laws whose scaled
    coefficients leave the floating-point range (``a`` in the thousands) use
    boost's density, one ``delta`` at a time.
    """
    deltas, x = _nodes(deltas, x)
    log_pdf = _beta_log_pdf(a, b, x)
    noncentral = deltas > 0.0
    if not noncentral.any():
        return np.exp(log_pdf)
    coefs, g = _kummer_coefficients(a, b)
    if coefs is None:
        out = np.exp(log_pdf)
        for d in np.unique(deltas[noncentral]):
            at = deltas == d
            out[at] = cbeta_pdf_grid(a, b, d, x[at])
        return out
    y = deltas * (1.0 - x) / g
    big = y > 1.0
    y_big = np.where(big, y, 1.0)
    z = np.where(big, 1.0 / y_big, y)
    s = np.where(big, coefs[0], coefs[a])
    for k in range(1, a + 1):
        s = s * z + np.where(big, coefs[k], coefs[a - k])
    log_pdf += np.log(s) + a * np.log(y_big) - deltas * x
    out = np.exp(log_pdf)
    # the density is finite at an endpoint only for a unit shape there
    if a == 1:
        end = noncentral & (x == 0.0)
        out[end] = b + deltas[end]
    if b == 1:
        end = noncentral & (x == 1.0)
        out[end] = a * np.exp(-deltas[end])
    return out


def _kummer_coefficients(a, b):
    """``C(a, k) G**k / (b)_k`` for ``k = 0..a`` and ``G``, or ``(None, G)``
    when they leave the floating-point range."""
    k = np.arange(1, a + 1)
    ratios = (a - k + 1) / (k * (b + k - 1.0))  # consecutive coefficient ratios
    g = float(np.exp(-np.mean(np.log(ratios))))
    with np.errstate(over="ignore"):
        coefs = np.concatenate(([1.0], np.cumprod(ratios * g)))
    if not np.all(np.isfinite(coefs)) or coefs.max() > 1e300:
        return None, g
    return coefs, g


def cchi2_sf_nodes(k: int, deltas, ts) -> np.ndarray:
    """Survival of ``CChi2(k, delta_i)`` at ``t_i``, vectorized over nodes;
    ``delta_i = 0`` nodes use the central law."""
    deltas, ts = _nodes(deltas, ts)
    if _central_finite(deltas, ts):
        return _erlang_sf(int(k), ts)
    central = ~(deltas > 0.0)
    out = (ts == 0.0).astype(float)
    inner = central & (ts > 0.0) & (ts < np.inf)
    if inner.any():
        out[inner] = _erlang_sf(int(k), ts[inner])
    if not central.all():
        from scipy.special import _ufuncs  # a generalized Marcum Q: no finite form

        nc = ~central
        tn = ts[nc]
        out[nc] = _support_sf(tn, _ufuncs._ncx2_sf(2.0 * tn, 2 * k, 2.0 * deltas[nc]))
    return out


def cf_sf_nodes(m: int, n: int, deltas, ts) -> np.ndarray:
    """Survival of ``CF(m, n, delta_i)`` at ``t_i``, vectorized over nodes
    (used by quadrature); ``delta_i = 0`` nodes use the central law."""
    deltas, ts = _nodes(deltas, ts)
    if _central_finite(deltas, ts):  # every false-alarm evaluation
        return _binomial_tail(int(m), int(n), ts)
    out = (ts == 0.0).astype(float)
    inner = (ts > 0.0) & (ts < np.inf)
    noncentral = inner & (deltas > 0.0)
    central = inner & ~noncentral
    if central.any():
        out[central] = _binomial_tail(int(m), int(n), ts[central])
    if noncentral.any():
        out[noncentral] = _cf_series(int(m), int(n), deltas[noncentral], ts[noncentral],
                                     survival=True)
    return out


def _central_finite(deltas, ts):
    """Whether every node is central and below ``t = inf``, checked in few
    calls (thresholds are inverted on small arrays); the central sums give 1
    at ``t = 0`` themselves."""
    return ts.size and ts.max() < np.inf and not deltas.max() > 0.0


def _erlang_sf(k, t):
    """``e^{-t} sum_{j<k} t^j / j!`` at finite ``t >= 0``."""
    return _positive_sum(_erlang_coefficients(k), t, -t)


def _binomial_tail(m, n, t):
    """``P(Bin(n + m - 1, w) >= n)`` with ``w = 1 / (1 + t)`` at finite
    ``t >= 0``: the central ``CF(m, n)`` survival.  Its terms ``C(top, k) w^k
    (1 - w)^(top - k)``, ``k >= n``, are ``(1 + t)^-top`` times
    ``C(top, j) t^j`` with ``j = top - k < m``."""
    return _positive_sum(_binomial_coefficients(n + m - 1, m), t, -(n + m - 1) * np.log1p(t))


@functools.lru_cache(maxsize=None)
def _erlang_coefficients(k):
    """Ratios ``c_j / c_{j-1}`` and logs ``log c_j`` of ``c_j = 1 / j!``, ``j < k``."""
    return tuple(1.0 / j for j in range(1, k)), tuple(-math.lgamma(j + 1) for j in range(k))


@functools.lru_cache(maxsize=None)
def _binomial_coefficients(top, m):
    """Ratios ``c_j / c_{j-1}`` and logs ``log c_j`` of ``c_j = C(top, j)``, ``j < m``."""
    return (tuple((top - j + 1) / j for j in range(1, m)),
            tuple(math.log(math.comb(top, j)) for j in range(m)))


def _positive_sum(coefficients, t, log_pref):
    """``e^{log_pref} sum_{j<=d} c_j t^j`` at ``t >= 0`` for positive ``c_j``
    with ``c_0 = 1``, given as ``(ratios c_j / c_{j-1}, logs log c_j)``.

    Where ``e^{log_pref}`` is normal no term, nor their sum (at most
    ``e^{-log_pref}`` for the binomial and Poisson sums here), can overflow:
    term ``j`` is the running product of ``r_i t``, within ``j`` ulps whatever
    the terms' sizes, and the prefactor multiplies the sum.  Elsewhere the
    terms meet in log space about the largest.
    """
    ratios, logs = coefficients
    if log_pref.min() > -700.0:
        return _ratio_sum(ratios, t) * np.exp(log_pref)
    normal = log_pref > -700.0
    out = np.empty_like(t)
    out[normal] = _ratio_sum(ratios, t[normal]) * np.exp(log_pref[normal])
    far = ~normal
    # one row per node: a row's reduction does not depend on the other rows
    log_terms = np.log(t[far])[:, None] * np.arange(len(logs)) + np.array(logs)
    peak = log_terms.max(axis=1)
    out[far] = np.exp(log_pref[far] + peak) * np.exp(log_terms - peak[:, None]).sum(axis=1)
    return out


def _ratio_sum(ratios, t):
    """``1 + r_1 t + r_1 r_2 t^2 + ... + r_1 ... r_d t^d``, added term by term."""
    term = acc = np.ones_like(t)
    for r in ratios:
        term = term * t * r
        acc = acc + term
    return acc


def _cf_series(m, n, deltas, ts, survival=False):
    """The cdf of ``CF(m, n, delta_i)`` at interior ``t_i`` by the Laguerre
    series of the module docstring, or with ``survival`` its survival.

    Term ``j`` is ``u_j = x^m e^{-delta w} w^j L_j^{(m-1)}(-z)`` with
    ``w = 1 - x`` and ``z = delta x``, from the recurrence
    ``(j + 1) u_{j+1} = w (2j + m + z) u_j - w^2 (j + m - 1) u_{j-1}``.
    At a negative argument the Laguerre polynomials are the recurrence's
    dominant solution, so it runs forward; at small ``z`` its other solution
    grows nearly as fast, and the error grows with ``n`` (module docstring).
    A prefactor below ``e**_LOG_FLOOR`` is kept apart in log space, and terms
    that outgrow ``_BIG`` are scaled down, node by node.
    """
    w = 1.0 / (1.0 + ts)
    x = ts * w
    zw = deltas * x * w
    w2 = w * w
    log_pref = m * np.log(x) - deltas * w
    start = np.maximum(log_pref, _LOG_FLOOR)
    scale = log_pref - start  # 0 unless the prefactor is below e**_LOG_FLOOR
    scaled = bool(np.any(scale < 0.0))
    prev = np.zeros_like(ts)
    term = np.exp(start)
    total = term.copy()
    for j in range(n - 1):
        term, prev = ((w * (2 * j + m) + zw) * term - (w2 * (j + m - 1)) * prev) / (j + 1), term
        total += term
        if scaled and term.max() > _BIG:
            big = term > _BIG
            for arr in (term, prev, total):
                arr[big] /= _BIG
            scale[big] += _LOG_BIG
    cdf = _unscale(total, scale)
    if not survival:
        return cdf
    sf = 1.0 - cdf
    idx = np.flatnonzero(sf < min(_TAIL_SWITCH * (n + 4), _TAIL_CAP))
    if idx.size:
        sf[idx] = _cf_tail(m, n, w[idx], zw[idx], w2[idx], prev[idx], term[idx], scale[idx],
                           sf[idx])
    return sf


def _cf_tail(m, n, w, zw, w2, prev, term, scale, sf):
    """``sum_{j>=n} u_j`` of :func:`_cf_series`, continuing its recurrence
    from ``u_{n-2}, u_{n-1}`` (``prev``, ``term``) in the same scaling.

    The recurrence runs on the terms over ``c = u_{n-1}``, which keeps them
    near 1 however small the tail is.  A node stops once its last term ``u``
    and ratio ``r = u / u_prev < 1`` bound what is left, ``u r / (1 - r)``,
    by ``_EPS`` times its partial sum (the terms are log-concave), and leaves
    the active set.  A node whose partial sum leaves the floating-point range
    stops too and keeps ``sf``, its ``1 - cdf``.
    """
    out = sf.copy()
    idx = np.arange(w.size)
    # a tail below the smallest double stays 0
    c = np.where(term > 0.0, term, 1.0)
    prev, term = np.where(term > 0.0, prev / c, 0.0), term / c
    total = np.zeros_like(w)
    j = n - 1
    with np.errstate(over="ignore", invalid="ignore"):
        while idx.size:
            term, prev = ((w * (2 * j + m) + zw) * term - (w2 * (j + m - 1)) * prev) / (j + 1), term
            total += term
            j += 1
            if (j - n) % _TAIL_CHECK:
                continue
            lost = ~np.isfinite(total)
            done = (term * term <= _EPS * total * (prev - term)) | lost
            if done.any():
                sums = done & ~lost
                out[idx[sums]] = _unscale(total[sums] * c[sums], scale[sums])
                keep = ~done
                idx, w, zw, w2, prev, term, total, scale, c = (
                    a[keep] for a in (idx, w, zw, w2, prev, term, total, scale, c))
    return out


def _unscale(total, scale):
    """``total * e**scale``, exact where ``scale`` is 0."""
    out = total.copy()
    off = scale != 0.0
    if off.any():
        with np.errstate(divide="ignore"):
            out[off] = np.exp(scale[off] + np.log(total[off]))
    return out


def _nodes(deltas, ts):
    """``deltas`` and ``ts`` as float arrays of one shape, at least 1-D."""
    deltas = np.asarray(deltas, dtype=float)
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    if deltas.shape != ts.shape:
        deltas, ts = np.broadcast_arrays(deltas, ts)
    return deltas, ts


def _support_sf(t, sf):
    """A survival kernel's values ``sf`` at ``t`` with the support ends set."""
    return np.where(t == 0.0, 1.0, np.where(t == np.inf, 0.0, sf))
