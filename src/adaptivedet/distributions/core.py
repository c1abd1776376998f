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

The laws are evaluated by the ``scipy.special`` kernels that
``scipy.stats.ncf``/``ncx2`` dispatch to (scipy 1.17): the public
``ncfdtr``/``chndtr`` for the noncentral cdfs and the private
``_ncf_sf``/``_ncf_pdf``/``_ncx2_sf`` ufuncs, for which scipy has no public
name.  They return the same bits as the ``scipy.stats`` methods inside the
support; ``scipy.stats`` is not imported because its import alone costs more
than most CLI runs.  The support ends are set here, as ``scipy.stats`` does:
the raw survival kernels return ``-0.0`` or ``nan`` at ``0`` and ``inf``.

Zero noncentrality goes to the central law, node by node: ``_ncf_sf``
returns ``-cdf`` at ``nc = 0``, and every false-alarm evaluation (and every
loss-factor node with no signal component) runs there.  The central ``CF(m,
n)`` survival at ``t`` is the incomplete beta ``I_{1/(1+t)}(n, m)`` and the
central ``CChi2(k)`` law is the regularized incomplete gamma.  Survival
probabilities always come from an ``sf`` routine, never ``1 - cdf``, so deep
tails (pfa <= 1e-6) keep their relative accuracy.

The loss-factor density that quadrature integrates has a closed form.  By
Kummer's transformation (Abramowitz & Stegun 13.1.27) the hypergeometric
series of the ``CBeta(a, b, delta)`` density ends after ``a + 1`` terms:
``f(x) = Beta(a, b)pdf(x) e^{-delta x} sum_{k=0}^{a} C(a, k) (delta (1 - x))^k
/ (b)_k``, a generalized Laguerre polynomial (A&S 13.6.9) with positive
terms.  :func:`cbeta_pdf_nodes` evaluates it for an array of ``delta``, which
the scalar-``delta`` :func:`cbeta_pdf_grid` (boost's noncentral-F density,
kept as the cross-check and for laws too wide for the sum) cannot take; it is
also the more accurate of the two, so ``ComplexBeta.pdf`` uses it.
"""

from dataclasses import dataclass

import numpy as np
from scipy import special
from scipy.special import _ufuncs


def _validate(dist, *shapes):
    for name in shapes:
        value = getattr(dist, name)
        if int(value) != value or value < 1:
            raise ValueError(f"{name} must be a positive integer, got {value!r}")
    if dist.delta < 0:
        raise ValueError("delta must be nonnegative")


def _as_grid(x, upper=np.inf):
    """``x`` as a float array checked to lie in ``[0, upper]``, and whether it was scalar."""
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any((arr < 0) | (arr > upper)):
        raise ValueError(f"argument must lie in [0, {upper}]")
    return arr, np.isscalar(x) or np.ndim(x) == 0


@dataclass(frozen=True)
class ComplexChi2:
    """Complex noncentral chi-square with ``k`` complex DOFs, noncentrality ``delta``."""

    k: int
    delta: float = 0.0

    def __post_init__(self):
        _validate(self, "k")

    def cdf(self, t):
        t, scalar = _as_grid(t)
        if self.delta == 0.0:
            out = special.gammainc(self.k, t)
        else:
            out = special.chndtr(2.0 * t, 2 * self.k, 2.0 * self.delta)
        return out[0] if scalar else out

    def sf(self, t):
        t, scalar = _as_grid(t)
        out = cchi2_sf_nodes(self.k, self.delta, t)
        return out[0] if scalar else out

    def sample(self, rng, size=None):
        """Draw via ``2k`` unit-variance real normal squares with mean offsets."""
        n = 1 if size is None else int(size)
        g = rng.standard_normal((n, 2 * self.k))
        g[:, 0] += np.sqrt(2.0 * self.delta)
        out = 0.5 * np.sum(g * g, axis=1)
        return float(out[0]) if size is None else out


@dataclass(frozen=True)
class ComplexF:
    """Ratio ``A/B`` of complex chi-squares; ``m``/``n`` DOFs, numerator noncentrality."""

    m: int
    n: int
    delta: float = 0.0

    def __post_init__(self):
        _validate(self, "m", "n")

    def cdf(self, t):
        t, scalar = _as_grid(t)
        out = special.ncfdtr(2 * self.m, 2 * self.n, 2.0 * self.delta, t * self.n / self.m)
        return out[0] if scalar else out

    def sf(self, t):
        t, scalar = _as_grid(t)
        out = cf_sf_nodes(self.m, self.n, self.delta, t)
        return out[0] if scalar else out

    def sample(self, rng, size=None):
        num = ComplexChi2(self.m, self.delta).sample(rng, size=size or 1)
        den = ComplexChi2(self.n).sample(rng, size=size or 1)
        out = np.asarray(num) / np.asarray(den)
        return float(out[0]) if size is None else out


@dataclass(frozen=True)
class ComplexBeta:
    """``A/(A+B)`` with central ``A ~ CChi2(a)`` and ``B ~ CChi2(b, delta)``."""

    a: int
    b: int
    delta: float = 0.0

    def __post_init__(self):
        _validate(self, "a", "b")

    def cdf(self, x):
        x, scalar = _as_grid(x, upper=1.0)
        with np.errstate(divide="ignore"):
            out = cf_sf_nodes(self.b, self.a, self.delta, (1.0 - x) / x)
        return out[0] if scalar else out

    def pdf(self, x):
        x, scalar = _as_grid(x, upper=1.0)
        out = cbeta_pdf_nodes(self.a, self.b, self.delta, x)
        return out[0] if scalar else out

    def sample(self, rng, size=None):
        num = np.asarray(ComplexChi2(self.a).sample(rng, size=size or 1))
        den = np.asarray(ComplexChi2(self.b, self.delta).sample(rng, size=size or 1))
        out = num / (num + den)
        return float(out[0]) if size is None else out


def cbeta_pdf_grid(a: int, b: int, delta: float, x: np.ndarray) -> np.ndarray:
    """Noncentral-Beta density on a grid: the ``CF(b, a, delta)`` density at
    ``(1 - x) / x`` times the Jacobian ``1 / x**2``."""
    x = np.asarray(x, dtype=float)
    if delta == 0.0:  # central Beta(a, b), endpoints included
        return np.exp(special.xlogy(a - 1, x) + special.xlog1py(b - 1, -x) - special.betaln(a, b))
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
    log_pdf = special.xlogy(a - 1, x) + special.xlog1py(b - 1, -x) - special.betaln(a, b)
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
    out = special.gammaincc(k, ts)
    noncentral = deltas > 0.0
    if noncentral.any():
        tn = ts[noncentral]
        out[noncentral] = _support_sf(tn, _ufuncs._ncx2_sf(2.0 * tn, 2 * k,
                                                           2.0 * deltas[noncentral]))
    return out


def cf_sf_nodes(m: int, n: int, deltas, ts) -> np.ndarray:
    """Survival of ``CF(m, n, delta_i)`` at ``t_i``, vectorized over nodes
    (used by quadrature); ``delta_i = 0`` nodes use the central law."""
    deltas, ts = _nodes(deltas, ts)
    out = special.betainc(n, m, 1.0 / (1.0 + ts))
    noncentral = deltas > 0.0
    if noncentral.any():
        tn = ts[noncentral]
        out[noncentral] = _support_sf(tn, _ufuncs._ncf_sf(tn * n / m, 2 * m, 2 * n,
                                                          2.0 * deltas[noncentral]))
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
