"""The laws of :mod:`.core` as objects with a cdf, survival function and
sampler.  Only ``validate-dist`` and the tests use them, so nothing imports
this module at start-up (see :mod:`adaptivedet.distributions`)."""

from dataclasses import dataclass

import numpy as np

from .core import _cf_series, cbeta_pdf_nodes, cchi2_sf_nodes, cf_sf_nodes


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
        from scipy import special  # only validation reaches this cdf

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
        out = (t == np.inf).astype(float)
        inner = (t > 0.0) & (t < np.inf)
        ti = t[inner]
        # the summed terms may pass 1 by their rounding where the cdf is near 1
        out[inner] = np.minimum(_cf_series(self.m, self.n, np.full_like(ti, self.delta), ti), 1.0)
        return out[0] if scalar else out

    def sf(self, t):
        t, scalar = _as_grid(t)
        out = cf_sf_nodes(self.m, self.n, self.delta, t)
        return out[0] if scalar else out

    def sample(self, rng, size=None):
        n = 1 if size is None else size
        out = ComplexChi2(self.m, self.delta).sample(rng, n) / ComplexChi2(self.n).sample(rng, n)
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
        n = 1 if size is None else size
        num = ComplexChi2(self.a).sample(rng, n)
        out = num / (num + ComplexChi2(self.b, self.delta).sample(rng, n))
        return float(out[0]) if size is None else out
