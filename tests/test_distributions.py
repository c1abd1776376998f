import logging
import math
import warnings
from decimal import Decimal, localcontext

import mpmath as mp
import numpy as np
import pytest
from scipy import special, stats as sstats

from adaptivedet.distributions import (
    ComplexBeta,
    ComplexChi2,
    ComplexF,
    cbeta_pdf_grid,
    cbeta_pdf_nodes,
    cf_sf_nodes,
    integrate_adaptive,
    pd_cells,
    pd_point,
    pfa_point,
    threshold_for_pfa,
    thresholds_for_pfa,
)
from adaptivedet.distributions import core, detection
from adaptivedet.distributions.detection import QUAD_TOL, Law, _pd_beta_mixture, resolve_law
from adaptivedet.errors import InfeasibleError

import oracles


def pd_point_generic_aed(N, p, L, rho, cos2phi, eta, tol=QUAD_TOL) -> float:
    """AED detection probability through the loss-factor mixture (cross-check
    path for the closed form used by :func:`pd_point`)."""
    assert isinstance(resolve_law("aed", N, p, L), Law)
    return _pd_beta_mixture(
        ["aed"], np.array([eta]),
        f_m=p, f_n=L - N + 1, f_nc=np.array([rho * cos2phi]),
        beta_a=L - N + p + 1, beta_b=N - p, beta_delta=np.array([rho * (1.0 - cos2phi)]),
        tol=tol,
    )[0]


def distributed_cell(detector, N, K, L, rho, cos2phi_rk1, eta):
    """One cell of a distributed-target law: ``pd_cells`` of its resolved law."""
    return pd_cells(resolve_law(detector, N, 1, L, K=K), eta, rho, cos2phi_rk1)[0]


def interference_cell(detector, N, p, q, L, rho_eff, delta2_i, eta):
    """One cell of an interference law: ``pd_cells`` of its resolved law."""
    return pd_cells(resolve_law(detector, N, p, L, q=q), eta, rho_eff, delta2_i)[0]


def integrate_one(f, **kw):
    """One integral over [0, 1] of the vectorized ``f(x)``, an n = 1 lockstep call."""
    return integrate_adaptive(lambda cell_x: f(cell_x[1]), 0.0, 1.0, 1, **kw)[0]


class TestComplexChi2:
    def test_unit_exponential(self):
        d = ComplexChi2(1, 0.0)
        ts = np.linspace(0.0, 8.0, 20)
        np.testing.assert_allclose(d.cdf(ts), 1 - np.exp(-ts), atol=1e-13)

    def test_central_is_erlang(self):
        ts = np.linspace(0.0, 20.0, 15)
        for k in (1, 2, 5):
            np.testing.assert_allclose(ComplexChi2(k).cdf(ts),
                                       sstats.gamma(k).cdf(ts), atol=1e-13)

    def test_matches_real_noncentral_convention(self):
        ts = np.linspace(0.1, 30.0, 9)
        mine = ComplexChi2(3, 2.5).cdf(ts)
        ref = sstats.ncx2.cdf(2 * ts, df=6, nc=5.0)
        np.testing.assert_allclose(mine, ref, atol=1e-12)

    def test_sampler_ks(self, rng):
        d = ComplexChi2(3, 2.5)
        samples = d.sample(rng, size=100_000)
        assert sstats.kstest(samples, d.cdf).pvalue > 0.01
        assert d.sample(rng, size=0).shape == (0,)

    def test_negative_argument_rejected(self):
        with pytest.raises(ValueError):
            ComplexChi2(1).cdf(-0.5)

    def test_sf_complements_cdf(self):
        d = ComplexChi2(4, 7.0)
        ts = np.linspace(0.0, 40.0, 11)
        np.testing.assert_allclose(d.cdf(ts) + d.sf(ts), 1.0, atol=1e-12)


class TestComplexF:
    def test_symmetric_half(self):
        assert abs(ComplexF(1, 1).cdf(1.0) - 0.5) < 1e-12

    def test_central_incomplete_beta(self):
        m, n = 2, 13
        ts = np.linspace(0.01, 5.0, 25)
        ref = special.betainc(m, n, ts / (1 + ts))
        np.testing.assert_allclose(ComplexF(m, n).cdf(ts), ref, atol=1e-10)

    def test_matches_scipy_noncentral_f(self):
        m, n, d = 2, 13, 8.0
        ts = np.linspace(0.05, 8.0, 17)
        ref = special.ncfdtr(2 * m, 2 * n, 2 * d, ts * n / m)
        np.testing.assert_allclose(ComplexF(m, n, d).cdf(ts), ref, atol=1e-12)

    def test_sampler_ks(self, rng):
        d = ComplexF(2, 13, 8.0)
        samples = d.sample(rng, size=100_000)
        assert sstats.kstest(samples, d.cdf).pvalue > 0.01
        assert d.sample(rng, size=0).shape == (0,)


class TestComplexBeta:
    def test_central_reduction(self):
        xs = np.linspace(0, 1, 21)
        np.testing.assert_allclose(ComplexBeta(13, 10).cdf(xs),
                                   sstats.beta(13, 10).cdf(xs), atol=1e-12)

    def test_boundaries(self):
        d = ComplexBeta(13, 10, 20.0)
        assert d.cdf(0.0) == 0.0
        assert abs(d.cdf(1.0) - 1.0) < 1e-12

    def test_noncentrality_pushes_left(self):
        xs = np.linspace(0.01, 0.99, 30)
        low = ComplexBeta(13, 10, 0.0).cdf(xs)
        high = ComplexBeta(13, 10, 20.0).cdf(xs)
        assert np.all(high >= low - 1e-12)

    def test_matches_flipped_noncentral_beta(self):
        a, b, d = 13, 10, 20.0
        xs = np.linspace(0.02, 0.98, 15)
        y = 1.0 - xs
        ref = 1.0 - special.ncfdtr(2 * b, 2 * a, 2 * d, (a * y) / (b * (1 - y)))
        np.testing.assert_allclose(ComplexBeta(a, b, d).cdf(xs), ref, atol=1e-12)

    def test_pdf_is_cdf_derivative(self):
        d = ComplexBeta(13, 10, 20.0)
        xs = np.linspace(0.05, 0.95, 9)
        h = 1e-6
        num = (d.cdf(xs + h) - d.cdf(xs - h)) / (2 * h)
        # absolute floor: central differences lose all digits in the far tail
        np.testing.assert_allclose(d.pdf(xs), num, rtol=1e-4, atol=1e-6)

    def test_sampler_ks(self, rng):
        d = ComplexBeta(13, 10, 20.0)
        samples = d.sample(rng, size=100_000)
        assert sstats.kstest(samples, d.cdf).pvalue > 0.01
        assert d.sample(rng, size=0).shape == (0,)


class TestCentralRouting:
    """Zero noncentrality must give the central laws (scipy 1.17's ncf.sf
    returns -cdf at nc = 0), also inside arrays that mix zero and nonzero."""

    TS = np.array([0.0, 0.05, 0.5, 1.0, 3.0, 40.0])

    def test_zero_delta_f_is_central_beta(self):
        for m, n in ((1, 1), (2, 13), (4, 26)):
            sf = ComplexF(m, n, 0.0).sf(self.TS)
            np.testing.assert_allclose(sf, special.betainc(n, m, 1.0 / (1.0 + self.TS)),
                                       rtol=1e-12, atol=0.0)
            assert np.all((sf >= 0.0) & (sf <= 1.0))

    def test_zero_delta_chi2_is_central_gamma(self):
        for k in (1, 3, 8):
            sf = ComplexChi2(k, 0.0).sf(self.TS)
            np.testing.assert_allclose(sf, special.gammaincc(k, self.TS), rtol=1e-12, atol=0.0)
            assert np.all((sf >= 0.0) & (sf <= 1.0))

    def test_mixed_nodes(self):
        m, n = 2, 13
        ts = np.repeat([0.3, 2.0, 15.0], 2)
        deltas = np.tile([0.0, 4.0], 3)
        sf = cf_sf_nodes(m, n, deltas, ts)
        zero = deltas == 0.0
        np.testing.assert_allclose(sf[zero], special.betainc(n, m, 1.0 / (1.0 + ts[zero])),
                                   rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(sf[~zero], sstats.ncf.sf(ts[~zero] * n / m, 2 * m, 2 * n, 8.0),
                                   rtol=1e-12, atol=0.0)
        assert np.all((sf >= 0.0) & (sf <= 1.0))


def mp_cf(m, n, delta, t):
    """``(cdf, sf)`` of ``CF(m, n, delta)`` at ``t`` in mpmath.

    ``B`` is an Erlang waiting time, so the cdf is ``P(J < n)`` for a Poisson
    count ``J`` of mean ``A / t``: ``sum_{j<n} E[(A/t)^j e^{-A/t}] / j!``,
    which is ``x^m e^{-delta w} sum_{j<n} w^j L_j^{(m-1)}(-delta x)`` with
    ``x = t/(1+t)`` and ``w = 1 - x``.  mpmath sums each Laguerre polynomial
    as its hypergeometric series (positive terms, no recurrence), and the
    precision rises until ``1 - cdf`` keeps 20 digits.
    """
    def at(dps):
        with mp.workdps(dps):
            t_, d = mp.mpf(float(t)), mp.mpf(float(delta))
            x, w = t_ / (1 + t_), 1 / (1 + t_)
            total = mp.fsum(w ** j * mp.laguerre(j, m - 1, -d * x) for j in range(n))
            cdf = x ** m * mp.exp(-d * w) * total
            return cdf, 1 - cdf

    dps = 30
    cdf, sf = at(dps)
    while sf < mp.mpf(10) ** (20 - dps):
        dps = 30 + (int(-mp.log10(sf)) if sf > 0 else 2 * dps)
        cdf, sf = at(dps)
    return float(cdf), float(sf)


def assert_law_close(got, ref, where):
    """The finite-sum laws' bound: 1e-13 absolute, and 1e-12 relative where
    the reference is at least 1e-300."""
    err = abs(got - ref)
    assert err <= 1e-13 and (ref < 1e-300 or err <= 1e-12 * ref), (where, got, ref)


class TestScipyKernels:
    """The laws still on scipy.special kernels (the noncentral chi-square and
    boost's noncentral-F density) give scipy.stats' values inside the support;
    the finite sums that replaced ``_ncf_sf``/``ncfdtr`` stay within the
    finite-sum bound of mpmath and of scipy.stats.  Every law gives scipy.stats'
    values at the support ends, where the raw kernels do not."""

    def test_interior_nodes_match_scipy_stats(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            m, n = (int(v) for v in rng.integers(1, 14, size=2))
            delta = float(rng.exponential(10.0)) + 1e-3
            ts = rng.exponential(2.0, size=50)
            sf, cdf = cf_sf_nodes(m, n, delta, ts), ComplexF(m, n, delta).cdf(ts)
            ncf = sstats.ncf(2 * m, 2 * n, 2 * delta)
            for i, (t, s, c, ref_s, ref_c) in enumerate(zip(ts, sf, cdf, ncf.sf(ts * n / m),
                                                            ncf.cdf(ts * n / m))):
                assert_law_close(s, ref_s, ("scipy sf", m, n, delta, t))
                assert_law_close(c, ref_c, ("scipy cdf", m, n, delta, t))
                if i % 10 == 0:
                    mp_c, mp_s = mp_cf(m, n, delta, t)
                    assert_law_close(s, mp_s, ("mpmath sf", m, n, delta, t))
                    assert_law_close(c, mp_c, ("mpmath cdf", m, n, delta, t))
            np.testing.assert_array_equal(
                ComplexChi2(m, delta).sf(ts), sstats.ncx2.sf(2 * ts, 2 * m, 2 * delta))
            np.testing.assert_array_equal(
                ComplexChi2(m, delta).cdf(ts), sstats.ncx2.cdf(2 * ts, 2 * m, 2 * delta))
            xs = rng.uniform(0.0, 1.0, size=50)
            np.testing.assert_array_equal(
                cbeta_pdf_grid(m, n, delta, xs),
                sstats.ncf.pdf((1 - xs) / xs * m / n, 2 * n, 2 * m, 2 * delta) * (m / n) / xs ** 2)

    def test_chi2_support_ends(self):
        for k, delta in ((8, 7.0), (1, 0.5), (3, 0.0)):
            d = ComplexChi2(k, delta)
            assert d.sf(0.0) == 1.0 and d.cdf(0.0) == 0.0
            assert d.sf(np.inf) == 0.0 and d.cdf(np.inf) == 1.0

    def test_f_support_ends(self):
        for delta in (0.0, 4.0):
            d = ComplexF(2, 13, delta)
            assert d.sf(0.0) == 1.0 and d.cdf(0.0) == 0.0
            assert d.sf(np.inf) == 0.0 and d.cdf(np.inf) == 1.0

    def test_beta_support_ends(self):
        for delta in (0.0, 20.0):
            d = ComplexBeta(13, 10, delta)
            ends = d.cdf(np.array([0.0, 1.0]))
            assert ends[0] == 0.0 and ends[1] == 1.0

    def test_beta_endpoint_densities(self):
        a, b, delta = 3, 5, 2.5
        ends = np.array([0.0, 1.0])
        assert np.array_equal(cbeta_pdf_grid(a, b, delta, ends), [0.0, 0.0])
        assert np.array_equal(cbeta_pdf_grid(1, b, delta, ends), [b + delta, 0.0])
        assert np.array_equal(cbeta_pdf_grid(a, 1, delta, ends), [0.0, a * np.exp(-delta)])
        # the unit-shape endpoint values are the limits of the interior density
        np.testing.assert_allclose(cbeta_pdf_grid(1, b, delta, np.array([1e-9])), b + delta,
                                   rtol=1e-6)
        np.testing.assert_allclose(cbeta_pdf_grid(a, 1, delta, np.array([1 - 1e-9])),
                                   a * np.exp(-delta), rtol=1e-6)

    def test_mixed_deltas_with_support_ends(self):
        m, n = 2, 13
        ts = np.array([0.0, 0.0, 1.5, 1.5, np.inf, np.inf])
        deltas = np.tile([0.0, 4.0], 3)
        sf = cf_sf_nodes(m, n, deltas, ts)
        assert np.array_equal(sf[[0, 1, 4, 5]], [1.0, 1.0, 0.0, 0.0])
        for got, delta, ref in ((sf[2], 0.0, special.betainc(n, m, 1.0 / 2.5)),
                                (sf[3], 4.0, sstats.ncf.sf(1.5 * n / m, 2 * m, 2 * n, 8.0))):
            assert_law_close(got, ref, ("scipy", delta))
            assert_law_close(got, mp_cf(m, n, delta, 1.5)[1], ("mpmath", delta))


class TestFiniteSumLaws:
    """The numpy finite sums behind the CF and CChi2 laws against mpmath."""

    @pytest.mark.parametrize("n", [1, 4, 13, 30, 60, 100])
    def test_noncentral_f_against_mpmath(self, n):
        rng = np.random.default_rng(n)
        for m in (1, 2, 3, 5, 12):
            deltas = np.concatenate(([0.0, 1e4], 10.0 ** rng.uniform(-3.0, 4.0, 5)))
            # three nodes about the law's bulk (both tails), four anywhere
            bulk = (m + deltas[:3]) / n * 10.0 ** rng.uniform(-1.5, 1.5, 3)
            ts = np.clip(np.concatenate((bulk, 10.0 ** rng.uniform(-3.0, 3.0, 4))), 1e-3, 1e3)
            sf = cf_sf_nodes(m, n, deltas, ts)
            for d, t, s in zip(deltas, ts, sf):
                ref_cdf, ref_sf = mp_cf(m, n, d, t)
                assert_law_close(s, ref_sf, ("sf", m, n, d, t))
                assert_law_close(ComplexF(m, n, d).cdf(t), ref_cdf, ("cdf", m, n, d, t))

    @pytest.mark.parametrize("m,n,delta,t", [
        (2, 13, 8.0, 12.0),        # sf about 1e-8: the tail continuation
        (3, 100, 0.0066, 52.57),   # sf about 1e-170, one term of the tail carrying it
        (12, 100, 1e4, 14.35),     # a prefactor below e**-600, kept in log space
        (1, 30, 1e3, 0.53),        # the same with a cdf near 1e-246
        (1, 100, 1e5, 130.0),      # a prefactor e**-763, below the smallest double
    ])
    def test_deep_tails_against_mpmath(self, m, n, delta, t):
        ref_cdf, ref_sf = mp_cf(m, n, delta, t)
        assert min(ref_cdf, ref_sf) < 1e-7
        assert_law_close(cf_sf_nodes(m, n, delta, t)[0], ref_sf, "sf")
        assert_law_close(ComplexF(m, n, delta).cdf(t), ref_cdf, "cdf")

    def test_central_survival_against_mpmath(self):
        # down to pfa 1e-8 and on to 1e-300, where the prefactor leaves the
        # floating-point range and the terms meet in log space
        ts = 10.0 ** np.linspace(-3.0, 3.0, 49)
        with mp.workdps(30):
            for m, n in ((1, 1), (2, 13), (12, 13), (5, 100), (12, 60)):
                ref = [float(mp.betainc(n, m, 0, 1 / (1 + mp.mpf(t)), regularized=True))
                       for t in ts]
                for t, got, r in zip(ts, cf_sf_nodes(m, n, 0.0, ts), ref):
                    if r >= 1e-300:
                        assert abs(got / r - 1.0) <= 1e-12, ("CF", m, n, t)
            for k in (1, 2, 5, 12, 100):
                tk = np.concatenate((ts, [750.0, 800.0]))
                ref = [float(mp.gammainc(k, mp.mpf(t), regularized=True)) for t in tk]
                for t, got, r in zip(tk, ComplexChi2(k).sf(tk), ref):
                    if r >= 1e-300:
                        assert abs(got / r - 1.0) <= 1e-12, ("CChi2", k, t)

    def test_large_n_delta_nodes_stay_finite(self):
        ts = np.array([1e-3, 0.5, 1.0, 30.0, 1e3, 1e8])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for m, n in ((1, 100), (12, 100), (12, 1000), (1, 2000), (12, 2000)):
                for delta in (1e4, 1e6, 1e8):
                    # and one node in the law's bulk
                    tn = np.append(ts, (m + delta) / n)
                    sf = cf_sf_nodes(m, n, delta, tn)
                    cdf = ComplexF(m, n, delta).cdf(tn)
                    for out in (sf, cdf):
                        ok = np.isfinite(out) & (out >= 0.0) & (out <= 1.0)
                        assert ok.all(), (m, n, delta, out)

    @pytest.mark.parametrize("m", [1, 12])
    def test_capped_tail_switch_at_large_n(self, m, monkeypatch):
        # from n = 497 on the switch stays at 1/4: nodes about the bulk, the
        # two with sf below it continued past n, against boost's noncentral F
        continued = []
        tail = core._cf_tail

        def counted_tail(*args):  # (m, n, w, ...): count the nodes w
            continued.append(args[2].size)
            return tail(*args)

        monkeypatch.setattr(core, "_cf_tail", counted_tail)
        n, delta = 2000, 1e4
        ts = (m + delta) / n * np.array([0.9, 1.0, 1.1, 1.25])
        sf = cf_sf_nodes(m, n, delta, ts)
        assert continued == [2] and np.count_nonzero(sf < 0.25) == 2
        np.testing.assert_allclose(sf, sstats.ncf.sf(ts * n / m, 2 * m, 2 * n, 2 * delta),
                                   rtol=1e-12, atol=0.0)

    def test_tail_stops_where_its_sum_overflows(self, monkeypatch):
        # every node continued, as a switch above 1 would: a node whose mass
        # lies far above n overflows its tail sum and keeps its 1 - cdf
        monkeypatch.setattr(core, "_TAIL_SWITCH", 1.0)
        monkeypatch.setattr(core, "_TAIL_CAP", 2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sf = cf_sf_nodes(2, 13, np.array([1e4, 8.0]), np.array([1.0, 12.0]))
        assert sf[0] == 1.0
        assert_law_close(sf[1], mp_cf(2, 13, 8.0, 12.0)[1], "tail")

    def test_each_node_alone_equals_the_node_in_an_array(self):
        m, n = 2, 13
        ts = np.array([0.0, np.inf, 0.3, 1.5, 4.0, 12.0, 40.0, 1e3, 0.05, 14.35, 1.0, 5e-3])
        deltas = np.array([4.0, 4.0, 0.0, 0.0, 4.0, 8.0, 30.0, 1e4, 1e4, 1e4, 1e8, 2.5])
        sf = cf_sf_nodes(m, n, deltas, ts)
        # tail-continuation nodes (sf far below the switch) are among them
        assert np.count_nonzero((deltas > 0.0) & (sf > 0.0) & (sf < 1e-4)) >= 2
        for i in range(ts.size):
            assert sf[i] == cf_sf_nodes(m, n, deltas[i:i + 1], ts[i:i + 1])[0], i
            assert cf_sf_nodes(m, n, deltas[i], ts[i])[0] == sf[i], i
        for delta in np.unique(deltas):
            cdf = ComplexF(m, n, delta).cdf(ts)
            for i in range(ts.size):
                assert ComplexF(m, n, delta).cdf(ts[i]) == cdf[i], (delta, i)
        erlang = ComplexChi2(3).sf(ts)
        for i in range(ts.size):
            assert ComplexChi2(3).sf(ts[i]) == erlang[i], i


class TestPdSurvival:
    """The PD integrand's survival: ``1 - cdf`` at noncentral nodes, the
    tail-continued ``cf_sf_nodes`` at central ones."""

    @staticmethod
    def nodes(m, n, seed, size=200):
        rng = np.random.default_rng(seed)
        deltas = 10.0 ** rng.uniform(-3.0, 4.0, size)
        # half about the law's bulk (both tails), half anywhere
        bulk = (m + deltas[:size // 2]) / n * 10.0 ** rng.uniform(-1.5, 1.5, size // 2)
        return deltas, np.concatenate((bulk, 10.0 ** rng.uniform(-3.0, 3.0, size - size // 2)))

    @pytest.mark.parametrize("n", [1, 4, 13, 30, 109, 240, 500, 1000, 2000])
    def test_noncentral_nodes_within_absolute_accuracy(self, n):
        # up to n = 240 (L = 20N at N = 12) the two agree to 1e-12.  Further
        # on, at small delta x, both carry the recurrence's own error (about
        # 1.5e-11 against mpmath at n = 2000), and they differ by up to 6e-11
        bound = 1e-12 if n <= 240 else 1e-10
        for m in (1, 2, 3, 5, 12):
            deltas, ts = self.nodes(m, n, seed=n * 100 + m)
            got = detection._pd_sf(m, n, deltas, ts)
            assert np.all(np.abs(got - cf_sf_nodes(m, n, deltas, ts)) <= bound), (m, n)

    @pytest.mark.parametrize("m,n,delta,t", [
        (2, 2000, 0.0011049517465879738, 0.0014659705855730465),
        (1, 1000, 0.0026301614285141645, 0.0018820895014357922),
        (2, 13, 8.0, 12.0),  # sf about 1e-8, below every tail switch
    ])
    def test_against_mpmath_where_the_kernels_differ_most(self, m, n, delta, t):
        assert abs(detection._pd_sf(m, n, np.array([delta]), np.array([t]))[0]
                   - mp_cf(m, n, delta, t)[1]) <= 2e-11

    def test_central_nodes_keep_cf_sf_nodes_bits(self):
        deltas, ts = self.nodes(2, 13, seed=3)
        deltas[::3] = 0.0
        got = detection._pd_sf(2, 13, deltas, ts)
        central = deltas == 0.0
        assert np.array_equal(got[central], cf_sf_nodes(2, 13, 0.0, ts[central]))

    @pytest.mark.parametrize("det,N,p,q", [("samf", 12, 2, 0), ("sabort", 12, 2, 0),
                                           ("sglrt", 8, 1, 0), ("glrt_he_i", 12, 2, 2)])
    def test_mixture_cells_at_large_l_match_the_tail(self, det, N, p, q, monkeypatch):
        """At L = 10N, mixture PD cells from 1e-8 up to 1 stay within 1e-11 of
        the same quadrature through the tail-continued survival."""
        law = resolve_law(det, N, p, 10 * N, q=q)
        eta = thresholds_for_pfa([law], 1e-6)[0]
        rho, cos2 = (v.ravel() for v in np.meshgrid(10.0 ** np.arange(-1.0, 4.1, 0.5),
                                                    [0.0, 0.3, 0.7, 1.0]))
        y = rho * (1.0 - cos2) if law.kind == "interference" else cos2
        fast = pd_cells(law, eta, rho, y)
        monkeypatch.setattr(detection, "_pd_sf", cf_sf_nodes)
        slow = pd_cells(law, eta, rho, y)
        assert fast.min() < 1e-5 and fast.max() > 1.0 - 1e-6
        np.testing.assert_allclose(fast, slow, rtol=0.0, atol=1e-11)

    def test_thresholds_use_central_nodes_only(self, monkeypatch):
        """Down to pfa 1e-7, a threshold solve never reaches the noncentral series."""
        def refuse(*args, **kwargs):
            raise AssertionError("noncentral node in a threshold solve")

        monkeypatch.setattr(detection, "_cf_series", refuse)
        laws = [resolve_law(d, 12, 2, 24) for d in ("sglrt", "samf", "srao", "asd", "sabort",
                                                     "wsabort", "dnsamf", "aed")]
        laws.append(resolve_law("glrt_he_i", 12, 2, 24, q=2))
        for pfa in (1e-2, 1e-4, 1e-7):
            assert np.all(thresholds_for_pfa(laws, pfa) > 0.0)


def exact_cbeta_pdf(a, b, delta, x):
    """The finite Kummer sum of the CBeta(a, b, delta) density at ``x`` in
    40-digit decimal arithmetic: an oracle independent of both kernels."""
    with localcontext() as ctx:
        ctx.prec = 40
        x, delta = Decimal(float(x)), Decimal(float(delta))
        y = delta * (1 - x)
        total = sum(math.comb(a, k) * y ** k / math.prod(range(b, b + k)) for k in range(a + 1))
        norm = Decimal(math.factorial(a + b - 1)) / (math.factorial(a - 1) * math.factorial(b - 1))
        return float(norm * x ** (a - 1) * (1 - x) ** (b - 1) * (-delta * x).exp() * total)


class TestFiniteSumDensity:
    """cbeta_pdf_nodes (the finite Kummer sum over an array of deltas) against
    cbeta_pdf_grid (boost's noncentral-F density, one delta at a time)."""

    def test_matches_boost_density(self):
        rng = np.random.default_rng(11)
        for _ in range(400):
            a, b = (int(v) for v in rng.integers(1, 41, size=2))
            delta = float(10.0 ** rng.uniform(-3.0, 4.0))
            # half the nodes where the mass is (near a / delta when delta is large)
            bulk = min(1.0, 60.0 * (a + 1) / delta)
            xs = np.concatenate((rng.uniform(0.0, 1.0, 10), rng.uniform(0.0, bulk, 10)))
            got = cbeta_pdf_nodes(a, b, np.full_like(xs, delta), xs)
            ref = cbeta_pdf_grid(a, b, delta, xs)
            for x, g, r in zip(xs, got, ref):
                if r <= 1e-6:
                    continue
                if abs(g / r - 1.0) > 1e-12:
                    # boost errs by up to 1e-11 at large delta (see below):
                    # the difference may not exceed boost's own error
                    e = exact_cbeta_pdf(a, b, delta, x)
                    assert abs(g - r) <= 1e-12 * r + abs(r - e), (a, b, delta, x)

    @pytest.mark.parametrize("a,b,delta,x", [
        (2, 35, 2966.839335379619, 3.287497111793137e-06),
        (8, 36, 9353.999530994439, 0.00010804100291910765),
        (11, 4, 9706.148300134775, 0.00019907727350648198),
    ])
    def test_exact_sum_decides_where_boost_errs(self, a, b, delta, x):
        got = cbeta_pdf_nodes(a, b, np.array([delta]), np.array([x]))[0]
        ref = cbeta_pdf_grid(a, b, delta, np.array([x]))[0]
        exact = exact_cbeta_pdf(a, b, delta, x)
        assert abs(ref / exact - 1.0) > 1e-12
        assert abs(got / exact - 1.0) <= 1e-13

    def test_matches_exact_sum(self):
        rng = np.random.default_rng(12)
        for _ in range(60):
            a, b = (int(v) for v in rng.integers(1, 41, size=2))
            delta = float(10.0 ** rng.uniform(-3.0, 4.0))
            xs = rng.uniform(0.0, min(1.0, 60.0 * (a + 1) / delta), 4)
            got = cbeta_pdf_nodes(a, b, np.full_like(xs, delta), xs)
            for x, g in zip(xs, got):
                e = exact_cbeta_pdf(a, b, delta, x)
                if e > 1e-6:
                    assert abs(g / e - 1.0) <= 1e-13, (a, b, delta, x)

    def test_mixed_zero_and_nonzero_deltas(self):
        a, b = 15, 10
        xs = np.linspace(0.01, 0.99, 12)
        deltas = np.tile([0.0, 3.0, 0.0, 2e3], 3)
        got = cbeta_pdf_nodes(a, b, deltas, xs)
        zero = deltas == 0.0
        assert np.array_equal(got[zero], cbeta_pdf_grid(a, b, 0.0, xs[zero]))
        for i in np.flatnonzero(~zero):
            assert got[i] == cbeta_pdf_nodes(a, b, deltas[i:i + 1], xs[i:i + 1])[0]
            np.testing.assert_allclose(got[i], cbeta_pdf_grid(a, b, deltas[i], xs[i:i + 1]),
                                       rtol=1e-12, atol=1e-300)

    def test_extreme_nodes_stay_finite(self):
        xs = np.array([0.0, 1e-300, 1.0 - 1e-16, 1.0])
        for a, b in ((1, 1), (1, 7), (7, 1), (15, 10), (40, 40), (200, 60)):
            for delta in (0.0, 1e5):
                out = cbeta_pdf_nodes(a, b, np.full_like(xs, delta), xs)
                assert np.all(np.isfinite(out) & (out >= 0.0)), (a, b, delta, out)

    def test_nodes_where_x_squared_underflows(self):
        # below about 1e-162, x**2 is 0: no density may come out as 0/0 there
        for x in (1e-300, 1e-170):
            got = ComplexBeta(2, 10, 5.0).pdf(x)
            assert got == cbeta_pdf_nodes(2, 10, np.array([5.0]), np.array([x]))[0]
            assert got == pytest.approx(exact_cbeta_pdf(2, 10, 5.0, x), rel=1e-13)
        # a law this wide goes to boost, whose density there is x**2999-small
        wide = cbeta_pdf_nodes(3000, 10, np.full(2, 1e5), np.array([1e-300, 1e-170]))
        assert np.array_equal(wide, [0.0, 0.0])

    def test_unit_shape_endpoints(self):
        a, b, delta = 3, 5, 2.5
        ends = np.array([0.0, 1.0])
        deltas = np.full(2, delta)
        assert np.array_equal(cbeta_pdf_nodes(a, b, deltas, ends), [0.0, 0.0])
        assert np.array_equal(cbeta_pdf_nodes(1, b, deltas, ends), [b + delta, 0.0])
        assert np.array_equal(cbeta_pdf_nodes(a, 1, deltas, ends), [0.0, a * np.exp(-delta)])

    def test_wide_law_uses_boost(self):
        # coefficients of a law this wide leave the floating-point range
        a, b = 700, 10
        xs = np.linspace(0.5, 0.999, 7)
        for delta in (0.5, 50.0):
            assert np.array_equal(cbeta_pdf_nodes(a, b, np.full_like(xs, delta), xs),
                                  cbeta_pdf_grid(a, b, delta, xs))


class TestCdfShapeProperties:
    @pytest.mark.parametrize("dist,grid", [
        (ComplexChi2(3, 2.5), np.linspace(0, 40, 1000)),
        (ComplexF(2, 13, 8.0), np.linspace(0, 50, 1000)),
        (ComplexBeta(13, 10, 20.0), np.linspace(0, 1, 1000)),
    ])
    def test_monotone_with_limits(self, dist, grid):
        vals = dist.cdf(grid)
        assert np.all(np.diff(vals) >= -1e-13)
        assert vals[0] <= 1e-12
        assert vals[-1] > 0.99 or isinstance(dist, ComplexBeta)
        if isinstance(dist, ComplexBeta):
            assert abs(vals[-1] - 1.0) < 1e-12


class TestPointCurves:
    N, p, L = 12, 2, 24

    def test_zero_snr_collapses_to_pfa(self):
        for det in ("sglrt", "samf", "srao", "asd", "sabort", "wsabort",
                    "dnsamf", "aed", "smf"):
            eta = threshold_for_pfa(det, self.N, self.p, self.L, 1e-2)
            pd0 = pd_point(det, self.N, self.p, self.L, 0.0, 1.0, eta)
            pfa = pfa_point(det, self.N, self.p, self.L, eta)
            assert abs(pd0 - pfa) < 1e-12

    def test_aed_dual_path(self):
        eta = threshold_for_pfa("aed", self.N, self.p, self.L, 1e-3)
        for rho, c2 in ((10.0, 1.0), (10.0, 0.3), (200.0, 0.7)):
            closed = pd_point("aed", self.N, self.p, self.L, rho, c2, eta)
            generic = pd_point_generic_aed(self.N, self.p, self.L, rho, c2, eta)
            assert abs(closed - generic) < 1e-8

    def test_aed_ignores_mismatch(self):
        eta = 3.0
        vals = [pd_point("aed", self.N, self.p, self.L, 50.0, c2, eta)
                for c2 in (0.0, 0.25, 0.75, 1.0)]
        assert max(vals) - min(vals) == 0.0

    def test_monotone_in_snr_and_mismatch(self):
        for det in ("sglrt", "samf", "asd", "sabort"):
            eta = threshold_for_pfa(det, self.N, self.p, self.L, 1e-3)
            rhos = [1.0, 5.0, 25.0, 125.0]
            pds = [pd_point(det, self.N, self.p, self.L, r, 0.8, eta) for r in rhos]
            assert all(b >= a - 1e-9 for a, b in zip(pds, pds[1:]))
            c2s = [0.0, 0.3, 0.6, 1.0]
            pds = [pd_point(det, self.N, self.p, self.L, 50.0, c, eta) for c in c2s]
            assert all(b >= a - 1e-9 for a, b in zip(pds, pds[1:]))

    def test_smf_sees_the_matched_energy(self):
        # the known-covariance SMF statistic is CChi2(p, rho cos2phi)
        eta = threshold_for_pfa("smf", self.N, self.p, self.L, 1e-3)
        for rho, c2 in ((50.0, 0.0), (50.0, 0.4), (50.0, 1.0)):
            want = sstats.ncx2.sf(2 * eta, 2 * self.p, 2 * rho * c2)
            got = pd_point("smf", self.N, self.p, self.L, rho, c2, eta)
            assert got == pytest.approx(want, rel=1e-9)

    def test_smf_threshold_closed_form(self):
        eta = threshold_for_pfa("smf", self.N, 1, self.L, 1e-3)
        assert abs(eta - np.log(1000.0)) < 1e-3 * np.log(1000.0)

    def test_threshold_round_trip(self):
        for det in ("sglrt", "samf", "srao", "asd", "sabort", "wsabort",
                    "dnsamf", "aed", "smf"):
            for pfa in (1e-3, 1e-6):
                eta = threshold_for_pfa(det, self.N, self.p, self.L, pfa)
                assert abs(pfa_point(det, self.N, self.p, self.L, eta) - pfa) <= 1e-3 * pfa

    @pytest.mark.parametrize("N, p, L", [(12, 2, 48), (12, 2, 120), (12, 2, 240), (30, 2, 300)])
    def test_small_pfa_thresholds_keep_their_band(self, N, p, L, caplog):
        """Below pfa = 1e-3 the quadrature's tolerance follows the band rtol *
        pfa, so each threshold's true pfa (at tol 1e-13) lies within 2 rtol
        of the target, with no quadrature warning."""
        with caplog.at_level(logging.WARNING, logger="adaptivedet.distributions"):
            for det in ("samf", "sabort", "asd", "srao"):
                law = resolve_law(det, N, p, L)
                for pfa in (1e-5, 1e-6, 1e-7):
                    eta = thresholds_for_pfa([law], pfa)[0]
                    ratio = pd_cells(law, eta, 0.0, 1.0, tol=1e-13)[0] / pfa
                    assert abs(ratio - 1.0) <= 2e-3, (det, pfa, ratio)
        assert not caplog.records

    def test_degenerate_threshold(self):
        for det in ("samf", "aed"):
            assert pfa_point(det, self.N, self.p, self.L, 0.0) == 1.0

    def test_quadrature_convergence(self):
        eta = threshold_for_pfa("sglrt", self.N, self.p, self.L, 1e-3)
        a = pd_point("sglrt", self.N, self.p, self.L, 40.0, 0.7, eta, tol=1e-6)
        b = pd_point("sglrt", self.N, self.p, self.L, 40.0, 0.7, eta, tol=5e-7)
        assert abs(a - b) < 1e-6

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            pd_point("nope", 12, 2, 24, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            pd_point("sglrt", 12, 2, 24, 1.0, 1.0, -1.0)
        with pytest.raises(InfeasibleError):
            threshold_for_pfa("sglrt", 12, 2, 24, 1.5)

    @pytest.mark.parametrize("eta, rho, cos2phi", [
        (1.0, np.inf, 1.0), (1.0, np.nan, 1.0), (1.0, 10.0, np.nan),
        (np.inf, 10.0, 1.0), (np.nan, 10.0, 1.0)])
    def test_non_finite_cell_or_threshold_rejected(self, eta, rho, cos2phi):
        law = resolve_law("samf", 12, 2, 24)
        with pytest.raises(ValueError, match="finite"):
            pd_cells(law, eta, [10.0, rho], [1.0, cos2phi])


class TestLossFactorBulk:
    """At high SNR the loss factor's density is a bulk near ``a / (a + b +
    delta)``, narrower than any node spacing of [0, 1]; each cell's
    quadrature starts on it, and the PDs follow an independent dense rule."""

    # perfbench's ANALYTIC_PD_TOL
    PD_TOL = 10 * QUAD_TOL

    @pytest.mark.parametrize("a", [1, 2, 3, 15, 111, 680, 2000])
    def test_gamma_tail_bounds(self, a):
        t_lo, t_hi = detection._gamma_bulk(a)
        assert 1.0 - core._erlang_sf(a, np.array([t_lo]))[0] <= detection.BULK_TAIL
        assert core._erlang_sf(a, np.array([t_hi]))[0] <= detection.BULK_TAIL

    @pytest.mark.parametrize("N, p, L", [(4, 1, 5), (8, 2, 16), (12, 2, 24)])
    def test_high_snr_pds_follow_the_dense_rule(self, N, p, L):
        snr_db, cos2 = np.meshgrid([24.0, 36.0, 48.0, 60.0, 80.0, 100.0], [0.0, 0.3, 0.9])
        rho, cos2 = 10.0 ** (snr_db.ravel() / 10.0), cos2.ravel()
        for det in ("samf", "sglrt", "sabort"):
            law = resolve_law(det, N, p, L)
            eta = thresholds_for_pfa([law], 1e-3)[0]
            got = pd_cells(law, eta, rho, cos2)
            want = [oracles.pd_dense(law, eta, r, c) for r, c in zip(rho, cos2)]
            assert np.max(np.abs(got - want)) <= self.PD_TOL, det

    def test_a_cell_keeps_the_bits_of_its_own_call(self):
        # cells with and without bulk breakpoints share one integration
        law = resolve_law("sabort", 4, 1, 5)
        rho = np.array([0.0, 10.0, 1e3, 1e6, 1e3, 1e6])
        cos2 = np.array([1.0, 0.5, 0.0, 0.3, 1.0, 0.999])
        grid = pd_cells(law, 7.5, rho, cos2)
        for i in range(rho.size):
            assert grid[i] == pd_cells(law, 7.5, rho[i], cos2[i])[0]

    @pytest.mark.parametrize("N, p, L, pfa", [
        (4, 3, 8, 1e-3), (4, 3, 20, 1e-3), (4, 3, 20, 1e-6), (8, 7, 16, 1e-3),
        (12, 11, 24, 1e-2), (8, 6, 16, 1e-6)])
    def test_asd_threshold_near_p_equal_n(self, N, p, L, pfa):
        """Near eta = 1 the asd event is a sliver 1 - beta = O((1 - eta) /
        eta), narrower than the last node spacing unless its breakpoints mark
        it; each of these solves needs them to converge."""
        law = resolve_law("asd", N, p, L)
        eta = thresholds_for_pfa([law], pfa)[0]
        assert abs(oracles.pd_dense(law, eta, 0.0, 1.0) / pfa - 1.0) <= 1e-3


class TestDistributedCurves:
    def test_k1_reduces_to_point(self):
        N, L = 8, 16
        for rho, c2 in ((10.0, 1.0), (30.0, 0.6)):
            eta = threshold_for_pfa("sglrt", N, 1, L, 1e-2)
            a = distributed_cell("gkglrt", N, 1, L, rho, c2, eta)
            b = pd_point("sglrt", N, 1, L, rho, c2, eta)
            assert abs(a - b) < 1e-6
        eta = threshold_for_pfa("samf", N, 1, L, 1e-2)
        a = distributed_cell("gamf", N, 1, L, 20.0, 1.0, eta)
        b = pd_point("samf", N, 1, L, 20.0, 1.0, eta)
        assert abs(a - b) < 1e-6

    def test_zero_snr_is_central(self):
        val = distributed_cell("gkglrt", 8, 4, 16, 0.0, 1.0, 1.0)
        ref = distributed_cell("gkglrt", 8, 4, 16, 0.0, 0.2, 1.0)
        assert abs(val - ref) < 1e-12

    def test_one_channel_has_no_law(self):
        assert "N > 1" in resolve_law("gkglrt", 1, 1, 4, K=2)

    def test_gamf_pd_needs_a_matched_signal(self):
        # its loss factor is central only without mismatch
        assert 0.0 < distributed_cell("gamf", 8, 4, 16, 10.0, 1.0, 1.0) < 1.0
        assert np.isnan(distributed_cell("gamf", 8, 4, 16, 10.0, 0.5, 1.0))
        assert "cos2phi = 1" in resolve_law("gamf", 8, 1, 16, K=4).no_pd


class TestResolveLaw:
    @pytest.mark.parametrize("detector,dims,reason", [
        ("beta", dict(N=8, p=2, L=16), "no finite-sample law"),
        ("sglrt", dict(N=8, p=2, L=16, environment="phe"), "scale-invariant"),
        ("sglrt", dict(N=8, p=2, L=16, K=2), "K = 1"),
        ("glrt_he_i", dict(N=8, p=2, L=16, K=2), "K = 1"),
        ("sglrt", dict(N=4, p=4, L=8), "p < N"),
        ("kglrt", dict(N=1, p=1, L=4), "p < N"),
        ("glrt_he_i", dict(N=8, p=3, q=5, L=16), "p + q < N"),
        ("gkglrt", dict(N=1, p=1, L=4, K=3), "N > 1"),
        ("sglrt", dict(N=8, p=2, L=7), "L >= N"),
    ])
    def test_reasons(self, detector, dims, reason):
        assert reason in resolve_law(detector, **dims)

    def test_phe_keeps_scale_invariant_laws(self):
        for det in ("asd", "ace", "glrt_phe_i"):
            assert isinstance(resolve_law(det, 8, 1, 16, q=1, environment="phe"), Law)

    def test_interference_law_is_the_point_law_at_n_minus_q(self):
        for det in ("glrt_he_i", "ts_glrt_he_i", "glrt_phe_i"):
            law = resolve_law(det, 12, 2, 24, q=3)
            point = resolve_law(law.canonical, 9, 2, 24)
            assert (law.kind, law.params) == ("interference", point.params)

    def test_rank_one_law_is_at_p_one_without_pd_elsewhere(self):
        law = resolve_law("kglrt", 8, 2, 16)
        assert law.params == resolve_law("sglrt", 8, 1, 16).params and "p = 1" in law.no_pd
        assert (threshold_for_pfa("kglrt", 8, 2, 16, 1e-3)
                == threshold_for_pfa("kglrt", 8, 1, 16, 1e-3))
        with pytest.raises(ValueError, match=r"rank-one"):
            pd_point("kglrt", 8, 2, 16, 10.0, 1.0, 1.0)

    @pytest.mark.parametrize("detector", ["gkglrt", "gamf"])
    def test_distributed_law_at_k1_gives_no_pd_off_p_one(self, detector):
        # a K = 1 signal's cos2phi is measured against H; these read s alone
        law = resolve_law(detector, 10, 2, 20, q=2)
        assert "K = 1 and p = 2" in law.no_pd and not law.matched
        assert law.params == resolve_law(detector, 10, 1, 20).params
        assert np.isnan(pd_cells(law, 1.0, [0.0, 10.0], [1.0, 1.0])).all()
        # at p = 1, or with K > 1, the law keeps its PD
        assert resolve_law("gkglrt", 10, 1, 20).no_pd is None
        assert resolve_law("gkglrt", 10, 2, 20, K=2).no_pd is None

    @pytest.mark.parametrize("detector", ["gkglrt", "gamf", "glrt_he_i", "glrt_phe_i"])
    def test_threshold_for_pfa_takes_point_laws_only(self, detector):
        # it has no K or q to solve an other law at
        with pytest.raises(ValueError, match=r"no point law"):
            threshold_for_pfa(detector, 8, 1, 16, 1e-3)

    def test_closed_forms_need_no_loss_factor(self):
        assert resolve_law("smf", 4, 4, 8).params[0] == "cchi2"
        assert resolve_law("aed", 4, 4, 8).params[:3] == ("cf", 4, 5)


class TestInterferenceCurves:
    def test_q0_reduces_to_point(self):
        N, p, L = 12, 2, 24
        rho, c2 = 40.0, 0.7
        pairs = (("glrt_he_i", "sglrt"), ("ts_glrt_he_i", "samf"), ("glrt_phe_i", "asd"))
        for det_i, det_p in pairs:
            eta = threshold_for_pfa(det_p, N, p, L, 1e-3)
            a = interference_cell(det_i, N, p, 0, L, rho * c2, rho * (1 - c2), eta)
            b = pd_point(det_p, N, p, L, rho, c2, eta)
            assert abs(a - b) < 1e-9

    def test_zero_noncentralities_are_central(self):
        # the GLRT's conditional threshold map is constant in the loss factor,
        # so at zero effective SNR its PD equals the central false-alarm rate
        # regardless of the rejected-energy noncentrality
        a = interference_cell("glrt_he_i", 12, 2, 3, 24, 0.0, 0.0, 0.8)
        b = interference_cell("glrt_he_i", 12, 2, 3, 24, 0.0, 5.0, 0.8)
        assert 0.0 < a < 1.0
        assert abs(a - b) < 1e-9

    def test_dimension_guard(self):
        assert "p + q < N" in resolve_law("glrt_he_i", 6, 3, 12, q=3)


class TestIntegrator:
    def test_gauss_legendre_table_is_leggauss(self):
        nodes, weights = np.polynomial.legendre.leggauss(15)
        assert detection._GL_NODES.tobytes() == nodes.tobytes()
        assert detection._GL_WEIGHTS.tobytes() == weights.tobytes()

    def test_polynomial_exact(self):
        val = integrate_one(lambda x: 3 * x ** 2)
        assert abs(val - 1.0) < 1e-12

    def test_kink_with_breakpoint(self):
        f = lambda x: np.where(x < 0.3, 0.0, x - 0.3)
        val = integrate_one(f, breakpoints=(0.3,))
        assert abs(val - 0.5 * 0.7 ** 2) < 1e-9

    def test_unresolved_step_warns(self, caplog):
        # no dyadic split ever lands on 1/3, so its panel reaches max_depth
        f = lambda x: np.where(x < 1.0 / 3.0, 0.0, 1.0)
        with caplog.at_level(logging.WARNING, logger="adaptivedet.distributions"):
            val = integrate_one(f)
        assert abs(val - 2.0 / 3.0) <= 1e-12
        assert len(caplog.records) == 1
        assert "max_depth=48" in caplog.text and "1 of 1 integrals" in caplog.text

    def test_tolerance_below_the_integrand_rounding_stays_bounded(self, caplog, monkeypatch):
        """A tol the integrand cannot resolve stops at MAX_PANELS unresolved
        panels: at most a million integrand nodes, one warning, and the value
        of a tol it resolves."""
        law = resolve_law("asd", 30, 2, 300)
        resolved = pd_cells(law, 1e-3, 0.0, 1.0, tol=1e-13)[0]
        nodes = []
        original = detection.integrate_adaptive

        def counting(f, *args, **kwargs):
            return original(lambda cell_x: nodes.append(cell_x[1].size) or f(cell_x),
                            *args, **kwargs)

        monkeypatch.setattr(detection, "integrate_adaptive", counting)
        with caplog.at_level(logging.WARNING, logger="adaptivedet.distributions"):
            value = pd_cells(law, 1e-3, 0.0, 1.0, tol=1e-14)[0]
        assert sum(nodes) <= 1_000_000
        assert len(caplog.records) == 1 and "1 of 1 integrals" in caplog.text
        assert abs(value - resolved) <= 1e-12

    def test_resolved_integrals_do_not_warn(self, caplog):
        with caplog.at_level(logging.WARNING, logger="adaptivedet.distributions"):
            integrate_one(lambda x: 3 * x ** 2)
            pd_point("samf", 12, 2, 24, 1e4, 0.0, 1.8)
        assert not caplog.records

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_panel_raises_in_the_first_round(self, bad):
        calls = []

        def f(cell_x):
            calls.append(cell_x[1].size)
            return np.where(cell_x[0] == 1, bad, 1.0)

        with pytest.raises(ValueError, match="non-finite"):
            integrate_adaptive(f, 0.0, 1.0, 2)
        assert len(calls) == 1

    def test_lockstep_integrals_equal_single(self):
        scale = np.array([1.0, -2.0, 30.0, 0.0])

        def many(cell_x):
            cell, x = cell_x
            return scale[cell] * np.sin(20.0 * x) + np.where(x < 0.4, 0.0, 1.0)

        vals = integrate_adaptive(many, 0.0, 1.0, scale.size, breakpoints=(0.4,))
        for i, c in enumerate(scale):
            one = integrate_one(lambda x: c * np.sin(20.0 * x) + np.where(x < 0.4, 0.0, 1.0),
                                breakpoints=(0.4,))
            assert one == vals[i]
            assert abs(one - (c * (1.0 - np.cos(20.0)) / 20.0 + 0.6)) < 1e-9
