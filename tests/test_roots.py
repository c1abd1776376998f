import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from adaptivedet.batcheval import solve_sigma_batch
from adaptivedet.distributions import invert_pfa, pd_cells, resolve_law, thresholds_for_pfa
from adaptivedet.errors import InfeasibleError
from adaptivedet.roots import find_root

SETTINGS = settings(max_examples=200)


def _laws(detectors, N, p, L):
    return [resolve_law(d, N, p, L) for d in detectors]


EIGENVALUE = st.one_of(st.just(0.0), st.floats(1e-6, 1e6))


@st.composite
def spectra(draw):
    """A (B, r) batch of nonnegative eigenvalue rows, each with a positive
    eigenvalue, and a target below every row's count of positive ones."""
    rows = draw(st.integers(1, 12))
    r = draw(st.integers(1, 10))
    eigs = np.array(draw(st.lists(st.lists(EIGENVALUE, min_size=r, max_size=r),
                                  min_size=rows, max_size=rows)))
    eigs[:, 0] = np.maximum(eigs[:, 0], 1e-3)
    top = eigs.max(axis=1, keepdims=True)
    counts = (eigs > 1e-12 * top).sum(axis=1)
    target = draw(st.floats(0.01, 0.99)) * counts.min()
    return eigs, target


class TestFindRoot:
    @SETTINGS
    @given(st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=20))
    def test_elementwise_and_batch_independent(self, shifts):
        # (x * x + 1) * x rather than x ** 3 + x: numpy's power does not round
        # 0-d and 1-d arrays alike.  The absolute tolerance keeps roots near
        # zero from bisecting down through the exponent range.
        c = np.array(shifts)
        roots, values = find_root(lambda x, at: (x * x + 1.0) * x - c[at],
                                  np.full_like(c, -10.0), np.full_like(c, 10.0), xtol=1e-12)
        assert np.all(np.abs(values) <= 1e-10)
        for i in range(c.size):
            alone = find_root(lambda x, at: (x * x + 1.0) * x - c[i], -10.0, 10.0, xtol=1e-12)
            assert alone[0] == roots[i] and alone[1] == values[i]

    def test_exact_zero_at_bracket_end(self):
        assert find_root(lambda x, at: x - 2.0, 2.0, 5.0) == (2.0, 0.0)

    def test_both_ends_in_one_call(self):
        """The first call takes every element's lower end, then every upper
        end; here it finds both roots at an end, and nothing else runs."""
        calls = []

        def f(x, at):
            calls.append((x.copy(), at.copy()))
            return x - np.array([0.0, 3.0])[at]

        assert np.array_equal(find_root(f, np.zeros(2), np.array([1.0, 3.0]))[0], [0.0, 3.0])
        assert len(calls) == 1
        assert np.array_equal(calls[0][0], [0.0, 0.0, 1.0, 3.0])
        assert np.array_equal(calls[0][1], [0, 1, 0, 1])

    def test_one_call_per_round_after_the_ends(self):
        # the first step bisects [0, 1] onto the root: the ends, then one round
        calls = []
        assert find_root(lambda x, at: calls.append(x.size) or x - 0.5, 0.0, 1.0) == (0.5, 0.0)
        assert calls == [2, 1]

    def test_unbracketed_raises(self):
        with pytest.raises(InfeasibleError):
            find_root(lambda x, at: x * x + 1.0, -1.0, 1.0)
        with pytest.raises(InfeasibleError):
            find_root(lambda x, at: x - np.array([0.5, 3.0])[at], np.zeros(2), np.ones(2))
        with pytest.raises(InfeasibleError):
            find_root(lambda x, at: np.nan * x, -1.0, 1.0)


class TestSigmaRoot:
    @SETTINGS
    @given(spectra())
    def test_rows_alone_equal_batch(self, case):
        eigs, target = case
        batch = solve_sigma_batch(eigs, target)
        for i, row in enumerate(eigs):
            assert solve_sigma_batch(row[None, :], target)[0] == batch[i]

    @SETTINGS
    @given(spectra())
    def test_residual(self, case):
        eigs, target = case
        s2 = solve_sigma_batch(eigs, target)
        positive = eigs > 1e-12 * eigs.max(axis=1, keepdims=True)
        lhs = np.where(positive, eigs / (eigs + s2[:, None]), 0.0).sum(axis=1)
        assert np.all(np.abs(lhs - target) <= 1e-12 * target)

    @SETTINGS
    @given(st.floats(1e-6, 1e6), st.floats(0.01, 0.99))
    def test_single_eigenvalue_closed_form(self, lam, t):
        assert solve_sigma_batch(np.array([[lam]]), t)[0] == pytest.approx(
            lam * (1 - t) / t, rel=1e-12)

    @pytest.mark.parametrize("eigs,target", [
        ([1.0, 2.0, 3.0], 3.0),          # target at the count
        ([1.0, 1e-14, 0.0], 1.0),        # negligible eigenvalues do not count
        ([1.0], 0.0),
        ([1.0], -0.1),
        ([0.0, 0.0], 0.5),               # no positive eigenvalue
        ([-1.0, 0.0], 0.5),
        ([], 0.5),
    ])
    def test_infeasible_raises(self, eigs, target):
        with pytest.raises(InfeasibleError):
            solve_sigma_batch(np.array([eigs], dtype=float), target)

    def test_one_infeasible_row_fails_the_batch(self):
        with pytest.raises(InfeasibleError):
            solve_sigma_batch(np.array([[1.0, 2.0], [3.0, 0.0]]), 1.5)


class TestInvertPfa:
    @pytest.mark.parametrize("det", ["gkglrt", "gamf"])
    @pytest.mark.parametrize("pfa", [1e-2, 1e-6])
    def test_distributed_round_trip(self, det, pfa):
        N, K, L = 8, 4, 16
        law = resolve_law(det, N, 1, L, K=K)
        eta = invert_pfa(lambda e, at: [pd_cells(law, v, 0.0, 1.0)[0] for v in e], pfa)
        assert abs(pd_cells(law, float(eta[0]), 0.0, 1.0)[0] - pfa) <= 1e-3 * pfa

    def test_unreachable_target_raises(self):
        with pytest.raises(InfeasibleError):
            invert_pfa(lambda eta, at: 0.5, 1e-3)

    def test_jump_over_the_band_raises(self):
        with pytest.raises(InfeasibleError):
            invert_pfa(lambda eta, at: np.where(eta < 2.0, 1.0, 1e-9), 1e-3)

    def test_infeasible_element_is_named(self):
        # at L = N the F law's tail decays like 1/eta: sglrt's false-alarm rate
        # stays above 1e-20 over the whole bracket; smf's and srao's reach it
        with pytest.raises(InfeasibleError, match=r"for sglrt at pfa 1e-20 failed"):
            thresholds_for_pfa(_laws(["smf", "sglrt", "srao"], 4, 1, 4), 1e-20)
        assert np.all(np.isfinite(thresholds_for_pfa(_laws(["smf", "srao"], 4, 1, 4), 1e-20)))

    def test_unconverged_elements_are_named(self):
        jumps = np.array([False, True, False])
        with pytest.raises(InfeasibleError, match=r"for b at pfa 0.001 failed: did not converge"):
            invert_pfa(lambda eta, at: np.where(jumps[at] & (eta >= 2.0), 1e-9,
                                                np.where(jumps[at], 1.0, np.exp(-eta))),
                       1e-3, names=("a", "b", "c"))
