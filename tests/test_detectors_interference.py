import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from adaptivedet import linalg
from adaptivedet.batcheval import mismatch_geometry
from adaptivedet.detectors import interference_bank, subspace_bank
from adaptivedet.scenario import SignalSpec, actual_signal
from conftest import crandn, random_hpd


def _instance(rng, N, p, q, L):
    x = crandn(rng, N)
    H = crandn(rng, N, p)
    J = crandn(rng, N, q)
    train = crandn(rng, N, L)
    return x, train @ train.conj().T, H, J


class TestInterferenceBank:
    def test_hand_case(self):
        x = np.ones(3, dtype=complex)
        H = np.array([[1], [0], [0]], dtype=complex)
        J = np.array([[0], [1], [0]], dtype=complex)
        st = interference_bank(x, np.eye(3), H, J)
        assert st.glrt_he_i == pytest.approx(0.5, abs=1e-14)
        assert st.wald_he_i == pytest.approx(1.0, abs=1e-13)
        assert st.ts_glrt_he_i == pytest.approx(1.0, abs=1e-13)
        assert st.glrt_phe_i == pytest.approx(0.5, abs=1e-14)

    def test_empty_interference_reduces_to_point(self, rng):
        for _ in range(20):
            x, S, H, _ = _instance(rng, 6, 2, 0, 12)
            st = interference_bank(x, S, H, None)
            ps = subspace_bank(x, S, H)
            assert st.glrt_he_i == pytest.approx(ps.sglrt, rel=1e-12)
            assert st.ts_glrt_he_i == pytest.approx(ps.samf, rel=1e-12)
            assert st.wald_he_i == pytest.approx(ps.samf, rel=1e-10)
            assert st.beta_i == pytest.approx(ps.beta, rel=1e-12)
            assert st.rao_he_i == pytest.approx(ps.srao, rel=1e-12)
            assert st.glrt_phe_i == pytest.approx(ps.asd, rel=1e-12)

    def test_loss_factor_identity(self, rng):
        for _ in range(100):
            x, S, H, J = _instance(rng, 7, 2, 2, 14)
            st = interference_bank(x, S, H, J)
            assert st.ts_glrt_he_i == pytest.approx(st.glrt_he_i / st.beta_i, rel=1e-12)

    def test_phe_monotone_equivalent_identity(self, rng):
        # the two-sided form: glrt_he_i/(1-beta_i) = glrt_phe_i/(1-glrt_phe_i)
        for _ in range(100):
            x, S, H, J = _instance(rng, 7, 2, 2, 14)
            st = interference_bank(x, S, H, J)
            lhs = st.glrt_he_i / (1.0 - st.beta_i)
            rhs = st.glrt_phe_i / (1.0 - st.glrt_phe_i)
            assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_wald_via_oblique_projector(self, rng):
        for _ in range(25):
            x, S, H, J = _instance(rng, 7, 2, 2, 14)
            st = interference_bank(x, S, H, J)
            T = linalg.inv_sqrt(S)
            xt, Ht, Jt = T @ x, T @ H, T @ J
            P = oracles.oblique_projector(Ht, Jt)
            y = P @ xt
            assert st.wald_he_i == pytest.approx(float(np.real(y.conj() @ y)), rel=1e-10)

    def test_he_statistics_recoordinatization(self, rng):
        N = 7
        x, S, H, J = _instance(rng, N, 2, 2, 14)
        Q = crandn(rng, N, N) + 2.0 * np.eye(N)
        Qi = np.linalg.inv(Q)
        a = interference_bank(x, S, H, J)
        b = interference_bank(Qi @ x, Qi @ S @ Qi.conj().T, Qi @ H, Qi @ J)
        for name in ("glrt_he_i", "ts_glrt_he_i", "glrt_phe_i", "rao_he_i",
                     "ts_rao_he_i", "rao_phe_i", "wald_he_i", "wald_phe_i", "beta_i"):
            assert getattr(a, name) == pytest.approx(getattr(b, name), rel=1e-9)

    def test_invariant_bounds(self, rng):
        for _ in range(50):
            x, S, H, J = _instance(rng, 7, 2, 2, 14)
            st = interference_bank(x, S, H, J)
            assert 0.0 < st.beta_i <= 1.0
            assert 0.0 <= st.glrt_phe_i <= 1.0

    def test_wald_phe_over_zero_residual(self):
        """Data in span(H), with J orthogonal to H, leaves no residual outside
        [H J]: a positive Wald energy over it is +inf and null data gives 0,
        in the kernel and the oracle alike and with no warning."""
        N = 6
        H = np.eye(N, 2, dtype=complex)
        J = np.eye(N, dtype=complex)[:, [3]]
        for c, want in (([2.0, 1.0 - 1.0j], np.inf), ([0.0, 0.0], 0.0)):
            x = H @ np.array(c)
            assert interference_bank(x, np.eye(N), H, J).wald_phe_i == want
            assert oracles.interference_bank(x, np.eye(N), H, J)["wald_phe_i"] == want

    def test_overlapping_subspaces_rejected(self, rng):
        x, S, H, _ = _instance(rng, 6, 2, 0, 12)
        with pytest.raises(linalg.RankError):
            interference_bank(x, S, H, H[:, :1])


class TestMismatchGeometry:
    def test_signal_in_interference_span(self, rng):
        R = random_hpd(rng, 6)
        T = linalg.inv_sqrt(R)
        J = crandn(rng, 6, 2)
        H = crandn(rng, 6, 2)
        # signal aligned with span(J) after whitening
        s0 = np.linalg.inv(T) @ (T @ J)[:, 0]
        geom = mismatch_geometry(s0, R, H, J)
        assert geom.rho_eff == pytest.approx(0.0, abs=1e-9)

    def test_matched_orthogonal_case(self):
        N = 6
        H = np.zeros((N, 2), dtype=complex)
        H[0, 0] = H[1, 1] = 1.0
        J = np.zeros((N, 1), dtype=complex)
        J[3, 0] = 1.0
        s0 = H @ np.array([2.0, 1.0 - 1.0j])
        geom = mismatch_geometry(s0, np.eye(N), H, J)
        assert geom.rho_eff == pytest.approx(float(np.real(s0.conj() @ s0)), rel=1e-12)
        assert geom.delta2_i == pytest.approx(0.0, abs=1e-9)

    def test_q0_matches_point_quantities(self, rng):
        R = random_hpd(rng, 6)
        H = crandn(rng, 6, 2)
        spec = SignalSpec(snr_db=13.0, cos2phi=0.35, seed=4)
        s0 = actual_signal(H, R, spec)
        geom = mismatch_geometry(s0, R, H, None)
        assert geom.rho_eff == pytest.approx(spec.rho * spec.cos2phi, rel=1e-9)
        assert geom.delta2_i == pytest.approx(spec.rho * (1 - spec.cos2phi), rel=1e-9)

    def test_energy_split_bound(self, rng):
        for _ in range(25):
            R = random_hpd(rng, 6)
            H = crandn(rng, 6, 2)
            J = crandn(rng, 6, 2)
            s0 = crandn(rng, 6)
            geom = mismatch_geometry(s0, R, H, J)
            total = float(np.real(s0.conj() @ np.linalg.solve(R, s0)))
            assert geom.rho_eff + geom.delta2_i <= total + 1e-9


@st.composite
def signals(draw):
    """A stack of G random signals against a random true covariance R and
    geometry (N, p, q) with q >= 0 and p + q <= N."""
    N = draw(st.integers(2, 12))
    p = draw(st.integers(1, N))
    q = draw(st.integers(0, N - p))
    G = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return crandn(rng, G, N), random_hpd(rng, N), crandn(rng, N, p), crandn(rng, N, q)


class TestMismatchGeometryKernel:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(signals())
    def test_matches_oracle_and_stacks(self, case):
        """The interference kernel at S = R against the eigh/projector form,
        and a stacked call against one call per signal.  Both quantities are
        parts of the whitened signal energy, and ``delta2_i`` comes from a
        difference of energies on both sides (it is 0 up to rounding when
        p + q = N), so the tolerances are relative to that energy."""
        s0, R, H, J = case
        stacked = mismatch_geometry(s0, R, H, J)
        for g, s in enumerate(s0):
            one = mismatch_geometry(s, R, H, J)
            ref = oracles.mismatch_geometry(s, R, H, J)
            energy = ref["rho_eff"] + ref["delta2_i"]
            for name, value in ref.items():
                assert getattr(one, name) == pytest.approx(
                    value, rel=1e-10, abs=1e-10 * energy), name
                assert getattr(stacked, name)[g] == pytest.approx(
                    getattr(one, name), rel=1e-14, abs=1e-14 * energy), name
