"""The distributed family through its batched kernel at B = 1, against the
point kernel, closed forms and ``tests/oracles.py``."""

import mpmath as mp
import numpy as np
import pytest

import oracles
from adaptivedet import batcheval, linalg
from adaptivedet.errors import InfeasibleError
from conftest import crandn, distributed_b1, point_b1


def _instance(rng, N, K, L, p=2):
    X = crandn(rng, N, K)
    train = crandn(rng, N, L)
    S = train @ train.conj().T
    s = crandn(rng, N)
    H = crandn(rng, N, p)
    return X, S, s, H


def _solve_sigma(eigs, target):
    """One row of the batched noise-power root solver."""
    return batcheval.solve_sigma_batch(np.array([eigs], dtype=float), target)[0]


class TestRankOneHE:
    def test_k1_reduces_to_point(self, rng):
        for _ in range(20):
            X, S, s, _ = _instance(rng, 6, 1, 12)
            he = distributed_b1(X, S, s=s)
            rs = point_b1(X[:, 0], S, s[:, None], s=s)
            assert he["gkglrt"] == pytest.approx(rs["kglrt"], rel=1e-12)
            assert he["gamf"] == pytest.approx(rs["amf"], rel=1e-12)

    def test_hand_case(self):
        X = np.array([[1.0], [1.0]], dtype=complex)
        he = distributed_b1(X, np.eye(2), s=np.array([1.0, 0.0], dtype=complex))
        assert he["gkglrt"] == pytest.approx(0.5, rel=1e-12)
        assert he["gamf"] == pytest.approx(1.0, rel=1e-12)

    def test_rao_dual_formula(self, rng):
        for _ in range(25):
            X, S, s, _ = _instance(rng, 6, 3, 14)
            he = distributed_b1(X, S, s=s)
            recast = oracles.rao_he_recast(X, S, s)
            assert he["rao_he"] == pytest.approx(recast, rel=1e-10)
            assert oracles.distributed_rank1_he(X, S, s)["rao_he"] == pytest.approx(
                recast, rel=1e-10)


class TestSolveSigma:
    """``solve_sigma_batch`` one row at a time."""
    def test_single_eigenvalue_closed_form(self):
        for lam, t in ((1.0, 0.5), (7.5, 0.25), (0.3, 0.9)):
            assert _solve_sigma([lam], t) == pytest.approx(lam * (1 - t) / t, rel=1e-12)

    def test_target_at_count_infeasible(self):
        with pytest.raises(InfeasibleError):
            _solve_sigma([1.0, 2.0, 3.0], 3.0)
        with pytest.raises(InfeasibleError):
            _solve_sigma([1.0], -0.1)

    def test_residual(self):
        eigs = np.array([1.0, 2.0, 3.0])
        s2 = _solve_sigma(eigs, 1.5)
        assert abs(np.sum(eigs / (eigs + s2)) - 1.5) <= 1e-10

    def test_residual_random_spectra(self, rng):
        for _ in range(200):
            r = rng.integers(1, 6)
            eigs = rng.exponential(2.0, size=r)
            target = rng.uniform(0.05, 0.95) * r
            s2 = _solve_sigma(eigs, target)
            assert abs(np.sum(eigs / (eigs + s2)) - target) <= 1e-10

    def test_decreasing_in_target(self):
        eigs = [0.5, 1.5, 4.0]
        targets = np.linspace(0.2, 2.8, 14)
        roots = [_solve_sigma(eigs, t) for t in targets]
        assert all(b < a for a, b in zip(roots, roots[1:]))


class TestRankOnePHE:
    def test_gasd_scale_invariance(self, rng):
        X, S, s, _ = _instance(rng, 6, 3, 14)
        a = distributed_b1(X, S, s=s, L=14)
        b = distributed_b1((2.0 - 1.0j) * X, S, s=s, L=14)
        assert a["gasd"] == pytest.approx(b["gasd"], rel=1e-12)

    def test_k1_gasd_is_ace(self, rng):
        for _ in range(10):
            X, S, s, _ = _instance(rng, 6, 1, 12)
            phe = distributed_b1(X, S, s=s, L=12)
            rs = point_b1(X[:, 0], S, s[:, None], s=s)
            assert phe["gasd"] == pytest.approx(rs["ace"], rel=1e-12)

    def test_sigma_root_residuals(self, rng):
        N, K, L = 6, 3, 14
        for _ in range(20):
            X, S, s, _ = _instance(rng, N, K, L)
            phe = distributed_b1(X, S, s=s, L=L)
            T = linalg.inv_sqrt(S)
            Xt = T @ X
            st = T @ s
            G0 = Xt.conj().T @ Xt
            c = Xt.conj().T @ st
            G1 = G0 - np.outer(c, c.conj()) / float(np.real(st.conj() @ st))
            target = N * K / (L + K)
            for G, s2 in ((G0, phe["sigma0_hat"]), (G1, phe["sigma1_hat"])):
                eigs = np.clip(np.linalg.eigvalsh(G).real, 0.0, None)
                eigs = eigs[eigs > 1e-12 * eigs.max()]
                assert abs(np.sum(eigs / (eigs + s2)) - target) <= 1e-10

    def test_statistics_positive(self, rng):
        X, S, s, _ = _instance(rng, 6, 3, 14)
        phe = distributed_b1(X, S, s=s, L=14)
        assert phe["glrt_phe"] > 0 and phe["rao_phe"] > 0 and phe["wald_phe"] > 0
        assert 0.0 <= phe["gasd"] <= 1.0


class TestDirectionBank:
    def test_k1_reductions(self, rng):
        for _ in range(20):
            X, S, _, H = _instance(rng, 6, 1, 12, p=2)
            ds = distributed_b1(X, S, H=H)
            ps = point_b1(X[:, 0], S, H)
            assert ds["amdd"] == pytest.approx(ps["samf"], rel=1e-10)
            assert ds["gadd"] == pytest.approx(ps["asd"], rel=1e-10)
            assert ds["snrdd"] == pytest.approx(ps["samf"], rel=1e-10)

    def test_k1_p1_glrdd_identity(self, rng):
        for _ in range(20):
            X, S, s, _ = _instance(rng, 6, 1, 12)
            ds = distributed_b1(X, S, H=s[:, None])
            kglrt = point_b1(X[:, 0], S, s[:, None], s=s)["kglrt"]
            assert ds["glrdd"] == pytest.approx(kglrt / (1 + kglrt), rel=1e-12)

    def test_gadd_scale_invariance(self, rng):
        X, S, _, H = _instance(rng, 6, 3, 14, p=2)
        a = distributed_b1(X, S, H=H)["gadd"]
        b = distributed_b1(-3.3j * X, S, H=H)["gadd"]
        assert a == pytest.approx(b, rel=1e-12)


class TestDosBank:
    def test_k1_reductions(self, rng):
        for _ in range(20):
            X, S, _, H = _instance(rng, 6, 1, 12, p=2)
            ds = distributed_b1(X, S, H=H)
            ps = point_b1(X[:, 0], S, H)
            assert ds["wald_dos"] == pytest.approx(ps["samf"], rel=1e-10)
            assert ds["glrt_dos"] == pytest.approx(1.0 + ps["sglrt"], rel=1e-10)

    def test_full_space_wald(self, rng):
        N, K = 4, 3
        X, S, _, _ = _instance(rng, N, K, 10)
        H = crandn(rng, N, N)
        ds = distributed_b1(X, S, H=H)
        Xt = linalg.inv_sqrt(S) @ X
        assert ds["wald_dos"] == pytest.approx(
            float(np.real(np.trace(Xt.conj().T @ Xt))), rel=1e-10)

    def test_null_data(self, rng):
        _, S, _, H = _instance(rng, 5, 2, 12, p=2)
        ds = distributed_b1(np.zeros((5, 2), dtype=complex), S, H=H)
        assert ds["glrt_dos"] == pytest.approx(1.0, abs=1e-14)
        assert ds["rao_dos"] == pytest.approx(0.0, abs=1e-14)
        assert ds["wald_dos"] == pytest.approx(0.0, abs=1e-14)

    def test_null_data_scale_invariant_ratios_are_zero(self, rng):
        """At X = 0 gasd and gadd are 0/0; like asd they give 0, in the kernel
        and the oracle alike and with no warning.  (The oracle's gasd sits in
        the PHE bank, whose noise-power root does not exist at X = 0.)"""
        _, S, s, H = _instance(rng, 5, 2, 12, p=2)
        X = np.zeros((5, 2), dtype=complex)
        out = batcheval.distributed_family_stats(X[None], S[None], s, H, None)
        assert out["gasd"][0] == 0.0 and out["gadd"][0] == 0.0
        assert distributed_b1(X, S, H=H)["gadd"] == 0.0
        assert oracles.direction_bank(X, S, H)["gadd"] == 0.0

    def test_glrt_dos_at_least_one(self, rng):
        for _ in range(50):
            X, S, _, H = _instance(rng, 6, 3, 14, p=2)
            assert distributed_b1(X, S, H=H)["glrt_dos"] >= 1.0


class TestRecoordinatizationInvariance:
    def test_he_statistics_invariant(self, rng):
        N, K, L = 5, 3, 11
        X, S, s, H = _instance(rng, N, K, L, p=2)
        Q = crandn(rng, N, N) + 2.0 * np.eye(N)
        Qi = np.linalg.inv(Q)
        Xq, Sq, sq, Hq = Qi @ X, Qi @ S @ Qi.conj().T, Qi @ s, Qi @ H
        a = distributed_b1(X, S, s=s, H=H)
        b = distributed_b1(Xq, Sq, s=sq, H=Hq)
        for name in ("gkglrt", "gamf", "rao_he", "glrdd", "amdd", "glrt_dos", "rao_dos",
                     "wald_dos"):
            assert a[name] == pytest.approx(b[name], rel=1e-9), name


def _mp_subspace_oracles(X, S, H):
    """``glrdd``, ``snrdd``, ``glrt_dos`` and ``rao_dos`` of one instance at
    40 digits, by the formulas of ``oracles.direction_bank`` and
    ``oracles.dos_bank``: the generalized eigenpairs of ``(W^H W, I + G0)``
    and ``(Ap, Bp)``, reduced by Cholesky factors, the determinant ratio
    ``det M0 / det(M0 - W^H W)`` and Rao's ``M = S + X X^H`` form.  Every
    S^-1 quadratic form is whitener-free (``Ht^H Xt = H^H S^-1 X``)."""
    with mp.workdps(40):
        Xm, Hm, Sm = (mp.matrix(a.tolist()) for a in (X, H, S))
        Si = mp.inverse(Sm)
        K = X.shape[1]
        G0 = Xm.H * Si * Xm
        Bp = Hm.H * Si * Hm
        HX = Hm.H * Si * Xm
        M0 = mp.eye(K) + G0

        def top(A, B):
            """Largest eigenpair of ``A v = lam B v``, ``v`` in B's metric;
            both are Hermitian only to the working precision."""
            Ci = mp.inverse(mp.cholesky((B + B.H) / 2))
            C = Ci * A * Ci.H
            lam, V = mp.eighe((C + C.H) / 2)
            return lam[len(lam) - 1], Ci.H * V[:, V.cols - 1]

        glrdd = top(HX.H * mp.inverse(Bp) * HX, M0)[0]
        theta = top(HX * mp.inverse(M0) * HX.H, Bp)[1]
        y = HX.H * theta
        snrdd = (y.H * y)[0].real / (theta.H * Bp * theta)[0].real
        MiH = mp.inverse(Sm + Xm * Xm.H) * Hm
        Bm = Xm.H * MiH
        rao_dos = sum((Bm * mp.inverse(Hm.H * MiH) * Bm.H)[k, k] for k in range(K)).real
        glrt_dos = (mp.det(M0) / mp.det(M0 - HX.H * mp.inverse(Bp) * HX)).real
        return {"glrdd": glrdd.real, "snrdd": snrdd, "glrt_dos": glrt_dos, "rao_dos": rao_dos}


class TestGramFormsAtHighSnr:
    """The direction and DOS kernels read ``glrdd``, ``snrdd``, ``glrt_dos``
    and ``rao_dos`` off one p x p Gram of the whitened test block, and must
    match a 40-digit evaluation of the oracle formulas to 1e-10 relative.
    The Gram takes no difference of nearly equal terms, so the error stays
    near 1e-13 at 60 dB (L = N, 20 draws); a form through ``I - M0^-1 W^H W``
    loses about 5e-11 at 40 dB and 7e-9 at 60 dB, and so does ``glrt_dos``
    as ``det M0 / det(M0 - W^H W)``."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("snr_db", [0.0, 40.0, 60.0])
    @pytest.mark.parametrize("L", [8, 16])
    def test_against_mpmath(self, L, snr_db, seed):
        N, K, p = 8, 4, 2
        rng = np.random.default_rng(seed)
        X, S, _, H = _instance(rng, N, K, L, p)
        signal = H @ crandn(rng, p, K)
        X = X + signal * np.sqrt(10.0 ** (snr_db / 10.0) * K) / np.linalg.norm(signal)
        got = distributed_b1(X, S, H=H)
        for name, ref in _mp_subspace_oracles(X, S, H).items():
            assert abs(got[name] - float(ref)) <= 1e-10 * float(ref), name
