"""The batched kernels against the per-instance oracles."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from adaptivedet import batcheval, linalg, montecarlo as mc, registry, scenario as sc
from adaptivedet.errors import DefinitenessError, InfeasibleError
from conftest import crandn, random_hpd

SETTINGS = settings(max_examples=150)
# what distributed_family_stats returns: the family and its by-products
DISTRIBUTED = (*registry.names(family="distributed"), "theta_max", "sigma0_hat", "sigma1_hat")


def _training(draw, N, square):
    """The identity suite's training count L = 2N, or with ``square`` the
    smallest ones, L in {N, N + 1}, where S is worst conditioned."""
    return draw(st.sampled_from((N, N + 1))) if square else 2 * N


@st.composite
def instances(draw, square=False):
    """A stack of B random point instances sharing (N, p, q), p + q <= N."""
    N = draw(st.integers(2, 12))
    p = draw(st.integers(1, N))
    q = draw(st.integers(0, N - p))
    L = _training(draw, N, square)
    B = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    train = crandn(rng, B, N, L)
    return (crandn(rng, B, N), train @ train.conj().transpose(0, 2, 1),
            crandn(rng, B, N, p), crandn(rng, B, N, q))


@st.composite
def blocks(draw, square=False):
    """A stack of B random distributed instances sharing (N, K, p), with the
    geometry (s, H) shared or stacked per trial and K up to 2N (so K > N
    occurs)."""
    N = draw(st.integers(1, 10))
    K = draw(st.integers(1, 2 * N))
    p = draw(st.integers(1, N))
    B = draw(st.integers(1, 3))
    L = _training(draw, N, square)
    lead = (B,) if draw(st.booleans()) else ()
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    train = crandn(rng, B, N, L)
    return (crandn(rng, B, N, K), train @ train.conj().transpose(0, 2, 1),
            crandn(rng, *lead, N), crandn(rng, *lead, N, p), L)


def _or_infeasible(f, *args):
    try:
        return f(*args)
    except InfeasibleError:
        return None


def _point_rows_equal_oracle(x, S, H, J):
    N, p, q = H.shape[1], H.shape[2], J.shape[2]
    batched = batcheval.point_family_stats(x, S, H, J, H[..., 0])
    for b in range(x.shape[0]):
        ref = oracles.point_family(x[b], S[b], H[b], J[b])
        for name, value in ref.items():
            if name == "wald_phe_i" and p + q == N:
                assert np.isnan(value) and np.isnan(batched[name][b])
                continue
            assert batched[name][b] == pytest.approx(value, rel=1e-10, abs=0), name


def _distributed_rows_equal_oracle(X, S, s, H, L):
    """All 14 statistics and both noise-power MLEs; a draw whose PHE root
    does not exist (target at or above a Gram rank) raises InfeasibleError on
    both sides."""
    stacked = s.ndim == 2
    refs = [_or_infeasible(oracles.distributed_family, X[b], S[b],
                           s[b] if stacked else s, H[b] if stacked else H, L)
            for b in range(X.shape[0])]
    batched = _or_infeasible(batcheval.distributed_family_stats, X, S, s, H, L)
    assert (batched is None) == any(ref is None for ref in refs)
    if batched is None:
        return
    for b, ref in enumerate(refs):
        assert len(ref) == 16
        for name, value in ref.items():
            assert batched[name][b] == pytest.approx(value, rel=1e-10, abs=0), name


class TestStackedGeometry:
    @SETTINGS
    @given(instances())
    def test_rows_equal_per_instance_banks(self, case):
        _point_rows_equal_oracle(*case)

    @SETTINGS
    @given(instances(square=True))
    def test_rows_equal_oracle_at_square_training(self, case):
        _point_rows_equal_oracle(*case)


class TestDistributedFamily:
    @SETTINGS
    @given(blocks())
    def test_rows_equal_oracle(self, case):
        _distributed_rows_equal_oracle(*case)

    @SETTINGS
    @given(blocks(square=True))
    def test_rows_equal_oracle_at_square_training(self, case):
        _distributed_rows_equal_oracle(*case)


@st.composite
def bartlett_draws(draw):
    """B trials of the Monte Carlo engine's draw: its Bartlett factors T,
    coloured by the Cholesky factor A of a random covariance, with L in
    {N, N + 1, 2N} (L = N is the worst conditioned), random geometry and
    test data."""
    N = draw(st.integers(1, 10))
    p = draw(st.integers(1, N))
    q = draw(st.integers(0, N - p))
    L = draw(st.sampled_from((N, N + 1, 2 * N)))
    K = draw(st.integers(1, 4))
    B = draw(st.integers(1, 6))
    seed = draw(st.integers(0, 2**32 - 1))
    cfg = sc.ScenarioConfig(N=N, p=p, q=q, L=L, K=K)
    T = sc.assemble_noise(*mc._draw_blocks(seed, range(1), cfg, N), N, K)[0][:B]
    rng = np.random.default_rng(seed)
    A = np.linalg.cholesky(random_hpd(rng, N))
    return (A, T, crandn(rng, B, N, K), crandn(rng, N, p), crandn(rng, N, q), L)


class TestWhitenerFromFactor:
    """The engine never forms S: every statistic equals the one the kernels
    give on ``S = (A T)(A T)^H`` itself, whitened either by ``T^-1 A^-1`` or,
    in the white coordinates of ``R = A A^H``, by ``T^-1`` alone on ``A^-1``
    times the geometry and the data, with the clairvoyant maps at R = I."""

    @SETTINGS
    @given(bartlett_draws())
    def test_equals_the_sample_covariance_path(self, case):
        A, T, X, H, J, L = case
        T_inv, A_inv = linalg.lower_inverse(T), np.linalg.inv(A)
        F = A @ T
        S = F @ F.conj().transpose(0, 2, 1)
        R, s = A @ A.conj().T, H[:, 0]
        forms = {"coloured": (T_inv @ A_inv, X, H, J, s, R),
                 "white": (T_inv, A_inv @ X, A_inv @ H, A_inv @ J, A_inv @ s, np.eye(len(A)))}
        for form, (W, Xw, Hw, Jw, sw, Rw) in forms.items():
            # a draw whose PHE noise-power root does not exist fails on both paths
            pairs = [(_or_infeasible(batcheval.evaluate,
                                     batcheval.prepare(W, Hw, s=sw, L=L, want=DISTRIBUTED), Xw),
                      _or_infeasible(batcheval.distributed_family_stats, X, S, s, H, L))]
            if pairs[0][0] is None or pairs[0][1] is None:
                assert pairs[0] == (None, None)
                pairs = []
            if X.shape[-1] == 1:
                pairs.append((batcheval.evaluate(batcheval.prepare(
                                  W, Hw, Jw, sw, Rw, want=registry.names(family="point")), Xw),
                              batcheval.point_family_stats(X[..., 0], S, H, J, s, R)))
            for ours, ref in pairs:
                assert set(ours) == set(ref)
                for name in set(ours) - {"theta_max"}:
                    np.testing.assert_allclose(ours[name], ref[name], rtol=1e-10, atol=0,
                                               err_msg=f"{form} {name}")
                if "theta_max" in ours:  # a unit direction, up to phase
                    overlap = np.abs(np.einsum("bp,bp->b", ours["theta_max"].conj(),
                                               ref["theta_max"]))
                    np.testing.assert_allclose(overlap, 1.0, rtol=0, atol=1e-10)


def _unitary(rng, n):
    return np.linalg.qr(crandn(rng, n, n))[0]


@st.composite
def near_aligned(draw):
    """A stack of point instances whose H lies nearly inside span(J), and
    test data ``x = H c0 + J d0 + r`` with ``r`` orthogonal to [H J] in the
    S^-1 inner product, built in whitened coordinates from one unitary
    frame ``U`` and carried over by the Cholesky factor ``A`` of ``S``.

    One direction of the whitened H keeps only a share ``eps`` outside
    span(J), so cond(Ht^H Hp) = eps^-2 lies in [1e5, 1e8].  A rounding
    error of size u in H tilts that direction by u / eps towards r, which
    moves the exact statistic by about u |r| / eps^2 whatever the method;
    ``|r|`` in [1e-4, 1e-3] keeps that below the tolerance, while the error
    of the normal-equation form, u / eps^2, does not shrink with ``r``.
    """
    N = draw(st.integers(4, 12))
    p = draw(st.integers(2, N - 2))
    q = draw(st.integers(1, N - p - 1))
    B = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    eps = 10.0 ** -draw(st.floats(2.5, 4.0))
    r_norm = 10.0 ** -draw(st.floats(3.0, 4.0))
    U = _unitary(rng, N)
    Jw = U[:, :q] @ _unitary(rng, q)
    spread = np.ones(p)
    spread[-1] = eps
    Hw = U[:, :q] @ crandn(rng, q, p) + U[:, q:q + p] @ (
        _unitary(rng, p) * spread @ _unitary(rng, p))
    train = crandn(rng, B, N, 2 * N)
    S = train @ train.conj().transpose(0, 2, 1)
    A = np.linalg.cholesky(S)
    c0, d0 = crandn(rng, B, p), crandn(rng, B, q)
    z = crandn(rng, B, N - p - q)
    rw = r_norm * (z / np.linalg.norm(z, axis=1, keepdims=True)) @ U[:, q + p:].T
    H, J = A @ Hw, A @ Jw
    x = (np.einsum("bnp,bp->bn", H, c0) + np.einsum("bnq,bq->bn", J, d0)
         + np.einsum("bij,bj->bi", A, rw))
    wald_he = np.linalg.norm(c0 @ Hw.T, axis=1) ** 2
    return x, S, H, J, wald_he, wald_he / r_norm ** 2


class TestWaldNearAlignedInterference:
    @SETTINGS
    @given(near_aligned())
    def test_wald_pair_matches_construction(self, case):
        """The S^-1 geometry of (x, H, J) is that of (A^-1 x, A^-1 H, A^-1 J),
        so the oblique projection of x onto H along J has energy |Hw c0|^2,
        and the residual outside [H J] has energy |r|^2."""
        x, S, H, J, wald_he, wald_phe = case
        out = batcheval.point_family_stats(x, S, H, J)
        assert out["wald_he_i"] == pytest.approx(wald_he, rel=1e-10, abs=0)
        assert out["wald_phe_i"] == pytest.approx(wald_phe, rel=1e-10, abs=0)
        for b in range(x.shape[0]):
            ref = oracles.interference_bank(x[b], S[b], H[b], J[b])
            assert ref["wald_he_i"] == pytest.approx(wald_he[b], rel=1e-10, abs=0)
            assert ref["wald_phe_i"] == pytest.approx(wald_phe[b], rel=1e-10, abs=0)


@st.composite
def rotated(draw):
    """Random instances of both families (p + q < N, so every statistic is
    defined, with L = 2N) and a random unitary U."""
    N = draw(st.integers(3, 10))
    p = draw(st.integers(1, N - 2))
    q = draw(st.integers(0, N - p - 1))
    K = draw(st.integers(1, 4))
    B = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    train = crandn(rng, B, N, 2 * N)
    R = crandn(rng, N, N + 4)
    return dict(X=crandn(rng, B, N, K), S=train @ train.conj().transpose(0, 2, 1),
                H=crandn(rng, N, p), J=crandn(rng, N, q), R=R @ R.conj().T,
                L=2 * N, U=_unitary(rng, N))


def _every_statistic(X, S, H, J, R, L):
    out = batcheval.point_family_stats(X[:, :, 0], S, H, J, H[:, 0], R=R)
    out.update(batcheval.distributed_family_stats(X, S, H[:, 0], H, L))
    return out


class TestInvariances:
    @SETTINGS
    @given(rotated())
    def test_unitary_rotation_leaves_every_statistic(self, case):
        """Every statistic sees S only through S^-1 quadratic forms, so it is
        unchanged when U rotates (x, S, H, J) and the true covariance; the
        triangular whitener of U S U^H is not U times that of S, so this holds
        the kernels to the invariance rather than to a shared factor."""
        U = case["U"]
        Uh = U.conj().T
        base = _every_statistic(case["X"], case["S"], case["H"], case["J"],
                                case["R"], case["L"])
        turned = _every_statistic(U @ case["X"], U @ case["S"] @ Uh, U @ case["H"],
                                  U @ case["J"], U @ case["R"] @ Uh, case["L"])
        for name in (*registry.DETECTORS, "sigma0_hat", "sigma1_hat"):
            assert turned[name] == pytest.approx(base[name], rel=1e-10, abs=0), name
        # theta_max is a unit vector of H coordinates, fixed up to a phase
        overlap = np.abs(np.einsum("bp,bp->b", base["theta_max"].conj(), turned["theta_max"]))
        assert overlap == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("family", ["point", "distributed"])
    def test_indefinite_covariance_raises_definiteness_error(self, family, rng):
        N = 4
        train = crandn(rng, 2, N, 2 * N)
        S = train @ train.conj().transpose(0, 2, 1)
        S[1] = np.diag([1.0, 1.0, -1.0, 1.0])
        H = crandn(rng, N, 2)
        with pytest.raises(DefinitenessError):
            if family == "point":
                batcheval.prepare(linalg.whitener(S), H)
            else:
                batcheval.prepare(linalg.whitener(S), H, s=H[:, 0], L=2 * N)
