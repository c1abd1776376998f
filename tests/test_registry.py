"""The detector registry against the statistics, the docs and the oracles."""

import ast
import itertools
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from adaptivedet import batcheval, linalg, montecarlo as mc, registry, scenario as sc
from adaptivedet.distributions import resolve_law
from conftest import crandn, random_hpd

SETTINGS = settings(max_examples=100)
README = Path(__file__).resolve().parents[1] / "README.md"


@st.composite
def scaled_instances(draw):
    """Two stacked instances of both families, p + q < N so that every
    statistic is defined, and a complex scale for their test data."""
    N = draw(st.integers(3, 8))
    p = draw(st.integers(1, N - 2))
    q = draw(st.integers(0, N - p - 1))
    K = draw(st.integers(1, 4))
    scale = draw(st.floats(0.1, 10.0)) * np.exp(1j * draw(st.floats(0.0, 2.0 * np.pi)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    train = crandn(rng, 2, N, 2 * N)
    return dict(X=crandn(rng, 2, N, K), S=train @ train.conj().transpose(0, 2, 1),
                H=crandn(rng, N, p), J=crandn(rng, N, q), R=random_hpd(rng, N),
                L=2 * N, scale=scale)


def _all_stats(case, scale):
    X = scale * case["X"]
    H = case["H"]
    out = batcheval.point_family_stats(X[:, :, 0], case["S"], H, case["J"], H[:, 0], case["R"])
    out.update(batcheval.distributed_family_stats(X, case["S"], H[:, 0], H, case["L"]))
    return out


class TestScaleInvariance:
    def test_flag_matches_the_statistics(self):
        """Scaling the test data by a complex c leaves exactly the flagged
        statistics unchanged: each flagged one to 1e-10 on every draw, each
        other one changed on some draw."""
        changed = set()

        @SETTINGS
        @given(scaled_instances())
        def check(case):
            base, scaled = _all_stats(case, 1.0), _all_stats(case, case["scale"])
            for name, d in registry.DETECTORS.items():
                a, b = base[name], scaled[name]
                rel = np.abs(b - a) / np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-300)
                if d.scale_invariant:
                    assert rel.max() <= 1e-10, name
                elif rel.max() > 1e-6:
                    changed.add(name)

        check()
        assert changed == set(registry.names(scale_invariant=False))


class TestOrthocomplement:
    def test_flag_matches_the_statistics(self, rng):
        """Where [H J] fills the space (p + q = N) exactly the flagged point
        statistics have nothing to normalize by and are nan."""
        N, p, q = 5, 2, 3
        train = crandn(rng, 3, N, 2 * N)
        x, H = crandn(rng, 3, N), crandn(rng, N, p)
        out = batcheval.point_family_stats(
            x, train @ train.conj().transpose(0, 2, 1), H, crandn(rng, N, q), H[:, 0],
            R=random_hpd(rng, N))
        assert {name for name, v in out.items() if np.isnan(v).any()} == set(
            registry.names(orthocomplement=True))


class TestCfar:
    """In white coordinates a covariance changes only the whitened geometry.
    A statistic that does not change when that geometry's basis changes
    within what its row reads has a covariance-free null law, so it is CFAR.
    On one Bartlett draw, the moves are s -> a s, H -> H U and J -> J M for
    every row, and H -> H U + J N for the rows that read J (which project J
    out); the clairvoyant maps take R = I, as in the trial engine."""

    N, p, q, L = 8, 2, 2, 16

    @pytest.mark.parametrize("K", [1, 4])
    def test_flag_matches_the_basis_invariance(self, K):
        N, p, q = self.N, self.p, self.q
        cfg = sc.ScenarioConfig(N=N, p=p, q=q, K=K, L=self.L)
        T, X = sc.assemble_noise(*mc._draw_blocks(21, range(1), cfg, N), N, K)
        T_inv = linalg.lower_inverse(T)
        rng = np.random.default_rng(21)
        H, J, s = crandn(rng, N, p), crandn(rng, N, q), crandn(rng, N)
        U = np.triu(crandn(rng, p, p)) + 2.0 * np.eye(p)
        M, Nq = crandn(rng, q, q) + 2.0 * np.eye(q), crandn(rng, q, p)
        names = registry.names() if K == 1 else registry.names(family="distributed")
        moves = (((H, J, (0.7 - 1.3j) * s), set()), ((H @ U, J, s), set()),
                 ((H, J @ M, s), set()), ((H @ U + J @ Nq, J, s), {"J"}))

        def stats(H, J, s):
            prep = batcheval.prepare(T_inv, H, J, s, np.eye(N), self.L, want=names)
            return batcheval.evaluate(prep, X)

        base, changed = stats(H, J, s), set()
        for geometry, needs in moves:
            moved = stats(*geometry)
            for name in names:
                d = registry.DETECTORS[name]
                if not needs <= set(d.reads):
                    continue
                same = np.allclose(moved[name], base[name], rtol=1e-9, atol=0)
                assert same or not d.cfar, (name, needs)
                if not same:
                    changed.add(name)
        assert changed == {name for name in names if not registry.DETECTORS[name].cfar}


@st.composite
def point_instances(draw):
    """One K = 1 instance at N <= 8 and L in {N, N + 1, 2N}, with p + q < N so
    that every point law is a loss-factor mixture."""
    N = draw(st.integers(2, 8))
    L = draw(st.sampled_from((N, N + 1, 2 * N)))
    p = draw(st.integers(1, N - 1))
    q = draw(st.integers(0, N - p - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    train = crandn(rng, N, L)
    return dict(N=N, p=p, q=q, L=L, x=crandn(rng, N), S=train @ train.conj().T,
                H=crandn(rng, N, p), J=crandn(rng, N, q))


class TestCanonical:
    # every row whose law averages over a loss factor
    MIXTURES = {name for name, d in registry.DETECTORS.items() if d.law and d.loss_factor}

    def test_names_the_forms(self):
        """``canonical`` takes exactly the nine subspace-bank forms, and every
        mixture row names one that has a threshold map."""
        assert {d.canonical for d in registry.DETECTORS.values()} - {None} == set(batcheval._FORMS)
        for name in self.MIXTURES:
            registry.DETECTORS[name].threshold_map(1.0, np.array([0.5]))

    def test_decisions_equal_at_the_mapped_threshold(self):
        """Each mixture row's decision ``stat > eta`` is the decision ``F >
        threshold_map(canonical)(eta, beta)`` of the sglrt and beta forms of
        its bank (of the rank-one bank for gkglrt/gamf, their K = 1 twins),
        all from the per-instance oracles, at thresholds on both sides of the
        statistic; ties within 1e-12 relative are skipped."""
        checked = set()

        def tie(a, b):
            return np.isfinite(b) and abs(a - b) <= 1e-12 * max(abs(a), abs(b))

        @settings(max_examples=60)
        @given(point_instances(), st.floats(-3.0, 3.0))
        def check(case, log_eta):
            x, S, H, J = case["x"], case["S"], case["H"], case["J"]
            stats = oracles.point_family(x, S, H, J)
            stats.update(oracles.distributed_rank1_he(x[:, None], S, H[:, 0]))
            rank_one = oracles.subspace_bank(x, S, H[:, :1])
            banks = {("H",): (stats["sglrt"], stats["beta"]),
                     ("s",): (rank_one["sglrt"], rank_one["beta"]),
                     ("H", "J"): (stats["glrt_he_i"], stats["beta_i"])}
            for name in self.MIXTURES:
                d = registry.DETECTORS[name]
                law = resolve_law(name, case["N"], case["p"], case["L"], case["q"])
                assert law.params[0] == "mixture", name
                F, beta = banks[d.reads]
                stat = float(stats[name])
                for eta in (0.5 * stat, 0.99 * stat, 1.01 * stat, 2.0 * stat, np.exp(log_eta)):
                    g = float(d.threshold_map(eta, np.array([beta]))[0])
                    if eta > 0 and not (tie(stat, eta) or tie(F, g)):
                        assert (stat > eta) == (F > g), (name, eta, stat, F, g)
                        checked.add(name)

        check()
        assert checked == self.MIXTURES


def _subsets(args):
    return [set(c) for n in range(len(args) + 1) for c in itertools.combinations(args, n)]


# the by-products of a full evaluation, each with the geometry it reads
BY_PRODUCTS = {"theta_max": ("H",), "sigma0_hat": ("s", "L"), "sigma1_hat": ("s", "L")}
NAMES = sorted((*registry.DETECTORS, *BY_PRODUCTS))


def _inputs(name):
    """What ``name`` needs given to be evaluated: its geometry, and R for a
    clairvoyant statistic."""
    if name in BY_PRODUCTS:
        return set(BY_PRODUCTS[name])
    d = registry.DETECTORS[name]
    return set(d.reads) | ({"R"} if d.clairvoyant else set())


class TestReads:
    @pytest.mark.parametrize("inputs", _subsets("HsJRL"))
    def test_evaluate_returns_exactly_the_named_statistics(self, inputs):
        """Any nonempty set of names, by-products included, evaluates at K = 1
        to exactly those whose inputs ``prepare`` is given (the geometry of
        the row's ``reads``, and R for a clairvoyant one), each bit-identical
        to the same key of the evaluation of every name with every input."""
        N = 6

        @settings(max_examples=20)
        @given(st.integers(0, 2**32 - 1), st.sets(st.sampled_from(NAMES), min_size=1))
        def check(seed, want):
            rng = np.random.default_rng(seed)
            train = crandn(rng, 2, N, 2 * N)
            T = linalg.whitener(train @ train.conj().transpose(0, 2, 1))
            args = dict(H=crandn(rng, N, 2), J=crandn(rng, N, 1), s=crandn(rng, N),
                        R=random_hpd(rng, N), L=2 * N)
            X = crandn(rng, 2, N, 1)
            full = batcheval.evaluate(batcheval.prepare(T, **args), X)
            assert set(full) == set(NAMES)
            part = batcheval.evaluate(batcheval.prepare(
                T, **{k: v if k in inputs else None for k, v in args.items()}, want=want), X)
            assert set(part) == {name for name in want if _inputs(name) <= inputs}
            for name, value in part.items():
                assert value.tobytes() == full[name].tobytes(), name

        check()

    @pytest.mark.parametrize("given", _subsets("sJ"))
    def test_point_kernel_without_whitener(self, given, rng):
        """Without a whitener the point kernel gives only the clairvoyant
        statistics: ``smf`` always, ``mf`` when it has s."""
        N = 6
        args = dict(J=crandn(rng, N, 2), s=crandn(rng, N))
        prep = batcheval.prepare(None, crandn(rng, N, 2), R=random_hpd(rng, N),
                                 **{k: v for k, v in args.items() if k in given})
        out = batcheval.evaluate(prep, crandn(rng, 2, N, 1))
        assert set(out) == ({"smf", "mf"} if "s" in given else {"smf"})


class TestTable:
    def test_cfar_defaults_and_phe_laws(self):
        assert registry.names(cfar=False) == (
            "smi", "mf", "rao_he_i", "ts_rao_he_i", "rao_phe_i", "wald_he_i", "wald_phe_i")
        # under phe only a scale-invariant statistic with a law keeps it
        assert {d.name for d in registry.DETECTORS.values()
                if d.scale_invariant and d.law} == {"asd", "ace", "glrt_phe_i"}
        assert registry.names(default=True) == (
            "sglrt", "samf", "srao", "asd", "sabort", "wsabort", "dnsamf", "aed", "smf")

    def test_readme_lists_the_registry_by_family(self):
        listed = {}
        for line in README.read_text(encoding="utf-8").splitlines():
            row = re.fullmatch(r"\| [a-z -]+ \| (point|distributed) \| `([a-z0-9_ ]+)` \|", line)
            if row:
                listed.setdefault(row[1], []).extend(row[2].split())
        for family in ("point", "distributed"):
            assert sorted(listed.get(family, [])) == sorted(registry.names(family=family)), family

    def test_oracles_import_no_kernel(self):
        # the cross-check must not reach the code it checks
        tree = ast.parse(Path(oracles.__file__).read_text(encoding="utf-8"))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                imported.add(node.module)
                imported.update(f"{node.module}.{alias.name}" for alias in node.names)
        assert not imported & {"adaptivedet.batcheval", "adaptivedet.detectors"}
