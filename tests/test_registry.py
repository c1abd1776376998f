"""The detector registry against the statistics, the docs and the oracles."""

import ast
import re
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

import oracles
from adaptivedet import batcheval, registry
from conftest import crandn, random_hpd

# derandomized and without an example database: the same cases on every run
SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)
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
    out = batcheval.point_family_stats(X[:, :, 0], case["S"], H, case["J"], R=case["R"])
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
        out = batcheval.point_family_stats(
            crandn(rng, 3, N), train @ train.conj().transpose(0, 2, 1),
            crandn(rng, N, p), crandn(rng, N, q), R=random_hpd(rng, N))
        assert {name for name, v in out.items() if np.isnan(v).any()} == set(
            registry.names(orthocomplement=True))


class TestTable:
    def test_cfar_defaults_and_phe_laws(self):
        assert registry.names(cfar=False) == ("smi",)
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
