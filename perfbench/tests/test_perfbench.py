"""Tests of the benchmark itself: tracer hygiene, count determinism, and that
the output checks can fail.

Run from the repository root: ``python3 -m pytest -q perfbench/tests``
"""

import contextlib
import csv
import dataclasses
import importlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import COUNT_METRICS, WRAPS, Tracer, tail_percentile  # noqa: E402

from adaptivedet import cli  # noqa: E402

# Each workload shrunk to a few seconds in total; later flags override earlier ones.
SMALL = {
    "mc_point_grid": ["--trials", "200"],
    "analytic_mesa": ["--snr", "0,40", "--cos2phi", "0,0.5,1"],
    "mc_dist_cfar": ["--trials", "200"],
    "per_instance_identities": ["--trials", "1000"],
}


def _originals():
    return {(m, a): getattr(importlib.import_module(m), a) for m, a, _, _ in WRAPS}


def _run_cli(name, tmp_path, tag, traced):
    out = tmp_path / f"{name}-{tag}.csv"
    argv = wl.WORKLOADS[name].argv(7, out) + SMALL[name]
    tracer = Tracer() if traced else None
    with tracer or contextlib.nullcontext():
        cli.main(argv)  # at these sizes cfar-check may flag a CFAR row and return 1
    return out.read_bytes(), tracer.metrics() if tracer else None


def test_tracer_restores_every_wrapped_function(tmp_path):
    before = _originals()
    with pytest.raises(RuntimeError):
        with Tracer():
            during = _originals()
            assert all(during[k] is not before[k] for k in before)
            raise RuntimeError("workload failed mid-run")
    assert _originals() == before
    _run_cli("mc_point_grid", tmp_path, "t", traced=True)
    after = _originals()
    assert all(after[k] is before[k] for k in before)


@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_traced_counts_repeat_and_csv_matches_untraced(name, tmp_path):
    plain, _ = _run_cli(name, tmp_path, "plain", traced=False)
    first_csv, first = _run_cli(name, tmp_path, "a", traced=True)
    second_csv, second = _run_cli(name, tmp_path, "b", traced=True)
    assert first_csv == plain == second_csv
    assert {k: first[k] for k in COUNT_METRICS} == {k: second[k] for k in COUNT_METRICS}
    if name.startswith("mc_"):
        assert first["montecarlo.run_trials.calls"] > 0
        assert first["montecarlo.redraw_factor"] > 1.0
    if name == "analytic_mesa":
        assert first["distributions.integrate_adaptive.f_evals_per_pd"] > 0
        assert first["distributions.pfa_point.calls_per_threshold"] > 0
    if name == "per_instance_identities":
        assert first["linalg.inv_sqrt.calls"] == 2 * 1000


def _reference_csv(reference, columns, row_of):
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=columns, lineterminator="\n")
    writer.writeheader()
    for ref in reference["rows"]:
        writer.writerow(row_of(ref))
    return buf.getvalue()


def test_wrong_reference_raises_failures():
    mesa = wl.load_reference("analytic_mesa")
    text = _reference_csv(mesa, ("detector", "snr_db", "cos2phi", "threshold", "pd_analytic"),
                          lambda r: {"detector": r["detector"], "snr_db": r["snr_db"],
                                     "cos2phi": r["cos2phi"], "threshold": r["threshold"],
                                     "pd_analytic": repr(r["pd"])})
    assert wl.check_analytic_mesa(text, 0, mesa).failed == 0
    wrong = json.loads(json.dumps(mesa))
    wrong["rows"][50]["pd"] += 1e-3
    wrong["rows"][100]["threshold"] *= 1.01
    assert wl.check_analytic_mesa(text, 0, wrong).failed == 2

    grid = wl.load_reference("mc_point_grid")
    n = wl.MC_POINT_TRIALS
    text = _reference_csv(grid, ("detector", "snr_db", "pd_mc", "n_trials"),
                          lambda r: {"detector": r["detector"], "snr_db": r["snr_db"],
                                     "pd_mc": round(r["pd"] * n) / n, "n_trials": n})
    assert wl.check_mc_point_grid(text, 0, grid).failed == 0
    wrong = json.loads(json.dumps(grid))
    wrong["rows"][60]["pd"] = min(1.0, wrong["rows"][60]["pd"] + 0.25)
    checks = wl.check_mc_point_grid(text, 0, wrong)
    assert checks.failed == 1 and checks.attempted == wl.WORKLOADS["mc_point_grid"].n_checks


def test_binomial_check_false_failures_are_rare():
    # 999 detections of 1000 at PD 0.999995 happen 1 time in 200 (sabort at
    # 22 dB, seed 905914898); the check must accept them.
    assert wl.binomial_consistent(999, 1000, 0.999995)
    assert wl.binomial_consistent(1000, 1000, 0.999995)
    assert not wl.binomial_consistent(990, 1000, 0.999995)
    assert not wl.binomial_consistent(500, 1000, 0.4)
    # summed over the committed reference rows, a correct program fails a
    # seed with probability below 1e-4
    from scipy.stats import binom

    n = wl.MC_POINT_TRIALS
    k = np.arange(n + 1)
    total = 0.0
    for ref in wl.load_reference("mc_point_grid")["rows"]:
        total += binom.pmf(k, n, ref["pd"])[~wl.binomial_consistent(k, n, ref["pd"])].sum()
    assert total < 1e-4


def _cfar_csv(counts, status):
    """cfar-check output with the given false-alarm counts per detector row."""
    from adaptivedet.montecarlo import wilson_interval

    n = wl.CFAR_TRIALS
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["detector", "covariance", "pfa_hat", "ci_low", "ci_high",
                     "n_trials", "status"])
    for det in wl.CFAR_DETECTORS:
        for cov, k in zip(wl.CFAR_COVARIANCES, counts.get(det, (9, 9, 9))):
            lo, hi = wilson_interval(k, n)
            writer.writerow([det, cov, k / n, lo, hi, n, status.get(det, "pass")])
    return buf.getvalue()


def test_cfar_check_follows_the_verdict_not_chance():
    # gasd at seed 180: 9 false alarms under the first covariance, 3 under the
    # others, so cfar-check's 99 % comparison fails it by chance
    chance = {"gasd": (9, 3, 3)}
    ok = wl.check_mc_dist_cfar(_cfar_csv(chance, {"gasd": "fail"}), 1)
    assert ok.failed == 0 and ok.attempted == wl.WORKLOADS["mc_dist_cfar"].n_checks
    # a status or exit code that disagrees with the rows fails
    assert wl.check_mc_dist_cfar(_cfar_csv(chance, {}), 1).failed == 3
    assert wl.check_mc_dist_cfar(_cfar_csv(chance, {"gasd": "fail"}), 0).failed == 1
    assert wl.check_mc_dist_cfar(_cfar_csv({}, {}), 1).failed == 1
    # a rate far above nominal fails even when the verdict is consistent
    inflated = {"glrdd": (9, 60, 9)}
    assert wl.check_mc_dist_cfar(_cfar_csv(inflated, {"glrdd": "fail"}), 1).failed == 1


@pytest.mark.parametrize("bad_args", [
    ["--trials", "many"],          # argparse exits: no record
    ["--detectors", "no_such"],    # the CLI returns 1 and writes no CSV
])
def test_crashing_workload_fails_every_check(bad_args):
    good = wl.WORKLOADS["mc_dist_cfar"]
    bad = dataclasses.replace(good, command=good.command + tuple(bad_args))
    metrics, checks, _ = run.measure(bad, seed=1, seconds=0, trace=False)
    assert checks.attempted == good.n_checks
    assert checks.failed == checks.attempted
    assert metrics is None


def test_tail_percentile_keeps_ten_samples_beyond():
    values = list(range(100))
    pct, value = tail_percentile(values)
    assert sum(v > value for v in values) == 10
    assert pct == 90.0
    assert tail_percentile([3.0, 1.0]) == (100.0, 3.0)
