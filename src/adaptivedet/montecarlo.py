"""Seeded, reproducible Monte Carlo trial engine.

Per-trial randomness derives from ``(master_seed, trial_index)`` through a
counter-based stream split (one Philox counter block range per trial), so
results are a pure function of the plan and are independent of batch size,
worker count, and execution order.  Aggregation is count-based.

Every trial of a plan uses the same white noise whatever its test mean or
covariance, so one draw per seed serves every grid point, detector and
covariance: each batch is drawn once, then coloured, turned into a sample
covariance and prepared (whitened) once per covariance (:func:`sweep_trials`),
and only the test-data half of the statistics runs per mean
(:func:`exceedance_counts`).
"""

import logging
from dataclasses import dataclass

import numpy as np

from . import batcheval, registry, scenario
from .errors import GeometryError, InfeasibleError
from .linalg import herm_sqrt
from .scenario import CovarianceModel, ScenarioConfig

WILSON_Z99 = 2.5758293035489004  # two-sided 99% normal quantile
DEFAULT_BATCH = 4096
log = logging.getLogger(__name__)


def trial_rng(master_seed: int, trial_index: int) -> np.random.Generator:
    """The stream of one trial: Philox keyed by the master seed, with the
    counter advanced ``2**64`` blocks per trial index."""
    return np.random.Generator(
        np.random.Philox(key=master_seed, counter=int(trial_index) << 64))


class TrialStreams:
    """The streams of :func:`trial_rng` through one reused Philox generator.

    Each draw sets the counter to ``trial_index << 64`` and empties the output
    buffer, which is exactly the state a fresh ``trial_rng`` starts from, so
    the draws are bit-identical without building a generator per trial.
    """

    def __init__(self, master_seed: int):
        self._bitgen = np.random.Philox(key=master_seed)
        self._gen = np.random.Generator(self._bitgen)
        self._state = self._bitgen.state

    def standard_normal(self, trial_index: int, out: np.ndarray) -> np.ndarray:
        counter = int(trial_index) << 64
        self._state["state"]["counter"][:] = [
            (counter >> shift) & 0xFFFFFFFFFFFFFFFF for shift in (0, 64, 128, 192)]
        self._state.update(buffer_pos=4, has_uint32=0, uinteger=0)
        self._bitgen.state = self._state
        return self._gen.standard_normal(out=out)


@dataclass(frozen=True)
class TrialPlan:
    """What a pass draws: its trials and their streams, the scenario's noise
    under one covariance model, and the detectors evaluated on it.  The test
    mean is an argument of each pass, so one plan serves H0 and every H1 mean."""

    n_trials: int
    master_seed: int
    scenario: ScenarioConfig
    covariance: CovarianceModel
    detectors: tuple
    batch_size: int = DEFAULT_BATCH

    def __post_init__(self):
        if self.n_trials < 1:
            raise ValueError("need at least one trial")
        if self.batch_size < 1:
            raise ValueError("need a batch size of at least 1")
        unknown = set(self.detectors) - set(registry.DETECTORS)
        if unknown:
            raise ValueError(f"unknown detectors: {sorted(unknown)}")
        cfg = self.scenario
        short = [d for d in self.detectors if registry.DETECTORS[d].orthocomplement]
        if short and cfg.p + cfg.q >= cfg.N:
            raise GeometryError(f"{short[0]} needs p + q < N: [H J] leaves no orthocomplement")


def wilson_interval(successes: int, n: int, z: float = WILSON_Z99):
    """Wilson score interval for a binomial proportion."""
    if n < 1:
        raise ValueError("need at least one trial")
    phat = successes / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * np.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def _noise_pass(plan: TrialPlan, covariances):
    """Yield ``(c, trials, noise, prepared)`` per batch of the plan and per
    covariance ``covariances[c]``, one covariance's state alive at a time.

    Each batch is drawn once, and every covariance colours that same white
    draw with its own square root (common random numbers), so its trials are
    bit-identical to a pass over it alone.  ``noise`` is the batch's coloured,
    scaled test noise (B, N, K) and ``prepared`` the point and distributed
    family state (None where the plan has no detector of that family) that
    :func:`_statistics` needs.  Only the banks the plan's detectors read
    (registry column ``reads``) are prepared, and the clairvoyant map only for
    a plan with a clairvoyant detector, from each covariance's own R.
    """
    cfg = plan.scenario
    rows = [registry.DETECTORS[name] for name in plan.detectors]
    reads = {}  # family -> the prepare_* arguments its rows read
    for row in rows:
        reads.setdefault(row.family, set()).update(row.reads)
    if "point" in reads and cfg.K != 1:
        raise ValueError("point-target detectors need K = 1")

    clairvoyant = any(row.clairvoyant for row in rows)
    colours = []
    for cov in covariances:
        R = scenario.build_covariance(cov, cfg.N)
        colours.append((herm_sqrt(R), R if clairvoyant else None))
    H, J = scenario.default_geometry(cfg.N, cfg.p, cfg.q)
    given = dict(s=H[:, 0], H=H, J=J, L=cfg.L)
    # each family's prepare_* gets the arguments its rows read, None for the rest
    kw = {family: {arg: given[arg] if arg in reads[family] else None for arg in args}
          for family, args in (("point", ("J", "s")), ("distributed", ("s", "H", "L")))
          if family in reads}
    streams = TrialStreams(plan.master_seed)
    n_flat = 2 * cfg.N * (cfg.L + cfg.K)
    for start in range(0, plan.n_trials, plan.batch_size):
        trials = range(start, min(start + plan.batch_size, plan.n_trials))
        flat = np.empty((len(trials), n_flat))
        for row, i in enumerate(trials):
            streams.standard_normal(i, flat[row])
        w_train, w_test = scenario.assemble_noise(flat, cfg.N, cfg.L, cfg.K)
        for c, (A, R) in enumerate(colours):
            training = A @ w_train
            S = training @ np.conj(np.swapaxes(training, -2, -1))
            prepared = (
                batcheval.prepare_point(S, H, R=R, **kw["point"]) if "point" in kw else None,
                batcheval.prepare_distributed(S, **kw["distributed"])
                if "distributed" in kw else None)
            yield c, trials, cfg.test_scale * (A @ w_test), prepared


def _statistics(prepared, test) -> dict:
    """Every statistic of the prepared families for test data (B, N, K)."""
    point, dist = prepared
    stats = {}
    if point is not None:
        stats.update(batcheval.evaluate_point(point, test[:, :, 0]))
    if dist is not None:
        stats.update(batcheval.evaluate_distributed(dist, test))
    return stats


def sweep_trials(plan: TrialPlan, covariances, mean=0.0) -> list:
    """The plan's detector statistics at test mean ``mean`` (0 or the full
    (N, K) mean) under each covariance model, from one draw of the plan's
    trial streams (common random numbers).

    Returns one dict per covariance, in order; entry ``c`` maps detector name
    to an ``(n_trials,)`` array ordered by trial index and equals
    ``run_trials(replace(plan, covariance=covariances[c]), mean)``.
    """
    out = [{name: np.empty(plan.n_trials) for name in plan.detectors} for _ in covariances]
    for c, trials, noise, prepared in _noise_pass(plan, covariances):
        stats = _statistics(prepared, noise + mean)
        for name in out[c]:
            out[c][name][trials.start:trials.stop] = stats[name]
    return out


def run_trials(plan: TrialPlan, mean=0.0) -> dict:
    """Evaluate the plan's detector statistics for every trial at test mean
    ``mean`` (0 or the full (N, K) mean).

    Returns a dict mapping detector name to an ``(n_trials,)`` array ordered
    by trial index.
    """
    return sweep_trials(plan, (plan.covariance,), mean)[0]


def exceedance_counts(plan: TrialPlan, means, thresholds) -> np.ndarray:
    """Threshold exceedances of every detector at every (N, K) test mean, from
    one noise pass.

    Entry ``[g, d]`` counts the trials where detector ``plan.detectors[d]``
    exceeds ``thresholds[plan.detectors[d]]`` at test mean ``means[g]``; it
    equals the count over ``run_trials(plan, means[g])``.  Memory stays one
    batch plus the (G, D) counts, whatever the grid size.
    """
    counts = np.zeros((len(means), len(plan.detectors)), dtype=np.int64)
    for _, _, noise, prepared in _noise_pass(plan, (plan.covariance,)):
        for g, mean in enumerate(means):
            stats = _statistics(prepared, noise + mean)
            for d, name in enumerate(plan.detectors):
                counts[g, d] += np.count_nonzero(stats[name] > thresholds[name])
    return counts


def calibrate_threshold(plan: TrialPlan, detector: str, stats) -> float:
    """Threshold at the plan's nominal false-alarm rate: the ``ceil(n * pfa)``-th
    largest of the detector's H0 statistics ``stats`` over the plan's trials
    (decisions downstream use strict ``>``).

    Below ``100 / pfa`` trials the order statistic is unstable and a warning
    is logged; fewer than ``1 / pfa`` trials is an error.
    """
    pfa = plan.scenario.pfa
    m = int(np.ceil(plan.n_trials * pfa))
    if plan.n_trials * pfa < 1.0:
        raise InfeasibleError(
            "too few trials to place the false-alarm order statistic")
    if plan.n_trials * pfa < 100.0:
        log.warning("calibrating %s on n=%d trials at pfa=%g: order statistic m=%d "
                    "is unstable below n*pfa = 100", detector, plan.n_trials, pfa, m)
    return float(np.partition(stats, len(stats) - m)[len(stats) - m])
