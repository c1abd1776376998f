"""Seeded, reproducible Monte Carlo trial engine.

Per-trial randomness derives from ``(master_seed, trial_index)`` through a
counter-based stream split (one Philox counter block range per trial), so
results are a pure function of the plan and are independent of batch size,
worker count, and execution order.  Aggregation is count-based.

Every trial of a plan uses the same noise whatever its test mean, so one
noise pass per (covariance, seed) serves every grid point and detector: each
batch is drawn, coloured, turned into a sample covariance and prepared
(whitened) once, and only the test-data half of the statistics runs per mean
(:func:`exceedance_counts`).
"""

import logging
from dataclasses import dataclass, replace

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
class Geometry:
    """Steering geometry shared by all trials of a plan."""

    H: np.ndarray
    J: np.ndarray
    s: np.ndarray

    @classmethod
    def default(cls, config: ScenarioConfig) -> "Geometry":
        H, J = scenario.default_geometry(config.N, config.p, config.q)
        return cls(H=H, J=J, s=H[:, 0])


@dataclass(frozen=True)
class TrialPlan:
    """Everything needed to reproduce a batch of trials."""

    n_trials: int
    master_seed: int
    scenario: ScenarioConfig
    covariance: CovarianceModel
    detectors: tuple
    hypothesis: str = "h0"
    geometry: Geometry = None
    signal_mean: np.ndarray = None
    interference_mean: np.ndarray = None
    batch_size: int = DEFAULT_BATCH

    def __post_init__(self):
        if self.n_trials < 1:
            raise ValueError("need at least one trial")
        if self.hypothesis not in ("h0", "h1"):
            raise ValueError("hypothesis must be 'h0' or 'h1'")
        if self.geometry is None:
            object.__setattr__(self, "geometry", Geometry.default(self.scenario))
        unknown = set(self.detectors) - set(registry.DETECTORS)
        if unknown:
            raise ValueError(f"unknown detectors: {sorted(unknown)}")
        H, J = self.geometry.H, self.geometry.J
        short = [d for d in self.detectors if registry.DETECTORS[d].orthocomplement]
        if short and H.shape[1] + J.shape[1] >= H.shape[0]:
            raise GeometryError(f"{short[0]} needs p + q < N: [H J] leaves no orthocomplement")

    def under(self, hypothesis: str) -> "TrialPlan":
        return replace(self, hypothesis=hypothesis)


@dataclass(frozen=True)
class PdEstimate:
    """Binomial proportion with its Wilson 99% confidence interval."""

    pd: float
    ci_low: float
    ci_high: float
    n: int


def wilson_interval(successes: int, n: int, z: float = WILSON_Z99):
    """Wilson score interval for a binomial proportion."""
    if n < 1:
        raise ValueError("need at least one trial")
    phat = successes / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * np.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def _test_mean(plan: TrialPlan, signal_mean) -> np.ndarray:
    """The (N, K) test-data mean: signal plus interference under H1, else 0."""
    cfg = plan.scenario
    mean = np.zeros((cfg.N, cfg.K), dtype=np.complex128)
    if plan.hypothesis == "h1":
        for contrib in (signal_mean, plan.interference_mean):
            if contrib is None:
                continue
            contrib = np.asarray(contrib, dtype=np.complex128)
            mean = mean + (contrib[:, None] if contrib.ndim == 1 else contrib)
    return mean


def _noise_pass(plan: TrialPlan):
    """Yield ``(trials, noise, prepared)`` once per batch of the plan.

    ``noise`` is the batch's coloured, scaled test noise (B, N, K) and
    ``prepared`` the point and distributed family state (None where the plan
    has no detector of that family) that :func:`_statistics` needs; the
    training SCM and everything that depends only on it are computed once.
    Only the distributed banks the plan's detectors read are prepared.
    """
    cfg = plan.scenario
    rows = [registry.DETECTORS[name] for name in plan.detectors]
    point = any(row.family == "point" for row in rows)
    reads = {arg for row in rows for arg in row.reads}
    dist = bool(reads)
    if point and cfg.K != 1:
        raise ValueError("point-target detectors need K = 1")

    R = scenario.build_covariance(plan.covariance, cfg.N)
    A = herm_sqrt(R)
    R_clairvoyant = R if any(row.clairvoyant for row in rows) else None
    geom = plan.geometry
    s = geom.s if "s" in reads else None
    H = geom.H if "H" in reads else None
    L = cfg.L if "L" in reads else None
    streams = TrialStreams(plan.master_seed)
    n_flat = 2 * cfg.N * (cfg.L + cfg.K)
    for start in range(0, plan.n_trials, plan.batch_size):
        trials = range(start, min(start + plan.batch_size, plan.n_trials))
        flat = np.empty((len(trials), n_flat))
        for row, i in enumerate(trials):
            streams.standard_normal(i, flat[row])
        w_train, w_test = scenario.assemble_noise(flat, cfg.N, cfg.L, cfg.K)
        training = A @ w_train
        S = training @ np.conj(np.swapaxes(training, -2, -1))
        prepared = (
            batcheval.prepare_point(S, geom.H, geom.J, geom.s, R=R_clairvoyant) if point else None,
            batcheval.prepare_distributed(S, s, H, L) if dist else None)
        yield trials, cfg.test_scale * (A @ w_test), prepared


def _statistics(prepared, test) -> dict:
    """Every statistic of the prepared families for test data (B, N, K)."""
    point, dist = prepared
    stats = {}
    if point is not None:
        stats.update(batcheval.evaluate_point(point, test[:, :, 0]))
    if dist is not None:
        stats.update(batcheval.evaluate_distributed(dist, test))
    return stats


def run_trials(plan: TrialPlan) -> dict:
    """Evaluate the plan's detector statistics for every trial.

    Returns a dict mapping detector name to an ``(n_trials,)`` array ordered
    by trial index.
    """
    mean = _test_mean(plan, plan.signal_mean)
    out = {name: np.empty(plan.n_trials) for name in plan.detectors}
    for trials, noise, prepared in _noise_pass(plan):
        stats = _statistics(prepared, noise + mean)
        for name in out:
            out[name][trials.start:trials.stop] = stats[name]
    return out


def exceedance_counts(plan: TrialPlan, signal_means, thresholds) -> np.ndarray:
    """Threshold exceedances of every detector at every signal mean, from one
    noise pass.

    Entry ``[g, d]`` counts the trials where detector ``plan.detectors[d]``
    exceeds ``thresholds[plan.detectors[d]]`` under the plan with its signal
    mean replaced by ``signal_means[g]``; it equals the count over
    ``run_trials(replace(plan, signal_mean=signal_means[g]))``.  Memory stays
    one batch plus the (G, D) counts, whatever the grid size.
    """
    means = [_test_mean(plan, s) for s in signal_means]
    counts = np.zeros((len(means), len(plan.detectors)), dtype=np.int64)
    for _, noise, prepared in _noise_pass(plan):
        for g, mean in enumerate(means):
            stats = _statistics(prepared, noise + mean)
            for d, name in enumerate(plan.detectors):
                counts[g, d] += np.count_nonzero(stats[name] > thresholds[name])
    return counts


def calibrate_threshold(plan: TrialPlan, detector: str, stats=None) -> float:
    """Threshold at the plan's nominal false-alarm rate: the ``ceil(n * pfa)``-th
    largest H0 statistic (decisions downstream use strict ``>``).

    Below ``100 / pfa`` trials the order statistic is unstable and a warning
    is logged; fewer than ``1 / pfa`` trials is an error.
    """
    pfa = plan.scenario.pfa
    m = int(np.ceil(plan.n_trials * pfa))
    if plan.n_trials * pfa < 1.0:
        raise InfeasibleError(
            "too few trials to place the false-alarm order statistic")
    if plan.hypothesis != "h0":
        raise ValueError("calibration plans must run under h0")
    if plan.n_trials * pfa < 100.0:
        log.warning("calibrating %s on n=%d trials at pfa=%g: order statistic m=%d "
                    "is unstable below n*pfa = 100", detector, plan.n_trials, pfa, m)
    if stats is None:
        stats = run_trials(plan)[detector]
    return float(np.partition(stats, len(stats) - m)[len(stats) - m])


def pd_estimate(successes: int, n: int) -> PdEstimate:
    """Exceedance fraction ``successes / n`` with its Wilson interval."""
    lo, hi = wilson_interval(successes, n)
    return PdEstimate(pd=successes / n, ci_low=lo, ci_high=hi, n=n)


def estimate_pd(plan: TrialPlan, detector: str, threshold: float,
                stats=None) -> PdEstimate:
    """Exceedance fraction of the detector over the plan's trials."""
    if stats is None:
        stats = run_trials(plan)[detector]
    return pd_estimate(int(np.sum(stats > threshold)), len(stats))


@dataclass(frozen=True)
class CfarRow:
    covariance: str
    pfa_hat: float
    ci_low: float
    ci_high: float
    n: int


@dataclass(frozen=True)
class CfarReport:
    detector: str
    threshold: float
    rows: tuple
    passed: bool


def cfar_sweep(detectors, config: ScenarioConfig, covariances, thresholds,
               n_trials: int, master_seed: int = 0, geometry: Geometry = None,
               batch_size: int = DEFAULT_BATCH, stats=None) -> dict:
    """Empirical false-alarm rates of several detectors across covariance models.

    Returns a :class:`CfarReport` per detector, keyed by name; ``thresholds``
    maps each detector to its threshold.  A detector passes when every
    covariance's empirical rate lies inside the Wilson 99% interval of the
    first covariance's rate.  All runs share per-trial streams (common random
    numbers), so a CFAR detector's rates co-move and the comparison is sharp.
    Each covariance takes one noise pass for all detectors; ``stats``, the
    H0 statistics of the first covariance when the caller already has them
    (say, from calibrating the thresholds), saves that covariance's pass.
    """
    detectors = tuple(dict.fromkeys(detectors))
    rows = {det: [] for det in detectors}
    for i, cov in enumerate(covariances):
        plan = TrialPlan(
            n_trials=n_trials, master_seed=master_seed, scenario=config,
            covariance=cov, detectors=detectors, hypothesis="h0",
            geometry=geometry, batch_size=batch_size)
        if i == 0 and stats is not None:
            counts = [int(np.sum(stats[det] > thresholds[det])) for det in detectors]
        else:
            counts = exceedance_counts(plan, [None], thresholds)[0]
        for det, k in zip(detectors, counts):
            est = pd_estimate(int(k), n_trials)
            rows[det].append(CfarRow(covariance=cov.label(), pfa_hat=est.pd,
                                     ci_low=est.ci_low, ci_high=est.ci_high, n=est.n))
    reports = {}
    for det, det_rows in rows.items():
        first = det_rows[0]
        passed = all(first.ci_low <= row.pfa_hat <= first.ci_high for row in det_rows[1:])
        reports[det] = CfarReport(detector=det, threshold=thresholds[det],
                                  rows=tuple(det_rows), passed=passed)
    return reports

