"""Seeded, reproducible Monte Carlo trial engine.

Trials come in fixed blocks of ``BLOCK`` = 64.  Block b is one Philox stream
keyed by the master seed with counter ``b << 64`` (:func:`trial_rng`), and
trial i is row ``i mod 64`` of block ``i // 64``.  A pass has a flag
dimension m (:func:`_canonical`), with n1 = N - m, and a block draws, one
call per array and in this order (the reproducibility contract):

1. the m(m-1) standard normals of the strict lower triangle of the Bartlett
   factor T22 (real parts, then imaginary parts);
2. m gamma variates, its squared diagonal ``Gamma(L - n1 - i + 1)``;
3. the 2mK standard normals of the test noise (real, then imaginary);
4. only when n1 > 0: the 2K gammas, squared diagonals of the Bartlett
   factors G of CW_K(n1, I), ``Gamma(n1 - i + 1)``, then E of CW_K(L - n1 +
   K, I), ``Gamma(L - n1 + K - i + 1)``; the 2mK normals of the m x K
   ``t ~ CN(0, I)``; the 2K(K-1) normals of the strict lower triangles of
   G, then E (none at K = 1).

At m = N, ``T T^H`` with T = T22 is a white sample covariance of L
snapshots and T its Cholesky factor
(:func:`~adaptivedet.scenario.assemble_noise`), drawn without the snapshots
themselves.  A pass takes m = p + q < N exactly when K + m < N (so n1 > K)
and every white mean, zero ones included, lies in the flag s in H in [H J];
its trials then run in the canonical frame of Kelly and Forsythe (1989), in
d = K + m coordinates.  The statistics read the n1 coordinates outside the
flag only through the K x K Gram ``C = X1^H S11^-1 X1``, and ``C^-1 ~
CW_K(L - n1 + K, (X1^H X1)^-1)`` (the complex form of Muirhead 1982, Thm
3.2.11), so ``X = E^-1 G^H`` has ``X^H X`` distributed as C: the whitener
``[[X, 0], [-T22^-1 t X, T22^-1]]`` and test noise ``[I_K; W2]`` have the
laws of the flag's part of a full draw.  Mismatched means, K + m >= N and
K > N keep m = N.  A batch covers whole blocks (the batch size rounds up to
a multiple of 64), so no block is drawn twice in a pass, every trial reads
the same row of the same block whatever the batch size or trial count, and
results are a pure function of the plan and its means.  Aggregation is
count-based.

In the canonical frame the subspace, rank-one and distributed statistics
see the same flag coordinates under every covariance, so a null pass gives
them the same realization under each: ``cfar-check`` passes such a row by
construction, at (r-1)/n on the calibrating covariance (r = ceil(n pfa), the
order statistic's rank) and at (r-1)/n or r/n elsewhere, as the calibrating
trial's statistic rounds there.

Within a pass every trial uses the same white noise whatever its test mean
or covariance, so one draw per batch serves every grid point, detector and
covariance.  The detectors read the data only whitened, so a pass runs in
the white coordinates of each covariance R = A A^H (A its Cholesky factor):
``S = A T T^H A^H`` becomes ``T T^H``, the test noise stays white, and only
the geometry (H, J, s) and the test means are multiplied by ``A^-1``.  T is
inverted once per batch, and ``T^-1``, an inverse square root of ``T
T^H``, whitens for every covariance; no sample covariance is formed or
factored.  A batch's covariances share its noise and ``T^-1``, and at a zero
mean its whitened test block, so the statistics' covariance-independent half
runs once per batch (:func:`sweep_trials`).  Only the test-data half of the statistics,
and only the banks the plan's detectors read, runs per mean, ``GRID_CHUNK``
means a call (:func:`~adaptivedet.batcheval.evaluate`, :func:`exceedance_counts`).
"""

import logging
from dataclasses import dataclass, replace

import numpy as np

from . import batcheval, linalg, registry, scenario
from .errors import GeometryError, InfeasibleError
from .scenario import CovarianceModel, ScenarioConfig

WILSON_Z99 = 2.5758293035489004  # two-sided 99% normal quantile
DEFAULT_BATCH = 4096
# trials per Philox stream: a fixed constant of the stream contract, like the
# identity suite's IDENTITY_CHUNK, so that no option moves a trial's draws
BLOCK = 64
# test means per stacked point evaluation: fixed, so that the chunks (and the bits of
# their whitened product) depend on the grid alone, and memory not on it at all
GRID_CHUNK = 16
# the point banks' d = 1 + v - u errs by about eps * rho, 2e-6 at this SNR; far
# past it (160 dB) d rounds to zero and the Monte Carlo PDs are wrong
MAX_SNR_DB = 100.0
# the largest white mean energy a pass takes; the slack lets 10^10 through its own rounding
MAX_WHITE_ENERGY = 10 ** (MAX_SNR_DB / 10) * (1 + 1e-9)
log = logging.getLogger(__name__)


def trial_rng(master_seed: int, block: int) -> np.random.Generator:
    """The stream of trial block ``block``: Philox keyed by the master seed,
    with the counter advanced ``2**64`` blocks per block index."""
    return np.random.Generator(
        np.random.Philox(key=master_seed, counter=int(block) << 64))


def _draw_blocks(master_seed: int, blocks: range, cfg: ScenarioConfig, m: int):
    """The flat white draws of trial blocks ``blocks`` at flag dimension ``m``
    (N: the full draw), one row per trial: the Bartlett normals (B, m(m-1)),
    gamma variates (B, m) and test normals (B, 2mK), and below N the gammas
    of G and E (B, 2K), the normals of t (B, 2mK) and those of G's and E's
    lower triangles (B, 2K(K-1)), each block's arrays in the contract's
    order."""
    n1, K, B = cfg.N - m, cfg.K, BLOCK * len(blocks)
    # each array's gamma shapes, or its count of normals
    layout = [m * (m - 1), cfg.L - n1 - np.arange(m, dtype=float), 2 * m * K]
    if n1:
        i = np.arange(K, dtype=float)
        layout += [np.concatenate([n1 - i, cfg.L - n1 + K - i]), 2 * m * K, 2 * K * (K - 1)]
    draws = [np.empty((B, np.size(a) if np.ndim(a) else a)) for a in layout]
    for j, block in enumerate(blocks):
        rng = trial_rng(master_seed, block)
        for a, out in zip(layout, draws):
            rows = out[j * BLOCK:(j + 1) * BLOCK]
            rng.standard_gamma(a, out=rows) if np.ndim(a) else rng.standard_normal(out=rows)
    return draws


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
        if cfg.K != 1 and any(registry.DETECTORS[d].family == "point" for d in self.detectors):
            raise ValueError("point-target detectors need K = 1")


def wilson_interval(successes: int, n: int, z: float = WILSON_Z99):
    """Wilson score interval for a binomial proportion."""
    if n < 1:
        raise ValueError("need at least one trial")
    phat = successes / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * np.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def _canonical(plan: TrialPlan, frames, energy):
    """The flag dimension m of a pass and its white frames ``(H, J, means)``
    of mean energies ``energy`` (C, G).  When K + m < N and every white mean
    lies in the flag s in H in [H J] (to 1e-12 of its norm; a zero mean
    does), m = p + q and each frame is rotated by a unitary built from its
    geometry alone, flag last, and cut to its last K + m coordinates."""
    N, K, m = plan.scenario.N, plan.scenario.K, plan.scenario.p + plan.scenario.q
    if K + m >= N:
        return N, frames
    out = []
    for (Hw, Jw, white), e in zip(frames, energy):
        V = linalg.orthonormal_basis(np.concatenate([Hw, Jw], axis=1))
        residual = white - V @ (V.conj().T @ white)
        if np.any(np.sum(np.abs(residual) ** 2, axis=(1, 2)) > 1e-24 * e):
            return N, frames
        P = np.concatenate([np.zeros((K, N)), V.conj().T])
        out.append((P @ Hw, P @ Jw, P @ white))
    return m, out


def _noise_pass(plan: TrialPlan, covariances, means=0.0):
    """Yield ``(trials, noise, preps, whites)`` per batch of the plan, with
    entry c of ``preps`` and ``whites`` for covariance ``covariances[c]``: a
    batch's C prepared states are alive together.

    Each batch is drawn once and every covariance reads that same draw (common
    random numbers), so its trials are bit-identical to a pass over it alone.
    ``noise`` is the batch's scaled white test noise (B, d, K), shared by
    every covariance, as is the whitener ``T^-1`` (formed only for a plan with
    an adaptive detector).  In the white coordinates of each R = A A^H, a
    white mean is ``A^-1 means`` (G, N, K; one (N, K) mean or 0 is G = 1), and
    a state is :func:`~adaptivedet.batcheval.prepare` of the plan's
    detectors on the geometry ``A^-1 (H, J, s)``, whitened by ``T^-1``, with
    R = I for the clairvoyant maps; at a flag dimension m < N
    (:func:`_canonical`) in d = K + m rotated coordinates, of whitener
    ``[[X, 0], [-T22^-1 t X, T22^-1]]`` with ``X = E^-1 G^H`` and test noise
    ``[I_K; W2]``, no d x d inverse formed, the PHE target still at N.  A
    white mean above ``MAX_SNR_DB`` is a ``ValueError``.
    """
    cfg, K = plan.scenario, plan.scenario.K
    adaptive = not all(registry.DETECTORS[name].clairvoyant for name in plan.detectors)
    means = (np.reshape(means, (-1, cfg.N, K)) if np.ndim(means)
             else np.full((1, cfg.N, K), means))
    H, J = scenario.default_geometry(cfg.N, cfg.p, cfg.q)
    whiteners = [linalg.whitener(cov.build(cfg.N)) for cov in covariances]
    frames = [(A_inv @ H, A_inv @ J, A_inv @ means) for A_inv in whiteners]
    energy = np.array([np.sum(np.abs(white) ** 2, axis=(1, 2)) for _, _, white in frames])
    if energy.max(initial=0.0) > MAX_WHITE_ENERGY:
        raise ValueError(f"a white test mean exceeds {MAX_SNR_DB:g} dB, past which "
                         "float64 cannot resolve the statistics' energies")
    m, frames = _canonical(plan, frames, energy)
    R = np.eye(frames[0][0].shape[0])  # d = N, or K + m
    rows, cols = np.tril_indices(K, -1)
    per_batch = -(-plan.batch_size // BLOCK)
    n_blocks = -(-plan.n_trials // BLOCK)
    for first in range(0, n_blocks, per_batch):
        blocks = range(first, min(first + per_batch, n_blocks))
        trials = range(first * BLOCK, min(blocks.stop * BLOCK, plan.n_trials))
        draws = [a[:len(trials)] for a in _draw_blocks(plan.master_seed, blocks, cfg, m)]
        T, w_test = scenario.assemble_noise(*draws[:3], m, K)
        T_inv = linalg.lower_inverse(T) if adaptive else None
        if m < cfg.N:
            (g, t, z), B = draws[3:], len(trials)
            if adaptive:  # G and E stacked, each laid out like T22
                GE = np.zeros((B, 2, K, K), dtype=np.complex128)
                z = z.reshape(B, 2, 2, len(rows)) / np.sqrt(2.0)
                GE[:, :, rows, cols] = z[:, :, 0] + 1j * z[:, :, 1]
                GE[:, :, range(K), range(K)] = np.sqrt(g.reshape(B, 2, K))
                X = linalg.lower_inverse(GE[:, 1]) @ np.conj(np.swapaxes(GE[:, 0], 1, 2))
                t = (t[:, :m * K] + 1j * t[:, m * K:]).reshape(B, m, K) / np.sqrt(2.0)
                T22_inv, T_inv = T_inv, np.zeros((B, K + m, K + m), dtype=np.complex128)
                T_inv[:, :K, :K], T_inv[:, K:, K:] = X, T22_inv
                T_inv[:, K:, :K] = -(T22_inv @ t) @ X
            w_test = np.concatenate([np.broadcast_to(np.eye(K), (B, K, K)), w_test], axis=1)
        # a PHE half's target N K / (L + K) is at the scenario's N, not the frame's d
        yield trials, cfg.test_scale * w_test, [
            prep if prep.N is None else replace(prep, N=cfg.N) for prep in (
                batcheval.prepare(T_inv, Hw, Jw, Hw[:, 0], R, cfg.L, want=plan.detectors)
                for Hw, Jw, _ in frames)], [white for _, _, white in frames]


def sweep_trials(plan: TrialPlan, covariances, mean=0.0) -> list:
    """The plan's detector statistics at test mean ``mean`` (0 or the full
    (N, K) mean) under each covariance model, from one draw of the plan's
    trial streams (common random numbers).

    At a zero mean a batch's covariances share its whitened test block, and
    the covariance-independent half runs once per batch
    (:func:`~adaptivedet.batcheval.evaluate_sweep`).  Returns one dict per
    covariance, in order; entry ``c`` maps detector name to an ``(n_trials,)``
    array ordered by trial index, bit for bit ``run_trials(replace(plan,
    covariance=covariances[c]), mean)``.
    """
    if not covariances:
        raise ValueError("need at least one covariance model")
    out = [{name: np.empty(plan.n_trials) for name in plan.detectors} for _ in covariances]
    for trials, noise, preps, whites in _noise_pass(plan, covariances, mean):
        stats = (batcheval.evaluate_sweep(preps, noise, whites[0]) if not np.any(mean) else
                 [batcheval.evaluate(prep, noise, white) for prep, white in zip(preps, whites)])
        for ours, values in zip(out, stats):
            for name, value in values.items():
                ours[name][trials.start:trials.stop] = value[:, 0]
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
    equals the count over ``run_trials(plan, means[g])`` but for statistics
    within rounding of the threshold, as a chunk's whitened means round
    apart from one mean's, when both passes take the same flag dimension
    (a grid with a mean off the flag draws at N even where ``means[g]``
    alone would reduce).  The means are
    evaluated ``GRID_CHUNK`` at a time, in chunks fixed by the grid alone, so
    the counts ignore the batch size, and memory stays one batch of a chunk
    plus the (G, D) counts.
    """
    counts = np.zeros((len(means), len(plan.detectors)), dtype=np.int64)
    for _, noise, (prepared,), (white,) in _noise_pass(plan, (plan.covariance,), means):
        for chunk in (slice(g, g + GRID_CHUNK) for g in range(0, len(means), GRID_CHUNK)):
            stats = batcheval.evaluate(prepared, noise, white[chunk])
            for d, name in enumerate(plan.detectors):
                counts[chunk, d] += np.count_nonzero(stats[name] > thresholds[name], axis=0)
    return counts


def calibrate_threshold(plan: TrialPlan, detector: str, stats) -> float:
    """Threshold at the plan's nominal false-alarm rate: the ``ceil(n * pfa)``-th
    largest of the detector's H0 statistics ``stats`` over the plan's trials
    (decisions downstream use strict ``>``).  ``n * pfa`` is taken exactly,
    as ``num / den`` from the decimal digits of ``repr(pfa)``: in floats
    300000 * 1e-5 exceeds 3 and would round m up to 4.

    Below ``100 / pfa`` trials the order statistic is unstable and a warning
    is logged; fewer than ``1 / pfa`` trials is an error.
    """
    pfa = plan.scenario.pfa
    mantissa, _, exponent = repr(float(pfa)).partition("e")
    whole, _, fraction = mantissa.partition(".")
    shift = int(exponent or 0) - len(fraction)
    num = plan.n_trials * int(whole + fraction) * 10 ** max(shift, 0)
    den = 10 ** max(-shift, 0)
    m = -(-num // den)
    if num < den:
        raise InfeasibleError(
            "too few trials to place the false-alarm order statistic")
    if num < 100 * den:
        log.warning("calibrating %s on n=%d trials at pfa=%g: order statistic m=%d "
                    "is unstable below n*pfa = 100", detector, plan.n_trials, pfa, m)
    return float(np.partition(stats, len(stats) - m)[len(stats) - m])
