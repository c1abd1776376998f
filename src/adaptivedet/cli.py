"""Command-line front end: experiment grids and validation suites as CSV.

Subcommands
-----------
pd-vs-snr       detection probability against SNR at fixed mismatch
pd-vs-mismatch  detection probability against cos^2(phi) at fixed SNR
mesa            full (SNR, cos^2 phi) detection-probability grid
cfar-check      empirical false-alarm invariance across covariance models
validate-dist   sampling (KS) validation of the distribution machinery
identities      exact algebraic identity suite over random instances

Configuration may come from ``key = value`` files (# comments, commas for
lists); command-line flags override file values.  Identical configuration and
seed produce byte-identical CSV regardless of batch size.
"""

import argparse
import csv
import io
import os
import sys

import numpy as np

from . import batcheval, montecarlo as mc, scenario as sc
from .detectors import mismatch_geometry
from .distributions import (
    DISTRIBUTED_DETECTORS,
    POINT_DETECTORS,
    ComplexBeta,
    ComplexChi2,
    ComplexF,
    invert_pfa,
    pd_distributed,
    pd_interference,
    pd_point,
    threshold_for_pfa,
)

GRID_COLUMNS = ("detector", "snr_db", "cos2phi", "threshold", "pd_analytic",
                "pd_mc", "ci_low", "ci_high", "n_trials", "seed")
CFAR_COLUMNS = ("detector", "covariance", "threshold", "pfa_hat", "ci_low",
                "ci_high", "n_trials", "seed", "status")
DIST_COLUMNS = ("suite", "params", "n_samples", "ks_stat", "p_value", "status")
IDENTITY_COLUMNS = ("identity", "max_rel_err", "n_instances", "status")

DEFAULT_DETECTORS = ("sglrt", "samf", "srao", "asd", "sabort", "wsabort",
                     "dnsamf", "aed", "smf")
NON_CFAR = frozenset({"smi"})
# each identity: its name, the statistic, and that statistic rebuilt from others
IDENTITIES = (
    ("samf=sglrt/beta", "samf", lambda f: f["sglrt"] / f["beta"]),
    ("srao=beta*sglrt/(1+sglrt)", "srao", lambda f: f["beta"] * f["sglrt"] / (1 + f["sglrt"])),
    ("sabort=beta+sglrt", "sabort", lambda f: f["beta"] + f["sglrt"]),
    ("wsabort=(1+sglrt)*beta", "wsabort", lambda f: (1 + f["sglrt"]) * f["beta"]),
    ("aed=(1-beta+sglrt)/beta", "aed", lambda f: (1 - f["beta"] + f["sglrt"]) / f["beta"]),
    ("asd=sglrt/(1-beta+sglrt)", "asd", lambda f: f["sglrt"] / (1 - f["beta"] + f["sglrt"])),
    ("dnsamf=beta*asd", "dnsamf", lambda f: f["beta"] * f["asd"]),
    ("ts_glrt_he_i=glrt_he_i/beta_i", "ts_glrt_he_i", lambda f: f["glrt_he_i"] / f["beta_i"]),
)
IDENTITY_SIZES = ((4, 1), (4, 2), (4, 3), (8, 1), (8, 2), (8, 3), (12, 1), (12, 2), (12, 3))
# instance i has size class i % 9; each class runs in blocks of this many
# stacked instances, fixed so that the output ignores --batch-size
IDENTITY_BLOCK = 32
# flipping the top bit of the 128-bit Philox key gives calibration its own streams
CALIBRATION_KEY_BIT = 1 << 127


def _fmt(value) -> str:
    if value is None or value == "":
        return ""
    if isinstance(value, float):
        return f"{value:.10g}"
    return str(value)


def emit_csv(rows, path, columns):
    """Write rows (dicts) as UTF-8 CSV with LF endings and 10 significant
    digits; on failure any partial file is removed."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_fmt(row.get(c)) for c in columns])
    text = buf.getvalue()
    if path is None:
        sys.stdout.write(text)
        return
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)  # atomic: the target is never left partial
    except OSError:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def parse_config_file(path) -> dict:
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, value = line.split("=", 1)
            values[key.strip().replace("-", "_")] = value.strip()
    return values


def _float_list(text):
    if isinstance(text, (list, tuple)):
        return [float(v) for v in text]
    return [float(v) for v in str(text).split(",") if v.strip() != ""]


def _str_list(text):
    if isinstance(text, (list, tuple)):
        return [str(v) for v in text]
    return [v.strip() for v in str(text).split(",") if v.strip() != ""]


def build_parser():
    """Return the argument parser and its per-subcommand parser map."""
    parser = argparse.ArgumentParser(
        prog="adaptivedet",
        description="Adaptive detector bank experiments and validation suites.")
    sub = parser.add_subparsers(dest="command", required=True)
    sub_map = {}

    def add_common(p):
        p.add_argument("--config", type=str, default=None,
                       help="key = value configuration file")
        p.add_argument("--out", type=str, default=None,
                       help="output CSV path (stdout when omitted)")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--trials", type=int, default=10000)
        p.add_argument("--batch-size", type=int, default=mc.DEFAULT_BATCH)
        p.add_argument("--N", type=int, default=12)
        p.add_argument("--p", type=int, default=2)
        p.add_argument("--q", type=int, default=0)
        p.add_argument("--K", type=int, default=1)
        p.add_argument("--L", type=int, default=None,
                       help="training count (default 2N)")
        p.add_argument("--pfa", type=float, default=None)
        p.add_argument("--env", type=str, default="he",
                       help="'he' or 'phe:SIGMA2'")
        p.add_argument("--covariance", type=str, default="ar1:0.9",
                       help="identity | ar1:RHO | ar1w:RHO:CNR_DB")
        p.add_argument("--detectors", type=str, default=",".join(DEFAULT_DETECTORS))
        p.add_argument("--mode", choices=("analytic", "montecarlo", "both"),
                       default="analytic")
        p.add_argument("--jnr-db", type=float, default=None,
                       help="add a coherent jammer at this JNR under H1")

    p_snr = sub_map["pd-vs-snr"] = sub.add_parser(
        "pd-vs-snr", help="PD against SNR at fixed mismatch")
    add_common(p_snr)
    p_snr.add_argument("--snr", type=str, default=None, help="dB list (default 0..24)")
    p_snr.add_argument("--cos2phi", type=str, default="1.0")

    p_mis = sub_map["pd-vs-mismatch"] = sub.add_parser(
        "pd-vs-mismatch", help="PD against cos^2(phi) at fixed SNR")
    add_common(p_mis)
    p_mis.add_argument("--snr", type=str, default="18.0")
    p_mis.add_argument("--cos2phi", type=str, default=None,
                       help="list (default 21 points on [0, 1])")

    p_mesa = sub_map["mesa"] = sub.add_parser(
        "mesa", help="PD over the (SNR, cos^2 phi) grid")
    add_common(p_mesa)
    p_mesa.add_argument("--snr", type=str, default=None, help="default 0..40, 41 points")
    p_mesa.add_argument("--cos2phi", type=str, default=None, help="default 21 points")

    p_cfar = sub_map["cfar-check"] = sub.add_parser(
        "cfar-check", help="false-alarm invariance sweep")
    add_common(p_cfar)
    p_cfar.add_argument("--covariances", type=str,
                        default="identity,ar1:0.9,ar1w:0.99:30")

    p_dist = sub_map["validate-dist"] = sub.add_parser(
        "validate-dist", help="KS validation of distributions")
    add_common(p_dist)

    p_id = sub_map["identities"] = sub.add_parser(
        "identities", help="exact algebraic identity suite")
    add_common(p_id)

    return parser, sub_map


def _scenario_from_args(args) -> sc.ScenarioConfig:
    env = args.env.strip().lower()
    sigma2 = 1.0
    if env.startswith("phe"):
        environment = sc.PARTIALLY_HOMOGENEOUS
        if ":" in env:
            sigma2 = float(env.split(":", 1)[1])
    elif env == "he":
        environment = sc.HOMOGENEOUS
    else:
        raise ValueError(f"unknown environment {args.env!r}")
    L = args.L if args.L is not None else 2 * args.N
    pfa = args.pfa if args.pfa is not None else (1e-2 if args.command == "cfar-check" else 1e-3)
    return sc.ScenarioConfig(N=args.N, p=args.p, q=args.q, K=args.K, L=L,
                             environment=environment, sigma2=sigma2, pfa=pfa)


def _signal_nominal(cfg, geometry):
    """Nominal structure the mismatch angle is measured against."""
    if cfg.K == 1:
        return geometry.H
    return geometry.s[:, None]


def _build_signal(cfg, geometry, R, snr_db, cos2phi, seed, grid_index):
    spec = sc.SignalSpec(snr_db=snr_db, cos2phi=cos2phi)
    rng = np.random.default_rng((seed, 0x51, grid_index))
    s0 = sc.actual_signal(_signal_nominal(cfg, geometry), R, spec, rng=rng)
    if cfg.K == 1:
        return s0[:, None]
    coords = np.ones(cfg.K, dtype=np.complex128) / np.sqrt(cfg.K)
    return np.outer(s0, coords.conj())


def _jammer_mean(cfg, geometry, R, jnr_db):
    if jnr_db is None or not geometry.J.shape[1]:
        return None
    phi = np.ones(geometry.J.shape[1], dtype=np.complex128)
    j = geometry.J @ phi
    energy = float(np.real(j.conj() @ np.linalg.solve(R, j)))
    j = j * np.sqrt(10.0 ** (jnr_db / 10.0) / energy)
    return np.repeat(j[:, None], cfg.K, axis=1)


# rank-one detectors are their p = 1 subspace twins, and the interference
# GLRTs are central like the point bank at reduced dimension N - q; only the
# scale-invariant statistics keep their law when the test noise power changes
RANK_ONE_ALIAS = {"kglrt": "sglrt", "amf": "samf", "dmrao": "srao", "ace": "asd"}
INTERFERENCE_ALIAS = {"glrt_he_i": "sglrt", "ts_glrt_he_i": "samf", "glrt_phe_i": "asd"}
SCALE_INVARIANT = frozenset({"asd", "ace", "glrt_phe_i"})


def _analytic_law(detector, cfg):
    """Which finite-sample law serves ``detector`` under ``cfg``: ``"point"``,
    ``"interference"``, ``"distributed"``, or None for Monte Carlo.

    Point laws need K = 1 and, except for ``aed`` and ``smf``, a loss factor
    (p < N, with p = 1 for the rank-one twins); interference laws need
    p + q < N and distributed laws N > 1.  Under ``phe`` only the
    scale-invariant detectors keep their law.
    """
    if cfg.environment == sc.PARTIALLY_HOMOGENEOUS and detector not in SCALE_INVARIANT:
        return None
    if detector in RANK_ONE_ALIAS and cfg.K == 1:
        return "point" if 1 < cfg.N else None
    if detector in POINT_DETECTORS and cfg.K == 1:
        return "point" if cfg.p < cfg.N or detector in ("aed", "smf") else None
    if detector in INTERFERENCE_ALIAS and cfg.K == 1:
        return "interference" if cfg.p + cfg.q < cfg.N else None
    if detector in DISTRIBUTED_DETECTORS:
        return "distributed" if 1 < cfg.N else None
    return None


def _analytic_pd(detector, cfg, geometry, R, s_mean, rho, cos2phi, eta):
    """Analytic PD when the detector has a finite-sample law here, else None."""
    law = _analytic_law(detector, cfg)
    N, p, q, K, L = cfg.N, cfg.p, cfg.q, cfg.K, cfg.L
    scale = cfg.test_scale ** 2  # sigma2 under phe, where only scale-invariant laws apply
    if law == "point":
        if detector in RANK_ONE_ALIAS:
            if p != 1:
                return None  # cos2phi is measured against the subspace, not s
            detector = RANK_ONE_ALIAS[detector]
        return pd_point(detector, N, p, L, rho / scale, cos2phi, eta)
    if law == "interference":
        geom = mismatch_geometry(s_mean[:, 0], R, geometry.H, geometry.J)
        return pd_interference(detector, N, p, q, L, geom.rho_eff / scale,
                               geom.delta2_i / scale, eta)
    if law == "distributed" and (detector == "gkglrt" or cos2phi == 1.0):
        # the gamf loss-factor law is only known without mismatch
        return pd_distributed(detector, N, K, L, rho, cos2phi, eta)
    return None


def analytic_threshold(detector, cfg):
    """Threshold from the detector's finite-sample H0 law, or None."""
    law = _analytic_law(detector, cfg)
    N, p, q, K, L = cfg.N, cfg.p, cfg.q, cfg.K, cfg.L
    if law == "point":
        p = 1 if detector in RANK_ONE_ALIAS else p
        return threshold_for_pfa(RANK_ONE_ALIAS.get(detector, detector), N, p, L, cfg.pfa)
    if law == "interference":
        return threshold_for_pfa(INTERFERENCE_ALIAS[detector], N - q, p, L, cfg.pfa)
    if law == "distributed":
        return invert_pfa(lambda eta: pd_distributed(detector, N, K, L, 0.0, 1.0, eta),
                          cfg.pfa)
    return None


def _thresholds(detectors, cfg, args):
    """Analytic thresholds where available; one shared MC calibration run for
    the rest, on the Philox key ``args.seed ^ CALIBRATION_KEY_BIT`` so that no
    threshold is scored on the (key, trial) streams that set it."""
    out = {}
    needs_mc = []
    for det in detectors:
        thr = analytic_threshold(det, cfg)
        if thr is None:
            needs_mc.append(det)
        else:
            out[det] = thr
    if needs_mc:
        plan = mc.TrialPlan(
            n_trials=args.trials, master_seed=args.seed ^ CALIBRATION_KEY_BIT,
            scenario=cfg, covariance=sc.CovarianceModel.parse(args.covariance),
            detectors=tuple(needs_mc), hypothesis="h0", batch_size=args.batch_size)
        stats = mc.run_trials(plan)
        for det in needs_mc:
            out[det] = mc.calibrate_threshold(plan, det, stats=stats[det])
    return out


def run_grid(args, snrs, cos2s):
    cfg = _scenario_from_args(args)
    detectors = tuple(_str_list(args.detectors))
    unknown = set(detectors) - batcheval.ALL_DETECTORS
    if unknown:
        raise ValueError(f"unknown detectors: {sorted(unknown)}")
    geometry = mc.Geometry.default(cfg)
    cov = sc.CovarianceModel.parse(args.covariance)
    R = cov.build(cfg.N)
    thresholds = _thresholds(detectors, cfg, args)
    want_mc = args.mode in ("montecarlo", "both")
    want_analytic = args.mode in ("analytic", "both")
    points = [(s, c) for c in cos2s for s in snrs]
    means = [_build_signal(cfg, geometry, R, snr_db, cos2, args.seed, gi)
             for gi, (snr_db, cos2) in enumerate(points)]
    if want_mc:
        # every grid point shares the trial streams: one noise pass serves all
        plan = mc.TrialPlan(
            n_trials=args.trials, master_seed=args.seed, scenario=cfg,
            covariance=cov, detectors=detectors, hypothesis="h1",
            geometry=geometry,
            interference_mean=_jammer_mean(cfg, geometry, R, args.jnr_db),
            batch_size=args.batch_size)
        counts = mc.exceedance_counts(plan, means, thresholds)
    rows = []
    for gi, ((snr_db, cos2), s_mean) in enumerate(zip(points, means)):
        rho = 10.0 ** (snr_db / 10.0)
        for di, det in enumerate(detectors):
            row = {"detector": det, "snr_db": snr_db, "cos2phi": cos2,
                   "threshold": thresholds[det], "seed": args.seed if want_mc else None,
                   "n_trials": args.trials if want_mc else None}
            if want_analytic:
                row["pd_analytic"] = _analytic_pd(det, cfg, geometry, R, s_mean,
                                                  rho, cos2, thresholds[det])
            if want_mc:
                est = mc.pd_estimate(int(counts[gi, di]), args.trials)
                row.update({"pd_mc": est.pd, "ci_low": est.ci_low, "ci_high": est.ci_high})
            rows.append(row)
    return rows


def run_cfar_check(args):
    cfg = _scenario_from_args(args)
    detectors = tuple(_str_list(args.detectors))
    covariances = [sc.CovarianceModel.parse(c) for c in _str_list(args.covariances)]
    geometry = mc.Geometry.default(cfg)
    base_plan = mc.TrialPlan(
        n_trials=args.trials, master_seed=args.seed, scenario=cfg,
        covariance=covariances[0], detectors=detectors, hypothesis="h0",
        geometry=geometry, batch_size=args.batch_size)
    base_stats = mc.run_trials(base_plan)
    thresholds = {det: mc.calibrate_threshold(base_plan, det, stats=base_stats[det])
                  for det in detectors}
    # the sweep shares trial streams with the calibration run (common random
    # numbers), which makes the cross-covariance comparison sharp; the first
    # covariance's statistics are the calibration run's own
    reports = mc.cfar_sweep(detectors, cfg, covariances, thresholds, args.trials,
                            master_seed=args.seed, geometry=geometry,
                            batch_size=args.batch_size, stats=base_stats)
    rows = []
    failed = []
    for det in detectors:
        report = reports[det]
        for cov_row in report.rows:
            rows.append({
                "detector": det, "covariance": cov_row.covariance,
                "threshold": report.threshold, "pfa_hat": cov_row.pfa_hat,
                "ci_low": cov_row.ci_low, "ci_high": cov_row.ci_high,
                "n_trials": cov_row.n, "seed": args.seed,
                "status": "pass" if report.passed else "fail",
            })
        if not report.passed and det not in NON_CFAR:
            failed.append(det)
    return rows, failed


def run_validate_dist(args):
    # imported here: scipy.stats costs more start-up time than most runs take
    from scipy import stats as sstats

    rng = np.random.default_rng(args.seed)
    n = args.trials
    rows = []
    suites = [
        ("cchi2", "k=1,delta=0", ComplexChi2(1, 0.0)),
        ("cchi2", "k=3,delta=2.5", ComplexChi2(3, 2.5)),
        ("cf", "m=2,n=13,delta=0", ComplexF(2, 13, 0.0)),
        ("cf", "m=2,n=13,delta=8", ComplexF(2, 13, 8.0)),
        ("cbeta", "a=13,b=10,delta=0", ComplexBeta(13, 10, 0.0)),
        ("cbeta", "a=13,b=10,delta=20", ComplexBeta(13, 10, 20.0)),
    ]
    failed = False
    for name, params, dist in suites:
        samples = dist.sample(rng, size=n)
        stat, pvalue = sstats.kstest(samples, dist.cdf)
        rows.append({"suite": name, "params": params, "n_samples": n,
                     "ks_stat": stat, "p_value": pvalue,
                     "status": "pass" if pvalue > 0.01 else "fail"})
        failed |= pvalue <= 0.01
    # AED sampling law through the full data path
    N, L, rho = 12, 24, 10.0
    cfg = sc.ScenarioConfig(N=N, p=1, L=L, pfa=1e-3)
    geometry = mc.Geometry.default(cfg)
    cov = sc.CovarianceModel.ar1(0.9)
    R = cov.build(N)
    s0 = sc.actual_signal(geometry.H, R,
                          sc.SignalSpec(snr_db=10.0 * np.log10(rho), cos2phi=1.0, seed=args.seed))
    plan = mc.TrialPlan(n_trials=n, master_seed=args.seed, scenario=cfg,
                        covariance=cov, detectors=("aed",), hypothesis="h1",
                        geometry=geometry, signal_mean=s0[:, None],
                        batch_size=args.batch_size)
    samples = mc.run_trials(plan)["aed"]
    law = ComplexF(N, L - N + 1, rho)
    stat, pvalue = sstats.kstest(samples, law.cdf)
    rows.append({"suite": "aed-law", "params": f"N={N},L={L},rho={rho:g}",
                 "n_samples": n, "ks_stat": stat, "p_value": pvalue,
                 "status": "pass" if pvalue > 0.01 else "fail"})
    failed |= pvalue <= 0.01
    return rows, failed


def identity_suite(n_instances: int, seed: int):
    """Max relative error of each exact statistic identity over random draws."""
    rng = np.random.default_rng(seed)
    errs = dict.fromkeys((name for name, _, _ in IDENTITIES), 0.0)
    for c, (N, p) in enumerate(IDENTITY_SIZES):
        L = 2 * N
        q = 1 if p + 1 < N else 0
        count = len(range(c, n_instances, len(IDENTITY_SIZES)))
        for start in range(0, count, IDENTITY_BLOCK):
            B = min(IDENTITY_BLOCK, count - start)
            H = sc.complex_normal(rng, (B, N, p))
            J = sc.complex_normal(rng, (B, N, q))
            x = sc.complex_normal(rng, (B, N))
            train = sc.complex_normal(rng, (B, N, L))
            S = train @ train.conj().transpose(0, 2, 1)
            f = batcheval.point_family_stats(x, S, H, J)
            for name, lhs, rhs in IDENTITIES:
                a, b = f[lhs], rhs(f)
                rel = np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-300)
                errs[name] = max(errs[name], float(rel.max()))
    return errs


def run_identities(args):
    n = max(args.trials, 1000)
    rows = [{"identity": name, "max_rel_err": err, "n_instances": n,
             "status": "pass" if err <= 1e-10 else "fail"}
            for name, err in identity_suite(n, args.seed).items()]
    return rows, any(row["status"] == "fail" for row in rows)


def _apply_config_defaults(subparser, file_values) -> None:
    """Install config-file values as typed defaults on the subparser."""
    actions = {a.dest: a for a in subparser._actions}
    unknown = set(file_values) - set(actions)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    typed = {}
    for dest, raw in file_values.items():
        action = actions[dest]
        value = action.type(raw) if action.type is not None else raw
        if action.choices and value not in action.choices:
            raise ValueError(f"config key {dest!r}: {value!r} not in {action.choices}")
        typed[dest] = value
    subparser.set_defaults(**typed)


def main(argv=None) -> int:
    parser, sub_map = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    # apply config-file values as defaults before the real parse
    probe, _ = parser.parse_known_args(argv)
    if getattr(probe, "config", None):
        try:
            _apply_config_defaults(sub_map[probe.command],
                                   parse_config_file(probe.config))
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    args = parser.parse_args(argv)

    try:
        if args.command == "pd-vs-snr":
            snrs = _float_list(args.snr) if args.snr is not None else list(np.arange(0.0, 25.0))
            cos2s = _float_list(args.cos2phi)
            rows = run_grid(args, snrs, cos2s)
            emit_csv(rows, args.out, GRID_COLUMNS)
            return 0
        if args.command == "pd-vs-mismatch":
            snrs = _float_list(args.snr)
            cos2s = (_float_list(args.cos2phi) if args.cos2phi is not None
                     else list(np.linspace(0.0, 1.0, 21)))
            rows = run_grid(args, snrs, cos2s)
            emit_csv(rows, args.out, GRID_COLUMNS)
            return 0
        if args.command == "mesa":
            snrs = _float_list(args.snr) if args.snr is not None else list(np.linspace(0.0, 40.0, 41))
            cos2s = (_float_list(args.cos2phi) if args.cos2phi is not None
                     else list(np.linspace(0.0, 1.0, 21)))
            rows = run_grid(args, snrs, cos2s)
            emit_csv(rows, args.out, GRID_COLUMNS)
            return 0
        if args.command == "cfar-check":
            rows, failed = run_cfar_check(args)
            emit_csv(rows, args.out, CFAR_COLUMNS)
            return 1 if failed else 0
        if args.command == "validate-dist":
            rows, failed = run_validate_dist(args)
            emit_csv(rows, args.out, DIST_COLUMNS)
            return 1 if failed else 0
        if args.command == "identities":
            rows, failed = run_identities(args)
            emit_csv(rows, args.out, IDENTITY_COLUMNS)
            return 1 if failed else 0
        raise ValueError(f"unknown command {args.command!r}")
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
