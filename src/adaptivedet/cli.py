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

from . import batcheval, montecarlo as mc, registry, scenario as sc
from .distributions import (
    ComplexBeta,
    ComplexChi2,
    ComplexF,
    invert_pfa,
    pd_distributed,
    pd_distributed_grid,
    pd_interference_grid,
    pd_point,  # noqa: F401 -- perfbench's tracer wraps this name here
    pd_point_grid,
    threshold_for_pfa,
)

GRID_COLUMNS = ("detector", "snr_db", "cos2phi", "threshold", "pd_analytic",
                "pd_mc", "ci_low", "ci_high", "n_trials", "seed")
CFAR_COLUMNS = ("detector", "covariance", "threshold", "pfa_hat", "ci_low",
                "ci_high", "n_trials", "seed", "status")
DIST_COLUMNS = ("suite", "params", "n_samples", "ks_stat", "p_value", "status")
IDENTITY_COLUMNS = ("identity", "max_rel_err", "n_instances", "status")

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
# each grid command's SNR (dB) and cos^2(phi) lists for a flag left unset
# (None where the flag has a default of its own)
GRID_DEFAULTS = {
    "pd-vs-snr": (np.arange(0.0, 25.0), None),
    "pd-vs-mismatch": (None, np.linspace(0.0, 1.0, 21)),
    "mesa": (np.linspace(0.0, 40.0, 41), np.linspace(0.0, 1.0, 21)),
}


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
    return [float(v) for v in str(text).split(",") if v.strip() != ""]


def _str_list(text):
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
        p.add_argument("--detectors", type=str, default=",".join(registry.names(default=True)))
        p.add_argument("--mode", choices=("analytic", "montecarlo", "both"),
                       default="analytic")
        p.add_argument("--jnr-db", type=float, default=None,
                       help="add a coherent jammer at this JNR under H1")

    def command(name, help_text):
        sub_map[name] = sub.add_parser(name, help=help_text)
        add_common(sub_map[name])
        return sub_map[name]

    p_snr = command("pd-vs-snr", "PD against SNR at fixed mismatch")
    p_snr.add_argument("--snr", type=str, default=None, help="dB list (default 0..24)")
    p_snr.add_argument("--cos2phi", type=str, default="1.0")

    p_mis = command("pd-vs-mismatch", "PD against cos^2(phi) at fixed SNR")
    p_mis.add_argument("--snr", type=str, default="18.0")
    p_mis.add_argument("--cos2phi", type=str, default=None,
                       help="list (default 21 points on [0, 1])")

    p_mesa = command("mesa", "PD over the (SNR, cos^2 phi) grid")
    p_mesa.add_argument("--snr", type=str, default=None, help="default 0..40, 41 points")
    p_mesa.add_argument("--cos2phi", type=str, default=None, help="default 21 points")

    p_cfar = command("cfar-check", "false-alarm invariance sweep")
    p_cfar.add_argument("--covariances", type=str,
                        default="identity,ar1:0.9,ar1w:0.99:30")
    command("validate-dist", "KS validation of distributions")
    command("identities", "exact algebraic identity suite")

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


def _build_signal(cfg, build, snr_db, cos2phi, seed, grid_index):
    spec = sc.SignalSpec(snr_db=snr_db, cos2phi=cos2phi)
    s0 = build(spec, np.random.default_rng((seed, 0x51, grid_index)))
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


def _analytic_law(detector, cfg):
    """Which finite-sample law serves ``detector`` under ``cfg``: ``"point"``,
    ``"interference"``, ``"distributed"``, or None for Monte Carlo.

    Point and interference laws need K = 1.  A point law with a loss factor
    needs p < N (p is 1 for the rank-one twins); interference laws need
    p + q < N and distributed laws N > 1.  Under ``phe`` only the
    scale-invariant detectors keep their law: the test noise power then only
    rescales the SNR.
    """
    spec = registry.lookup(detector)
    if cfg.environment == sc.PARTIALLY_HOMOGENEOUS and not spec.scale_invariant:
        return None
    if spec.law in ("point", "interference") and cfg.K != 1:
        return None
    p = 1 if spec.rank_one else cfg.p
    holds = {"point": p < cfg.N or not spec.loss_factor,
             "interference": p + cfg.q < cfg.N,
             "distributed": 1 < cfg.N}
    return spec.law if holds.get(spec.law) else None


def _analytic_pds(detector, cfg, geometry, R, means, rho, cos2phi, eta):
    """Analytic PD of every grid cell, from one lockstep call, where the
    detector has a finite-sample law here; None marks a cell without one.

    ``means`` (the cells' signal means) is read only by interference laws.
    """
    spec = registry.lookup(detector)
    law = _analytic_law(detector, cfg)
    N, p, q, K, L = cfg.N, cfg.p, cfg.q, cfg.K, cfg.L
    scale = cfg.test_scale ** 2  # sigma2 under phe, where only scale-invariant laws apply
    out = [None] * len(rho)
    if law == "point":
        if spec.rank_one and p != 1:
            return out  # cos2phi is measured against the subspace, not s
        return list(pd_point_grid(detector, N, p, L, rho / scale, cos2phi, eta))
    if law == "interference":
        geo = batcheval.mismatch_geometry(np.array([s[:, 0] for s in means]), R,
                                          geometry.H, geometry.J)
        return list(pd_interference_grid(
            detector, N, p, q, L, geo.rho_eff / scale, geo.delta2_i / scale, eta))
    if law == "distributed":
        cells = np.flatnonzero((cos2phi == 1.0) | spec.mismatch)
        if cells.size:
            pds = pd_distributed_grid(detector, N, K, L, rho[cells], cos2phi[cells], eta)
            for i, pd in zip(cells, pds):
                out[i] = pd
    return out


def analytic_threshold(detector, cfg):
    """Threshold from the detector's finite-sample H0 law, or None."""
    spec = registry.lookup(detector)
    law = _analytic_law(detector, cfg)
    N, p, q, K, L = cfg.N, cfg.p, cfg.q, cfg.K, cfg.L
    if law == "point":
        return threshold_for_pfa(detector, N, 1 if spec.rank_one else p, L, cfg.pfa)
    if law == "interference":  # central like its point statistic at dimension N - q
        return threshold_for_pfa(spec.canonical, N - q, p, L, cfg.pfa)
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


def _detectors(args):
    """The ``--detectors`` names, each checked to be in the registry once."""
    names = _str_list(args.detectors)
    unknown = [n for n in names if n not in registry.DETECTORS]
    if unknown:
        raise ValueError(f"unknown detectors: {unknown}")
    repeated = sorted({n for n in names if names.count(n) > 1})
    if repeated:
        raise ValueError(f"detectors named more than once: {repeated}")
    return tuple(names)


def run_grid(args, snrs, cos2s):
    cfg = _scenario_from_args(args)
    detectors = _detectors(args)
    geometry = mc.Geometry.default(cfg)
    cov = sc.CovarianceModel.parse(args.covariance)
    R = cov.build(cfg.N)
    thresholds = _thresholds(detectors, cfg, args)
    want_mc = args.mode in ("montecarlo", "both")
    want_analytic = args.mode in ("analytic", "both")
    points = [(s, c) for c in cos2s for s in snrs]
    rho = np.array([10.0 ** (snr_db / 10.0) for snr_db, _ in points])
    cos2phi = np.array([c for _, c in points])
    # signal means feed Monte Carlo and interference laws only; each cell's
    # mean comes from its own generator, so skipping them changes nothing else
    means = None
    if want_mc or (want_analytic and any(_analytic_law(det, cfg) == "interference"
                                         for det in detectors)):
        # the mismatch angle is measured against H for a point target, s otherwise
        build = sc.signal_builder(geometry.H if cfg.K == 1 else geometry.s[:, None], R)
        means = [_build_signal(cfg, build, snr_db, cos2, args.seed, gi)
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
    if want_analytic:
        pds = {det: _analytic_pds(det, cfg, geometry, R, means, rho, cos2phi, thresholds[det])
               for det in detectors}
    rows = []
    for gi, (snr_db, cos2) in enumerate(points):
        for di, det in enumerate(detectors):
            row = {"detector": det, "snr_db": snr_db, "cos2phi": cos2,
                   "threshold": thresholds[det], "seed": args.seed if want_mc else None,
                   "n_trials": args.trials if want_mc else None}
            if want_analytic:
                row["pd_analytic"] = pds[det][gi]
            if want_mc:
                est = mc.pd_estimate(int(counts[gi, di]), args.trials)
                row.update({"pd_mc": est.pd, "ci_low": est.ci_low, "ci_high": est.ci_high})
            rows.append(row)
    return rows


def run_cfar_check(args):
    cfg = _scenario_from_args(args)
    detectors = _detectors(args)
    covariances = [sc.CovarianceModel.parse(c) for c in _str_list(args.covariances)]
    plan = mc.TrialPlan(
        n_trials=args.trials, master_seed=args.seed, scenario=cfg,
        covariance=covariances[0], detectors=detectors, hypothesis="h0",
        batch_size=args.batch_size)
    # one pass: every covariance colours the same trial streams (common random
    # numbers), which makes the cross-covariance comparison sharp; the
    # thresholds are calibrated on the first covariance's statistics
    stats = mc.sweep_trials(plan, covariances)
    thresholds = {det: mc.calibrate_threshold(plan, det, stats=stats[0][det])
                  for det in detectors}
    reports = mc.cfar_sweep(covariances, thresholds, stats)
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
        if not report.passed and registry.DETECTORS[det].cfar:
            failed.append(det)
    return rows, failed


def run_validate_dist(args):
    # imported here, the one command that needs scipy.stats (for its KS test),
    # which would double every command's start-up; the benchmark commands load
    # no scipy module (analytic smf at nonzero SNR and wide Beta laws load
    # scipy.special only)
    from scipy import stats as sstats

    rng = np.random.default_rng(args.seed)
    n = args.trials
    # (suite, params, samples, law cdf): six laws sampled directly, then the
    # AED sampling law through the full data path
    suites = [(name, params, dist.sample(rng, size=n), dist.cdf) for name, params, dist in (
        ("cchi2", "k=1,delta=0", ComplexChi2(1, 0.0)),
        ("cchi2", "k=3,delta=2.5", ComplexChi2(3, 2.5)),
        ("cf", "m=2,n=13,delta=0", ComplexF(2, 13, 0.0)),
        ("cf", "m=2,n=13,delta=8", ComplexF(2, 13, 8.0)),
        ("cbeta", "a=13,b=10,delta=0", ComplexBeta(13, 10, 0.0)),
        ("cbeta", "a=13,b=10,delta=20", ComplexBeta(13, 10, 20.0)),
    )]
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
    suites.append(("aed-law", f"N={N},L={L},rho={rho:g}", mc.run_trials(plan)["aed"],
                   ComplexF(N, L - N + 1, rho).cdf))
    rows = []
    for name, params, samples, cdf in suites:
        stat, pvalue = sstats.kstest(samples, cdf)
        rows.append({"suite": name, "params": params, "n_samples": n,
                     "ks_stat": stat, "p_value": pvalue,
                     "status": "pass" if pvalue > 0.01 else "fail"})
    return rows, any(row["p_value"] <= 0.01 for row in rows)


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
        if args.command in GRID_DEFAULTS:
            axes = [_float_list(text) if text is not None else list(default)
                    for text, default in zip((args.snr, args.cos2phi),
                                             GRID_DEFAULTS[args.command])]
            emit_csv(run_grid(args, *axes), args.out, GRID_COLUMNS)
            return 0
        # the validation commands exit 1 when a validated property fails
        run, columns = {"cfar-check": (run_cfar_check, CFAR_COLUMNS),
                        "validate-dist": (run_validate_dist, DIST_COLUMNS),
                        "identities": (run_identities, IDENTITY_COLUMNS)}[args.command]
        rows, failed = run(args)
        emit_csv(rows, args.out, columns)
        return 1 if failed else 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
