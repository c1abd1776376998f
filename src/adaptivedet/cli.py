"""Command-line front end: experiment grids and validation suites as CSV,
one subcommand per entry of :data:`COMMANDS`.

Configuration may come from ``key = value`` files (# comments, commas for
lists), each key a flag name; command-line flags override file values.
Identical configuration and seed produce byte-identical CSV regardless of
batch size.

:func:`build_parser` builds the subparser of the command it is given, or of
every command without one; :func:`main` gives it the first word of its argv,
so a run builds only its own command's flags.
"""

import argparse
import csv
import functools
import io
import os
import shutil
import sys

import numpy as np

from . import batcheval, linalg, montecarlo as mc, registry, scenario as sc
from .distributions import (
    pd_grid,
    pd_point,  # noqa: F401 -- perfbench's tracer wraps this name here
    resolve_law,
    threshold_for_pfa,  # noqa: F401 -- perfbench's tracer wraps this name here
    thresholds_for_pfa,
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
# the statistics the identities read: the right sides' inputs and every left side
IDENTITY_STATS = ("sglrt", "beta", "glrt_he_i", "beta_i", *(lhs for _, lhs, _ in IDENTITIES))
IDENTITY_SIZES = ((4, 1), (4, 2), (4, 3), (8, 1), (8, 2), (8, 3), (12, 1), (12, 2), (12, 3))
# instance i has size class i % 9; a class draws and evaluates its instances in
# chunks of this many, fixed so that the draws ignore --batch-size and memory --trials
IDENTITY_CHUNK = 256
# flipping the top bit of the 128-bit Philox key gives calibration its own streams
CALIBRATION_KEY_BIT = 1 << 127


def _fmt(value) -> str:
    if isinstance(value, float):  # np.float64 too: as a Python float, same text, faster
        return f"{float(value):.10g}"
    return "" if value is None else str(value)


def emit_csv(rows, path, columns):
    """Write rows (dicts) as UTF-8 CSV with LF endings and 10 significant
    digits, formatted a column at a time.  A regular file is replaced
    atomically, and on failure any partial file is removed; a target that
    exists and is not a regular file (a device, a FIFO, or a symlink such as
    ``/dev/stdout``, which a rename would replace) is written in place."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(zip(*([_fmt(row.get(c)) for row in rows] for c in columns)))
    text = buf.getvalue()
    if path is None:
        sys.stdout.write(text)
        return
    if os.path.exists(path) and (os.path.islink(path) or not os.path.isfile(path)):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
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


def config_tokens(path) -> list:
    """The ``key = value`` lines of a configuration file as ``--key=value``
    flags, ``_`` in a key read as ``-``.  The ``=`` form keeps a value that
    starts with ``-`` (``snr = -6,0``) a value.  Files do not nest."""
    tokens = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, value = line.split("=", 1)
            key = key.strip().replace("_", "-")
            if key == "config":
                raise ValueError("config files do not nest")
            tokens.append(f"--{key}={value.strip()}")
    return tokens


def _float_list(text):
    return [float(v) for v in str(text).split(",") if v.strip() != ""]


def _str_list(text):
    return [v.strip() for v in str(text).split(",") if v.strip() != ""]


def _common_flags(p):
    p.add_argument("--config", type=str, default=None, help="key = value configuration file")
    p.add_argument("--out", type=str, default=None, help="output CSV path (stdout when omitted)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--batch-size", type=int, default=mc.DEFAULT_BATCH)


def _scenario_flags(p):
    p.add_argument("--N", type=int, default=12)
    p.add_argument("--p", type=int, default=2)
    p.add_argument("--q", type=int, default=0)
    p.add_argument("--K", type=int, default=1)
    p.add_argument("--L", type=int, default=None, help="training count (default 2N)")
    p.add_argument("--pfa", type=float)
    p.add_argument("--env", type=str, default="he", help="'he', 'phe' or 'phe:SIGMA2'")
    p.add_argument("--detectors", type=str, default=",".join(registry.names(default=True)))


def _grid_flags(p):
    p.add_argument("--covariance", type=str, default="ar1:0.9",
                   help="identity | ar1:RHO | ar1w:RHO:CNR_DB")
    p.add_argument("--mode", choices=("analytic", "montecarlo", "both"), default="analytic")
    p.add_argument("--jnr-db", type=float, default=None,
                   help="add a coherent jammer at this JNR under H1 (needs q > 0)")
    p.add_argument("--snr", type=_float_list, help="SNR list in dB")
    p.add_argument("--cos2phi", type=_float_list, help="cos^2(phi) list")


def _sweep_flags(p):
    p.add_argument("--covariances", type=str, default="identity,ar1:0.9,ar1w:0.99:30")


# each subcommand: its help, the flag groups it reads besides the common ones,
# its own defaults, and the name of its runner, which returns (rows, failed), with
# the columns it writes.  The runner is looked up in this module when the
# command runs, so that whatever the module attribute holds then is what runs.
COMMANDS = {
    "pd-vs-snr": ("PD against SNR at fixed mismatch", (_scenario_flags, _grid_flags),
                  dict(snr=np.arange(0.0, 25.0), cos2phi=[1.0], pfa=1e-3),
                  "run_grid", GRID_COLUMNS),
    "pd-vs-mismatch": ("PD against cos^2(phi) at fixed SNR", (_scenario_flags, _grid_flags),
                       dict(snr=[18.0], cos2phi=np.linspace(0.0, 1.0, 21), pfa=1e-3),
                       "run_grid", GRID_COLUMNS),
    "mesa": ("PD over the (SNR, cos^2 phi) grid", (_scenario_flags, _grid_flags),
             dict(snr=np.linspace(0.0, 40.0, 41), cos2phi=np.linspace(0.0, 1.0, 21), pfa=1e-3),
             "run_grid", GRID_COLUMNS),
    "cfar-check": ("false-alarm invariance sweep", (_scenario_flags, _sweep_flags),
                   dict(pfa=1e-2), "run_cfar_check", CFAR_COLUMNS),
    "validate-dist": ("KS validation of distributions", (), {},
                      "run_validate_dist", DIST_COLUMNS),
    "identities": ("exact algebraic identity suite", (), {},
                   "run_identities", IDENTITY_COLUMNS),
}


def build_parser(command=None):
    """Return the argument parser and its per-subcommand parser map: with
    ``command`` a name in :data:`COMMANDS` only its subparser, otherwise
    every command's."""
    # argparse's default width, read once rather than at every add_argument
    formatter = functools.partial(argparse.HelpFormatter,
                                  width=shutil.get_terminal_size().columns - 2)
    parser = argparse.ArgumentParser(
        prog="adaptivedet", formatter_class=formatter,
        description="Adaptive detector bank experiments and validation suites.")
    sub = parser.add_subparsers(dest="command", required=True)
    sub_map = {}
    for name, (help_text, flags, defaults, _, _) in COMMANDS.items():
        if command in COMMANDS and name != command:
            continue
        # no prefix matching: a misspelt flag must not pass for another one
        p = sub_map[name] = sub.add_parser(name, help=help_text, allow_abbrev=False,
                                           formatter_class=formatter)
        for add in (_common_flags, *flags):
            add(p)
        # argparse passes no non-string default through ``type``: the axes keep their bits
        p.set_defaults(**defaults)
    return parser, sub_map


def _scenario_from_args(args) -> sc.ScenarioConfig:
    # exactly 'he', 'phe' or 'phe:SIGMA2'
    environment, colon, sigma2 = args.env.strip().lower().partition(":")
    if environment not in (sc.HOMOGENEOUS, sc.PARTIALLY_HOMOGENEOUS) or (
            colon and environment != sc.PARTIALLY_HOMOGENEOUS):
        raise ValueError(f"unknown environment {args.env!r}")
    L = args.L if args.L is not None else 2 * args.N
    return sc.ScenarioConfig(N=args.N, p=args.p, q=args.q, K=args.K, L=L,
                             environment=environment,
                             sigma2=float(sigma2) if colon else 1.0, pfa=args.pfa)


def _build_signal(cfg, build, rho, cos2phi, seed, grid_index):
    """Grid cell ``grid_index``'s (N, K) mean: its signal over K range bins."""
    s0 = build(rho, cos2phi, np.random.default_rng((seed, 0x51, grid_index)))
    return np.outer(s0, np.full(cfg.K, 1.0 / np.sqrt(cfg.K)))


def _jammer_mean(cfg, J, R, jnr_db):
    """The (N, K) coherent jammer mean in span(J) at ``jnr_db``, 0 without one."""
    if jnr_db is None:
        return 0.0
    j = J @ np.ones(J.shape[1], dtype=np.complex128)
    jw = linalg.whitener(R) @ j
    j = j * np.sqrt(sc.db_to_power(jnr_db) / np.real(jw.conj() @ jw))
    return np.repeat(j[:, None], cfg.K, axis=1)


def _laws(detectors, cfg, jammer=False):
    """The detectors' finite-sample laws under ``cfg`` (with a jammer under H1
    when ``jammer`` is set) as ``{det: Law}``, and ``{det: reason}`` for those
    that have none."""
    resolved = {det: resolve_law(det, cfg.N, cfg.p, cfg.L, cfg.q, cfg.K, cfg.environment,
                                 jammer) for det in detectors}
    return ({det: law for det, law in resolved.items() if not isinstance(law, str)},
            {det: law for det, law in resolved.items() if isinstance(law, str)})


def analytic_threshold(detector, cfg):
    """Threshold from the detector's finite-sample H0 law, or None."""
    law = _laws([detector], cfg)[0].get(detector)
    return None if law is None else float(thresholds_for_pfa([law], cfg.pfa)[0])


def _thresholds(laws, needs_mc, cfg, args):
    """Thresholds of the detectors with a law in ``laws`` in one solve; one
    shared MC calibration run for the detectors ``needs_mc``, on the Philox
    key ``args.seed ^ CALIBRATION_KEY_BIT`` so that no threshold is scored on
    the (key, trial) streams that set it."""
    out = dict(zip(laws, thresholds_for_pfa(list(laws.values()), cfg.pfa).tolist()))
    if needs_mc:
        plan = mc.TrialPlan(
            n_trials=args.trials, master_seed=args.seed ^ CALIBRATION_KEY_BIT,
            scenario=cfg, covariance=sc.CovarianceModel.parse(args.covariance),
            detectors=tuple(needs_mc), batch_size=args.batch_size)
        stats = mc.run_trials(plan)
        for det in needs_mc:
            out[det] = mc.calibrate_threshold(plan, det, stats[det])
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


def run_grid(args):
    snrs, cos2s = args.snr, args.cos2phi
    cfg = _scenario_from_args(args)
    detectors = _detectors(args)
    jnr = () if args.jnr_db is None else (args.jnr_db,)
    if not (np.isfinite([*snrs, *cos2s, *jnr]).all()
            and np.isfinite([sc.db_to_power(db) for db in (*snrs, *jnr)]).all()):
        raise ValueError("--snr, --cos2phi and --jnr-db take finite values only, "
                         "in dB and as power ratios")
    if any(db > mc.MAX_SNR_DB for db in snrs):
        raise ValueError(f"--snr is at most {mc.MAX_SNR_DB:g} dB, past which float64 "
                         "cannot resolve the statistics' energies")
    if jnr and not cfg.q:
        raise ValueError("--jnr-db needs q > 0: the jammer lies in span(J)")
    # the engine bounds the white energy of signal plus jammer (K columns of it)
    if jnr and (np.sqrt(sc.db_to_power(max(snrs, default=-np.inf))) + np.sqrt(
            cfg.K * sc.db_to_power(args.jnr_db))) ** 2 > mc.MAX_WHITE_ENERGY:
        raise ValueError(f"--snr and --jnr-db together are at most {mc.MAX_SNR_DB:g} dB of "
                         "white energy, past which float64 cannot resolve the statistics' "
                         "energies")
    laws, no_law = _laws(detectors, cfg, jammer=bool(jnr))
    H, J = sc.default_geometry(cfg.N, cfg.p, cfg.q)
    cov = sc.CovarianceModel.parse(args.covariance)
    R = cov.build(cfg.N)
    if not (len(snrs) and len(cos2s)):  # an empty axis: no cells, in every mode
        return [], False
    thresholds = _thresholds(laws, list(no_law), cfg, args)
    want_mc = args.mode in ("montecarlo", "both")
    want_analytic = args.mode in ("analytic", "both")
    points = [(s, c) for c in cos2s for s in snrs]
    rho = np.array([sc.db_to_power(snr_db) for snr_db, _ in points])
    cos2phi = np.array([c for _, c in points])
    interference = want_analytic and any(law.kind == "interference" for law in laws.values())
    # signal means feed Monte Carlo and interference laws only; each cell's
    # mean comes from its own generator, so skipping them changes nothing else
    means = None
    if want_mc or interference:
        # the mismatch angle is measured against H for a point target, s otherwise
        build = sc.signal_builder(H if cfg.K == 1 else H[:, :1], R)
        means = [_build_signal(cfg, build, rho[gi], cos2, args.seed, gi)
                 for gi, (_, cos2) in enumerate(points)]
    if want_mc:
        # every grid point shares the trial streams: one noise pass serves all
        plan = mc.TrialPlan(n_trials=args.trials, master_seed=args.seed, scenario=cfg,
                            covariance=cov, detectors=detectors, batch_size=args.batch_size)
        jammer = _jammer_mean(cfg, J, R, args.jnr_db)
        counts = mc.exceedance_counts(plan, [s + jammer for s in means], thresholds)
    if want_analytic:
        # every cell's law inputs, once per grid, on the test noise's scale
        # (sigma2 under phe, where only scale-invariant laws apply)
        scale = cfg.test_scale ** 2
        cells = dict.fromkeys(("point", "distributed"), (rho / scale, cos2phi))
        if interference:
            rho_eff, delta2_i = batcheval.mismatch_geometry(np.array([s[:, 0] for s in means]),
                                                            R, H, J)
            cells["interference"] = (rho_eff / scale, delta2_i / scale)
        pds = dict(zip(laws, pd_grid([(law, thresholds[det], cells[law.kind])
                                      for det, law in laws.items()])))
    rows = []
    for gi, (snr_db, cos2) in enumerate(points):
        for di, det in enumerate(detectors):
            row = {"detector": det, "snr_db": snr_db, "cos2phi": cos2,
                   "threshold": thresholds[det], "seed": args.seed if want_mc else None,
                   "n_trials": args.trials if want_mc else None}
            if want_analytic and det in pds and not np.isnan(pds[det][gi]):
                row["pd_analytic"] = pds[det][gi]  # NaN: no law for this cell
            if want_mc:
                k = int(counts[gi, di])
                row["pd_mc"] = k / args.trials
                row["ci_low"], row["ci_high"] = mc.wilson_interval(k, args.trials)
            rows.append(row)
    return rows, False


def run_cfar_check(args):
    cfg = _scenario_from_args(args)
    detectors = _detectors(args)
    covariances = [sc.CovarianceModel.parse(c) for c in _str_list(args.covariances)]
    if not covariances:
        raise ValueError("--covariances needs at least one covariance model")
    plan = mc.TrialPlan(n_trials=args.trials, master_seed=args.seed, scenario=cfg,
                        covariance=covariances[0], detectors=detectors,
                        batch_size=args.batch_size)
    # one pass: every covariance reads the same trial streams (common random
    # numbers), so a CFAR detector's rates co-move and the comparison is sharp
    stats = mc.sweep_trials(plan, covariances)
    n = args.trials
    rows = []
    failed = []
    for det in detectors:
        # calibrated on the first covariance; a detector passes when every
        # covariance's rate lies in the Wilson 99% interval of the first's
        threshold = mc.calibrate_threshold(plan, det, stats[0][det])
        counts = [int(np.count_nonzero(s[det] > threshold)) for s in stats]
        intervals = [mc.wilson_interval(k, n) for k in counts]
        passed = all(intervals[0][0] <= k / n <= intervals[0][1] for k in counts[1:])
        for cov, k, (ci_low, ci_high) in zip(covariances, counts, intervals):
            rows.append({"detector": det, "covariance": cov.label(), "threshold": threshold,
                         "pfa_hat": k / n, "ci_low": ci_low, "ci_high": ci_high,
                         "n_trials": n, "seed": args.seed,
                         "status": "pass" if passed else "fail"})
        if not passed and registry.DETECTORS[det].cfar:
            failed.append(det)
    return rows, failed


def run_validate_dist(args):
    # imported here, the one command that needs scipy.stats (for its KS test),
    # which would double every command's start-up; the benchmark commands load
    # no scipy module (analytic smf at nonzero SNR and wide Beta laws load
    # scipy.special only), nor the law classes
    from scipy import stats as sstats

    from .distributions.laws import ComplexBeta, ComplexChi2, ComplexF

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
    cov = sc.CovarianceModel.ar1(0.9)
    H, _ = sc.default_geometry(N, cfg.p)
    s0 = sc.signal_builder(H, cov.build(N))(rho, 1.0, np.random.default_rng(args.seed))
    plan = mc.TrialPlan(n_trials=n, master_seed=args.seed, scenario=cfg,
                        covariance=cov, detectors=("aed",), batch_size=args.batch_size)
    suites.append(("aed-law", f"N={N},L={L},rho={rho:g}", mc.run_trials(plan, s0[:, None])["aed"],
                   ComplexF(N, L - N + 1, rho).cdf))
    rows = []
    for name, params, samples, cdf in suites:
        stat, pvalue = sstats.kstest(samples, cdf)
        rows.append({"suite": name, "params": params, "n_samples": n,
                     "ks_stat": stat, "p_value": pvalue,
                     "status": "pass" if pvalue > 0.01 else "fail"})
    return rows, any(row["p_value"] <= 0.01 for row in rows)


def identity_instances(rng, B: int, N: int, p: int):
    """``B`` random instances of size class (N, p) drawn from ``rng``: H (B, N, p)
    and J (B, N, q) complex normal, the Bartlett factor T (B, N, N) of a white
    sample covariance of 2N snapshots (``T T^H ~ CW(2N, I)``) and test vectors x
    (B, N, 1), in the trial engine's layout (:func:`scenario.assemble_noise`)."""
    q = 1 if p + 1 < N else 0
    H, J = (sc.complex_normal(rng, (B, N, k)) for k in (p, q))
    draws = (rng.standard_normal((B, N * (N - 1))),
             rng.standard_gamma(2 * N - np.arange(N, dtype=float), size=(B, N)),
             rng.standard_normal((B, 2 * N)))
    T, x = sc.assemble_noise(*draws, N, 1)
    return T, H, J, x


def identity_suite(n_instances: int, seed: int):
    """Max relative error of each exact statistic identity over random draws:
    each size class's instances (:func:`identity_instances`) in chunks of
    ``IDENTITY_CHUNK``, whitened by the inverse of their drawn Cholesky factor."""
    rng = np.random.default_rng(seed)
    errs = dict.fromkeys((name for name, _, _ in IDENTITIES), 0.0)
    for c, (N, p) in enumerate(IDENTITY_SIZES):
        count = len(range(c, n_instances, len(IDENTITY_SIZES)))
        for start in range(0, count, IDENTITY_CHUNK):
            T, H, J, x = identity_instances(rng, min(IDENTITY_CHUNK, count - start), N, p)
            f = batcheval.evaluate(batcheval.prepare(
                linalg.lower_inverse(T), H, J, want=IDENTITY_STATS), x)
            for name, lhs, rhs in IDENTITIES:
                a, b = f[lhs], rhs(f)
                rel = np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-300)
                errs[name] = max(errs[name], float(rel.max(initial=0.0)))
    return errs


def run_identities(args):
    n = max(args.trials, 1000)
    rows = [{"identity": name, "max_rel_err": err, "n_instances": n,
             "status": "pass" if err <= 1e-10 else "fail"}
            for name, err in identity_suite(n, args.seed).items()]
    return rows, any(row["status"] == "fail" for row in rows)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, sub_map = build_parser(argv[0] if argv else None)
    args = parser.parse_args(argv)
    if args.config:
        try:
            tokens = config_tokens(args.config)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        # the file's flags go first, so that the command line's override them
        args, unknown = sub_map[args.command].parse_known_args(
            tokens + argv[argv.index(args.command) + 1:], args)
        if unknown:
            keys = sorted(token[2:].split("=", 1)[0] for token in unknown)
            print(f"error: unknown config keys: {keys}", file=sys.stderr)
            return 2
    _, _, _, run, columns = COMMANDS[args.command]
    try:
        # the validation commands exit 1 when a validated property fails
        rows, failed = globals()[run](args)
        emit_csv(rows, args.out, columns)
        return 1 if failed else 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
