"""The benchmark's four CLI workloads and the output checks behind ``failed``.

Each workload is one ``adaptivedet`` CLI invocation built from the seed. Its
checks compare the CSV against oracles that a correct change keeps (analytic
PD, committed reference values, the distribution-free law of CFAR false-alarm
counts, exact identities), never against golden bytes. A check exists for every expected row whether or not
the row was produced, plus one for the exit code and one for unexpected rows,
so a crashed run fails all of them.
"""

import csv
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# adaptivedet.distributions.detection.QUAD_TOL: the absolute quadrature
# tolerance of every analytic PD. Two correct evaluations may differ by about
# twice it; ten times leaves room for a different quadrature or special
# function while a wrong law (errors of 1e-3 and up) still fails.
QUAD_TOL = 1e-6
ANALYTIC_PD_TOL = 10 * QUAD_TOL
# The threshold bisection stops at 1e-3 relative error in pfa, which moves the
# threshold by well under 1e-3 relative at pfa = 1e-3.
THRESHOLD_RTOL = 1e-3
# Monte Carlo PD against the analytic PD: an exact binomial test, failing a
# row when either tail probability of its count under the analytic PD is
# below the one-sided normal tail at z = 5. Its false-failure chance is below
# 6e-7 a row and 4e-5 a seed of 117 rows. A Wilson interval at z = 5 is far
# from that near PD = 1: it excludes PD = 0.999995 at 999 of 1000 detections,
# which happens 1 time in 200, and fails about 2 % of seeds.
MC_TAIL = 2.866515718791933e-07  # scipy.stats.norm.sf(5.0)
IDENTITY_TOL = 1e-10

COMMON = ["--N", "12", "--p", "2", "--L", "24", "--pfa", "1e-3"]
POINT_DETECTORS = ("sglrt", "samf", "srao", "asd", "sabort", "wsabort", "dnsamf",
                   "aed", "smf")
MESA_DETECTORS = ("samf", "sabort")
CFAR_DETECTORS = ("gkglrt", "gasd", "glrdd", "snrdd", "rao_dos")
CFAR_COVARIANCES = ("identity", "ar1:0.9", "ar1w:0.99:30")
CFAR_PFA = 1e-2
IDENTITIES = ("samf=sglrt/beta", "srao=beta*sglrt/(1+sglrt)", "sabort=beta+sglrt",
              "wsabort=(1+sglrt)*beta", "aed=(1-beta+sglrt)/beta",
              "asd=sglrt/(1-beta+sglrt)", "dnsamf=beta*asd",
              "ts_glrt_he_i=glrt_he_i/beta_i")

MC_POINT_TRIALS = 1000
MC_POINT_SNRS = tuple(range(0, 25, 2))
MESA_SNRS = tuple(range(0, 41, 8))
MESA_COS2 = tuple(i / 10 for i in range(11))
CFAR_TRIALS = 1000
IDENTITY_INSTANCES = 2000


@dataclass
class Checks:
    """Output checks: how many were attempted, how many failed, and why."""

    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)

    def expect(self, ok, note):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 5:
                self.notes.append(note)

    def add(self, other):
        self.attempted += other.attempted
        self.failed += other.failed
        self.notes.extend(other.notes[:5 - len(self.notes)])


def _csv_list(values):
    return ",".join(f"{v:g}" for v in values)


def _key(*parts):
    """Row key: numbers (given as floats or CSV text) rounded, names kept."""
    key = []
    for part in parts:
        try:
            key.append(round(float(part), 6))
        except ValueError:
            key.append(part)
    return tuple(key)


def _rows_by(text, *columns):
    rows = {}
    for row in csv.DictReader(io.StringIO(text)):
        rows[_key(*(row[c] for c in columns))] = row
    return rows


def load_reference(name):
    with open(REFERENCE_DIR / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


def binomial_consistent(k, n, p):
    """Whether ``k`` successes in ``n`` trials are plausible at success rate ``p``:
    neither P(X <= k) nor P(X >= k) is below ``MC_TAIL``."""
    from scipy.stats import binom

    return (binom.cdf(k, n, p) >= MC_TAIL) & (binom.sf(k - 1, n, p) >= MC_TAIL)


def _finish(checks, rows, expected, rc, want_rc=0):
    checks.expect(rc == want_rc, f"exit code {rc}, expected {want_rc}")
    extra = set(rows) - set(expected)
    checks.expect(not extra, f"unexpected rows {sorted(extra)[:3]}")
    return checks


def check_mc_point_grid(text, rc, reference):
    """``pd_mc`` of every (detector, SNR) row against the analytic PD."""
    checks = Checks()
    rows = _rows_by(text, "detector", "snr_db")
    expected = []
    for ref in reference["rows"]:
        key = _key(ref["detector"], ref["snr_db"])
        expected.append(key)
        row = rows.get(key)
        if row is None:
            checks.expect(False, f"missing row {key}")
            continue
        n = int(row["n_trials"])
        k = round(float(row["pd_mc"]) * n)
        checks.expect(n == MC_POINT_TRIALS and binomial_consistent(k, n, ref["pd"]),
                      f"{key}: pd_mc {row['pd_mc']} (n={n}) vs analytic {ref['pd']:.6g}")
    return _finish(checks, rows, expected, rc)


def check_analytic_mesa(text, rc, reference):
    """Every PD cell against committed reference values.

    A threshold solver may land anywhere inside its pfa tolerance, so the
    reference PD is moved to the run's threshold along the committed slope
    dPD/deta before it is compared at ``ANALYTIC_PD_TOL``.
    """
    checks = Checks()
    rows = _rows_by(text, "detector", "snr_db", "cos2phi")
    expected = []
    for ref in reference["rows"]:
        key = _key(ref["detector"], ref["snr_db"], ref["cos2phi"])
        expected.append(key)
        row = rows.get(key)
        if row is None:
            checks.expect(False, f"missing row {key}")
            continue
        eta = float(row["threshold"])
        want = ref["pd"] + ref["dpd_deta"] * (eta - ref["threshold"])
        ok_eta = abs(eta / ref["threshold"] - 1.0) <= THRESHOLD_RTOL
        ok_pd = row["pd_analytic"] != "" and abs(float(row["pd_analytic"]) - want) <= ANALYTIC_PD_TOL
        checks.expect(ok_eta and ok_pd,
                      f"{key}: pd {row['pd_analytic']} at eta {eta} vs {want:.10g}")
    return _finish(checks, rows, expected, rc)


def check_mc_dist_cfar(text, rc, reference=None):
    """Each row's false-alarm count is plausible for a CFAR detector, and each
    detector's status is the one its rows imply; ``pfa_hat`` is not locked.

    cfar-check passes a detector when every covariance's rate lies inside the
    Wilson 99% interval of the first covariance's rate. A CFAR detector fails
    that by chance on some seeds (2 of 550 tried), so requiring ``pass`` would
    fail a correct program. The threshold is the m-th largest of n H0
    statistics, so the count of n other H0 trials above it follows
    BetaBinomial(n, m, n - m + 1) whatever the statistic's law; common random
    numbers only narrow it. A row fails when either tail of its count under
    that law is below ``MC_TAIL``. The exit code must be 0 exactly when every
    status is ``pass``.
    """
    from scipy.stats import betabinom

    m = math.ceil(CFAR_TRIALS * CFAR_PFA)
    null = betabinom(CFAR_TRIALS, m, CFAR_TRIALS - m + 1)
    checks = Checks()
    rows = _rows_by(text, "detector", "covariance")
    expected = []
    all_pass = True
    for det in CFAR_DETECTORS:
        keys = [_key(det, cov) for cov in CFAR_COVARIANCES]
        expected.extend(keys)
        first = rows.get(keys[0])
        passed = first is not None and all(
            key in rows and float(first["ci_low"]) <= float(rows[key]["pfa_hat"])
            <= float(first["ci_high"]) for key in keys)
        all_pass = all_pass and passed
        for key in keys:
            row = rows.get(key)
            if row is None:
                checks.expect(False, f"missing row {key}")
                continue
            pfa_hat = float(row["pfa_hat"])
            k = round(pfa_hat * CFAR_TRIALS)
            ok = (int(row["n_trials"]) == CFAR_TRIALS
                  and float(row["ci_low"]) <= pfa_hat <= float(row["ci_high"])
                  and null.cdf(k) >= MC_TAIL and null.sf(k - 1) >= MC_TAIL
                  and row["status"] == ("pass" if passed else "fail"))
            checks.expect(ok, f"{key}: pfa_hat {row['pfa_hat']} "
                              f"[{row['ci_low']}, {row['ci_high']}] {row['status']}")
    return _finish(checks, rows, expected, rc, 0 if all_pass else 1)


def check_identities(text, rc, reference=None):
    """Every exact identity holds to 1e-10 over all instances."""
    checks = Checks()
    rows = _rows_by(text, "identity")
    expected = []
    for name in IDENTITIES:
        key = _key(name)
        expected.append(key)
        row = rows.get(key)
        if row is None:
            checks.expect(False, f"missing row {key}")
            continue
        ok = (row["status"] == "pass" and float(row["max_rel_err"]) <= IDENTITY_TOL
              and int(row["n_instances"]) == IDENTITY_INSTANCES)
        checks.expect(ok, f"{key}: {row['max_rel_err']} {row['status']}")
    return _finish(checks, rows, expected, rc)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    unit: str
    command: tuple          # CLI argv without --seed/--out
    work: int               # work units behind one run's output
    checker: object         # (csv_text, exit_code, reference) -> Checks
    reference: str = None   # reference file under reference/, if any

    def argv(self, seed, out):
        return list(self.command) + ["--seed", str(seed), "--out", str(out)]

    def check(self, text, rc):
        ref = load_reference(self.reference) if self.reference else None
        return self.checker(text, rc, ref)

    @property
    def n_checks(self):
        """Checks per run: the same whatever the output, so count them on none."""
        return self.check("", 1).attempted

    def crashed(self):
        """The checks of a run that produced no usable output: all failed."""
        return Checks(attempted=self.n_checks, failed=self.n_checks,
                      notes=["workload crashed"])


WORKLOADS = {w.name: w for w in (
    Workload(
        name="mc_point_grid",
        why="Point-family Monte Carlo over a 13-point SNR grid that redraws the "
            "same noise per point: RNG, SCM, whitening and family statistics.",
        unit="trial statistics",
        command=("pd-vs-snr", "--mode", "montecarlo", *COMMON, "--q", "3",
                 "--covariance", "ar1:0.9", "--detectors", ",".join(POINT_DETECTORS),
                 "--snr", _csv_list(MC_POINT_SNRS), "--trials", str(MC_POINT_TRIALS)),
        work=len(POINT_DETECTORS) * len(MC_POINT_SNRS) * MC_POINT_TRIALS,
        checker=check_mc_point_grid,
        reference="mc_point_grid",
    ),
    Workload(
        name="analytic_mesa",
        why="Analytic engine only: noncentral F/Beta evaluation and loss-factor "
            "quadrature over an (SNR, cos2phi) grid whose high-SNR cells dominate.",
        unit="PD cells",
        command=("mesa", "--mode", "analytic", *COMMON,
                 "--detectors", ",".join(MESA_DETECTORS), "--snr", _csv_list(MESA_SNRS),
                 "--cos2phi", _csv_list(MESA_COS2)),
        work=len(MESA_DETECTORS) * len(MESA_SNRS) * len(MESA_COS2),
        checker=check_analytic_mesa,
        reference="analytic_mesa",
    ),
    Workload(
        name="mc_dist_cfar",
        why="The same Monte Carlo engine under H0 only: distributed family, three "
            "covariances, order-statistic calibration and the sigma root solver.",
        unit="trial statistics",
        command=("cfar-check", "--N", "8", "--p", "2", "--K", "4", "--L", "16",
                 "--detectors", ",".join(CFAR_DETECTORS),
                 "--covariances", ",".join(CFAR_COVARIANCES),
                 "--pfa", f"{CFAR_PFA:g}", "--trials", str(CFAR_TRIALS)),
        work=len(CFAR_DETECTORS) * len(CFAR_COVARIANCES) * CFAR_TRIALS,
        checker=check_mc_dist_cfar,
    ),
    Workload(
        name="per_instance_identities",
        why="Per-instance detector banks and linalg at B=1, which no other "
            "workload reaches.",
        unit="instances",
        command=("identities", "--trials", str(IDENTITY_INSTANCES)),
        work=IDENTITY_INSTANCES,
        checker=check_identities,
    ),
)}
