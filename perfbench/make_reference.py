"""Regenerate the committed reference values under ``reference/``.

Usage (from the repository root): ``python3 perfbench/make_reference.py``

* ``mc_point_grid.json``: the analytic PD and threshold of every (detector,
  SNR) row of the ``mc_point_grid`` workload, from the same CLI call in
  ``--mode analytic``.
* ``analytic_mesa.json``: every PD cell of ``analytic_mesa`` at the CLI's
  threshold, re-evaluated at a tight quadrature tolerance, with its slope
  dPD/deta so that a check can follow a threshold that moves inside its
  solver tolerance.

Run it only when a workload's inputs change; a change to the program must
pass against the committed values.
"""

import csv
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from adaptivedet import cli  # noqa: E402
from adaptivedet.distributions import pd_point  # noqa: E402

from workloads import REFERENCE_DIR, WORKLOADS  # noqa: E402

TIGHT_TOL = 1e-10
SLOPE_STEP = 1e-4  # relative threshold step of the central difference


def cli_rows(argv):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out.csv"
        if cli.main(argv + ["--out", str(out)]) != 0:
            raise SystemExit(f"reference run failed: {argv}")
        with open(out, encoding="utf-8") as fh:
            return list(csv.DictReader(fh))


def option(argv, flag):
    return argv[argv.index(flag) + 1]


def mc_point_grid():
    argv = list(WORKLOADS["mc_point_grid"].command)
    argv[argv.index("montecarlo")] = "analytic"
    rows = cli_rows(argv)
    return {"argv": argv, "rows": [
        {"detector": r["detector"], "snr_db": float(r["snr_db"]),
         "threshold": float(r["threshold"]), "pd": float(r["pd_analytic"])}
        for r in rows]}


def analytic_mesa():
    argv = list(WORKLOADS["analytic_mesa"].command)
    N, p, L = (int(option(argv, f)) for f in ("--N", "--p", "--L"))
    out = []
    for r in cli_rows(argv):
        det, eta = r["detector"], float(r["threshold"])
        rho, cos2 = 10.0 ** (float(r["snr_db"]) / 10.0), float(r["cos2phi"])

        def pd(e):
            return pd_point(det, N, p, L, rho, cos2, e, tol=TIGHT_TOL)

        h = SLOPE_STEP * eta
        out.append({"detector": det, "snr_db": float(r["snr_db"]), "cos2phi": cos2,
                    "threshold": eta, "pd": pd(eta),
                    "dpd_deta": (pd(eta + h) - pd(eta - h)) / (2 * h)})
    return {"argv": argv, "quad_tol": TIGHT_TOL, "rows": out}


def main():
    REFERENCE_DIR.mkdir(exist_ok=True)
    for name, build in (("mc_point_grid", mc_point_grid), ("analytic_mesa", analytic_mesa)):
        with open(REFERENCE_DIR / f"{name}.json", "w", encoding="utf-8") as fh:
            json.dump(build(), fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()
