"""Write ``digests.json``: the sha256 of the CSV of each fixed argv at seed 7,
with its exit code, and the numerical environment that produced them.

``tests/test_digests.py`` reruns every argv and compares, so "byte-identical"
is a test, not a claim.  A change that moves output bits on purpose reruns
this script from the repository root,

    PYTHONPATH=src python3 tests/golden/write_digests.py

and names each moved argv, and why it moved, in CHANGES.md.  With
``--check`` it writes nothing: it reruns every argv, prints each one whose
exit code or digest differs from the ledger as ``name: old -> new``, and
exits 1 if any does, 0 if none does.
"""

import argparse
import ctypes
import glob
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy

from adaptivedet import cli, registry

ROOT = Path(__file__).resolve().parents[2]
LEDGER = Path(__file__).with_name("digests.json")
SEED = 7

sys.path.insert(0, str(ROOT / "perfbench"))
_write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
try:
    import workloads
finally:
    sys.dont_write_bytecode = _write_bytecode


def _argvs():
    """Name -> CLI argv without ``--seed``/``--out``: the benchmark's four
    workloads, a cfar-check of every distributed detector, each of these two
    Monte Carlo runs also at another batch size, a point mismatch grid run
    both ways, a Monte Carlo mesa of more grid points than one stacked
    evaluation takes, an analytic mesa of the interference laws on the
    default 861-cell grid, a cfar-check and a Monte Carlo SNR grid of plans
    that mix both families at K = 1, a jammed and a distributed (K = 4)
    SNR grid run both ways, an analytic ``asd`` SNR grid at p = N - 1 and an
    analytic mesa at 40-80 dB, where the loss factor's density is narrow,
    validate-dist at small n, and identities at more instances than one
    evaluation of a size class takes."""
    argvs = {name: list(w.command) for name, w in sorted(workloads.WORKLOADS.items())}
    argvs["mc_point_grid_batch64"] = argvs["mc_point_grid"] + ["--batch-size", "64"]
    argvs["cfar_check_distributed"] = [
        "cfar-check", "--N", "8", "--p", "2", "--K", "4", "--L", "16",
        "--detectors", ",".join(registry.names(family="distributed")),
        "--covariances", "identity,ar1:0.9,ar1w:0.99:30", "--pfa", "1e-2",
        "--trials", "3000"]
    argvs["cfar_check_distributed_batch577"] = argvs["cfar_check_distributed"] + [
        "--batch-size", "577"]
    argvs["pd_vs_mismatch_both"] = [
        "pd-vs-mismatch", "--mode", "both", "--N", "8", "--p", "2", "--q", "2",
        "--L", "16", "--pfa", "1e-2", "--snr", "12", "--cos2phi", "0,0.25,0.5,0.75,1",
        "--detectors", "sglrt,samf,kglrt,amf,ace,smf,mf,glrt_he_i,ts_glrt_he_i,"
                       "glrt_phe_i,rao_he_i,wald_he_i", "--trials", "1000"]
    argvs["mesa_montecarlo"] = [
        "mesa", "--mode", "montecarlo", "--N", "6", "--p", "2", "--L", "12",
        "--covariance", "ar1w:0.9:20", "--snr", "0,4,8,12,16,20,24",
        "--cos2phi", "0,0.2,0.4,0.6,0.8,1", "--detectors", "sglrt,kglrt,smf,mf",
        "--trials", "1000"]
    argvs["mesa_interference"] = [
        "mesa", "--mode", "analytic", "--N", "12", "--p", "2", "--q", "2", "--L", "24",
        "--detectors", "glrt_he_i,ts_glrt_he_i,glrt_phe_i"]
    mixed = ["--N", "6", "--p", "2", "--q", "1", "--K", "1", "--L", "12"]
    argvs["cfar_check_mixed"] = [
        "cfar-check", *mixed, "--detectors",
        "sglrt,kglrt,glrt_he_i,wald_phe_i,smf,mf,gkglrt,gamf,rao_he,glrt_phe,glrdd,rao_dos",
        "--trials", "3000"]
    argvs["pd_vs_snr_mixed"] = [
        "pd-vs-snr", "--mode", "montecarlo", *mixed, "--snr", "0,6,12,18", "--detectors",
        "sglrt,kglrt,gkglrt,gamf,smf,mf,glrdd,glrt_he_i,rao_dos", "--trials", "1000"]
    argvs["pd_vs_snr_jammer"] = [
        "pd-vs-snr", "--mode", "both", "--N", "8", "--p", "2", "--q", "2", "--L", "16",
        "--pfa", "1e-2", "--snr", "0,6,12", "--jnr-db", "10",
        "--detectors", "glrt_he_i,ts_glrt_he_i,sglrt,kglrt", "--trials", "1000"]
    argvs["pd_vs_snr_distributed"] = [
        "pd-vs-snr", "--mode", "both", "--N", "8", "--p", "2", "--K", "4", "--L", "16",
        "--pfa", "1e-2", "--snr", "0,6,12", "--cos2phi", "0.8",
        "--detectors", "gkglrt,gamf,glrdd", "--trials", "1000"]
    argvs["pd_vs_snr_asd_edge"] = [
        "pd-vs-snr", "--mode", "analytic", "--N", "4", "--p", "3", "--L", "8",
        "--detectors", "asd"]
    argvs["mesa_high_snr"] = [
        "mesa", "--mode", "analytic", "--N", "4", "--p", "1", "--L", "5",
        "--detectors", "samf,sglrt", "--snr", "40,60,80", "--cos2phi", "0,0.3,0.9"]
    argvs["validate_dist"] = ["validate-dist", "--trials", "500"]
    argvs["identities_chunked"] = ["identities", "--trials", "5000"]
    return argvs


ARGVS = _argvs()


def _blas_core():
    """The kernel set a DYNAMIC_ARCH OpenBLAS picked for this CPU, which
    decides its rounding; 'unknown' for any other BLAS."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                       "openblas_get_corename64_", "openblas_get_corename"):
            if hasattr(lib, symbol):
                corename = getattr(lib, symbol)
                corename.argtypes, corename.restype = [], ctypes.c_char_p
                return corename().decode()
    return "unknown"


def environment() -> dict:
    """The numpy, scipy and BLAS versions and the BLAS kernel set."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas['name']} {blas['version']}", "blas_core": _blas_core()}


def run(argv) -> dict:
    """Exit code and CSV sha256 of ``argv`` at ``SEED``, run in process; an
    argv that writes no CSV (an error exit) has the sha256 of no bytes."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp, "out.csv")
        code = cli.main(list(argv) + ["--seed", str(SEED), "--out", str(out)])
        data = out.read_bytes() if out.exists() else b""
        return {"exit": code, "sha256": hashlib.sha256(data).hexdigest()}


def _brief(entry) -> str:
    return "absent" if entry is None else f"exit {entry['exit']} sha256 {entry['sha256'][:12]}"


def moved() -> list:
    """``(name, old, new)`` of each argv, of the ledger or of ``ARGVS``, whose
    exit code and digest on a rerun differ from the ledger's (None: absent)."""
    ledger = json.loads(LEDGER.read_text(encoding="utf-8"))["argvs"]
    out = []
    for name in sorted(set(ledger) | set(ARGVS)):
        old = {key: ledger[name][key] for key in ("exit", "sha256")} if name in ledger else None
        new = run(ARGVS[name]) if name in ARGVS else None
        if old != new:
            out.append((name, old, new))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="print the argvs whose output moved and exit 1 if any did; "
                             "write nothing")
    if parser.parse_args(argv).check:
        changes = moved()
        for name, old, new in changes:
            print(f"{name}: {_brief(old)} -> {_brief(new)}")
        return 1 if changes else 0
    ledger = {"environment": environment(), "seed": SEED,
              "argvs": {name: {"argv": argv, **run(argv)} for name, argv in ARGVS.items()}}
    LEDGER.write_text(json.dumps(ledger, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
