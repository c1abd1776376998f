"""adaptivedet benchmark: four CLI workloads measured from outside the program.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

One run repeats the workload's CLI invocation, one fresh process at a time,
for about ``--seconds`` seconds (at least three times) and reports medians:

* ``--trace 0``: the end-to-end metrics of BENCHMARK.json (wall time of
  ``cli.main``, work per second, interpreter set-up time, peak RSS, share of
  output checks passed);
* ``--trace 1``: untraced and traced processes alternate; the per-layer
  metrics come from the traced ones, ``trace.overhead_frac`` from the ratio
  of their wall times.

The speed of a shared machine drifts by tens of percent within minutes, so
each process also times a fixed reference computation (``child.probe``)
around ``cli.main``. ``wall_s`` and ``setup_s`` are reported at reference
speed: the measured time times ``PROBE_REF_S / probe_s`` of the same process.
The raw medians are in the run record.

Every process's CSV is checked against the workload's oracles, repeats must
be byte-identical, and traced output must equal untraced output. The last
stdout line is ``{"correct", "attempted", "failed", "metrics"}``; the line
before it is the run record (machine, versions, source size, seed).
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import COUNT_METRICS
from workloads import WORKLOADS, Checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
MIN_ROUNDS = 3
# Probe time on the 2-vCPU VM (Python 3.11, numpy 2.4, OpenBLAS, one thread)
# where the benchmark was defined; it only fixes the scale of wall_s/setup_s.
PROBE_REF_S = 0.3
# A run must end within 180 s: no process, and no further round, past this.
LIMIT_S = 150
# One BLAS thread: a single closed-loop client on small matrices, and steadier
# timings on a shared machine.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def child_env():
    env = dict(os.environ)
    env.update(BLAS_ENV)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(workload, seed, trace, index):
    """One fresh process running the workload once: its record and checks."""
    out = OUT / f"{workload.name}-{index}.csv"
    spans = OUT / f"{workload.name}-{index}-spans.tsv"
    for path in (out, spans):
        path.unlink(missing_ok=True)
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "child.py"), repr(t0), "1" if trace else "0",
           str(spans), "--", *workload.argv(seed, out)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=LIMIT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"{workload.name}: run {index} timed out\n")
        return None, "", workload.crashed()
    try:
        record = json.loads(proc.stdout.strip().splitlines()[-1])
        text = out.read_text(encoding="utf-8")
    except (IndexError, json.JSONDecodeError, FileNotFoundError):
        sys.stderr.write(f"{workload.name}: run {index} crashed or wrote no CSV\n")
        sys.stderr.write(proc.stderr[-2000:])
        return None, "", workload.crashed()
    checks = workload.check(text, record["rc"])
    for note in checks.notes:
        sys.stderr.write(f"{workload.name}: check failed: {note}\n")
    return record, text, checks


def measure(workload, seed, seconds, trace):
    """Repeat the workload until the time is used; aggregate metrics and checks."""
    OUT.mkdir(exist_ok=True)
    kinds = (False, True) if trace else (False,)
    runs = {False: [], True: []}
    checks = Checks()
    start = time.monotonic()
    rounds = 0
    while True:
        for traced in kinds:
            record, text, c = run_child(workload, seed, traced, len(runs[False]) + len(runs[True]))
            checks.add(c)
            runs[traced].append((record, text))
        rounds += 1
        projected = (time.monotonic() - start) * (rounds + 1) / rounds
        crashed = any(r is None for r, _ in runs[False] + runs[True])
        if (crashed or projected > LIMIT_S
                or (rounds >= MIN_ROUNDS and projected > seconds)):
            break
    # repeats and traced runs must reproduce the first run's CSV byte for byte
    first_text = runs[False][0][1]
    for record, text in runs[False][1:] + runs[True]:
        checks.expect(record is not None and text == first_text,
                      "CSV differs from the first run")
    plain = [r for r, _ in runs[False] if r is not None]
    traced = [r for r, _ in runs[True] if r is not None]
    if not plain or (trace and not traced):
        return None, checks, runs
    if not trace:
        wall = statistics.median(at_reference_speed(r, "wall_s") for r in plain)
        metrics = {
            "wall_s": wall,
            "work_per_s": workload.work / wall,
            "setup_s": statistics.median(at_reference_speed(r, "setup_s") for r in plain),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
            "pass_frac": 1.0 - checks.failed / checks.attempted,
        }
        return metrics, checks, runs
    metrics = {}
    for name in traced[0]["layers"]:
        values = [r["layers"][name] for r in traced]
        metrics[name] = statistics.median(values)
    for r in traced[1:]:
        checks.expect(all(r["layers"][n] == traced[0]["layers"][n] for n in COUNT_METRICS),
                      "per-layer counts differ between traced runs")
    metrics["trace.overhead_frac"] = (
        statistics.median(at_reference_speed(r, "wall_s") for r in traced)
        / statistics.median(at_reference_speed(r, "wall_s") for r in plain) - 1.0)
    return metrics, checks, runs


def at_reference_speed(record, key):
    return record[key] * PROBE_REF_S / record["probe_s"]


def source_record():
    """Commit (when a git checkout), content hash and line count of ``src/``."""
    digest = hashlib.sha256()
    lines = 0
    for path in sorted(SRC.rglob("*.py")):
        data = path.read_bytes()
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {"commit": commit, "src_sha256": digest.hexdigest(), "src_lines": lines}


def run_record(workload, seed, seconds, trace, runs, checks):
    records = [r for r, _ in runs[False] + runs[True] if r is not None]
    record = {
        "workload": workload.name,
        "why": workload.why,
        "work_unit": workload.unit,
        "work_per_run": workload.work,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "processes": {"untraced": len(runs[False]), "traced": len(runs[True])},
        "raw_samples": {key: [r[key] for r, _ in runs[False] if r is not None]
                        for key in ("wall_s", "setup_s", "probe_s")},
        "raw_traced_wall_s": [r["wall_s"] for r, _ in runs[True] if r is not None],
        "checks": {"attempted": checks.attempted, "failed": checks.failed,
                   "fail_frac": checks.failed / checks.attempted},
        "nproc": len(os.sched_getaffinity(0)),
        **(records[0]["env"] if records else {}),
        "blas_env": BLAS_ENV,
        **source_record(),
    }
    traced = [r["layers"] for r in records if "layers" in r]
    if traced:
        record["pd_point_ms_tail"] = {"percentile": traced[0]["distributions.pd_point.tail_pct"],
                                      "of_calls": traced[0]["distributions.pd_point.calls"]}
    return record


def load_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def with_units(values, specs, prefix=""):
    return {prefix + s["name"]: {"value": values[s["name"]], "unit": s["unit"]}
            for s in specs}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "adaptivedet" / "cli.py").is_file():
        sys.exit(f"no adaptivedet sources under {SRC}: run from a full checkout")
    spec = load_spec()
    specs = spec["per_layer"] if args.trace else spec["end_to_end"]
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    metrics, checks, ok = {}, Checks(), True
    for name in names:
        workload = WORKLOADS[name]
        values, c, runs = measure(workload, args.seed, args.seconds, bool(args.trace))
        checks.add(c)
        record = run_record(workload, args.seed, args.seconds, bool(args.trace), runs, c)
        print(json.dumps({"run_record": record}))
        if values is None:
            ok = False
            continue
        prefix = f"{name}." if args.workload == "all" else ""
        named = with_units(values, specs, prefix)
        metrics.update(named)
        if args.workload == "all":
            for key, m in named.items():
                print(f"{key:64s} {m['value']:.6g} {m['unit']}")
            print(f"{name}: {c.attempted - c.failed}/{c.attempted} checks passed, "
                  f"fail_frac {c.failed / c.attempted:.6g}")
    print(json.dumps({"correct": ok and checks.failed == 0, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
