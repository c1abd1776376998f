"""Write a ``BENCH_*.json``: the benchmark's end-to-end metrics for a base
revision and for the working tree, side by side.

Run from the repository root:

    python3 scripts/write_bench.py --base REV --out BENCH_NAME.json

For each of the ten ``SEEDS`` it runs ``perfbench/run.py --workload all
--trace 0 --seconds S``, S the ``run_seconds`` of ``BENCHMARK.json``, once on
a ``git archive`` export of ``REV`` and once on the working tree,
alternating, so that drift of the machine's speed hits both sides alike:
ten pairs of runs at the benchmark's own run length.  Each side's benchmark
is its own ``perfbench/`` against its own ``src/``.  The file holds, per
workload, the median over seeds of each end-to-end metric of
``BENCHMARK.json`` for both sides with the per-seed values, the environment
block of ``run.py``'s run record, and the ``src/`` hash and line count of
both sides.  Before the benchmark, each side also runs the tier-1 suite once
and ``test_criterion_07_cfar_sweep`` alone three times, alternating, timed
from outside pytest.  Each test entry holds the median of its runs' wall
seconds, the runs themselves, and the fewest passed and most failed tests
of any run's summary line.  ``tests/test_bench_files.py`` checks the schema
of every committed file.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCHEMA = 3
ENVIRONMENT = ("nproc", "python", "numpy", "scipy", "blas_name", "blas_version",
               "blas_threads", "blas_env")
SOURCE = ("src_sha256", "src_lines")
SEEDS = tuple(range(9701, 9711))
# the tier-1 suite, and its slowest test alone: (name, pytest arguments, runs per
# side); one run of criterion 7 has read 22-34 s on an unchanged tree
TESTS = (("tier1", ("--continue-on-collection-errors",), 1),
         ("criterion_07", ("tests/test_acceptance.py::test_criterion_07_cfar_sweep",), 3))


def time_tests(root: Path, args):
    """One ``pytest -q`` run in ``root`` on its own ``src/``: wall seconds and
    the passed and failed (or erroring) counts of its summary line."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, ("src", os.environ.get("PYTHONPATH")))))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", *args], cwd=root, env=env,
                          capture_output=True, text=True)
    seconds = time.perf_counter() - start
    counts = dict.fromkeys(("passed", "failed"), 0)
    for n, outcome in re.findall(r"(\d+) (passed|failed|error)", proc.stdout.splitlines()[-1]):
        counts["passed" if outcome == "passed" else "failed"] += int(n)
    return {"seconds": seconds, **counts}


def summarize(runs):
    """One test entry from its timed runs: the median seconds, the runs'
    seconds, and the fewest passed and most failed of any run."""
    return {"seconds": statistics.median(run["seconds"] for run in runs),
            "runs": [run["seconds"] for run in runs],
            "passed": min(run["passed"] for run in runs),
            "failed": max(run["failed"] for run in runs)}


def run_all(root: Path, seed: int, seconds: float):
    """One ``run.py --workload all --trace 0`` in ``root``: its run records by
    workload and its final line."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "all",
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=root, capture_output=True, text=True, check=True)
    records, final = {}, None
    for line in proc.stdout.splitlines():
        if not line.startswith("{"):
            continue
        entry = json.loads(line)
        if "run_record" in entry:
            records[entry["run_record"]["workload"]] = entry["run_record"]
        else:
            final = entry
    return records, final


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--out", required=True, help="path of the BENCH_*.json to write")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    base_commit = subprocess.run(["git", "rev-parse", args.base], cwd=ROOT, check=True,
                                 capture_output=True, text=True).stdout.strip()
    sides = {"base": {}, "change": {}}
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "archive", base_commit], cwd=ROOT, check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        roots = (("base", Path(tmp)), ("change", ROOT))
        runs = {side: {name: [] for name, _, _ in TESTS} for side, _ in roots}
        for name, pytest_args, repeats in TESTS:
            for _ in range(repeats):
                for side, root in roots:
                    runs[side][name].append(time_tests(root, pytest_args))
        tests = {side: {name: summarize(timed) for name, timed in by_name.items()}
                 for side, by_name in runs.items()}
        for seed in SEEDS:
            for side, root in roots:
                sides[side][seed] = run_all(root, seed, seconds)
    records = {side: runs[SEEDS[0]][0][workloads[0]] for side, runs in sides.items()}
    out = {
        "schema": SCHEMA,
        "command": f"perfbench/run.py --workload all --trace 0 --seconds {seconds:g}",
        "seeds": list(SEEDS),
        "environment": {key: records["change"][key] for key in ENVIRONMENT},
        "source": {"base": {"commit": base_commit,
                            **{key: records["base"][key] for key in SOURCE}},
                   "change": {key: records["change"][key] for key in SOURCE}},
        "correct": {side: all(runs[seed][1]["correct"] for seed in SEEDS)
                    for side, runs in sides.items()},
        "tests": tests,
        "workloads": {},
    }
    for name in workloads:
        rows = {}
        for metric in spec["end_to_end"]:
            row = {"unit": metric["unit"], "better": metric["better"]}
            for side, runs in sides.items():
                values = [runs[seed][1]["metrics"][f"{name}.{metric['name']}"]["value"]
                          for seed in SEEDS]
                row[side] = statistics.median(values)
                row[f"{side}_runs"] = values
            rows[metric["name"]] = row
        out["workloads"][name] = rows
    Path(args.out).write_text(json.dumps(out, indent=2) + "\n", encoding="utf-8")
    for name, rows in out["workloads"].items():
        print(name, " ".join(f"{m}={r['base']:.4g}->{r['change']:.4g}" for m, r in rows.items()))
    for name, _, _ in TESTS:
        base, change = tests["base"][name], tests["change"][name]
        print(name, " ".join(f"{key}={base[key]:.4g}->{change[key]:.4g}"
                             for key in ("seconds", "passed", "failed")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
