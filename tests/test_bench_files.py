"""Every committed ``BENCH_*.json`` at the repository root has the schema
``scripts/write_bench.py`` writes: for each workload of ``BENCHMARK.json``,
each end-to-end metric's base and change medians over at least three seeds,
run at the benchmark's ``run_seconds``,
with the per-seed values they are the medians of; the environment block of
``perfbench/run.py``; and the ``src/`` hash and line count of both sides.
From schema 2 on, each side also has one timed tier-1 run and one timed
criterion-7 run, with their passed and failed counts.  From schema 3 on, each
test entry also lists its runs' seconds (criterion 7: three a side), and its
``seconds`` is their median."""

import json
import math
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
FILES = sorted(ROOT.glob("BENCH_*.json"))
ENVIRONMENT = {"nproc", "python", "numpy", "scipy", "blas_name", "blas_version",
               "blas_threads", "blas_env"}


def test_a_bench_file_is_committed():
    assert FILES


@pytest.mark.parametrize("path", FILES, ids=[path.name for path in FILES])
def test_schema(path):
    bench = json.loads(path.read_text(encoding="utf-8"))
    assert bench["schema"] in (1, 2, 3)
    assert bench["command"] == ("perfbench/run.py --workload all --trace 0 "
                                f"--seconds {SPEC['run_seconds']:g}")
    seeds = bench["seeds"]
    assert len(seeds) >= 3 and len(set(seeds)) == len(seeds)
    assert set(bench["environment"]) == ENVIRONMENT
    assert bench["environment"]["nproc"] >= 1
    base, change = bench["source"]["base"], bench["source"]["change"]
    assert len(base["commit"]) == 40 and set(change) == {"src_sha256", "src_lines"}
    for side in (base, change):
        assert len(side["src_sha256"]) == 64 and side["src_lines"] > 0
    assert set(bench["correct"]) == {"base", "change"}
    if bench["schema"] >= 2:
        assert set(bench["tests"]) == {"base", "change"}
        for side in bench["tests"].values():
            assert set(side) == {"tier1", "criterion_07"}
            for name, run in side.items():
                keys = {"seconds", "passed", "failed"}
                assert set(run) == (keys | {"runs"} if bench["schema"] >= 3 else keys)
                assert run["seconds"] > 0 and run["passed"] >= 1 and run["failed"] >= 0
                if bench["schema"] >= 3:
                    assert len(run["runs"]) == (3 if name == "criterion_07" else 1)
                    assert run["seconds"] == statistics.median(run["runs"]), name
        assert bench["tests"]["change"]["criterion_07"]["passed"] == 1
    assert set(bench["workloads"]) == {w["name"] for w in SPEC["workloads"]}
    for name, rows in bench["workloads"].items():
        assert set(rows) == {m["name"] for m in SPEC["end_to_end"]}, name
        for metric in SPEC["end_to_end"]:
            row = rows[metric["name"]]
            assert (row["unit"], row["better"]) == (metric["unit"], metric["better"])
            for side in ("base", "change"):
                values = row[f"{side}_runs"]
                assert len(values) == len(seeds), (name, metric["name"], side)
                assert all(math.isfinite(v) and v >= 0 for v in values)
                assert row[side] == statistics.median(values), (name, metric["name"], side)
