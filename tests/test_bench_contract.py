"""The benchmark's tracer contract: every function ``perfbench/tracer.py``
wraps exists where it looks, and a traced run of each benchmark workload ends
normally and yields every per-layer metric ``BENCHMARK.json`` declares.

``perfbench/`` is only read: its modules are imported without writing
bytecode next to them.
"""

import importlib
import json
import sys
from pathlib import Path

import pytest

from adaptivedet import cli

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
_write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
try:
    import tracer
    import workloads
finally:
    sys.dont_write_bytecode = _write_bytecode

# the metrics of one traced process; the overhead needs an untraced twin
PER_LAYER = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
             } - {"trace.overhead_frac"}


def test_every_wrapped_name_resolves():
    for module_name, attr, _, _ in tracer.WRAPS:
        target = getattr(importlib.import_module(module_name), attr, None)
        assert callable(target), f"{module_name}.{attr}"


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_workload_yields_every_metric(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    with tracer.Tracer() as traced:
        rc = cli.main(workload.argv(7, tmp_path / f"{name}.csv"))
    # a CFAR detector fails cfar-check by chance on some seeds (exit code 1)
    assert rc in ((0, 1) if name == "mc_dist_cfar" else (0,))
    assert PER_LAYER <= set(traced.metrics())
