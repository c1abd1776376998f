"""The benchmark's tracer contract: every function ``perfbench/tracer.py``
wraps exists where it looks, and a traced run of each benchmark workload ends
normally, records the span of its CLI entry point and yields every per-layer
metric ``BENCHMARK.json`` declares.  The reference generator
``perfbench/make_reference.py`` imports, and the ``pd_point`` it calls takes
the generator's call form.

``perfbench/`` is only read: its modules are imported without writing
bytecode next to them.
"""

import importlib
import json
import sys
from pathlib import Path

import pytest

from adaptivedet import cli
from adaptivedet.distributions import threshold_for_pfa

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
_write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
try:
    import make_reference
    import tracer
    import workloads
finally:
    sys.dont_write_bytecode = _write_bytecode

# the metrics of one traced process; the overhead needs an untraced twin
PER_LAYER = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
             } - {"trace.overhead_frac"}
# the wrapped CLI function each workload runs through; the tracer sees it only
# when the CLI looks it up in its module at call time
ENTRY_SPAN = {"mc_point_grid": "cli.run_grid", "analytic_mesa": "cli.run_grid",
              "mc_dist_cfar": "cli.run_cfar_check",
              "per_instance_identities": "cli.identity_suite"}


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
    assert ENTRY_SPAN[name] in {span.name for span in traced.spans}
    assert PER_LAYER <= set(traced.metrics())


def test_reference_generator_call_form():
    argv = workloads.WORKLOADS["analytic_mesa"].command
    N, p, L = (int(argv[argv.index(flag) + 1]) for flag in ("--N", "--p", "--L"))
    for det in ("samf", "sabort"):
        eta = threshold_for_pfa(det, N, p, L, 1e-3)
        # make_reference.analytic_mesa: pd_point(det, N, p, L, rho, cos2, eta, tol=...)
        pd = make_reference.pd_point(det, N, p, L, 10.0, 0.5, eta, tol=make_reference.TIGHT_TOL)
        assert 0.0 < pd < 1.0
