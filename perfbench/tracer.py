"""Outside-in tracer: wraps adaptivedet's public functions where their callers
look them up, records one span per call, and turns the spans into per-layer
metrics.

Nothing under ``src/`` is edited. Each wrap replaces a module attribute, so it
catches every caller that resolves the name through that module at call time
(``mc.run_trials``, ``linalg.inv_sqrt``, intra-module global lookups); names
bound by ``from x import y`` at import time are wrapped at the importing
module (``cli.pd_point``, ``cli.threshold_for_pfa``). Leaving the tracer's
``with`` block puts every original function back.
"""

import functools
import importlib
import time

import numpy as np

# (module, attribute, span name, size): ``size(args)`` gives the work units of
# one call (trials in a batch, quadrature nodes); None counts one per call.
WRAPS = (
    ("adaptivedet.cli", "run_grid", "cli.run_grid", None),
    ("adaptivedet.cli", "run_cfar_check", "cli.run_cfar_check", None),
    ("adaptivedet.cli", "identity_suite", "cli.identity_suite", None),
    ("adaptivedet.cli", "analytic_threshold", "cli.analytic_threshold", None),
    ("adaptivedet.cli", "threshold_for_pfa", "distributions.threshold_for_pfa", None),
    ("adaptivedet.cli", "pd_point", "distributions.pd_point", None),
    ("adaptivedet.distributions.detection", "pd_point", "distributions.pd_point", None),
    ("adaptivedet.distributions.detection", "pfa_point", "distributions.pfa_point", None),
    ("adaptivedet.distributions.detection", "integrate_adaptive",
     "distributions.integrate_adaptive", None),
    ("adaptivedet.distributions.detection", "cf_sf_nodes", "distributions.cf_sf_nodes",
     lambda a: np.size(a[3])),
    ("adaptivedet.distributions.detection", "cbeta_pdf_grid",
     "distributions.cbeta_pdf_grid", lambda a: np.size(a[3])),
    ("adaptivedet.montecarlo", "run_trials", "montecarlo.run_trials",
     lambda a: a[0].n_trials),
    ("adaptivedet.montecarlo", "trial_rng", "montecarlo.trial_rng", None),
    ("adaptivedet.scenario", "assemble_noise", "scenario.assemble_noise",
     lambda a: np.shape(a[0])[0]),
    ("adaptivedet.batcheval", "point_family_stats", "batcheval.point_family_stats",
     lambda a: np.shape(a[0])[0]),
    ("adaptivedet.batcheval", "distributed_family_stats",
     "batcheval.distributed_family_stats", lambda a: np.shape(a[0])[0]),
    ("adaptivedet.batcheval", "solve_sigma_batch", "batcheval.solve_sigma_batch",
     lambda a: np.shape(a[0])[0]),
    ("adaptivedet.detectors", "subspace_bank", "detectors.subspace_bank", None),
    ("adaptivedet.detectors", "interference_bank", "detectors.interference_bank", None),
    ("adaptivedet.linalg", "inv_sqrt", "linalg.inv_sqrt", None),
    ("adaptivedet.linalg", "orthonormal_basis", "linalg.orthonormal_basis", None),
)

# Per-layer metrics that are counts: they must repeat exactly across traced runs.
COUNT_METRICS = (
    "montecarlo.run_trials.calls",
    "montecarlo.trials_simulated",
    "montecarlo.redraw_factor",
    "batcheval.solve_sigma_batch.calls",
    "distributions.pd_point.calls",
    "distributions.integrate_adaptive.f_evals_per_pd",
    "distributions.pfa_point.calls_per_threshold",
    "cli.mc_threshold_fallbacks",
    "linalg.inv_sqrt.calls",
    "linalg.orthonormal_basis.calls",
)


class Span:
    """One call: ``parent`` is the index of the enclosing span (-1 at top);
    ``extra`` holds the f-evaluation count (integrate_adaptive), the stream
    key (run_trials) or whether the result was None (analytic_threshold)."""

    __slots__ = ("name", "start", "end", "parent", "units", "extra")

    def __init__(self, name, parent, units):
        self.name = name
        self.parent = parent
        self.units = units
        self.extra = None
        self.start = self.end = 0.0


class Tracer:
    """Context manager: wraps every function in ``WRAPS`` on entry and puts
    the originals back on exit, also when the traced code raises."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []

    def __enter__(self):
        for module_name, attr, name, size in WRAPS:
            owner = importlib.import_module(module_name)
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, size))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    def _wrap(self, original, name, size):
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1,
                        size(args) if size is not None else 1)
            if name == "distributions.integrate_adaptive":
                args = (_counting(args[0], span),) + args[1:]
            elif name == "montecarlo.run_trials":
                plan = args[0]
                span.extra = (plan.covariance.label(), plan.master_seed)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if name == "cli.analytic_threshold":
                span.extra = result is None
            return result

        return wrapper

    def write(self, path):
        """Write the spans as TSV: index, parent, name, start, end, units."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tparent\tname\tstart_s\tend_s\tunits\n")
            for i, s in enumerate(self.spans):
                fh.write(f"{i}\t{s.parent}\t{s.name}\t{s.start:.9f}\t{s.end:.9f}\t{s.units}\n")

    def metrics(self):
        return layer_metrics(self.spans)


def _counting(f, span):
    span.extra = 0

    def counted(x):
        span.extra += 1
        return f(x)

    return counted


def tail_percentile(values):
    """Highest percentile with at least ten samples beyond it: ``(pct, value)``.

    With fewer than eleven samples there is none; the maximum is returned
    with ``pct = 100``.
    """
    v = sorted(values)
    if not v:
        return 100.0, 0.0
    if len(v) < 11:
        return 100.0, v[-1]
    k = len(v) - 11
    return 100.0 * (k + 1) / len(v), v[k]


def _div(a, b):
    return a / b if b else 0.0


def layer_metrics(spans):
    """Per-layer metrics from a list of spans (times in their stated units)."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.end - s.start
    agg = {}
    for i, s in enumerate(spans):
        a = agg.setdefault(s.name, {"calls": 0, "total": 0.0, "self": 0.0,
                                    "units": 0, "durations": []})
        d = s.end - s.start
        a["calls"] += 1
        a["total"] += d
        a["self"] += d - child_time[i]
        a["units"] += s.units
        a["durations"].append(d)

    def get(name, key):
        return agg.get(name, {}).get(key, 0)

    runs = [s for s in spans if s.name == "montecarlo.run_trials"]
    simulated = sum(s.units for s in runs)
    needed = {}
    for s in runs:
        needed[s.extra] = max(needed.get(s.extra, 0), s.units)
    integrations = [s for s in spans if s.name == "distributions.integrate_adaptive"]
    pd_ms = [1e3 * d for d in agg.get("distributions.pd_point", {}).get("durations", [])]
    tail_pct, tail_ms = tail_percentile(pd_ms)
    thresholds = get("distributions.threshold_for_pfa", "calls")
    analytic = [s for s in spans if s.name == "cli.analytic_threshold"]
    dist_trials = get("batcheval.distributed_family_stats", "units")
    us = 1e6
    return {
        "montecarlo.trial_rng.us_per_trial":
            us * _div(get("montecarlo.trial_rng", "total"), get("montecarlo.trial_rng", "calls")),
        "montecarlo.run_trials.self_us_per_trial":
            us * _div(get("montecarlo.run_trials", "self"), simulated),
        "montecarlo.run_trials.us_per_trial":
            us * _div(get("montecarlo.run_trials", "total"), simulated),
        "montecarlo.run_trials.calls": len(runs),
        "montecarlo.trials_simulated": simulated,
        "montecarlo.redraw_factor": _div(simulated, sum(needed.values())),
        "scenario.assemble_noise.us_per_trial":
            us * _div(get("scenario.assemble_noise", "total"),
                      get("scenario.assemble_noise", "units")),
        "batcheval.point_family_stats.us_per_trial":
            us * _div(get("batcheval.point_family_stats", "total"),
                      get("batcheval.point_family_stats", "units")),
        "batcheval.distributed_family_stats.self_us_per_trial":
            us * _div(get("batcheval.distributed_family_stats", "self"), dist_trials),
        # per Monte Carlo trial of the distributed family (two solves per batch)
        "batcheval.solve_sigma_batch.us_per_trial":
            us * _div(get("batcheval.solve_sigma_batch", "total"), dist_trials),
        "batcheval.solve_sigma_batch.calls": get("batcheval.solve_sigma_batch", "calls"),
        "distributions.pd_point.calls": len(pd_ms),
        "distributions.pd_point.ms_p50": float(np.median(pd_ms)) if pd_ms else 0.0,
        "distributions.pd_point.ms_tail": tail_ms,
        "distributions.pd_point.tail_pct": tail_pct,
        "distributions.integrate_adaptive.f_evals_per_pd":
            _div(sum(s.extra for s in integrations), len(integrations)),
        "distributions.cf_sf_nodes.us_per_node":
            us * _div(get("distributions.cf_sf_nodes", "total"),
                      get("distributions.cf_sf_nodes", "units")),
        "distributions.cbeta_pdf_grid.us_per_node":
            us * _div(get("distributions.cbeta_pdf_grid", "total"),
                      get("distributions.cbeta_pdf_grid", "units")),
        "distributions.threshold_for_pfa.ms":
            1e3 * _div(get("distributions.threshold_for_pfa", "total"), thresholds),
        "distributions.pfa_point.calls_per_threshold":
            _div(get("distributions.pfa_point", "calls"), thresholds),
        "cli.analytic_threshold.ms":
            1e3 * _div(get("cli.analytic_threshold", "total"), len(analytic)),
        "cli.mc_threshold_fallbacks": sum(1 for s in analytic if s.extra),
        "cli.run_grid.self_s": get("cli.run_grid", "self"),
        "cli.run_cfar_check.self_s": get("cli.run_cfar_check", "self"),
        "cli.identity_suite.self_s": get("cli.identity_suite", "self"),
        "detectors.subspace_bank.self_us_per_call":
            us * _div(get("detectors.subspace_bank", "self"),
                      get("detectors.subspace_bank", "calls")),
        "detectors.interference_bank.self_us_per_call":
            us * _div(get("detectors.interference_bank", "self"),
                      get("detectors.interference_bank", "calls")),
        "linalg.inv_sqrt.us_per_call":
            us * _div(get("linalg.inv_sqrt", "total"), get("linalg.inv_sqrt", "calls")),
        "linalg.inv_sqrt.calls": get("linalg.inv_sqrt", "calls"),
        "linalg.orthonormal_basis.us_per_call":
            us * _div(get("linalg.orthonormal_basis", "total"),
                      get("linalg.orthonormal_basis", "calls")),
        "linalg.orthonormal_basis.calls": get("linalg.orthonormal_basis", "calls"),
    }
