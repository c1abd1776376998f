"""One workload run in one fresh interpreter.

Usage: child.py T0 TRACE SPANS_PATH -- CLI_ARGV...

``T0`` is the parent's ``time.monotonic()`` just before it started this
process, so ``setup_s`` covers interpreter start, importing
``adaptivedet.cli`` and building its parser. Then ``cli.main(argv)`` runs once
(traced when ``TRACE`` is 1) between two runs of a fixed reference
computation, the speed probe. One JSON line goes to stdout with the timings,
the probe time, the exit code, the peak RSS and, when traced, the per-layer
metrics.
"""

import sys
import time


def main():
    t0 = float(sys.argv[1])
    import adaptivedet.cli as cli

    cli.build_parser()
    setup_s = time.monotonic() - t0

    import contextlib
    import json
    import resource
    from pathlib import Path

    trace, spans_path = sys.argv[2] == "1", sys.argv[3]
    argv = sys.argv[sys.argv.index("--") + 1:]
    src = Path(__file__).resolve().parent.parent / "src"
    if src not in Path(cli.__file__).resolve().parents:
        sys.exit(f"adaptivedet was imported from {cli.__file__}, not from {src}")

    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
    probe_before = probe()
    with tracer or contextlib.nullcontext():
        start = time.perf_counter()
        rc = cli.main(argv)
        wall_s = time.perf_counter() - start
    probe_s = 0.5 * (probe_before + probe())
    out = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "probe_s": probe_s,
        "rc": rc,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": _environment(),
    }
    if tracer is not None:
        tracer.write(spans_path)
        out["layers"] = tracer.metrics()
    print(json.dumps(out))


def probe():
    """Seconds taken by a fixed computation that does not touch adaptivedet.

    It mixes what the workloads do (batched small LAPACK calls, per-matrix
    numpy calls, plain Python arithmetic), so its time tracks how fast this
    machine runs them at this moment.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    X = rng.standard_normal((64, 12, 24)) + 1j * rng.standard_normal((64, 12, 24))
    S = X @ np.conj(np.swapaxes(X, -2, -1))
    start = time.perf_counter()
    acc = 0.0
    for _ in range(80):
        acc += float(np.linalg.eigh(S)[0][0, 0])
        for j in range(64):
            acc += float(np.linalg.norm(S[j, 0]))
    for i in range(400_000):
        acc += i * i % 7
    return time.perf_counter() - start


def _environment():
    """Interpreter, numpy/scipy and BLAS versions and the BLAS thread count."""
    import ctypes
    import glob
    import os
    import platform

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.argtypes = []
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": threads,
    }


if __name__ == "__main__":
    main()
