"""Multichannel adaptive detection: detector banks, exact finite-sample
performance curves, and a reproducible Monte Carlo CFAR harness (its
``detectors`` module, which no command runs, is not imported here)."""

from . import batcheval, distributions, linalg, montecarlo, scenario
from .errors import DefinitenessError, GeometryError, InfeasibleError, RankError

__version__ = "0.1.0"

__all__ = [
    "batcheval",
    "detectors",
    "distributions",
    "linalg",
    "montecarlo",
    "scenario",
    "DefinitenessError",
    "GeometryError",
    "InfeasibleError",
    "RankError",
    "__version__",
]
