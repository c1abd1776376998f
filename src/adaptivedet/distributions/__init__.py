"""Complex noncentral distribution machinery and analytic PD/PFA curves.

The law classes ``ComplexChi2``, ``ComplexF`` and ``ComplexBeta`` are built
in :mod:`.laws`, imported the first time one of them is read from here.
"""

from .core import cbeta_pdf_grid, cbeta_pdf_nodes, cf_sf_nodes
from .detection import (
    Law,
    integrate_adaptive,
    invert_pfa,
    pd_cells,
    pd_grid,
    pd_point,
    pfa_point,
    resolve_law,
    threshold_for_pfa,
    thresholds_for_pfa,
)

_LAWS = ("ComplexBeta", "ComplexChi2", "ComplexF")


def __getattr__(name):
    if name in _LAWS:
        from . import laws

        return getattr(laws, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    *_LAWS,
    "cbeta_pdf_grid",
    "cbeta_pdf_nodes",
    "cf_sf_nodes",
    "Law",
    "integrate_adaptive",
    "invert_pfa",
    "pd_point",
    "pfa_point",
    "pd_cells",
    "pd_grid",
    "resolve_law",
    "threshold_for_pfa",
    "thresholds_for_pfa",
]
