"""Complex noncentral distribution machinery and analytic PD/PFA curves."""

from .core import (
    ComplexBeta,
    ComplexChi2,
    ComplexF,
    cbeta_pdf_grid,
    cbeta_pdf_nodes,
    cf_sf_nodes,
)
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

__all__ = [
    "ComplexBeta",
    "ComplexChi2",
    "ComplexF",
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
