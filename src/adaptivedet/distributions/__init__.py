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
    integrate_adaptive,
    invert_pfa,
    pd_distributed,
    pd_distributed_grid,
    pd_interference,
    pd_interference_grid,
    pd_point,
    pd_point_grid,
    pfa_point,
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
    "integrate_adaptive",
    "invert_pfa",
    "pd_point",
    "pd_point_grid",
    "pfa_point",
    "pd_distributed",
    "pd_distributed_grid",
    "pd_interference",
    "pd_interference_grid",
    "threshold_for_pfa",
    "thresholds_for_pfa",
]
