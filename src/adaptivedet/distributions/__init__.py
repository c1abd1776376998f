"""Complex noncentral distribution machinery and analytic PD/PFA curves."""

from .core import (
    ComplexBeta,
    ComplexChi2,
    ComplexF,
    cbeta_pdf_grid,
    cf_sf_nodes,
)
from .detection import (
    DISTRIBUTED_DETECTORS,
    INTERFERENCE_DETECTORS,
    POINT_DETECTORS,
    integrate_adaptive,
    invert_pfa,
    pd_distributed,
    pd_interference,
    pd_point,
    pfa_point,
    threshold_for_pfa,
)

__all__ = [
    "ComplexBeta",
    "ComplexChi2",
    "ComplexF",
    "cbeta_pdf_grid",
    "cf_sf_nodes",
    "integrate_adaptive",
    "invert_pfa",
    "pd_point",
    "pfa_point",
    "pd_distributed",
    "pd_interference",
    "threshold_for_pfa",
    "POINT_DETECTORS",
    "DISTRIBUTED_DETECTORS",
    "INTERFERENCE_DETECTORS",
]
