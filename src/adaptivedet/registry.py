"""The detector table: every name ``--detectors`` accepts, with its Monte Carlo
family and the capabilities of its finite-sample law.

A law reduces, conditionally on the loss factor ``beta``, to a complex
noncentral F variable compared against a threshold on the SGLRT scale.  The
map from a detector's threshold to that conditional threshold is the one of
its ``canonical`` subspace-bank statistic: ``kglrt`` is ``sglrt`` at p = 1,
the interference GLRTs are the subspace bank at dimension N - q, and
``gkglrt``/``gamf`` reduce to ``kglrt``/``amf`` at K = 1.  A row states only
the facts of its law; :func:`adaptivedet.distributions.resolve_law` decides
from them where the law applies and with what parameters.
"""

from dataclasses import dataclass

import numpy as np


def _wsabort(eta, beta):
    with np.errstate(divide="ignore"):
        return eta / beta - 1.0


def _srao(eta, beta):
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(beta > eta, eta / (beta - eta), np.inf)


def _dnsamf(eta, beta):
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(beta > eta, eta * (1.0 - beta) / (beta - eta), np.inf)


def _asd(eta, beta):
    if eta >= 1.0:
        return np.full_like(beta, np.inf)
    return eta * (1.0 - beta) / (1.0 - eta)


def _asd_breakpoints(eta):
    # near eta = 1 the event needs 1 - beta of order (1 - eta) / eta, a sliver
    # below the last node spacing: mark it at three scales
    if not 0.0 < eta < 1.0:
        return ()
    odds = (1.0 - eta) / eta
    return tuple(1.0 - c * odds for c in (1.0, 4.0, 16.0) if c * odds < 0.25)


# canonical point statistic -> (conditional-threshold map, event breakpoints):
# given beta, the event "statistic > eta" is "conditional F > g", which is
# certain where g <= 0 and empty where g is infinite; the breakpoints are the
# event's kinks in beta, and for asd the scales of its sliver near beta = 1
_THRESHOLD_MAPS = {
    "sglrt": (lambda eta, beta: np.full_like(beta, eta), lambda eta: ()),
    "samf": (lambda eta, beta: eta * beta, lambda eta: ()),
    "sabort": (lambda eta, beta: eta - beta, lambda eta: (eta,)),
    "wsabort": (_wsabort, lambda eta: ()),
    "srao": (_srao, lambda eta: (eta,)),
    "dnsamf": (_dnsamf, lambda eta: (eta,)),
    "asd": (_asd, _asd_breakpoints),
    "aed": (lambda eta, beta: (1.0 + eta) * beta - 1.0, lambda eta: (1.0 / (1.0 + eta),)),
}


@dataclass(frozen=True)
class Detector:
    """One detector's facts.

    ``family`` names the batched kernel that computes it (``point`` or
    ``distributed``).  ``canonical`` is the subspace-bank statistic the row
    computes at its bank's energies (``gkglrt``/``gamf``: at K = 1), whose
    threshold map its law takes.  ``law`` is that finite-sample law (``point``,
    ``interference``, ``distributed``) or None for Monte Carlo only.
    ``rank_one`` laws live at p = 1, ``loss_factor`` laws average over a
    loss factor (so need p < N), and ``mismatch`` says whether the law still
    holds for a mismatched signal.
    ``clairvoyant`` statistics use the true covariance, and ``orthocomplement``
    ones need p + q < N to normalize by the complement of [H J].  ``cfar`` and
    ``scale_invariant`` (unchanged when the test data is scaled) are
    properties of the statistic; ``default`` marks the CLI's default bank.
    ``reads`` names the geometry arguments of
    :func:`adaptivedet.batcheval.prepare` the statistic needs; an adaptive
    row's ``reads`` alone decide the banks built and run for it: ``H`` the
    QR of the whitened subspace, for the point subspace and interference
    banks and the direction and double-subspace banks; ``s`` the rank-one
    banks; ``J`` the interference bank; ``L`` the distributed PHE half.  A
    ``clairvoyant`` row also needs ``R``, and its map is built by name:
    ``smf`` reads ``H``, ``mf`` reads ``s``.
    """

    name: str
    family: str
    law: str = None
    canonical: str = None
    rank_one: bool = False
    loss_factor: bool = True
    mismatch: bool = True
    clairvoyant: bool = False
    orthocomplement: bool = False
    cfar: bool = True
    scale_invariant: bool = False
    default: bool = False
    reads: tuple = ()

    def threshold_map(self, eta: float, beta: np.ndarray) -> np.ndarray:
        """The conditional threshold ``g`` given loss factors ``beta``."""
        return _THRESHOLD_MAPS[self.canonical][0](eta, beta)

    def breakpoints(self, eta: float) -> tuple:
        """Loss factors where the conditional event has a kink or, for
        ``asd`` near ``eta = 1``, the scales of its narrow support."""
        return _THRESHOLD_MAPS[self.canonical][1](eta)


_RANK_ONE, _PHE, _SUBSPACE = ("s",), ("s", "L"), ("H",)


def _point(name, law="point", reads=_SUBSPACE, **kw):
    canonical = kw.pop("canonical", name if name in _THRESHOLD_MAPS else None)
    return Detector(name, "point", law=law, canonical=canonical, reads=reads, **kw)


def _interference(name, law=None, **kw):
    return _point(name, law, reads=("H", "J"), **kw)


def _dist(name, reads, **kw):
    return Detector(name, "distributed", reads=reads, **kw)


# table order is the order of the default bank and of the README table
DETECTORS = {d.name: d for d in (
    # point subspace bank, with its loss factor beta
    _point("sglrt", default=True),
    _point("samf", default=True),
    _point("srao", default=True),
    _point("asd", scale_invariant=True, default=True),
    _point("sabort", default=True),
    _point("wsabort", default=True),
    _point("dnsamf", default=True),
    _point("aed", loss_factor=False, default=True),
    _point("beta", law=None, canonical="beta"),
    # rank-one bank: the p = 1 twins of the subspace bank, and the SMI
    _point("kglrt", canonical="sglrt", rank_one=True, reads=_RANK_ONE),
    _point("amf", canonical="samf", rank_one=True, reads=_RANK_ONE),
    _point("dmrao", canonical="srao", rank_one=True, reads=_RANK_ONE),
    _point("ace", canonical="asd", rank_one=True, reads=_RANK_ONE, scale_invariant=True),
    _point("smi", law=None, cfar=False, reads=_RANK_ONE),
    # clairvoyant (known-covariance) references
    _point("smf", loss_factor=False, clairvoyant=True, default=True),
    _point("mf", law=None, cfar=False, clairvoyant=True, reads=_RANK_ONE),
    # interference rejection; the GLRT trio has the point laws at dimension N - q
    _interference("glrt_he_i", "interference", canonical="sglrt"),
    _interference("ts_glrt_he_i", "interference", canonical="samf"),
    _interference("glrt_phe_i", "interference", canonical="asd", scale_invariant=True),
    # the Rao trio and Wald pair measure the J-cleaned data in span(H), not in
    # span(P_J^perp H), so their null laws move with the whitened H-J angles
    _interference("rao_he_i", canonical="srao", cfar=False),
    _interference("ts_rao_he_i", canonical="samf", cfar=False),
    _interference("rao_phe_i", canonical="asd", cfar=False, scale_invariant=True),
    _interference("wald_he_i", cfar=False),
    _interference("wald_phe_i", cfar=False, scale_invariant=True, orthocomplement=True),
    _interference("beta_i", canonical="beta"),
    # distributed rank-one bank; gamf's loss factor is central only without mismatch
    _dist("gkglrt", _RANK_ONE, law="distributed", canonical="sglrt"),
    _dist("gamf", _RANK_ONE, law="distributed", canonical="samf", mismatch=False),
    _dist("rao_he", _RANK_ONE),
    _dist("glrt_phe", _PHE, scale_invariant=True),
    _dist("gasd", _RANK_ONE, scale_invariant=True),
    _dist("rao_phe", _PHE, scale_invariant=True),
    _dist("wald_phe", _PHE, scale_invariant=True),
    # direction detectors
    _dist("glrdd", _SUBSPACE),
    _dist("amdd", _SUBSPACE),
    _dist("snrdd", _SUBSPACE),
    _dist("gadd", _SUBSPACE, scale_invariant=True),
    # double-subspace trio
    _dist("glrt_dos", _SUBSPACE),
    _dist("rao_dos", _SUBSPACE),
    _dist("wald_dos", _SUBSPACE),
)}


def lookup(name: str) -> Detector:
    """The row of ``name``; ValueError for a name the table does not have."""
    try:
        return DETECTORS[name]
    except KeyError:
        raise ValueError(f"unknown detector {name!r}") from None


def names(**facts) -> tuple:
    """Names, in table order, whose rows have every given field value."""
    return tuple(name for name, d in DETECTORS.items()
                 if all(getattr(d, key) == value for key, value in facts.items()))
