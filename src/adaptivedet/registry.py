"""The detector table: every name ``--detectors`` accepts, with its Monte Carlo
family and the capabilities of its finite-sample law.

A law reduces, conditionally on the loss factor ``beta``, to a complex
noncentral F variable compared against a threshold on the SGLRT scale.  The
map from a detector's threshold to that conditional threshold is the one of
its canonical point statistic: ``kglrt`` is ``sglrt`` at p = 1, the
interference GLRTs are the point bank at dimension N - q, and ``gkglrt``/
``gamf`` share the maps of ``sglrt``/``samf``.
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


# canonical point statistic -> (conditional-threshold map, event breakpoints):
# given beta, the event "statistic > eta" is "conditional F > g", which is
# certain where g <= 0 and empty where g is infinite; the breakpoints are the
# event's kinks in beta
_THRESHOLD_MAPS = {
    "sglrt": (lambda eta, beta: np.full_like(beta, eta), lambda eta: ()),
    "samf": (lambda eta, beta: eta * beta, lambda eta: ()),
    "sabort": (lambda eta, beta: eta - beta, lambda eta: (eta,)),
    "wsabort": (_wsabort, lambda eta: ()),
    "srao": (_srao, lambda eta: (eta,)),
    "dnsamf": (_dnsamf, lambda eta: (eta,)),
    "asd": (_asd, lambda eta: ()),
    "aed": (lambda eta, beta: (1.0 + eta) * beta - 1.0, lambda eta: (1.0 / (1.0 + eta),)),
}


@dataclass(frozen=True)
class Detector:
    """One detector's facts.

    ``family`` names the batched kernel that computes it (``point`` or
    ``distributed``).  ``law`` is its finite-sample law (``point``,
    ``interference``, ``distributed``) or None for Monte Carlo only; a law's
    threshold map is the one of ``canonical``.  ``rank_one`` laws live at p =
    1, ``loss_factor`` laws average over a loss factor (so need p < N), and
    ``mismatch`` says whether the law still holds for a mismatched signal.
    ``clairvoyant`` statistics use the true covariance, and ``orthocomplement``
    ones need p + q < N to normalize by the complement of [H J].  ``cfar`` and
    ``scale_invariant`` (unchanged when the test data is scaled) are
    properties of the statistic; ``default`` marks the CLI's default bank.
    ``reads`` names the arguments of
    :func:`adaptivedet.batcheval.prepare_distributed` a distributed statistic
    needs: ``s`` for the rank-one bank, ``L`` for its partially homogeneous
    half, ``H`` for the direction and double-subspace banks.
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
        """Loss factors where the conditional event has a kink."""
        return _THRESHOLD_MAPS[self.canonical][1](eta)


def _point(name, law="point", **kw):
    canonical = kw.pop("canonical", name if name in _THRESHOLD_MAPS else None)
    return Detector(name, "point", law=law, canonical=canonical, **kw)


def _dist(name, reads, **kw):
    return Detector(name, "distributed", reads=reads, **kw)


_RANK_ONE, _PHE, _SUBSPACE = ("s",), ("s", "L"), ("H",)


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
    _point("beta", law=None),
    # rank-one bank: the p = 1 twins of the subspace bank, and the SMI
    _point("kglrt", canonical="sglrt", rank_one=True),
    _point("amf", canonical="samf", rank_one=True),
    _point("dmrao", canonical="srao", rank_one=True),
    _point("ace", canonical="asd", rank_one=True, scale_invariant=True),
    _point("smi", law=None, cfar=False),
    # clairvoyant (known-covariance) references
    _point("smf", loss_factor=False, clairvoyant=True, default=True),
    _point("mf", law=None, clairvoyant=True),
    # interference rejection; the GLRT trio has the point laws at dimension N - q
    _point("glrt_he_i", law="interference", canonical="sglrt"),
    _point("ts_glrt_he_i", law="interference", canonical="samf"),
    _point("glrt_phe_i", law="interference", canonical="asd", scale_invariant=True),
    _point("rao_he_i", law=None),
    _point("ts_rao_he_i", law=None),
    _point("rao_phe_i", law=None, scale_invariant=True),
    _point("wald_he_i", law=None),
    _point("wald_phe_i", law=None, scale_invariant=True, orthocomplement=True),
    _point("beta_i", law=None),
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
