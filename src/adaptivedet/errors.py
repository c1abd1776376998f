"""Exception types shared across the package."""


class DefinitenessError(ValueError):
    """A matrix required to be Hermitian positive definite is not."""


class RankError(ValueError):
    """A matrix does not have the full column rank an operation requires."""


class GeometryError(ValueError):
    """A requested signal geometry cannot be realized (e.g. no orthocomplement)."""


class InfeasibleError(ValueError):
    """A root-finding or calibration target lies outside the feasible range;
    ``failed`` marks the elements of an elementwise solve at fault (True: all)."""

    def __init__(self, message, failed=True):
        super().__init__(message)
        self.failed = failed
