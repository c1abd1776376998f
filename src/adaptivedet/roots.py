"""The package's one root solver: Chandrupatla's method, elementwise.

Chandrupatla (*Adv. Eng. Software* 28(3), 1997) keeps a bracket and steps by
inverse quadratic interpolation through the last three points when that
parabola is safely monotone on the bracket, and by bisection otherwise.  The
step is pulled at least half a tolerance away from the bracket ends.

Every array operation here is elementwise and an element stops changing once
it has converged, so each element's root is the one it would get if solved
alone, whatever else shares the call.
"""

import numpy as np

from .errors import InfeasibleError

# relative bracket width at which an element has converged
RTOL = 4 * np.finfo(float).eps
# bisection alone narrows any bracket of doubles to one ulp in under 2100
# steps; interpolation makes convergence far faster in practice
MAXITER = 2100


def find_root(f, lo, hi, xtol: float = 0.0):
    """Elementwise roots of ``f`` between the bracket ends ``lo`` and ``hi``.

    ``f(x, at)`` maps the abscissae ``x`` of the elements ``at`` (flat indices
    into the broadcast brackets, a 1-D array each) to their function values.
    The first call takes both ends of every element (every ``lo``, then every
    ``hi``); after that each round passes only the elements still active, so
    a converged element is never evaluated again.  An element has converged
    when its value is exactly zero or its bracket is narrower than ``xtol +
    RTOL * |x|``.  Returns ``(x, f(x))`` in the brackets' shape: for each
    element the bracket end with the smaller ``|f|``.  Raises
    :class:`InfeasibleError`, its ``failed`` marking the elements at fault,
    when an element's ends do not bracket a sign change or it does not
    converge.
    """
    x1, x2 = np.broadcast_arrays(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
    shape = x1.shape
    x1, x2 = x1.ravel(), x2.ravel()
    every = np.arange(x1.size)

    def values(x, at):
        return np.broadcast_to(np.asarray(f(x, at), dtype=float), x.shape)

    f1, f2 = np.split(values(np.concatenate((x1, x2)), np.concatenate((every, every))), 2)
    bracketed = np.sign(f1) * np.sign(f2) <= 0.0
    if not np.all(bracketed):
        raise InfeasibleError("the root is not bracketed", failed=~bracketed.reshape(shape))
    # x1 is the newest point, x2 the end across the sign change, x3 the end
    # dropped last; x3 = x2 makes the first step a bisection
    x3, f3 = x2, f2
    for _ in range(MAXITER):
        first = np.abs(f1) < np.abs(f2)
        xm, fm = np.where(first, x1, x2), np.where(first, f1, f2)
        dx = np.abs(x2 - x1)
        tol = xtol + RTOL * np.abs(xm)
        active = (fm != 0.0) & (dx >= tol)
        if not np.any(active):
            return xm.reshape(shape), fm.reshape(shape)
        with np.errstate(divide="ignore", invalid="ignore"):
            xi = (x1 - x2) / (x3 - x2)
            phi = (f1 - f2) / (f3 - f2)
            alpha = (x3 - x1) / (x2 - x1)
            t = np.where((1.0 - np.sqrt(1.0 - xi) < phi) & (phi < np.sqrt(xi)),
                         f1 / (f1 - f2) * f3 / (f3 - f2)
                         - alpha * f1 / (f3 - f1) * f2 / (f2 - f3),
                         0.5)
            tl = 0.5 * tol / dx
        # converged elements keep their newest point and their bracket; their
        # x3 is never read again
        t = np.where(active, np.minimum(np.maximum(t, tl), 1.0 - tl), 0.0)
        xt = x1 + t * (x2 - x1)
        ft = f1.copy()
        ft[active] = values(xt[active], every[active])
        same = np.sign(ft) == np.sign(f1)
        x3, f3 = np.where(same, x1, x2), np.where(same, f1, f2)
        cross = active & ~same
        x2, f2 = np.where(cross, x1, x2), np.where(cross, f1, f2)
        x1, f1 = np.where(active, xt, x1), np.where(active, ft, f1)
    raise InfeasibleError("the root solver did not converge", failed=active.reshape(shape))
