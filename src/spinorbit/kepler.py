"""Solvers for the Kepler equation and the derived orbital anomalies.

The mean anomaly t, eccentric anomaly u, normalized orbital radius rho and
true anomaly f of a Keplerian ellipse with eccentricity e are related by

    t   = u - e sin(u)
    rho = 1 - e cos(u)
    f   = 2 arctan( sqrt((1+e)/(1-e)) tan(u/2) )

Eccentricities 0 <= e < 1 are handled by a Newton iteration with a
guaranteed bisection fallback.  The solve on the eccentricity disk behind
the Cauchy remainder bound is a test reference in tests/oracles.py.
"""

import math
from typing import NamedTuple

import numpy as np

_TOL = 1e-13  # absolute residual |u - e sin(u) - t| every solve meets
_NEWTON_CAP = 60
_ITERATION_CAP = 200


class KeplerError(RuntimeError):
    """Kepler solve failed to converge or hit a degenerate configuration."""


class AnomalyTriple(NamedTuple):
    """Eccentric anomaly, normalized radius and unwrapped true anomaly."""

    u: object
    rho: object
    f: object


def eccentric_anomaly(e, t):
    """Solve t = u - e sin(u) for the eccentric anomaly u, to |residual| <= 1e-13.

    Args:
        e: eccentricity in [0, 1).
        t: mean anomaly in radians; scalar or ndarray.

    Returns:
        u with the same shape as t.

    Raises:
        ValueError: e out of the admissible range or a bool, or a non-finite t.
        KeplerError: no convergence within the iteration cap.
    """
    if isinstance(e, bool) or not 0.0 <= e < 1.0:
        raise ValueError(f"real eccentricity must satisfy 0 <= e < 1, got {e}")
    e = float(e)
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    finite = np.isfinite(ts)
    if not finite.all():
        raise ValueError(f"mean anomaly t must be finite, got {ts[~finite][0]}")
    if not ts.size:
        return np.empty(np.shape(t))
    # Newton from u0 = t + e sin(t); quadratic once near the root.  The
    # iterate is updated in place on two work arrays, g and w.
    u = np.sin(ts)
    u *= e
    u += ts
    g, w = np.empty_like(u), np.empty_like(u)
    for _ in range(_NEWTON_CAP):
        # g = u - e sin(u) - t
        np.sin(u, out=g)
        g *= e
        np.subtract(u, g, out=g)
        g -= ts
        if np.abs(g, out=w).max() <= _TOL:
            break
        # u -= g / (1 - e cos(u))
        np.cos(u, out=w)
        w *= e
        np.subtract(1.0, w, out=w)
        np.divide(g, w, out=w)
        u -= w
    else:
        # Stagnation (possible only for e near 1): bisection on the bracket
        # [t - e, t + e], where g is respectively <= 0 and >= 0.
        g = u - e * np.sin(u) - ts
        for idx in np.flatnonzero(np.abs(g) > _TOL):
            u[idx] = _bisect_kepler(e, ts[idx])
    return float(u[0]) if np.ndim(t) == 0 else u.reshape(np.shape(t))


def _bisect_kepler(e, t):
    lo, hi = t - e, t + e
    for _ in range(_ITERATION_CAP):
        mid = 0.5 * (lo + hi)
        g = mid - e * math.sin(mid) - t
        if abs(g) <= _TOL:
            return mid
        if g > 0.0:
            hi = mid
        else:
            lo = mid
    raise KeplerError(f"bisection stagnated at e={e}, t={t}")


def anomalies(e, t) -> AnomalyTriple:
    """Return (u, rho, f) at mean anomaly t.

    The true anomaly is computed from the half-angle arctangent formula and
    unwrapped against u (quadrant tracking through atan2 plus an explicit
    2*pi winding count), so f is continuous in t, f(0) = 0 and f(t) - t is
    2*pi-periodic.
    """
    u = eccentric_anomaly(e, t)
    rho = 1.0 - e * np.cos(u)
    winding = np.floor((u + np.pi) / (2.0 * np.pi))
    u_red = u - 2.0 * np.pi * winding
    f = 2.0 * np.arctan2(
        math.sqrt(1.0 + e) * np.sin(0.5 * u_red),
        math.sqrt(1.0 - e) * np.cos(0.5 * u_red),
    ) + 2.0 * np.pi * winding
    if np.ndim(t) == 0:
        return AnomalyTriple(float(u), float(rho), float(f))
    return AnomalyTriple(u, rho, f)
