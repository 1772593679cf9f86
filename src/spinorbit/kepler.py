"""Solvers for the Kepler equation and the derived orbital anomalies.

The mean anomaly t, eccentric anomaly u, normalized orbital radius rho and
true anomaly f of a Keplerian ellipse with eccentricity e are related by

    t   = u - e sin(u)
    rho = 1 - e cos(u)
    f   = 2 arctan( sqrt((1+e)/(1-e)) tan(u/2) )

Both the solve and the anomalies are computed from the half-angle tangent
tau = tan(u/2) (Murray & Dermott, Solar System Dynamics, 1999, sec. 2.4),
one numpy tangent where a sine and a cosine would be two slower passes:

    sin(u)       = 2 tau / (1 + tau^2)
    1 - e cos(u) = ((1 - e) + (1 + e) tau^2) / (1 + tau^2)
    f            = u + 2 arctan( 2 e tau / ((1 - e + s) + (1 + e + s) tau^2) )

with s = sqrt(1 - e^2).  The last is f = u + 2 arctan(beta sin(u) /
(1 - beta cos(u))), beta = e/(1 + s), with both sides of the fraction
multiplied by (1 + s) so that 1 - beta, which loses digits near e = 1, is
never formed; its denominator is positive, so f is continuous in t.

Eccentricities 0 <= e < 1 are handled by a Newton iteration with a
guaranteed bisection fallback.  Every solve meets |u - e sin(u) - t| <=
max(1e-13, 2 ulp(max |t|)); the second term takes over from |t| = 256,
beyond which the float nearest the root can miss 1e-13.  Newton meets the
residual within 2, 3, 4, 6 and 9 updates at e = 0.0549, 0.2056, 0.5, 0.9
and 0.99 (measured on [-4 pi, 4 pi]); from e = 0.995, a few points within
0.117 of a multiple of 2 pi are not met within _NEWTON_CAP updates and are
bisected one by one.  The solve on the eccentricity disk behind the Cauchy
remainder bound is a test reference in tests/oracles.py.
"""

import math
from typing import NamedTuple

import numpy as np

_TOL = 1e-13  # absolute residual |u - e sin(u) - t| met while every |t| < 256
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
    """Solve t = u - e sin(u) for the eccentric anomaly u.

    The residual meets max(1e-13, 2 ulp(max |t|)), which is 1e-13 while
    every |t| < 256.

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
    tol = _tolerance(np.abs(ts).max())
    # Newton from u0 = t + e sin(t); quadratic once near the root.  Each step
    # takes sin(u) and 1 - e cos(u) from one tangent tau = tan(u/2).
    ome, ope = 1.0 - e, 1.0 + e
    u = ts + e * np.sin(ts)
    for _ in range(_NEWTON_CAP):
        tau = np.tan(0.5 * u)
        tau2 = tau * tau
        w = 1.0 + tau2
        g = u - 2.0 * e * tau / w - ts
        if np.abs(g).max() <= tol:
            break
        u = u - g * w / (ome + ope * tau2)
    else:
        # Stagnation (possible only for e near 1): bisection on the bracket
        # [t - e, t + e], where g is respectively <= 0 and >= 0.
        g = u - e * np.sin(u) - ts
        for idx in np.flatnonzero(np.abs(g) > tol):
            u[idx] = _bisect_kepler(e, ts[idx])
    return float(u[0]) if np.ndim(t) == 0 else u.reshape(np.shape(t))


def _tolerance(t_max):
    # _TOL, or two units in the last place of the largest |t|: beyond
    # |t| = 256 the residual of the float nearest the root can exceed _TOL
    return max(_TOL, 2.0 * math.ulp(t_max))


def _bisect_kepler(e, t):
    tol = _tolerance(abs(t))
    lo, hi = t - e, t + e
    for _ in range(_ITERATION_CAP):
        mid = 0.5 * (lo + hi)
        g = mid - e * math.sin(mid) - t
        if abs(g) <= tol:
            return mid
        if g > 0.0:
            hi = mid
        else:
            lo = mid
    raise KeplerError(f"bisection stagnated at e={e}, t={t}")


def anomalies(e, t) -> AnomalyTriple:
    """Return (u, rho, f) at mean anomaly t.

    rho and f are taken from tau = tan(u/2) as in the module docstring:
    rho has no cancellation near perihelion, f is continuous in t with
    f(0) = 0, and f(t) - t is 2*pi-periodic.  e is evaluated in double
    precision, whatever its type.
    """
    u = eccentric_anomaly(e, t)
    e = float(e)
    ome, ope = 1.0 - e, 1.0 + e
    s = math.sqrt(ome * ope)
    tau = np.tan(0.5 * u)
    tau2 = tau * tau
    rho = (ome + ope * tau2) / (1.0 + tau2)
    f = u + 2.0 * np.arctan(2.0 * e * tau / ((ome + s) + (ope + s) * tau2))
    if np.ndim(t) == 0:
        return AnomalyTriple(float(u), float(rho), float(f))
    return AnomalyTriple(u, rho, f)
