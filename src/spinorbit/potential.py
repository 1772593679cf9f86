"""Tidal potential of a triaxial satellite and its time-Fourier coefficients.

The (dimensionless) Newtonian potential felt by an equatorially elongated
satellite on a Keplerian orbit is

    V(x, t) = -cos(2x - 2 f_e(t)) / (2 rho_e(t)^3),

with x the orientation angle and (rho_e, f_e) the orbital radius and true
anomaly at mean anomaly t.  Expanded in time harmonics,

    V(x, t) = sum_{j != 0} alpha_j(e) cos(2x - j t),

and the alpha_j control which p:q resonances can be sustained.  This module
evaluates V_x pointwise (``potential_fx``) and alpha_j by periodic-trapezoid
quadrature of a real integrand in the eccentric anomaly
(``fourier_coefficient``), accurate to FLOAT_SLACK by its doubled-node
check.  The certified series route to alpha_2 and alpha_3, with its Cauchy
remainder bound, is the numpy-free ``series`` module.  A second quadrature
route, on the mean-anomaly grid, is a test reference in tests/oracles.py.
"""

import math

import numpy as np

from .kepler import anomalies

# re-exported only for perfbench/workloads.py, which reads these from here
from .series import CANONICAL_B, CANONICAL_ORDER, alpha_series, canonical_disk, remainder_bound  # noqa: F401

__all__ = [
    "potential_fx",
    "fourier_coefficient",
    "QuadratureError",
    "FLOAT_SLACK",
]


class QuadratureError(RuntimeError):
    """Successive quadrature refinements disagree.

    ``at_floor`` is true when the disagreement is the rounding of the
    quadrature sum itself, which more nodes do not lower; otherwise n_quad
    is too small.
    """

    def __init__(self, message: str, at_floor: bool = False):
        super().__init__(message)
        self.at_floor = at_floor


def potential_fx(e, x, t):
    """d/dx of the potential: sin(2x - 2 f_e(t)) / rho_e(t)^3.

    Doubly 2*pi-periodic in (x, t); broadcasts over ndarray x and t.
    """
    _, rho, f = anomalies(e, t)
    return np.sin(2.0 * np.asarray(x) - 2.0 * f) / rho**3


def _quadrature_nodes(n_quad):
    return 2.0 * np.pi * np.arange(n_quad) / n_quad


def _alpha_integrand(e, j, n_quad):
    # Integrate in the eccentric anomaly u (dt = rho du):
    #   alpha_j = -(1/4pi) int_0^{2pi} [P c_j - Q s_j] / (rho^2 (A^2+B^2)^2) du
    # where, with s = sqrt((1+e)/(1-e)), A = s sin(u/2), B = cos(u/2),
    #   P - iQ = (A - iB)^4,
    # c_j = cos(ju - je sin u), s_j = sin(ju - je sin u).  Writing the
    # rational function of w = A/B through A and B removes the w -> inf
    # singularity at u = pi without changing the integrand.
    u = _quadrature_nodes(n_quad)
    s = math.sqrt((1.0 + e) / (1.0 - e))
    a = s * np.sin(0.5 * u)
    b = np.cos(0.5 * u)
    a2, b2 = a * a, b * b
    p = a2 * a2 - 6.0 * a2 * b2 + b2 * b2
    q = 4.0 * a * b * (a2 - b2)
    rho = 1.0 - e * np.cos(u)
    phase = j * (u - e * np.sin(u))
    return (p * np.cos(phase) - q * np.sin(phase)) / (rho**2 * (a2 + b2) ** 2)


def _trapezoid(terms):
    # periodic trapezoid = plain node average; fsum rounds the sum once, so
    # the result does not depend on the order of the terms
    return -0.5 * math.fsum(terms.tolist()) / len(terms)


# Accuracy contract of the quadrature: the largest gap its doubled-node check
# lets through, so a quadrature value may lie this far from alpha_j.
FLOAT_SLACK = 1e-10

# A doubled-node gap within this multiple of the round-off unit of the
# trapezoid sum is rounding, not truncation.  Measured: 120-340 where the gap
# has stopped shrinking (e = 0.9995 to 0.9999, any n_quad), >= 3e7 on
# under-resolved grids.
_FLOOR_MULTIPLE = 1000.0


def _doubling_checked(value, refined, e, j, n_quad):
    """``value`` (alpha_j(e) on n_quad nodes), refused when ``refined`` (on
    2*n_quad nodes) differs from it by more than FLOAT_SLACK.

    The refusal is ``at_floor`` when the gap is within _FLOOR_MULTIPLE of
    2^-52 times the summed |terms| of the n_quad-node trapezoid average,
    a floor that more nodes do not lower.
    """
    gap = abs(value - refined)
    if gap > FLOAT_SLACK:
        unit = 2.0**-52 * 0.5 * float(np.mean(np.abs(_alpha_integrand(e, j, n_quad))))
        if gap <= _FLOOR_MULTIPLE * unit:
            raise QuadratureError(
                f"alpha_{j}({e}): refinement moved by {gap:.3e} at n_quad={n_quad}, "
                f"{gap / unit:.0f} times the round-off unit of the sum: the "
                f"gap has reached the round-off floor",
                at_floor=True,
            )
        raise QuadratureError(
            f"alpha_{j}({e}): refinement moved by {gap:.3e}; "
            f"n_quad={n_quad} too small"
        )
    return value


def fourier_coefficient(e: float, j: int, n_quad: int = 2048) -> float:
    """Coefficient alpha_j(e) by periodic-trapezoid quadrature.

    Spectrally accurate for the analytic integrand; a doubled-node
    evaluation guards against under-resolution.  The integrand is evaluated
    once, on 2*n_quad nodes: the n_quad nodes are its even-index ones, bit
    for bit (2 pi (2k)/(2n) == 2 pi k/n in floating point).

    Args:
        e: real eccentricity in [0, 1).
        j: nonzero integer harmonic (the expansion has no j = 0 term).
        n_quad: number of quadrature nodes, even, >= 64.

    Raises:
        QuadratureError: the n_quad and 2*n_quad evaluations differ by
            more than FLOAT_SLACK: increase n_quad, unless ``at_floor`` says
            the gap is rounding (from about e = 0.9995 up).
    """
    if j == 0:
        raise ValueError("j = 0 is undefined: the potential has no static harmonic")
    if not 0.0 <= e < 1.0:
        raise ValueError(f"eccentricity must satisfy 0 <= e < 1, got {e}")
    if n_quad < 64 or n_quad % 2:
        raise ValueError(f"n_quad must be even and >= 64, got {n_quad}")
    terms = _alpha_integrand(e, j, 2 * n_quad)
    return _doubling_checked(_trapezoid(terms[::2]), _trapezoid(terms), e, j, n_quad)
