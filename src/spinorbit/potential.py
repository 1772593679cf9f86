"""Tidal potential of a triaxial satellite and its time-Fourier coefficients.

The (dimensionless) Newtonian potential felt by an equatorially elongated
satellite on a Keplerian orbit is

    V(x, t) = -cos(2x - 2 f_e(t)) / (2 rho_e(t)^3),

with x the orientation angle and (rho_e, f_e) the orbital radius and true
anomaly at mean anomaly t.  Expanded in time harmonics,

    V(x, t) = sum_{j != 0} alpha_j(e) cos(2x - j t),

and the alpha_j control which p:q resonances can be sustained.  This module
evaluates V_x pointwise and provides two routes to alpha_j:

* ``fourier_coefficient`` -- periodic-trapezoid quadrature of a real
                             integrand in the eccentric anomaly, accurate
                             to FLOAT_SLACK by its doubled-node check;
* ``alpha_series``        -- truncated Taylor polynomial in e (j = 2, 3
                             only), evaluated exactly by Horner's rule on
                             integers and rounded once, with a certified
                             Cauchy remainder bound from ``remainder_bound``.

The series and remainder provide rigorous lower bounds |alpha_j(e)| >=
|series| - remainder used by the certification conditions.  A second
quadrature route, on the mean-anomaly grid, is a test reference in
tests/oracles.py.
"""

import math
from fractions import Fraction

import numpy as np

from .kepler import anomalies

__all__ = [
    "potential_fx",
    "fourier_coefficient",
    "alpha_series",
    "remainder_bound",
    "alpha_lower_bound",
    "canonical_disk",
    "CANONICAL_B",
    "CANONICAL_ORDER",
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


# Taylor coefficients of alpha_2(e) (order 4) and alpha_3(e) (order 21),
# exact rationals; index = power of e.  Only these two harmonics admit a
# certified truncation, via the disk parameters in CANONICAL_B below.
_ALPHA2_COEFFS = {
    0: Fraction(-1, 2),
    2: Fraction(5, 4),
    4: Fraction(-13, 32),
}

_ALPHA3_COEFFS = {
    1: Fraction(-7, 4),
    3: Fraction(123, 32),
    5: Fraction(-489, 256),
    7: Fraction(1763, 4096),
    9: Fraction(-13527, 327680),
    11: Fraction(180369, 13107200),
    13: Fraction(5986093, 734003200),
    15: Fraction(24606987, 3355443200),
    17: Fraction(33790034193, 5261334937600),
    19: Fraction(1193558821627, 210453397504000),
    21: Fraction(467145991400853, 92599494901760000),
}

_SERIES = {2: _ALPHA2_COEFFS, 3: _ALPHA3_COEFFS}
CANONICAL_ORDER = {2: 4, 3: 21}


def _integer_series(coeffs, order):
    """(odd, D, numerators): alpha_2 is even in e and alpha_3 odd, so the
    series is e^odd times a polynomial in e^2, whose coefficients times the
    common denominator D are the integer numerators, highest power first."""
    odd = order % 2
    denominator = math.lcm(*(c.denominator for c in coeffs.values()))
    numerators = [int(coeffs.get(k, 0) * denominator) for k in range(order, -1, -2)]
    return odd, denominator, numerators


_INTEGER_SERIES = {j: _integer_series(c, CANONICAL_ORDER[j]) for j, c in _SERIES.items()}

# Disk parameters chosen to tighten the Cauchy estimate for each harmonic.
CANONICAL_B = {2: 0.462678, 3: 0.768368}


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


def alpha_series(j: int, e: float) -> float:
    """Truncated Taylor polynomial of alpha_j(e), j in {2, 3}.

    The rational value of the polynomial at the exact binary value of the
    float e, rounded once: e = m / 2^k is split exactly, Horner's rule in
    e^2 runs on integers over the common denominator of the coefficients,
    and one correctly rounded int / int division ends it.  So cancellation
    across the 11 high-order terms of the j = 3 series cannot degrade the
    result, and it equals float() of the same sum taken in ``Fraction``.
    Raises ValueError for a negative or non-finite e.
    """
    if j not in _SERIES:
        raise ValueError(f"series coefficients available only for j in (2, 3), got {j}")
    if not (e >= 0.0 and math.isfinite(e)):
        raise ValueError(f"eccentricity must be finite and >= 0, got {e}")
    odd, denominator, numerators = _INTEGER_SERIES[j]
    m, d = e.as_integer_ratio()
    k = d.bit_length() - 1
    m2, k2 = m * m, 2 * k
    # acc / 2^shift is D times the polynomial in e^2 = m2 / 2^k2 so far
    acc, shift = numerators[0], 0
    for c in numerators[1:]:
        shift += k2
        acc = acc * m2 + (c << shift)
    if odd:
        acc, shift = acc * m, shift + k
    return acc / (denominator << shift)


def remainder_bound(e: float, order: int, b: float) -> float:
    """Cauchy-estimate bound on the Taylor remainder of alpha_j after ``order``.

    For 0 < b < 1 and 0 < e < b/cosh(b), the tail of the Taylor expansion in
    eccentricity is bounded by

        2/(1-b)^5 * ((1 + b/cosh(b) - e)(1 + cosh(b)) + 1 - b)^2
                  * (e / (b/cosh(b) - e))^(order+1),

    monotone increasing in e on its domain and vanishing at e = 0.  It is
    math.inf, still a bound, where the power overflows near the disk edge.
    """
    if not 0.0 < b < 1.0:
        raise ValueError(f"disk parameter b must lie in (0, 1), got {b}")
    e_star = b / math.cosh(b)
    if not 0.0 <= e < e_star:
        raise ValueError(
            f"e={e} outside the Cauchy-estimate disk e < b/cosh(b) = {e_star:.6f}"
        )
    if e == 0.0:
        return 0.0
    prefactor = (
        2.0
        / (1.0 - b) ** 5
        * ((1.0 + e_star - e) * (1.0 + math.cosh(b)) + 1.0 - b) ** 2
    )
    try:
        return prefactor * (e / (e_star - e)) ** (order + 1)
    except OverflowError:
        return math.inf


def canonical_disk(j: int) -> float:
    """Radius b/cosh(b) of the certified eccentricity disk for harmonic j."""
    b = CANONICAL_B[j]
    return b / math.cosh(b)


def alpha_lower_bound(j: int, e: float) -> float:
    """Certified lower bound on |alpha_j(e)|: |series| minus remainder bound.

    May be non-positive, in which case no certificate is available at this
    eccentricity.  Raises ValueError outside the canonical disk of j.
    """
    if j not in _SERIES:
        raise ValueError(f"certified bounds available only for j in (2, 3), got {j}")
    return abs(alpha_series(j, e)) - remainder_bound(e, CANONICAL_ORDER[j], CANONICAL_B[j])
