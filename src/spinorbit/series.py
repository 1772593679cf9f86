"""Certified Taylor series of the potential's time harmonics alpha_j(e), j = 2, 3.

The coefficients are stated once, as the exact integers ``alpha_series``
runs on: the truncated polynomial in e, evaluated on integers and rounded
once.  ``remainder_bound`` bounds its tail on the Cauchy disk e < b/cosh(b)
(``canonical_disk``); ``alpha_lower_bound`` is the certified
|alpha_j(e)| >= |series| - remainder read by the certification conditions.
It imports ``math`` alone, so certifying a catalog loads neither numpy nor
``fractions``.
"""

import math

__all__ = [
    "alpha_series",
    "remainder_bound",
    "alpha_lower_bound",
    "canonical_disk",
    "CANONICAL_B",
    "CANONICAL_ORDER",
]


# Taylor coefficients of alpha_2(e) (order 4) and alpha_3(e) (order 21) as
# exact integers {j: (D, numerators)}: alpha_2 is even in e and alpha_3 odd,
# so the series is e^(j % 2) times a polynomial in e^2 whose coefficients
# times the common denominator D are the numerators, highest power first.
# ``hansen_series`` in the test oracles derives each rational exactly.  Only
# these two harmonics admit a certified truncation, via CANONICAL_B below.
_SERIES = {
    2: (32, [-13, 40, -16]),
    3: (92599494901760000, [467145991400853, 525165881515880, 594704601796800,
                            679074098841600, 755186337382400, 1274267448115200,
                            -3822611595264000, 39856667361280000, -176879503933440000,
                            355929308528640000, -162049116078080000]),
}
# truncation order of each harmonic: the highest power in its table
CANONICAL_ORDER = {j: 2 * len(numerators) - 2 + j % 2 for j, (_, numerators) in _SERIES.items()}

# Disk parameters chosen to tighten the Cauchy estimate for each harmonic.
CANONICAL_B = {2: 0.462678, 3: 0.768368}


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
    denominator, numerators = _SERIES[j]
    m, d = e.as_integer_ratio()
    k = d.bit_length() - 1
    m2, k2 = m * m, 2 * k
    # acc / 2^shift is D times the polynomial in e^2 = m2 / 2^k2 so far
    acc, shift = numerators[0], 0
    for c in numerators[1:]:
        shift += k2
        acc = acc * m2 + (c << shift)
    if j % 2:
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
    eccentricity.  Raises ValueError for j outside (2, 3) or e outside the
    canonical disk of j.
    """
    return abs(alpha_series(j, e)) - remainder_bound(e, CANONICAL_ORDER[j], CANONICAL_B[j])
