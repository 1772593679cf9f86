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
(``fourier_coefficient``) on the fewest nodes that a priori bounds on its
truncation and rounding prove accurate to FLOAT_SLACK.  Two caches of one
entry each keep read-only arrays on the n nodes; 2**17 is the largest grid
any accepted call is proven on.  The nodes u and their e-free factors
sin(u/2), cos(u/2), cos^2(u/2), cos u and sin u are built once per n, six
arrays (3 KiB at 64 nodes, 6 MiB at 2**17) that every e on that grid
reuses.  Only cos(j m) and sin(j m), m = u - e sin u, depend on the
harmonic j: the rest of the integrand is built once per (e, n), four arrays
(2 KiB at 64 nodes, 4 MiB at 2**17) that the next harmonic at the same e
and grid reuses.  The certified series
route to alpha_2 and alpha_3, with its Cauchy remainder bound, is the
numpy-free ``series`` module.  A second quadrature route, on the
mean-anomaly grid, is a test reference in tests/oracles.py.
"""

import functools
import math
import numbers

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

# accuracy contract: a returned quadrature value is proven this close to alpha_j
FLOAT_SLACK = 1e-10


class QuadratureError(RuntimeError):
    """No grid of at most n_quad nodes is proven accurate to FLOAT_SLACK.

    ``at_floor`` is true when the rounding bound alone exceeds FLOAT_SLACK,
    which more nodes do not lower; otherwise n_quad is too small.
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


@functools.lru_cache(maxsize=1)
def _nodes(n):
    # The n nodes span [-pi, pi), centred where the integrand is steepest:
    # 2 pi/n is exact for n a power of two, so each is rounded once, relative
    # to |u|.  Returns u, sin(u/2), cos(u/2), cos^2(u/2), cos u and sin u,
    # which depend on n alone, read-only because every e on this grid shares
    # them.
    u = 2.0 * np.pi / n * np.arange(-n // 2, n // 2)
    half = 0.5 * u
    b = np.cos(half)
    nodes = (u, np.sin(half), b, b * b, np.cos(u), np.sin(u))
    for node in nodes:
        node.setflags(write=False)
    return nodes


@functools.lru_cache(maxsize=1)
def _geometry(e, n):
    # Integrate in the eccentric anomaly u (dt = rho du):
    #   alpha_j = -(1/4pi) int_{-pi}^{pi} [P c_j - Q s_j] / (rho^2 (A^2+B^2)^2) du
    # where s = sqrt((1+e)/(1-e)), A = s sin(u/2), B = cos(u/2), P + iQ =
    # (A + iB)^4 and c_j + i s_j = e^{ijm}, m = u - e sin u.  Writing the
    # rational function of w = A/B through A and B removes the w -> inf
    # singularity at u = pi; _rounding_bound is derived for this code.
    # Only c_j and s_j depend on j: this returns (P, Q, m, rho^2 (A^2+B^2)^2)
    # on the n nodes, read-only because the next harmonic at the same (e, n)
    # shares them.
    u, sin_half, b, b2, cos_u, sin_u = _nodes(n)
    s = math.sqrt((1.0 + e) / (1.0 - e))
    a = s * sin_half
    a2 = a * a
    p = a2 * a2 - 6.0 * a2 * b2 + b2 * b2
    q = 4.0 * a * b * (a2 - b2)
    rho = 1.0 - e * cos_u
    factors = (p, q, u - e * sin_u, rho**2 * (a2 + b2) ** 2)
    for factor in factors:
        factor.setflags(write=False)
    return factors


def _alpha_integrand(e, j, n):
    p, q, m, den = _geometry(e, n)
    phase = j * m
    return (p * np.cos(phase) - q * np.sin(phase)) / den


_STRIP_FRACTIONS = tuple(sorted([k / 32.0 for k in range(1, 32)]
                                + [1.0 - 2.0 ** (-k / 2.0) for k in range(11, 41)],
                                key=lambda f: abs(f - 0.5)))


def _proven_grid(e, j, n_quad, log_budget):
    """The smallest power of two n >= 64 with log T(e, j, n) <= log_budget, or
    some n >= 2 n_quad, where T bounds |alpha_j - the exact n-node trapezoid|.

    The integrand, g = (1-e)^2 [(A+iB)^4 e^{ijm} + (A-iB)^4 e^{-ijm}] / (2 rho^4)
    as (A^2+B^2)^2 = rho^2/(1-e)^2, is 2 pi-periodic and analytic on
    |Im u| < arccosh(1/e), where rho first vanishes.  On |Im u| <= y,
    |A +- iB| <= (s+1) cosh(y/2), |e^{+-ijm}| <= e^{|j|(y + e sinh y)},
    |rho| >= 1 - e cosh y and (1-e)^2 (s+1)^4 = (sqrt(1+e) + sqrt(1-e))^4 <= 16,
    so |g| <= M(y) = 16 cosh^4(y/2) e^{|j|(y + e sinh y)} / (1 - e cosh y)^4.
    As alpha_j = -mean(g)/2, Thm. 3.2 of L. N. Trefethen and J. A. C.
    Weideman, SIAM Review 56 (2014) 385, gives T <= M(y)/(e^{yn} - 1) for
    each such y on its own, and it falls as n grows: n is the least over
    the widths of the first n that each proves, and 64 ends the search.
    The widths are y = arccosh(1/e) (at most 64) times _STRIP_FRACTIONS:
    even steps, then geometric toward the pole, tried from the middle out.
    """
    pole = math.acosh(1.0 / e) if e * math.cosh(64.0) > 1.0 else 64.0
    best = 2 * n_quad
    for fraction in _STRIP_FRACTIONS:
        y = fraction * pole
        log_m = (math.log(16.0) + abs(j) * (y + e * math.sinh(y))
                 + 4.0 * math.log(math.cosh(0.5 * y) / (1.0 - e * math.cosh(y))))
        n = 64
        while n < best and log_m - n * y - math.log(-math.expm1(-n * y)) > log_budget:
            n *= 2
        if n == 64:
            return n
        best = n
    return best


def _rounding_bound(e, j):
    """R(e, j) bounds the rounding of the computed sum on any n nodes with
    T(e, j, n) <= FLOAT_SLACK.  It assumes numpy's float64 sin and cos are
    within 1 ulp (glibc's bound): 2 eps relative, eps absolute on [-1, 1],
    eps = 2^-53.  To first order, per node, with r = rho(u), g = Re G,
    |G| = r^-2 and G' = G (4 (A'+iB')/(A+iB) + ijr - 4 e sin u / r):
      the node fl((k - n/2) 2pi/n), off by 1.36 eps |u|, with
        |u g'| <= pi (6 sqrt(2) r^-2 + |j| r^-1) on [-pi, pi];
      s, a, b turn arg(A + iB) by 3.75 eps: 15 eps r^-2;
      P, Q, the products, cos, sin and the quotient: 32 eps r^-2;
      rho = 1 - e cos u, its subtraction exact where it cancels, is off by
        1.5 eps + eps r: (3/r + 2) eps r^-2;
      the phase, off by (3 + 2 pi) |j| eps: as much times r^-2.
    The node mean of r^-p exceeds its mean over u, I_1 = (1-e^2)^-1/2,
    I_2 = (1-e^2)^-3/2 or I_3 = (1 + e^2/2)(1-e^2)^-5/2, by <= T/8 (its Fourier
    coefficients are >= 0, its strip bound <= M(y)/16); fsum adds eps I_2/2
    after halving.  Rounding the constants up absorbs second-order terms.
    """
    c = (1.0 - e) * (1.0 + e)
    i1 = 1.0 / math.sqrt(c)
    i2 = i1 / c
    i3 = (1.0 + 0.5 * e * e) * i2 / c
    # beyond |j| = 2**53 the phase term alone is far above any accuracy asked
    return 2.0**-53 * (44.0 * i2 + 2.0 * i3 + min(abs(j), 2.0**53) * (5.0 * i2 + 3.0 * i1))


def fourier_coefficient(e: float, j: int, n_quad: int = 2048) -> float:
    """Coefficient alpha_j(e) by periodic-trapezoid quadrature, within
    FLOAT_SLACK.

    The grid, chosen before any node is evaluated, is the smallest power of
    two n in [64, n_quad] with T(e, j, n) + R(e, j) <= FLOAT_SLACK (T from
    ``_proven_grid``, R from ``_rounding_bound``; both grow with |j|).  The
    j-independent part of the integrand on that grid is cached for the last
    (e, n) alone, so asking for several j at one e in a row builds it once,
    and its e-free node factors for the last n, which a new e on the same
    grid reuses.

    Args:
        e: real eccentricity in [0, 1), evaluated as a Python float; not
            a bool.
        j: nonzero integer harmonic, not a bool (the expansion has no
            j = 0 term).
        n_quad: the most quadrature nodes allowed, even, from 64 to 2**20.

    Raises:
        QuadratureError: ``at_floor`` when R alone exceeds FLOAT_SLACK (from
            e = 0.99664 at |j| = 1, or |j| = 112585 at e = 0); else n_quad
            is too small for T + R.
    """
    # a bool is a number, but False is no eccentricity: it is kept, and refused below
    if not isinstance(e, bool):
        e = float(e)
    # a bool is a numbers.Integral, but True is no harmonic
    if isinstance(j, bool) or not isinstance(j, numbers.Integral):
        raise ValueError(f"harmonic j must be an integer, got j={j}")
    if j == 0:
        raise ValueError("j = 0 is undefined: the potential has no static harmonic")
    if isinstance(e, bool) or not 0.0 <= e < 1.0:
        raise ValueError(f"eccentricity must satisfy 0 <= e < 1, got {e}")
    if not 64 <= n_quad <= 2**20 or n_quad % 2:
        raise ValueError(f"n_quad must be even, >= 64 and <= 2**20, got {n_quad}")
    rounding = _rounding_bound(e, j)
    if not rounding < FLOAT_SLACK:
        raise QuadratureError(f"alpha_{j}({e}): the sum's rounding bound {rounding:.3e} "
                              f"exceeds {FLOAT_SLACK:g}: the quadrature has reached the "
                              "round-off floor", at_floor=True)
    n = _proven_grid(e, j, n_quad, math.log(FLOAT_SLACK - rounding))
    if n > n_quad:
        raise QuadratureError(f"alpha_{j}({e}): the error bound exceeds "
                              f"{FLOAT_SLACK:g} on every grid; n_quad={n_quad} too small")
    # periodic trapezoid = plain node average; fsum rounds the sum once, so
    # it does not depend on the order of its terms
    return -0.5 * math.fsum(_alpha_integrand(e, j, n).tolist()) / n
