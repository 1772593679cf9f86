"""Test references the package does not ship: the Kepler solve at complex e
and the real Newton solve with one array per operation,
alpha_j on the mean-anomaly grid, the eccentric-anomaly integrand rebuilt
in one expression per call and its trapezoid on one grid of n nodes, the
quadrature's truncation bound as a numpy minimum over the strip widths and
its rounding bound restated term by term from its derivation, the
truncated series in ``Fraction`` arithmetic and its coefficients derived
from the Hansen integral, V_xx and the sup bounds on V_x and V_xx, the
right-hand side of the spin equation at one state, the RK4 loop on numpy
scalars, the periodic orbit found by shooting on RK4's period map, the
Green operator and its norm bound, the zero-mean spectral
projection, PeriodicFunction arithmetic, derivative and evaluation through
an exponential matrix, and a constructed orbit's rotation rate.

Each calls the package's private kernel where one exists, so the tests keep
exercising package code; the integrand does not, so that it checks the
package's order of operations, for which its rounding bound is derived.
Pytest does not collect this module."""

import cmath
import math
from fractions import Fraction
from typing import Optional

import numpy as np

from spinorbit.dynamics import DEFAULT_STEP, DynamicsError, SpinState, Trajectory, integrate
from spinorbit.kepler import (_ITERATION_CAP, _NEWTON_CAP, _TOL, AnomalyTriple, KeplerError,
                              _bisect_kepler, anomalies, eccentric_anomaly)
from spinorbit.potential import FLOAT_SLACK, QuadratureError, potential_fx
from spinorbit.series import _SERIES, CANONICAL_ORDER
from spinorbit.solver import PeriodicFunction, _check_spectrum, _green_multiplier

# ---------------------------------------------------- Kepler at complex e

# maximum of y/cosh(y), at the root of y*tanh(y) = 1: e -> u_e(t) is
# holomorphic in |e| < CRITICAL_ECC, so no choice of b can push the
# fixed-point iteration past that radius.
CRITICAL_ECC = 0.6627434193491816


def complex_eccentric_anomaly(e, t, tol: float = 1e-13):
    """Solve t = u - e sin(u) at complex e and scalar t.

    Iterates v <- e sin(v + t) for v = u - t, a contraction of the ball
    |v| <= b whenever |e| < b/cosh(b) for some 0 < b < 1.
    """
    if abs(e) >= CRITICAL_ECC:
        raise ValueError(
            f"complex eccentricity |e|={abs(e):.6f} outside the contraction "
            f"domain |e| < {CRITICAL_ECC:.6f}"
        )
    v = 0j
    for _ in range(_ITERATION_CAP):
        w = e * cmath.sin(v + t)
        # |w - v| bounds the residual of w since the map is a contraction
        if abs(w - v) <= tol:
            return t + w
        v = w
    raise KeplerError(
        f"contraction did not converge for e={e} (|e| too close to the "
        f"boundary of its analyticity disk)"
    )


def eccentric_anomaly_reference(e, t):
    """The Newton solve of ``kepler.eccentric_anomaly`` on the half-angle
    tangent, one named array per operation; the package's loop must match
    it bit for bit."""
    e = float(e)
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    tol = max(_TOL, 2.0 * math.ulp(float(np.max(np.abs(ts)))))
    u = ts + e * np.sin(ts)
    for _ in range(_NEWTON_CAP):
        tau = np.tan(0.5 * u)
        tau2 = tau * tau
        w = 1.0 + tau2
        e_sin_u = 2.0 * e * tau / w
        g = u - e_sin_u - ts
        if np.max(np.abs(g)) <= tol:
            break
        rho_w = (1.0 - e) + (1.0 + e) * tau2  # (1 - e cos u)(1 + tau^2)
        u = u - g * w / rho_w
    else:
        g = u - e * np.sin(u) - ts
        for idx in np.flatnonzero(np.abs(g) > tol):
            u[idx] = _bisect_kepler(e, ts[idx])
    return float(u[0]) if np.ndim(t) == 0 else u.reshape(np.shape(t))


def complex_anomalies(e, t, tol: float = 1e-13) -> AnomalyTriple:
    """(u, rho, f) at complex e and scalar t, by the analytic continuation
    f = u + 2 arctan(beta sin(u) / (1 - beta cos(u))), beta = e/(1 + sqrt(1 - e^2))."""
    u = complex_eccentric_anomaly(e, t, tol)
    rho = 1.0 - e * cmath.cos(u)
    if abs(rho) <= tol:
        raise KeplerError(f"degenerate orbital radius |rho|={abs(rho)} at e={e}, t={t}")
    beta = e / (1.0 + cmath.sqrt(1.0 - e * e))
    f = u + 2.0 * cmath.atan(beta * cmath.sin(u) / (1.0 - beta * cmath.cos(u)))
    return AnomalyTriple(u, rho, f)


# ------------------------------------------------------- potential bounds

def potential_fxx(e, x, t):
    """d2/dx2 of the potential: 2 cos(2x - 2 f_e(t)) / rho_e(t)^3."""
    _, rho, f = anomalies(e, t)
    return 2.0 * np.cos(2.0 * np.asarray(x) - 2.0 * f) / rho**3


def fx_sup_bound(e: float) -> float:
    """sup over the (x, t) torus of |V_x|, bounded by 1/(1-e)^3."""
    return 1.0 / (1.0 - e) ** 3


def fxx_sup_bound(e: float) -> float:
    """sup over the (x, t) torus of |V_xx|, bounded by 2/(1-e)^3."""
    return 2.0 / (1.0 - e) ** 3


def rhs(state: SpinState, params):
    """(dx/dt, dv/dt) of the first-order spin system at the given state."""
    dv = -params.eta * (state.v - params.nu) - params.eps * float(
        potential_fx(params.e, state.x, state.t)
    )
    return state.v, dv


def integrate_reference(initial: SpinState, t_end: float, params,
                        step: float = DEFAULT_STEP) -> Trajectory:
    """The RK4 scheme of ``dynamics.integrate`` written on numpy scalars:
    each stage indexes the half-step grid arrays and each step writes into
    preallocated arrays.  ``integrate`` must match it bit for bit."""
    if step <= 0.0:
        raise ValueError(f"step must be positive, got {step}")
    span = t_end - initial.t
    if span <= 0.0:
        raise ValueError(f"t_end={t_end} must exceed initial.t={initial.t}")
    n = max(1, round(span / step))
    h = span / n

    half_grid = initial.t + 0.5 * h * np.arange(2 * n + 1)
    _, rho, f = anomalies(params.e, half_grid)
    two_f = 2.0 * f
    inv_rho3 = 1.0 / rho**3

    eta, nu, eps = params.eta, params.nu, params.eps

    def accel(x, v, idx):
        return -eta * (v - nu) - eps * math.sin(2.0 * x - two_f[idx]) * inv_rho3[idx]

    ts = initial.t + h * np.arange(n + 1)
    xs = np.empty(n + 1)
    vs = np.empty(n + 1)
    x, v = initial.x, initial.v
    xs[0], vs[0] = x, v
    for k in range(n):
        i0, i1, i2 = 2 * k, 2 * k + 1, 2 * k + 2
        k1x, k1v = v, accel(x, v, i0)
        k2x = v + 0.5 * h * k1v
        k2v = accel(x + 0.5 * h * k1x, k2x, i1)
        k3x = v + 0.5 * h * k2v
        k3v = accel(x + 0.5 * h * k2x, k3x, i1)
        k4x = v + h * k3v
        k4v = accel(x + h * k3x, k4x, i2)
        x += h / 6.0 * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
        v += h / 6.0 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
        if not (math.isfinite(x) and math.isfinite(v)):
            raise DynamicsError(f"non-finite state at t={ts[k + 1]}")
        xs[k + 1], vs[k + 1] = x, v
    return Trajectory(t=ts, x=xs, v=vs)


def shooting_orbit(params):
    """(x0, v0) of the p:q periodic orbit at ``params``, found by shooting.

    Newton on the period map, F(x0, v0) = (x(2 pi q) - x0 - 2 pi p,
    v(2 pi q) - v0), with x and v from the package's RK4 (``integrate``) at
    step 2 pi/1024 and a forward-difference Jacobian of width 1e-7, started
    at (pi/2, p/q), until max |F| <= 1e-13.  It uses nothing of the spectral
    solver (H. B. Keller, Numerical Methods for Two-Point Boundary-Value
    Problems, Blaisdell 1968, ch. 2).  Raises RuntimeError after 8 Newton
    steps; the 63 certified solves take at most 5.
    """
    step, delta, tol, cap = 2.0 * math.pi / 1024.0, 1e-7, 1e-13, 8
    period, shift = 2.0 * math.pi * params.q, 2.0 * math.pi * params.p

    def defect(z):
        traj = integrate(SpinState(z[0], z[1], 0.0), period, params, step)
        return np.array([traj.x[-1] - z[0] - shift, traj.v[-1] - z[1]])

    z = np.array([math.pi / 2.0, params.p / params.q])
    for _ in range(cap):
        F = defect(z)
        if np.abs(F).max() <= tol:
            return float(z[0]), float(z[1])
        J = np.column_stack([(defect(z + dz) - F) / delta for dz in delta * np.eye(2)])
        z = z - np.linalg.solve(J, F)
    raise RuntimeError(f"shooting: max |F| = {np.abs(defect(z)).max():.2e} > {tol:g} "
                       f"after {cap} Newton steps")


def tidal_kernel(e, t, tol: float = 1e-13):
    """Complex kernel -exp(2i f_e(t)) / (2 rho_e(t)^3).

    Its j-th Fourier coefficient in t equals alpha_j(e).  Supports real and
    complex eccentricities (the latter scalar-wise), which makes it usable
    for bounding |alpha_j| on a complex disk.
    """
    if isinstance(e, complex):
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        out = np.empty(t_arr.shape, dtype=complex)
        for idx, tv in np.ndenumerate(t_arr):
            u = complex_eccentric_anomaly(e, float(tv), tol)
            out[idx] = _kernel_from_u(e, u)
        return out[0] if np.ndim(t) == 0 else out
    u = eccentric_anomaly(e, t)
    return _kernel_from_u(e, u)


def _kernel_from_u(e, u):
    # -(w - i)^4 / (2 rho^3 (w^2+1)^2) with w = s tan(u/2); clearing the
    # tan denominator gives the overflow-free form below.
    s = ((1.0 + e) / (1.0 - e)) ** 0.5
    a = s * np.sin(0.5 * np.asarray(u))
    b = np.cos(0.5 * np.asarray(u))
    rho = 1.0 - e * np.cos(u)
    z = a - 1j * b
    return -(z**4) / (2.0 * rho**3 * (a * a + b * b) ** 2)


def alpha_integrand_reference(e, j, n_quad):
    """The eccentric-anomaly integrand of ``fourier_coefficient`` on n_quad
    nodes (a power of two), in the package's order of operations, which
    must give it bit for bit."""
    u = 2.0 * np.pi / n_quad * np.arange(-n_quad // 2, n_quad // 2)
    s = math.sqrt((1.0 + e) / (1.0 - e))
    a = s * np.sin(0.5 * u)
    b = np.cos(0.5 * u)
    a2, b2 = a * a, b * b
    p = a2 * a2 - 6.0 * a2 * b2 + b2 * b2
    q = 4.0 * a * b * (a2 - b2)
    rho = 1.0 - e * np.cos(u)
    phase = j * (u - e * np.sin(u))
    return (p * np.cos(phase) - q * np.sin(phase)) / (rho**2 * (a2 + b2) ** 2)


def alpha_trapezoid_reference(e, j, n_quad):
    """The n_quad-node trapezoid of the reference integrand, by fsum over
    numpy scalars."""
    return -0.5 * math.fsum(alpha_integrand_reference(e, j, n_quad)) / n_quad


# the strip widths of ``potential``, as fractions of arccosh(1/e) (at most 64)
STRIP_FRACTIONS = np.r_[np.arange(1, 32) / 32.0, 1.0 - 2.0 ** (-np.arange(11, 41) / 2.0)]


def log_truncation_bound_reference(e, j, n):
    """log T(e, j, n), T = min over the strip widths y of M(y)/(e^{yn} - 1), with
    M(y) = 16 cosh^4(y/2) e^{|j|(y + e sinh y)} / (1 - e cosh y)^4, every width
    at once in numpy: the bound ``potential._proven_grid`` proves one width at
    a time, stopping at the first that meets its budget."""
    y = STRIP_FRACTIONS * (math.acosh(1.0 / e) if e * math.cosh(64.0) > 1.0 else 64.0)
    ny = n * y
    return float(np.min(math.log(16.0) + abs(j) * (y + e * np.sinh(y))
                        + 4.0 * np.log(np.cosh(0.5 * y) / (1.0 - e * np.cosh(y)))
                        - ny - np.log(-np.expm1(-ny))))


def rounding_bound_reference(e, j):
    """R(e, j) restated term by term from the ``potential._rounding_bound``
    docstring, in units of eps = 2^-53 per node: the coefficients of r^-2,
    r^-3, |j| r^-2 and |j| r^-1 to first order, halved (alpha_j = -mean/2),
    fsum's eps I_2/2 added, then rounded up to whole units; each node mean
    of r^-p taken as I_p, here a 4096-node trapezoid of (1 - e cos u)^-p,
    not its closed form."""
    node = 1.36 * math.pi  # fl(u) is 1.36 eps |u| off; |u g'| <= pi (6 sqrt(2) r^-2 + |j| r^-1)
    r2 = node * 6.0 * math.sqrt(2.0) + 15.0 + 32.0 + 2.0  # node, s a b, P Q ... quotient, rho
    r3 = 3.0  # rho's 3/r
    j_r2 = 3.0 + 2.0 * math.pi  # the phase
    j_r1 = node
    c2, c3, cj2, cj1 = (math.ceil(c) for c in (r2 / 2 + 0.5, r3 / 2, j_r2 / 2, j_r1 / 2))
    r = 1.0 - e * np.cos(2.0 * np.pi * np.arange(4096) / 4096)
    i1, i2, i3 = (math.fsum(r ** -p) / 4096 for p in (1, 2, 3))
    return 2.0**-53 * (c2 * i2 + c3 * i3 + min(abs(j), 2**53) * (cj2 * i2 + cj1 * i1))


# the package's integer series as {power of e: Fraction}, read from its table
SERIES_COEFFS = {j: {2 * i + j % 2: Fraction(c, d) for i, c in enumerate(reversed(numerators))}
                 for j, (d, numerators) in _SERIES.items()}


def alpha_series_reference(j: int, e: float) -> float:
    """``alpha_series`` as Horner's rule on ``Fraction`` objects: exact
    rational arithmetic on the binary value of e, rounded once at the end.
    ``alpha_series`` must match it bit for bit."""
    if j not in SERIES_COEFFS:
        raise ValueError(f"series coefficients available only for j in (2, 3), got {j}")
    if e < 0.0:
        raise ValueError(f"eccentricity must be >= 0, got {e}")
    e_exact = Fraction(e)
    acc = Fraction(0)
    for k in range(CANONICAL_ORDER[j], -1, -1):
        acc = acc * e_exact + SERIES_COEFFS[j].get(k, Fraction(0))
    return float(acc)


def _truncated_product(f, g, order):
    """f g through e^order, for power series in e given as lists of their
    coefficients, Laurent polynomials in z as {power: Fraction}."""
    out = [{} for _ in range(order + 1)]
    for k, fk in enumerate(f[: order + 1]):
        for gl, acc in zip(g, out[k:]):
            for p, a in fk.items():
                for q, b in gl.items():
                    acc[p + q] = acc.get(p + q, 0) + a * b
    return out


def _binomial_laurent(k, sign):
    """((z + sign/z)/2)^k as {power: Fraction}."""
    return {k - 2 * i: Fraction(math.comb(k, i) * sign**i, 2**k) for i in range(k + 1)}


def hansen_series(j: int, order: int) -> list:
    """The Taylor coefficients of alpha_j(e) through e^order, derived exactly:
    alpha_j = -(1/2) X_j^{-3,2}(e), a Hansen coefficient, is -1/2 times the
    z^0 term of

        (((1-b) z + (1+b)/z)/2 - e)^2 (1 - e (z + 1/z)/2)^-4 exp(-j e (z - 1/z)/2) z^j

    with z = e^{iu} on the eccentric anomaly u and b = sqrt(1 - e^2), every
    factor expanded in powers of e with Laurent polynomials in z as
    coefficients."""
    b, binom = [Fraction(0)] * (order + 1), Fraction(1)
    for k in range(order // 2 + 1):  # b = sum_k binom(1/2, k) (-e^2)^k
        b[2 * k], binom = binom * (-1) ** k, binom * (Fraction(1, 2) - k) / (k + 1)
    radial = [{1: (int(k == 0) - b[k]) / 2, -1: (int(k == 0) + b[k]) / 2, 0: -int(k == 1)}
              for k in range(order + 1)]
    inverse_rho4 = [{p: math.comb(k + 3, 3) * c for p, c in _binomial_laurent(k, 1).items()}
                    for k in range(order + 1)]
    kepler = [{p: Fraction((-j) ** k, math.factorial(k)) * c
               for p, c in _binomial_laurent(k, -1).items()} for k in range(order + 1)]
    product = _truncated_product(_truncated_product(radial, radial, order),
                                 _truncated_product(inverse_rho4, kepler, order), order)
    return [-term.get(-j, Fraction(0)) / 2 for term in product]


def _alpha_exponential(e, j, n_quad):
    t = 2.0 * np.pi * np.arange(n_quad) / n_quad
    weights = tidal_kernel(e, t) * np.exp(-1j * j * t)
    return complex(math.fsum(weights.real) / n_quad, math.fsum(weights.imag) / n_quad)


def fourier_coefficient_exponential(e: float, j: int, n_quad: int = 2048) -> complex:
    """alpha_j(e) as the j-th Fourier coefficient of the complex kernel.

    Independent of ``fourier_coefficient``: integrates on the mean-anomaly
    grid (one Kepler solve per node) instead of the eccentric-anomaly grid.
    The imaginary part is a numerical-zero diagnostic.  Raises
    QuadratureError when the value on 2*n_quad nodes differs by more than
    FLOAT_SLACK.
    """
    if j == 0:
        raise ValueError("j = 0 is undefined: the potential has no static harmonic")
    value, refined = _alpha_exponential(e, j, n_quad), _alpha_exponential(e, j, 2 * n_quad)
    if abs(value - refined) > FLOAT_SLACK:
        raise QuadratureError(f"alpha_{j}({e}): doubling the mean-anomaly grid moved it by "
                              f"{abs(value - refined):.3e}; n_quad={n_quad} too small")
    return value


# ------------------------------------------------ periodic functions

def zero(order: int) -> PeriodicFunction:
    return PeriodicFunction(np.zeros(order + 1, dtype=complex))


def from_samples(values, order: int) -> PeriodicFunction:
    """Project n uniform samples onto modes 1..order (mean discarded)."""
    values = np.asarray(values, dtype=float)
    n = len(values)
    if n < 2 * order + 2:
        raise ValueError(f"need at least {2 * order + 2} samples for order {order}")
    spectrum = np.fft.rfft(values) / n
    c = np.zeros(order + 1, dtype=complex)
    c[1:] = spectrum[1 : order + 1]
    return PeriodicFunction(c)


def evaluate_matrix(v: PeriodicFunction, t):
    """v at scalar or array t through the (N x M) matrix exp(i k t), the form
    ``PeriodicFunction.evaluate`` had before it used Horner's rule."""
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    k = np.arange(1, v.order + 1)
    phases = np.exp(1j * np.outer(k, t_arr))
    vals = 2.0 * np.real(v.coefficients[1:] @ phases)
    return float(vals[0]) if np.ndim(t) == 0 else vals.reshape(np.shape(t))


def sup_norm(v: PeriodicFunction, n: Optional[int] = None) -> float:
    n = n or max(512, 8 * v.order)
    return float(np.max(np.abs(v.samples(n))))


def scaled(v: PeriodicFunction, scalar) -> PeriodicFunction:
    return PeriodicFunction(v.coefficients * scalar)


def difference(v: PeriodicFunction, w: PeriodicFunction) -> PeriodicFunction:
    n = max(v.order, w.order)
    c = np.zeros(n + 1, dtype=complex)
    c[: v.order + 1] = v.coefficients
    c[: w.order + 1] -= w.coefficients
    return PeriodicFunction(c)


def derivative(v: PeriodicFunction, order: int = 1) -> PeriodicFunction:
    k = np.arange(len(v.coefficients))
    return PeriodicFunction(v.coefficients * (1j * k) ** order)


def xdot_of(orbit, s):
    """Rotation rate of a ResonantOrbit at time s: p/q + u'(s/q)/q, by
    Horner, in the order of operations ``initial_state`` reproduces."""
    p, q = orbit.params.p, orbit.params.q
    return p / q + derivative(orbit.u).evaluate(np.asarray(s) / q) / q


def green_norm_bound(eta_hat: float) -> float:
    """Operator-norm bound (1 + eta_hat (pi/2)/(1 - eta_hat pi/2)) pi^2/8.

    Valid for 0 <= eta_hat < 2/pi; equals pi^2/8 at eta_hat = 0 and 5/4 at
    eta_hat = 2/pi - pi/5, the Green-norm condition's ceiling.
    """
    if not 0.0 <= eta_hat < 2.0 / math.pi:
        raise ValueError(f"eta_hat must lie in [0, 2/pi), got {eta_hat}")
    half_pi_eta = eta_hat * math.pi / 2.0
    return (1.0 + half_pi_eta / (1.0 - half_pi_eta)) * math.pi**2 / 8.0


def green_apply(g: PeriodicFunction, eta_hat: float) -> PeriodicFunction:
    """Invert u'' + eta_hat u' = g on zero-average functions.

    Fourier multiplier u_k = g_k / (-k^2 + i eta_hat k) for k != 0; the
    zero mode is absent by the PeriodicFunction invariant.
    """
    return PeriodicFunction(g.coefficients * _green_multiplier(g.order, eta_hat))


def phi_hat(xi: float, u: PeriodicFunction, params, n_coll: Optional[int] = None):
    """Zero-average part of -V_x(xi + p t + u(t), q t) on the collocation grid.

    Returns (PeriodicFunction, removed_mean); the removed mean equals
    -phi(xi) for the given u.  The composite is 2*pi-periodic in t because
    p and q are integers.
    """
    n = n_coll if n_coll is not None else max(4 * u.order, 256)
    t = 2.0 * np.pi * np.arange(n) / n
    values = -potential_fx(params.e, xi + params.p * t + u.samples(n), params.q * t)
    c, mean = _project(values, u.order)
    return PeriodicFunction(c), float(mean)


def _project(samples, order: int):
    """Zero-mean spectral projection, after the package's aliasing check.

    Returns (modes 0..order with mode 0 zeroed, removed mean); raises
    SolverError from ``_check_spectrum`` on an unresolved spectrum.
    """
    spectrum = np.fft.rfft(samples) / len(samples)
    mean = spectrum[0].real
    _check_spectrum(spectrum, mean)
    c = spectrum[: order + 1]
    c[0] = 0.0
    return c, mean
