"""Constructive solver for resonant periodic orbits.

A p:q resonant rotation x(t) is written as x(t) = (p/q) t + xi + u(t/q)
with u a 2*pi-periodic zero-average correction.  u solves

    u'' + eta_hat u' = eta_hat nu_hat - eps_hat V_x(xi + p t + u(t), q t)

which splits into a fixed-point ("range") equation on the zero-average
part, solved here one phase at a time by contraction in a truncated
Fourier representation (one RangeSolution per phase solve, whose forcing
spectrum is checked for aliasing once, at the returned iterate), and a scalar
("bifurcation") equation

    phi(xi) := <V_x(xi + p t + u(t; xi), q t)> = eta_hat nu_hat / eps_hat

for the phase xi, solved by a bracketed root search (regula falsi with a
halving safeguard) on [pi/4, 3 pi/4], the bracket between the extremizers
of the leading term -2 alpha_j sin(2 xi) on which the certification
conditions prove a root.  The search runs in s = -sin(2 xi) on [-1, 1],
where phi is that leading term, 2 alpha_j s, plus O(eps_hat), so nearly
linear.  Every numerical failure of a solve is a SolverError.

All operations are pure; a solve is deterministic for fixed inputs.
"""

import math
from collections import namedtuple
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .catalog import ResonanceParams
from .certification import conditions, json_text
from .kepler import anomalies

__all__ = [
    "PeriodicFunction", "RangeSolution", "ResonantOrbit",
    "SolverError", "PreconditionError",
    "solve_range", "solve_bifurcation",
]

_RANGE_ITERATION_CAP = 2000
_COLLOCATION_MIN = 256  # fewest collocation nodes; order N gets max(4N, this)
# the orbit's numerical policy: truncation order N by q (1:1 and 3:2), the
# fixed-point increment and the phase-equation residual at which to stop
_MODES = {1: 64, 2: 128}
_TOL_FIXED_POINT = 1e-12
_TOL_BIFURCATION = 1e-10


class SolverError(RuntimeError):
    """Iteration cap, unresolved spectrum, no sign change or stagnation."""


class PreconditionError(ValueError):
    """A certification condition required by the solver does not hold."""


class PeriodicFunction:
    """Real 2*pi-periodic function with zero average, as Fourier coefficients.

    Stores c_k for 0 <= k <= N with the convention
        v(t) = sum_{|k| <= N} c_k exp(i k t),  c_{-k} = conj(c_k),
    and c_0 = 0 enforced at construction.
    """

    __slots__ = ("coefficients",)

    def __init__(self, coefficients):
        c = np.asarray(coefficients, dtype=complex).copy()
        if c.ndim != 1 or len(c) < 1:
            raise ValueError("coefficients must be a non-empty 1-d array")
        scale = np.max(np.abs(c))
        if abs(c[0]) > 1e-12 * max(scale, 1.0):
            raise ValueError(f"zero-average function required, got mean term {c[0]}")
        c[0] = 0.0
        self.coefficients = c

    @property
    def order(self) -> int:
        return len(self.coefficients) - 1

    def samples(self, n: int):
        """Values at n uniform nodes on [0, 2*pi); exact for n >= 2N+2."""
        if n < 2 * self.order + 2:
            raise ValueError(f"need n >= {2 * self.order + 2} to represent order {self.order}")
        return _synthesize(self.coefficients, n)

    def evaluate(self, t):
        """Pointwise evaluation at arbitrary (scalar or array) t.

        Horner's rule in z = exp(i t): one exponential per point and N
        multiply-adds, 2 Re(((c_N z + c_{N-1}) z + ...) z).
        """
        z = np.exp(1j * np.asarray(t, dtype=float))
        acc = np.zeros(np.shape(z), dtype=complex)
        for c in self.coefficients[:0:-1]:
            acc += c
            acc *= z
        vals = 2.0 * acc.real
        return float(vals) if np.ndim(t) == 0 else vals


def _synthesize(coefficients, n: int):
    """Values at n uniform nodes of modes 0..N <= n//2 (irfft pads with zeros);
    mode 0 is exactly 0 at both callers, by PeriodicFunction's invariant and
    ``_fixed_point``'s zeroed mean."""
    return np.fft.irfft(coefficients * n, n)


def _green_multiplier(order: int, eta_hat: float):
    """1 / (-k^2 + i eta_hat k) for modes k = 0..order, with 0 at k = 0."""
    if eta_hat < 0.0:
        raise ValueError(f"eta_hat must be >= 0, got {eta_hat}")
    k = np.arange(1, order + 1, dtype=float)
    return np.concatenate(([0.0], 1.0 / (-(k**2) + 1j * eta_hat * k)))


class _Workspace:
    """Order N, eps_hat, Green multiplier and grid geometry: what every phase solve shares."""

    def __init__(self, params: ResonanceParams, order: int):
        self.order = order
        self.eps_hat = params.eps_hat
        self.multiplier = _green_multiplier(order, params.eta_hat)
        self.n = n = max(4 * order, _COLLOCATION_MIN)
        t = 2.0 * np.pi * np.arange(n) / n
        self.pt = params.p * t
        _, rho, f = anomalies(params.e, params.q * t)
        self.two_f = 2.0 * f
        self.neg_inv_rho3 = -(1.0 / rho**3)


def _check_spectrum(spectrum, mean):
    """Aliasing check on ``spectrum``, rfft(samples)/n, whose mode 0 is
    ``mean`` (the caller may have zeroed it since).

    Raises SolverError when the top third of the resolved band holds more
    than 1e-8 of the total oscillatory energy.
    """
    energy = np.abs(spectrum[1:]) ** 2
    cutoff = int(math.ceil(2.0 * len(energy) / 3.0))
    # reference power includes the mean so that rounding noise riding on a
    # constant signal does not masquerade as aliasing; signals below the
    # double-precision noise floor are treated as resolved
    total = np.sum(energy) + mean * mean
    top = np.sum(energy[cutoff:])
    if top > 1e-8 * total and total > 1e-20:
        raise SolverError(f"unresolved collocation spectrum (top-band energy fraction "
                          f"{top / total:.2e} of the signal power); increase the truncation order")


class RangeSolution(namedtuple("RangeSolution", "xi u increments phi")):
    """Fixed point u of the contraction at one phase xi, and phi(xi) there.

    An immutable tuple.  ``increments`` holds the sup-norm increment of each
    iteration, so its length is the iteration count.
    """

    __slots__ = ()


@dataclass(frozen=True)
class ResonantOrbit:
    """Constructed p:q resonant orbit x(s) = (p/q) s + xi_star + u(s/q)."""

    params: ResonanceParams
    xi_star: float
    u: PeriodicFunction
    bifurcation_residual: float

    def x_of(self, s):
        """Rotation angle at time s (satisfies x(s + 2 pi q) = x(s) + 2 pi p)."""
        p, q = self.params.p, self.params.q
        return p / q * np.asarray(s) + self.xi_star + self.u.evaluate(np.asarray(s) / q)

    def initial_state(self):
        """(x, xdot) at s = 0, for handing to a direct integrator.

        At s = 0, z = 1 and Horner's rule adds Re c_k, and Re (i k c_k) =
        -k Im c_k, from k = N down to 1; np.cumsum adds in that order too
        (np.sum pairs), so this is float(x_of(0.0)) and the test oracle
        tests/oracles.xdot_of at 0 bit for bit; c_0 = 0 changes no sum.
        """
        p, q = self.params.p, self.params.q
        c = self.u.coefficients[::-1]
        k = np.arange(len(c) - 1, -1, -1)
        x0 = self.xi_star + 2.0 * float(np.cumsum(c.real)[-1])
        v0 = p / q - 2.0 * float(np.cumsum(k * c.imag)[-1]) / q
        return x0, v0

    def to_dict(self, n_samples: int = 256) -> dict:
        p, q = self.params.p, self.params.q
        s = 2.0 * np.pi * q * np.arange(n_samples) / n_samples
        # x_of(s) with u read off the inverse FFT on stride * n_samples nodes,
        # the least multiple of n_samples >= 2N + 2: within 1 ulp of Horner;
        # n_samples < 1 gives no samples
        n = max(n_samples, 1)
        stride = -(-(2 * self.u.order + 2) // n)
        x = p / q * s + self.xi_star + self.u.samples(stride * n)[::stride][: len(s)]
        return {
            **self.params._asdict(),
            "xi_star": self.xi_star,
            "bifurcation_residual": self.bifurcation_residual,
            "u_coefficients": self.u.coefficients.view(float).reshape(-1, 2).tolist(),
            "t": s.tolist(),
            "x": x.tolist(),
        }

    def to_json(self, n_samples: int = 256) -> str:
        return json_text(self.to_dict(n_samples)) + "\n"


def _require(params: ResonanceParams, names):
    """Raise PreconditionError with the reason of the first of ``names`` that
    fails, or the reason the conditions cannot be evaluated (e non-finite
    or outside the disk)."""
    try:
        c = conditions(params)
    except ValueError as exc:
        raise PreconditionError(str(exc)) from exc
    for name, reason in c.failed:
        if name in names:
            raise PreconditionError(reason)


def _order(params: ResonanceParams, N) -> int:
    """The truncation order: N, or by default ``_MODES[q]``.  Raises
    ValueError, before anything is allocated, unless it is an integer >= 1
    (a bool is not)."""
    N = _MODES[params.q] if N is None else N
    if isinstance(N, bool) or not isinstance(N, (int, np.integer)) or N < 1:
        raise ValueError(f"truncation order N must be an integer >= 1, got {N!r}")
    return N


def _neg_fx(x, ws):
    """-V_x at the nodes, sin(2 x - 2 f) / rho^3 negated, written over the
    angle array x = (xi + pt) + u."""
    x *= 2.0
    x -= ws.two_f
    np.sin(x, out=x)
    x *= ws.neg_inv_rho3
    return x


def _fixed_point(xi, ws, initial=None) -> RangeSolution:
    """Fixed point u(.; xi) of the contraction at the phase xi, and phi(xi).

    Iterates on the workspace ``ws`` from u = 0 (or ``initial``) until the
    sup-norm increment is <= _TOL_FIXED_POINT, then checks once that the
    forcing spectrum of the returned iterate is resolved (``_check_spectrum``).
    """
    samples = np.zeros(ws.n) if initial is None else initial.samples(ws.n)
    steps = []
    xi_pt = xi + ws.pt
    arg, d = np.empty(ws.n), np.empty(ws.n)
    for _ in range(_RANGE_ITERATION_CAP):
        spectrum = np.fft.rfft(_neg_fx(np.add(xi_pt, samples, out=arg), ws), norm="forward")
        mean = spectrum[0].real
        c = spectrum[: ws.order + 1]
        c[0] = 0.0
        c = (c * ws.multiplier) * ws.eps_hat
        new = _synthesize(c, ws.n)
        np.subtract(new, samples, out=d)
        steps.append(float(np.abs(d, out=d).max()))
        samples = new
        if steps[-1] <= _TOL_FIXED_POINT:
            break
    else:
        raise SolverError(f"fixed-point iteration cap {_RANGE_ITERATION_CAP} reached at "
                          f"xi={xi:.6g} (last increment {steps[-1]:.3e}); check N")
    # the spectrum whose projection c is returned; earlier iterates are discarded
    _check_spectrum(spectrum, mean)
    # one more sample pass so the reported phase average matches the
    # returned fixed point, not the previous iterate
    phi = -(math.fsum(_neg_fx(np.add(xi_pt, samples, out=arg), ws).tolist()) / ws.n)
    return RangeSolution(xi=xi, u=PeriodicFunction(c), increments=tuple(steps), phi=phi)


def solve_range(xi: float, params: ResonanceParams, N: Optional[int] = None,
                initial: Optional[PeriodicFunction] = None) -> RangeSolution:
    """Solve the fixed-point equation u = eps_hat G[-V_x(...) + mean] at xi.

    Iterates from u = 0 (or ``initial``) until the sup-norm increment is
    <= 1e-12; geometric convergence with ratio at most (5/2) eps_hat
    sup|V_xx| < 1 under the range condition, which is checked (with the
    Green-norm condition) before iterating.  The fixed point is unique in
    its ball, so the starting iterate only affects the step count.  The
    truncation order N defaults to 64 for 1:1 and 128 for 3:2.  This is
    the phase solve ``solve_bifurcation`` makes at each phase it tries.
    Any other N than an integer >= 1 is a ValueError.
    """
    N = _order(params, N)
    _require(params, ("green", "range"))
    return _fixed_point(xi, _Workspace(params, N), initial)


def _bracketed_root(f, lo, hi, tol):
    """A point x of [lo, hi] with |f(x)| <= tol, for f(lo) >= 0 >= f(hi).

    f is called at lo and then at hi.  An endpoint within tol is returned
    with no further call (lo first), and a bracket with f(lo) < 0 or
    f(hi) > 0 is refused with SolverError.  Otherwise Anderson-Bjorck
    regula falsi that always keeps the sign bracket: a step outside the
    open bracket, or one after three steps that together did not halve
    it, is replaced by the midpoint.  Raises SolverError once the
    bracket is narrower than 1e-15; inside [-1, 1], the phase bracket in
    s, floats are at most 2**-53 apart, so a wider bracket holds at least
    nine and its midpoint lies strictly inside.
    """
    f_lo, f_hi = f(lo), f(hi)
    if abs(f_lo) <= tol:
        return lo
    if abs(f_hi) <= tol:
        return hi
    if f_lo < 0.0 or f_hi > 0.0:
        raise SolverError(f"no sign change on the seeded bracket: f = ({f_lo:.3e}, "
                          f"{f_hi:.3e}) at ({lo:.6g}, {hi:.6g})")
    a, f_a, b, f_b = lo, f_lo, hi, f_hi  # b is the latest point
    widths = []
    while True:
        width = abs(b - a)
        if width < 1e-15:
            raise SolverError(f"root search stagnated at width {width:.3e} with "
                              f"residual {f_b:.3e} > {tol:.1e}")
        widths.append(width)
        x = b - f_b * (b - a) / (f_b - f_a)
        secant = min(a, b) < x < max(a, b) and not (
            len(widths) > 3 and width > 0.5 * widths[-4])
        if not secant:
            x = 0.5 * (a + b)
        f_x = f(x)
        if abs(f_x) <= tol:
            return x
        if (f_x < 0.0) != (f_b < 0.0):
            a, f_a = b, f_b
        elif secant:
            # the same end is kept again: scale its value down so the next
            # secant moves it (Anderson & Bjorck, BIT 13 (1973) 253)
            m = 1.0 - f_x / f_b
            f_a *= m if m > 0.0 else 0.5
        b, f_b = x, f_x


def solve_bifurcation(params: ResonanceParams, N: Optional[int] = None,
                      scan_points: int = 0) -> ResonantOrbit:
    """Find xi* with phi(xi*) = eta_hat nu_hat / eps_hat and assemble the orbit.

    Roots phi - target on [pi/4, 3*pi/4], the bracket between the
    extremizers of the leading term of phi, where the certified range of
    phi contains the target.  The search runs in s = -sin(2 xi) on
    [-1, 1], which the increasing xi(s) = pi/2 + asin(s)/2 maps onto the
    bracket end to end (bit for bit); there phi is linear up to
    O(eps_hat).  Each phase solved is xi(s), and the root returned is the
    xi at which phi was evaluated.  The search (``_bracketed_root``) takes an
    endpoint within tolerance, refuses (SolverError) a bracket without a
    sign change and otherwise keeps one at every step, so the root stays in
    that interval.  Existence, not uniqueness, is guaranteed: other roots
    may lie outside the bracket (phi(xi + pi) = phi(xi) gives at least one).
    The root is also the time average of x(q t) - p t, because u has zero
    average by construction.  The root meets |phi - target| <= 1e-10, each
    phase's fixed point is solved as in ``solve_range``, and N defaults to
    64 for 1:1 and 128 for 3:2 (any other N than an integer >= 1 is a
    ValueError); with these settings the orbit residual of the certified
    bodies measured stays far below 1e-9.  ``scan_points``
    accepts only 0 (there is no phase scan); any other value is a
    ValueError.  Raises
    PreconditionError unless all four conditions hold at ``params`` (never
    at eps <= 0); these are the conditions ``certify`` reads, so every
    certified eta is accepted.
    """
    if scan_points != 0:
        raise ValueError(f"scan_points must be 0 (there is no phase scan), got {scan_points!r}")
    N = _order(params, N)
    _require(params, ("green", "range", "nonempty", "bifurcation"))
    target = params.eta_hat * params.nu_hat / params.eps_hat
    ws = _Workspace(params, N)
    solved = {}

    def phi_tilde(s):
        solved[s] = _fixed_point(math.pi / 2.0 + math.asin(s) / 2.0, ws)
        return solved[s].phi - target

    root = solved[_bracketed_root(phi_tilde, -1.0, 1.0, _TOL_BIFURCATION)]
    return ResonantOrbit(
        params=params,
        xi_star=root.xi,
        u=root.u,
        bifurcation_residual=abs(root.phi - target),
    )
