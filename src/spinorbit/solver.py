"""Constructive solver for resonant periodic orbits.

A p:q resonant rotation x(t) is written as x(t) = (p/q) t + xi + u(t/q)
with u a 2*pi-periodic zero-average correction.  u solves

    u'' + eta_hat u' = eta_hat nu_hat - eps_hat V_x(xi + p t + u(t), q t)

which splits into a fixed-point ("range") equation on the zero-average
part, solved here by contraction in a truncated Fourier representation,
and a scalar ("bifurcation") equation

    phi(xi) := <V_x(xi + p t + u(t; xi), q t)> = eta_hat nu_hat / eps_hat

for the phase xi, solved by a bracketed root search (regula falsi with a
halving safeguard) on a bracket around the extremizers of the leading term
-2 alpha_j sin(2 xi); phases are solved in batches.  Every numerical failure
of a solve is a SolverError.

All operations are pure; a solve is deterministic for fixed inputs.
"""

import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .catalog import ResonanceParams
from .certification import GREEN_ETA_HAT_MAX, conditions
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

    def derivative(self, order: int = 1) -> "PeriodicFunction":
        k = np.arange(len(self.coefficients))
        return PeriodicFunction(self.coefficients * (1j * k) ** order)


def _synthesize(coefficients, n: int):
    """Values at n uniform nodes of each row of modes 0..N (mode 0 ignored)."""
    spectrum = np.zeros(coefficients.shape[:-1] + (n // 2 + 1,), dtype=complex)
    spectrum[..., 1 : coefficients.shape[-1]] = coefficients[..., 1:] * n
    return np.fft.irfft(spectrum, n)


def _green_multiplier(order: int, eta_hat: float):
    """1 / (-k^2 + i eta_hat k) for modes k = 0..order, with 0 at k = 0."""
    if eta_hat < 0.0:
        raise ValueError(f"eta_hat must be >= 0, got {eta_hat}")
    k = np.arange(1, order + 1, dtype=float)
    return np.concatenate(([0.0], 1.0 / (-(k**2) + 1j * eta_hat * k)))


class _Workspace:
    """Cached orbit geometry on the collocation grid of truncation order N."""

    def __init__(self, params: ResonanceParams, order: int):
        self.n = n = max(4 * order, _COLLOCATION_MIN)
        t = 2.0 * np.pi * np.arange(n) / n
        self.pt = params.p * t
        _, rho, f = anomalies(params.e, params.q * t)
        self.two_f = 2.0 * f
        self.inv_rho3 = 1.0 / rho**3

    def neg_fx_samples(self, xi, u_samples) -> np.ndarray:
        x = xi + self.pt + u_samples
        return -np.sin(2.0 * x - self.two_f) * self.inv_rho3


def _project(samples, order: int):
    """Zero-mean spectral projection of each row plus aliasing check.

    Returns (modes 0..order with mode 0 zeroed, removed means).  Raises
    SolverError when, in any row, the top third of the resolved band
    holds more than 1e-8 of the total oscillatory energy.
    """
    n = samples.shape[-1]
    spectrum = np.fft.rfft(samples) / n
    mean = spectrum[..., 0].real.copy()
    energy = np.abs(spectrum[..., 1:]) ** 2
    cutoff = int(math.ceil(2.0 * energy.shape[-1] / 3.0))
    # reference power includes the mean so that rounding noise riding on a
    # constant signal does not masquerade as aliasing; signals below the
    # double-precision noise floor are treated as resolved
    total = np.sum(energy, axis=-1) + mean * mean
    top = np.sum(energy[..., cutoff:], axis=-1)
    aliased = np.flatnonzero((top > 1e-8 * total) & (total > 1e-20))
    if len(aliased):
        fraction = np.ravel(top)[aliased[0]] / np.ravel(total)[aliased[0]]
        raise SolverError(f"unresolved collocation spectrum (top-band energy fraction "
                          f"{fraction:.2e} of the signal power); increase the truncation order")
    c = spectrum[..., : order + 1]
    c[..., 0] = 0.0
    return c, mean


@dataclass(frozen=True)
class RangeSolution:
    """Fixed point u of the contraction at one phase xi, and phi(xi) there."""

    xi: float
    u: PeriodicFunction
    sup_norm: float
    iterations: int
    increments: tuple
    phi: float


@dataclass(frozen=True)
class ResonantOrbit:
    """Constructed p:q resonant orbit x(s) = (p/q) s + xi_star + u(s/q)."""

    params: ResonanceParams
    xi_star: float
    u: PeriodicFunction
    bifurcation_residual: float
    sign_changes: tuple
    xi_average: float

    def x_of(self, s):
        """Rotation angle at time s (satisfies x(s + 2 pi q) = x(s) + 2 pi p)."""
        p, q = self.params.p, self.params.q
        return p / q * np.asarray(s) + self.xi_star + self.u.evaluate(np.asarray(s) / q)

    def xdot_of(self, s):
        p, q = self.params.p, self.params.q
        return p / q + self.u.derivative().evaluate(np.asarray(s) / q) / q

    def initial_state(self):
        """(x, xdot) at s = 0, for handing to a direct integrator."""
        return float(self.x_of(0.0)), float(self.xdot_of(0.0))

    def to_dict(self, n_samples: int = 256) -> dict:
        s = 2.0 * np.pi * self.params.q * np.arange(n_samples) / n_samples
        coeffs = self.u.coefficients
        return {
            "p": self.params.p,
            "q": self.params.q,
            "e": self.params.e,
            "eps": self.params.eps,
            "eta": self.params.eta,
            "nu": self.params.nu,
            "xi_star": self.xi_star,
            "xi_average": self.xi_average,
            "bifurcation_residual": self.bifurcation_residual,
            "sign_changes": [list(br) for br in self.sign_changes],
            "u_coefficients": [[c.real, c.imag] for c in coeffs],
            "t": list(s),
            "x": list(np.asarray(self.x_of(s), dtype=float)),
        }

    def to_json(self, n_samples: int = 256) -> str:
        return json.dumps(self.to_dict(n_samples), indent=1) + "\n"


def _require(params: ResonanceParams, names):
    """Raise PreconditionError naming the first of ``names`` that fails, or
    the reason the conditions cannot be evaluated (e outside the disk)."""
    try:
        c = conditions(params)
    except ValueError as exc:
        raise PreconditionError(str(exc)) from exc
    failed = [name for name in c.failed if name in names]
    if not failed:
        return
    if failed[0] == "green":
        message = (f"eta_hat={params.eta_hat:.6g} violates the Green-norm "
                   f"condition (max {GREEN_ETA_HAT_MAX:.6g})")
    elif failed[0] == "range":
        message = f"range (contraction) condition fails: margin {c.range:.6g} <= 0"
    elif failed[0] == "nonempty":
        message = (f"non-empty (topological) condition fails: margin "
                   f"{c.nonempty:.6g} <= 0")
    elif not params.eps > 0.0:
        message = f"eps={params.eps}: the phase equation needs eps > 0"
    else:
        message = (f"bifurcation condition fails: eta_hat={params.eta_hat:.6g}, "
                   f"ceiling {c.eta_hat_bif:.6g} from the certified "
                   f"phase-equation half-width {c.halfwidth:.6g}")
    raise PreconditionError(message)


def _fixed_points(xis, params, order, ws, initial=None):
    """Fixed points u(.; xi) of the contraction at every phase of ``xis``.

    Iterates an (m, n) matrix of samples, one row per phase, from u = 0 (or
    ``initial``); only the rows still moving are transformed, and a row is
    frozen once its sup-norm increment is <= _TOL_FIXED_POINT.  A row's
    arithmetic is that of a lone solve, so batching changes no bit.
    Returns the modes 0..order (m, order+1), the samples (m, n), phi and
    the steps: one array per iteration, the sup-norm increments of the rows
    transformed in it (a row's own increments for a single phase).
    """
    xis = np.asarray(xis, dtype=float)
    multiplier = _green_multiplier(order, params.eta_hat)
    start = np.zeros(ws.n) if initial is None else initial.samples(ws.n)
    samples = np.tile(start, (len(xis), 1))
    coefficients = np.zeros((len(xis), order + 1), dtype=complex)
    steps = []
    active = np.arange(len(xis))
    for _ in range(_RANGE_ITERATION_CAP):
        old = samples[active]
        rhs, _ = _project(ws.neg_fx_samples(xis[active, None], old), order)
        coefficients[active] = c = (rhs * multiplier) * params.eps_hat
        samples[active] = new = _synthesize(c, ws.n)
        step = np.max(np.abs(new - old), axis=-1)
        steps.append(step)
        moving = ~(step <= _TOL_FIXED_POINT)
        active = active[moving]
        if not len(active):
            break
    else:
        raise SolverError(f"fixed-point iteration cap {_RANGE_ITERATION_CAP} reached at "
                          f"xi={xis[active[0]]:.6g} (last increment {step[moving][0]:.3e}); "
                          f"check N")
    # one more sample pass so the reported phase average matches the
    # returned fixed point, not the previous iterate
    final = ws.neg_fx_samples(xis[:, None], samples).tolist()
    return coefficients, samples, [-(math.fsum(v) / ws.n) for v in final], steps


def solve_range(xi: float, params: ResonanceParams, N: Optional[int] = None,
                initial: Optional[PeriodicFunction] = None) -> RangeSolution:
    """Solve the fixed-point equation u = eps_hat G[-V_x(...) + mean] at xi.

    Iterates from u = 0 (or ``initial``) until the sup-norm increment is
    <= 1e-12; geometric convergence with ratio at most (5/2) eps_hat
    sup|V_xx| < 1 under the range condition, which is checked (with the
    Green-norm condition) before iterating.  The fixed point is unique in
    its ball, so the starting iterate only affects the step count.  The
    truncation order N defaults to 64 for 1:1 and 128 for 3:2.
    """
    _require(params, ("green", "range"))
    N = _MODES[params.q] if N is None else N
    coefficients, samples, phi, steps = _fixed_points(
        [xi], params, N, _Workspace(params, N), initial)
    return RangeSolution(xi=xi, u=PeriodicFunction(coefficients[0]),
                         sup_norm=float(np.max(np.abs(samples[0]))),
                         iterations=len(steps), increments=tuple(float(s[0]) for s in steps),
                         phi=phi[0])


def _bracketed_root(f, lo, hi, f_lo, f_hi, tol):
    """A point x of [lo, hi] with |f(x)| <= tol, given f_lo = f(lo) >= 0 and
    f_hi = f(hi) <= 0.

    An endpoint within tol is returned without calling f (lo first), and a
    bracket with f_lo < 0 or f_hi > 0 is refused with SolverError.  Otherwise
    Anderson-Bjorck regula falsi that always keeps the sign bracket: a step
    outside the open bracket, or one after three steps that together did
    not halve it, is replaced by the midpoint.  Raises SolverError once the
    bracket is narrower than 1e-15; for |lo|, |hi| < 4, as for the phase
    bracket, a wider bracket is at least three units in the last place
    wide, so its midpoint lies strictly inside.
    """
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
                      scan_points: int = 64) -> ResonantOrbit:
    """Find xi* with phi(xi*) = eta_hat nu_hat / eps_hat and assemble the orbit.

    Roots phi - target on [pi/4, 3*pi/4], the bracket between the
    extremizers of the leading term of phi, where the certified range of
    phi contains the target; the search (``_bracketed_root``) takes an
    endpoint within tolerance, refuses (SolverError) a bracket without a
    sign change and otherwise keeps one at every step, so the root stays in
    that interval; ``xi_average`` is that root.  A coarse scan over
    [0, 2*pi) records every sign-change bracket for diagnostics (existence,
    not uniqueness, is guaranteed, so several roots may coexist).  The root meets |phi - target| <= 1e-10, each phase's
    fixed point is solved as in ``solve_range``, and N defaults to 64 for
    1:1 and 128 for 3:2; with these settings the orbit residual of the
    certified bodies measured stays far below 1e-9.  Raises
    PreconditionError unless all four conditions hold at ``params`` (never
    at eps <= 0); these are the conditions ``certify`` reads, so every
    certified eta is accepted.
    """
    _require(params, ("green", "range", "nonempty", "bifurcation"))
    N = _MODES[params.q] if N is None else N
    target = params.eta_hat * params.nu_hat / params.eps_hat

    ws = _Workspace(params, N)
    cache = {}

    def phi_tilde(phases):
        new = [xi for xi in dict.fromkeys(phases) if xi not in cache]
        if new:
            coefficients, _, phi, _ = _fixed_points(new, params, N, ws)
            cache.update((xi, (c, f - target))
                         for xi, c, f in zip(new, coefficients, phi))
        return [cache[xi][1] for xi in phases]

    # diagnostic scan: all sign changes of phi - target on a coarse grid,
    # solved in one batch with the bracket endpoints
    lo, hi = math.pi / 4.0, 3.0 * math.pi / 4.0
    grid = (2.0 * np.pi * np.arange(scan_points) / scan_points).tolist()
    *vals, f_lo, f_hi = phi_tilde(grid + [lo, hi])
    sign_changes = []
    for i in range(scan_points):
        a, b = vals[i], vals[(i + 1) % scan_points]
        if a == 0.0 or (a < 0.0) != (b < 0.0):
            sign_changes.append((grid[i], grid[(i + 1) % scan_points]))

    root = _bracketed_root(lambda xi: phi_tilde([xi])[0], lo, hi, f_lo, f_hi,
                           _TOL_BIFURCATION)
    coefficients, residual = cache[root]
    # the time-average normalization (mean of x(q t) - p t) is the root
    # itself, because u has zero average by construction
    return ResonantOrbit(
        params=params,
        xi_star=root,
        u=PeriodicFunction(coefficients),
        bifurcation_residual=abs(residual),
        sign_changes=tuple(sign_changes),
        xi_average=root,
    )
