"""Direct integration of the dissipative spin-orbit equation.

The rotation angle x(t) (kept on the universal cover, i.e. never wrapped)
obeys

    x'' + eta (x' - nu) + eps V_x(x, t) = 0,

with t the mean anomaly.  A classical fixed-step 4th-order Runge-Kutta
integrator provides an oracle fully independent of the spectral solver:
a constructed orbit can be re-integrated from its initial condition and
compared against its reconstruction, and any trajectory can be tested for
the resonance identity x(t + 2 pi q) = x(t) + 2 pi p.

The integrator is sequential in time, so numpy only precomputes the Kepler
grid; the step loop itself runs on plain Python floats.  The same scheme
written on numpy scalars is the test reference in tests/oracles.py, and
the two agree bit for bit.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .catalog import ResonanceParams
from .kepler import anomalies
from .potential import potential_fx

__all__ = [
    "SpinState",
    "Trajectory",
    "DynamicsError",
    "integrate",
    "check_resonance",
    "orbit_residual",
    "DEFAULT_STEP",
]

DEFAULT_STEP = 2.0 * math.pi / 4096.0


class DynamicsError(RuntimeError):
    """Non-finite state or ill-posed trajectory query."""


class SpinState(NamedTuple):
    """Rotation angle x, angular rate v = dx/dt, mean anomaly t."""

    x: float
    v: float
    t: float


@dataclass(frozen=True)
class Trajectory:
    """Uniform-step trajectory samples."""

    t: np.ndarray
    x: np.ndarray
    v: np.ndarray

    def __len__(self) -> int:
        return len(self.t)

    @property
    def step(self) -> float:
        return float(self.t[1] - self.t[0])


def integrate(initial: SpinState, t_end: float, params: ResonanceParams,
              step: float = DEFAULT_STEP) -> Trajectory:
    """Fixed-step RK4 from initial.t to t_end.

    The number of steps is rounded so the grid lands exactly on t_end; the
    orbital radius and true anomaly are precomputed on the half-step grid,
    so each stage costs one sine evaluation.  The step loop runs on plain
    Python floats (numpy scalar arithmetic would cost it 3x); the products
    keep their left-to-right order, so the samples are bit-identical to the
    same scheme written on numpy scalars.  Deterministic for fixed inputs.

    Raises:
        ValueError: a non-finite initial state, t_end or step, a step
            <= 0, or t_end <= initial.t.
        DynamicsError: the state overflows to a non-finite value.
    """
    for name, value in (("initial.x", initial.x), ("initial.v", initial.v),
                        ("initial.t", initial.t), ("t_end", t_end), ("step", step)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if step <= 0.0:
        raise ValueError(f"step must be positive, got {step}")
    span = t_end - initial.t
    if span <= 0.0:
        raise ValueError(f"t_end={t_end} must exceed initial.t={initial.t}")
    n = max(1, round(span / step))
    h = span / n

    half_grid = initial.t + 0.5 * h * np.arange(2 * n + 1)
    _, rho, f = anomalies(params.e, half_grid)
    # the loop reads and writes through memoryviews, whose items are Python
    # floats; ndarray items are numpy scalars, whose arithmetic would
    # dominate it
    two_f = memoryview(2.0 * f)
    inv_rho3 = memoryview(1.0 / rho**3)
    xs, vs = np.empty(n + 1), np.empty(n + 1)
    x_out, v_out = memoryview(xs), memoryview(vs)

    neg_eta, nu, eps = -params.eta, params.nu, params.eps
    sin, isfinite = math.sin, math.isfinite
    hh, h6 = 0.5 * h, h / 6.0
    x, v = float(initial.x), float(initial.v)
    x_out[0], v_out[0] = x, v
    # the step to sample k reads the half grid at 2k - 2 (start), 2k - 1
    # (midpoint) and 2k (end)
    try:
        for k, f0, r0, f1, r1, f2, r2 in zip(range(1, n + 1), two_f[0::2], inv_rho3[0::2],
                                             two_f[1::2], inv_rho3[1::2],
                                             two_f[2::2], inv_rho3[2::2]):
            k1v = neg_eta * (v - nu) - eps * sin(2.0 * x - f0) * r0
            k2x = v + hh * k1v
            k2v = neg_eta * (k2x - nu) - eps * sin(2.0 * (x + hh * v) - f1) * r1
            k3x = v + hh * k2v
            k3v = neg_eta * (k3x - nu) - eps * sin(2.0 * (x + hh * k2x) - f1) * r1
            k4x = v + h * k3v
            k4v = neg_eta * (k4x - nu) - eps * sin(2.0 * (x + h * k3x) - f2) * r2
            x += h6 * (v + 2.0 * k2x + 2.0 * k3x + k4x)
            v += h6 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
            if not (isfinite(x) and isfinite(v)):
                raise DynamicsError(f"non-finite state at t={initial.t + h * k}")
            x_out[k], v_out[k] = x, v
    except ValueError:  # math.sin of an infinite 2x, x itself still finite
        raise DynamicsError(f"non-finite state at t={initial.t + h * k}") from None
    ts = initial.t + h * np.arange(n + 1)
    return Trajectory(t=ts, x=xs, v=vs)


def check_resonance(trajectory_or_orbit, p: int, q: int) -> float:
    """sup over sampled t of |x(t + 2 pi q) - x(t) - 2 pi p|.

    Accepts either a Trajectory spanning at least one resonance period
    2 pi q (the grid must align with the period to within 1e-9) or a
    constructed orbit exposing ``x_of``.  A constructed orbit meets the
    identity by construction, so for one this measures only round-off; that
    branch is kept because the orbit-scan benchmark workload calls it.
    A q below 1 is a ValueError.
    """
    if q < 1:
        raise ValueError(f"resonance q must be >= 1, got q={q!r}")
    period = 2.0 * math.pi * q
    shift = 2.0 * math.pi * p
    if hasattr(trajectory_or_orbit, "x_of"):
        orbit = trajectory_or_orbit
        s = np.linspace(0.0, period, 512, endpoint=False)
        # one Horner pass over both shifts; it works point by point
        x = orbit.x_of(np.concatenate((s + period, s)))
        return float(np.abs(x[:512] - x[512:] - shift).max())
    traj = trajectory_or_orbit
    if len(traj) < 2:
        raise DynamicsError("trajectory too short")
    h = traj.step
    offset = round(period / h)
    if abs(offset * h - period) > 1e-9:
        raise DynamicsError(
            f"trajectory step {h} does not align with the period {period}"
        )
    if offset >= len(traj):
        raise DynamicsError(
            f"trajectory spans {traj.t[-1] - traj.t[0]:.6g} < one resonance "
            f"period {period:.6g}"
        )
    diffs = traj.x[offset:] - traj.x[: len(traj) - offset] - shift
    return float(np.max(np.abs(diffs)))


def orbit_residual(orbit) -> float:
    """sup-norm of u'' + eta_hat (u' - nu_hat) + eps_hat V_x(xi + pt + u, qt).

    Spectral evaluation on max(512, 2N + 2) uniform nodes; zero (to solver
    tolerance) exactly when the orbit solves both the fixed-point and the
    phase equations.
    """
    params = orbit.params
    n = max(512, 2 * orbit.u.order + 2)
    t = 2.0 * np.pi * np.arange(n) / n
    # u, u' and u'' in one inverse FFT, scaled as PeriodicFunction.samples
    c = orbit.u.coefficients
    ik = 1j * np.arange(len(c))
    u_t, du, ddu = np.fft.irfft(np.stack((c, c * ik, c * ik**2)) * n, n)
    forcing = potential_fx(params.e, orbit.xi_star + params.p * t + u_t, params.q * t)
    residual = ddu + params.eta_hat * (du - params.nu_hat) + params.eps_hat * forcing
    return float(np.max(np.abs(residual)))
