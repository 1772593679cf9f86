"""Direct integration of the dissipative spin-orbit equation.

The rotation angle x(t) (kept on the universal cover, i.e. never wrapped)
obeys

    x'' + eta (x' - nu) + eps V_x(x, t) = 0,

with t the mean anomaly.  A classical fixed-step 4th-order Runge-Kutta
integrator provides an oracle fully independent of the spectral solver:
a constructed orbit can be re-integrated from its initial condition and
compared against its reconstruction, and any trajectory can be tested for
the resonance identity x(t + 2 pi q) = x(t) + 2 pi p.
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
    so each stage costs one sine evaluation.  Deterministic for fixed
    inputs.
    """
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


def check_resonance(trajectory_or_orbit, p: int, q: int) -> float:
    """sup over sampled t of |x(t + 2 pi q) - x(t) - 2 pi p|.

    Accepts either a Trajectory spanning at least one resonance period
    2 pi q (the grid must align with the period to within 1e-9) or a
    constructed orbit exposing ``x_of``.
    """
    period = 2.0 * math.pi * q
    shift = 2.0 * math.pi * p
    if hasattr(trajectory_or_orbit, "x_of"):
        orbit = trajectory_or_orbit
        s = np.linspace(0.0, period, 512, endpoint=False)
        return float(np.max(np.abs(orbit.x_of(s + period) - orbit.x_of(s) - shift)))
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
    u_t = orbit.u.samples(n)
    du = orbit.u.derivative(1).samples(n)
    ddu = orbit.u.derivative(2).samples(n)
    forcing = potential_fx(params.e, orbit.xi_star + params.p * t + u_t, params.q * t)
    residual = ddu + params.eta_hat * (du - params.nu_hat) + params.eps_hat * forcing
    return float(np.max(np.abs(residual)))
