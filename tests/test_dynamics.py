"""Direct-integration oracle: RK4 order, closed forms, resonance identity."""

import math
import re

import numpy as np
import pytest

from oracles import integrate_reference, rhs, scaled, zero
from spinorbit.catalog import ResonanceParams, bundled_catalog
from spinorbit.certification import certify
from spinorbit.dynamics import (
    DEFAULT_STEP,
    DynamicsError,
    SpinState,
    check_resonance,
    integrate,
    orbit_residual,
)
from spinorbit.solver import ResonantOrbit, solve_bifurcation
from test_kepler import bisect_oracle

TWO_PI = 2.0 * math.pi


def test_rhs_free_rotor():
    params = ResonanceParams(p=1, q=1, e=0.1, eps=0.0, eta=0.0, nu=1.0)
    dx, dv = rhs(SpinState(0.3, 0.7, 1.0), params)
    assert dx == 0.7
    assert dv == 0.0


def test_rhs_dissipative_equilibrium():
    params = ResonanceParams(p=1, q=1, e=0.1, eps=0.0, eta=0.01, nu=1.2)
    _, dv = rhs(SpinState(0.3, 1.2, 1.0), params)
    assert dv == pytest.approx(0.0, abs=1e-16)


def test_rhs_against_independent_composition():
    moon = bundled_catalog("moons")[0]
    params = ResonanceParams.from_body(moon, eta=0.004)
    x, v, t = 0.3, 1.0, 0.7
    u = bisect_oracle(moon.e, t)
    rho = 1.0 - moon.e * math.cos(u)
    f = 2.0 * math.atan2(
        math.sqrt(1.0 + moon.e) * math.sin(0.5 * u),
        math.sqrt(1.0 - moon.e) * math.cos(0.5 * u),
    )
    expected_dv = -params.eta * (v - params.nu) - params.eps * math.sin(
        2.0 * x - 2.0 * f
    ) / rho**3
    dx, dv = rhs(SpinState(x, v, t), params)
    assert dx == v
    assert dv == pytest.approx(expected_dv, abs=1e-12)


def test_integrate_free_rotor_exact():
    params = ResonanceParams(p=1, q=1, e=0.1, eps=0.0, eta=0.0, nu=1.0)
    traj = integrate(SpinState(0.0, 1.0, 0.0), TWO_PI, params)
    assert np.max(np.abs(traj.x - traj.t)) <= 1e-10
    assert np.max(np.abs(traj.v - 1.0)) <= 1e-12


def test_integrate_linear_dissipation_closed_form():
    params = ResonanceParams(p=1, q=1, e=0.1, eps=0.0, eta=0.008, nu=1.3)
    v0 = 0.9
    traj = integrate(SpinState(0.0, v0, 0.0), TWO_PI, params)
    exact = params.nu + (v0 - params.nu) * np.exp(-params.eta * traj.t)
    assert np.max(np.abs(traj.v - exact)) <= 1e-8


def test_integrate_fourth_order_richardson():
    # forcing large enough that truncation dominates roundoff
    params = ResonanceParams(p=1, q=1, e=0.3, eps=0.15, eta=0.005, nu=1.1)
    state = SpinState(0.2, 1.0, 0.0)

    def final_x(step):
        traj = integrate(state, TWO_PI, params, step=step)
        return traj.x[-1], traj.v[-1]

    h = TWO_PI / 128.0
    x1, v1 = final_x(h)
    x2, v2 = final_x(h / 2.0)
    x4, v4 = final_x(h / 4.0)
    ratio = abs(x1 - x2) / abs(x2 - x4)
    assert 10.0 <= ratio <= 24.0  # nominal 16 for a 4th-order method


def test_integrate_rejects_bad_steps():
    params = ResonanceParams(p=1, q=1, e=0.1, eps=0.0, eta=0.0, nu=1.0)
    with pytest.raises(ValueError):
        integrate(SpinState(0.0, 1.0, 0.0), TWO_PI, params, step=0.0)
    with pytest.raises(ValueError):
        integrate(SpinState(0.0, 1.0, 1.0), 1.0, params)


@pytest.mark.parametrize("field, value", [
    ("initial.x", math.inf), ("initial.v", math.nan), ("initial.t", -math.inf),
    ("t_end", math.inf), ("t_end", math.nan), ("step", math.nan), ("step", math.inf),
])
def test_integrate_refuses_non_finite_arguments(field, value):
    params = ResonanceParams(p=1, q=1, e=0.1, eps=0.01, eta=0.0, nu=1.0)
    args = {"initial.x": 0.0, "initial.v": 1.0, "initial.t": 0.0,
            "t_end": TWO_PI, "step": TWO_PI / 64.0}
    args[field] = value
    state = SpinState(args["initial.x"], args["initial.v"], args["initial.t"])
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        integrate(state, args["t_end"], params, step=args["step"])


def test_integrate_overflow_is_a_dynamics_error():
    # the step to t = h overflows x itself (2 k2x is inf); the sample check
    # after the loop reports that step, not the next one, whose sin raises
    moon = bundled_catalog("moons")[0]
    params = ResonanceParams.from_body(moon)
    with pytest.raises(DynamicsError, match=r"^non-finite state at t=0\.0015339807878856412$"):
        integrate(SpinState(0.0, 1e308, 0.0), TWO_PI, params)


@pytest.mark.parametrize("state, t", [(SpinState(0.0, 1.5e307, 0.0), "5.9932629382692"),
                                      (SpinState(0.0, 2e307, 0.0), "4.494563708504929"),
                                      (SpinState(0.0, 2.8e307, 0.0), "3.210621789044647"),
                                      (SpinState(1e308, 1.0, 0.0), "0.0015339807878856412")],
                         ids=["v0=1.5e307", "v0=2e307", "v0=2.8e307", "x0=1e308"])
def test_integrate_overflow_of_2x_is_a_dynamics_error(state, t):
    # x stays finite while 2x overflows, and math.sin(inf) raises ValueError;
    # the reported t is the step whose sine raised
    params = ResonanceParams.from_body(bundled_catalog("moons")[0])
    with pytest.raises(DynamicsError, match=rf"^non-finite state at t={re.escape(t)}$"):
        integrate(state, TWO_PI, params)


CERTIFIED = [b for b in bundled_catalog("all") + bundled_catalog("minor") if certify(b).certified]


def _assert_matches_reference(state, t_end, params, step=DEFAULT_STEP):
    traj = integrate(state, t_end, params, step)
    ref = integrate_reference(state, t_end, params, step)
    for name in ("t", "x", "v"):
        assert np.array_equal(getattr(traj, name), getattr(ref, name)), name


@pytest.mark.parametrize("body", CERTIFIED, ids=lambda b: b.name)
def test_integrate_bit_identical_to_numpy_scalar_loop(body):
    for eta in (0.0, certify(body).eta_admissible):
        params = ResonanceParams.from_body(body, eta=eta)
        x0, v0 = solve_bifurcation(params).initial_state()
        _assert_matches_reference(SpinState(x0, v0, 0.0), TWO_PI * body.q, params)


def test_integrate_bit_identical_off_orbit_with_shifted_start():
    moon = bundled_catalog("moons")[0]
    params = ResonanceParams.from_body(moon, eta=0.002)
    _assert_matches_reference(
        SpinState(0.7, 1.05, 0.5), 0.5 + 3.0 * TWO_PI, params, step=TWO_PI / 512.0,
    )


def test_check_resonance_exact_rotation():
    params = ResonanceParams(p=1, q=1, e=0.1, eps=0.0, eta=0.0, nu=1.0)
    traj = integrate(SpinState(0.4, 1.0, 0.0), 2.0 * TWO_PI, params)
    assert check_resonance(traj, 1, 1) <= 1e-10


def test_check_resonance_span_and_alignment_errors():
    params = ResonanceParams(p=1, q=1, e=0.1, eps=0.0, eta=0.0, nu=1.0)
    short = integrate(SpinState(0.0, 1.0, 0.0), 0.5 * TWO_PI, params)
    with pytest.raises(DynamicsError, match="span"):
        check_resonance(short, 1, 1)
    # span chosen so the rounded step cannot divide the period
    misaligned = integrate(SpinState(0.0, 1.0, 0.0), 15.0, params, step=0.7)
    with pytest.raises(DynamicsError, match="align"):
        check_resonance(misaligned, 1, 1)


@pytest.mark.parametrize("q", [0, -1])
def test_check_resonance_refuses_q_below_one(q):
    params = ResonanceParams(p=1, q=1, e=0.1, eps=0.0, eta=0.0, nu=1.0)
    traj = integrate(SpinState(0.4, 1.0, 0.0), 2.0 * TWO_PI, params)
    orbit = ResonantOrbit(params=params, xi_star=0.3, u=zero(8), bifurcation_residual=0.0)
    for checked in (traj, orbit):
        with pytest.raises(ValueError, match=f"q={q}"):
            check_resonance(checked, 1, q)


def test_orbit_reconstruction_residual_is_zero_by_construction():
    moon = bundled_catalog("moons")[0]
    orbit = solve_bifurcation(ResonanceParams.from_body(moon))
    assert check_resonance(orbit, 1, 1) <= 1e-9


def test_orbit_residual_trivial_zero():
    params = ResonanceParams(p=1, q=1, e=0.1, eps=0.0, eta=0.0, nu=1.0)
    orbit = ResonantOrbit(
        params=params, xi_star=0.3, u=zero(8),
        bifurcation_residual=0.0,
    )
    assert orbit_residual(orbit) == 0.0


def test_orbit_residual_certified_moon():
    moon = bundled_catalog("moons")[0]
    orbit = solve_bifurcation(ResonanceParams.from_body(moon))
    base = orbit_residual(orbit)
    assert base <= 1e-9
    perturbed = ResonantOrbit(
        params=orbit.params, xi_star=orbit.xi_star, u=scaled(orbit.u, 1.01),
        bifurcation_residual=orbit.bifurcation_residual,
    )
    assert orbit_residual(perturbed) > base


def test_rk4_reproduces_constructed_orbit():
    moon = bundled_catalog("moons")[0]
    params = ResonanceParams.from_body(moon, eta=0.0)
    orbit = solve_bifurcation(params)
    x0, v0 = orbit.initial_state()
    traj = integrate(SpinState(x0, v0, 0.0), TWO_PI * params.q, params)
    gap = np.max(np.abs(traj.x - np.asarray(orbit.x_of(traj.t))))
    assert gap <= 1e-6
    assert check_resonance(traj, 1, 1) <= 1e-5


def test_dissipative_attraction_logged_not_asserted():
    # With eta > 0 a nearby trajectory is observed to drift toward the
    # constructed orbit for at least one root; attractivity is not part of
    # the certified statement, so this records the observation only.
    moon = bundled_catalog("moons")[0]
    params = ResonanceParams.from_body(moon, eta=0.004)
    orbit = solve_bifurcation(params)
    x0, v0 = orbit.initial_state()
    periods = 50
    traj = integrate(
        SpinState(x0 + 1e-3, v0, 0.0), TWO_PI * periods, params,
        step=TWO_PI / 512.0,
    )
    marks = np.arange(periods + 1) * 512
    distance = np.abs(traj.x[marks] - np.asarray(orbit.x_of(traj.t[marks])))
    print(
        f"\ndissipative attraction (logged): initial offset {distance[0]:.1e}, "
        f"after {periods} periods {distance[-1]:.1e}, "
        f"monotone non-increasing: {bool(np.all(np.diff(distance) <= 1e-12))}"
    )
