"""Spectral representation, Green operator, contraction and phase equation."""

import inspect
import math

import numpy as np
import pytest

from oracles import (difference, evaluate_matrix, from_samples, fx_sup_bound, fxx_sup_bound,
                     green_apply, green_norm_bound, phi_hat, scaled, sup_norm, zero)
from spinorbit import solver
from spinorbit.catalog import Body, ResonanceParams, bundled_catalog
from spinorbit.certification import certify, conditions
from spinorbit.potential import fourier_coefficient
from spinorbit.solver import (
    PeriodicFunction,
    PreconditionError,
    ResonantOrbit,
    SolverError,
    solve_bifurcation,
    solve_range,
)


def moon_params(eta=0.0):
    return ResonanceParams.from_body(bundled_catalog("moons")[0], eta=eta)


def mercury_params(eta=0.0):
    return ResonanceParams.from_body(bundled_catalog("mercury")[0], eta=eta)


def random_zero_mean(rng, degree, scale=1.0):
    coeffs = np.zeros(degree + 1, dtype=complex)
    coeffs[1:] = scale * (rng.normal(size=degree) + 1j * rng.normal(size=degree))
    return PeriodicFunction(coeffs)


# ---------------------------------------------------------------- periodic fn

def test_periodic_function_round_trip():
    rng = np.random.default_rng(1)
    v = random_zero_mean(rng, 12)
    n = 64
    rebuilt = from_samples(v.samples(n), 12)
    assert np.allclose(rebuilt.coefficients, v.coefficients, atol=1e-14)


def test_periodic_function_rejects_nonzero_mean():
    with pytest.raises(ValueError):
        PeriodicFunction(np.array([1.0, 0.5 + 0j]))


def test_evaluate_matches_samples():
    rng = np.random.default_rng(2)
    v = random_zero_mean(rng, 9)
    n = 32
    grid = 2.0 * math.pi * np.arange(n) / n
    assert np.allclose(v.evaluate(grid), v.samples(n), atol=1e-13)


def test_evaluate_matches_matrix_reference():
    # Horner in exp(i t) against the exponential matrix, on Mercury's
    # 8193-point RK4 grid over one resonance period
    params = mercury_params()
    u = solve_bifurcation(params, N=128).u
    t = 2.0 * math.pi * np.arange(8193) / 8192
    assert np.max(np.abs(u.evaluate(t) - evaluate_matrix(u, t))) <= 1e-15


def test_evaluate_keeps_the_shape_of_t():
    v = random_zero_mean(np.random.default_rng(7), 9)
    value = v.evaluate(0.3)
    assert type(value) is float
    assert value == pytest.approx(evaluate_matrix(v, 0.3), abs=1e-13)
    t = np.linspace(0.0, 7.0, 12).reshape(3, 4)
    assert v.evaluate(t).shape == (3, 4)
    assert np.allclose(v.evaluate(t), evaluate_matrix(v, t), atol=1e-13)


def test_derivative_and_arithmetic():
    grid = np.linspace(0.0, 2.0 * math.pi, 128, endpoint=False)
    cos_t = from_samples(np.cos(grid), 4)
    dcos = cos_t.derivative()
    assert np.allclose(dcos.evaluate(grid), -np.sin(grid), atol=1e-13)
    doubled = scaled(cos_t, 2.0)
    assert np.allclose(difference(doubled, cos_t).evaluate(grid), np.cos(grid), atol=1e-13)


# -------------------------------------------------------------- green operator

def test_green_apply_cosine():
    grid = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
    g = from_samples(np.cos(grid), 4)
    u = green_apply(g, 0.0)
    assert np.allclose(u.evaluate(grid), -np.cos(grid), atol=1e-14)


def test_green_apply_second_harmonic():
    grid = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
    g = from_samples(np.sin(2.0 * grid), 4)
    u = green_apply(g, 0.0)
    assert np.allclose(u.evaluate(grid), -np.sin(2.0 * grid) / 4.0, atol=1e-14)


def test_green_apply_inverts_operator():
    # L(G g) = g for random forcings and every dissipation in range
    rng = np.random.default_rng(3)
    for eta_hat in (0.0, 0.003, 0.008):
        for _ in range(10):
            g = random_zero_mean(rng, 16)
            u = green_apply(g, eta_hat)
            lu = u.derivative(2).coefficients + eta_hat * u.derivative(1).coefficients
            assert np.max(np.abs(lu - g.coefficients)) <= 1e-10 * sup_norm(g)


def test_green_apply_rejects_negative_dissipation():
    with pytest.raises(ValueError):
        green_apply(zero(4), -0.1)


def test_operator_norm_bound_on_random_forcings():
    rng = np.random.default_rng(4)
    for eta_hat in (0.0, 0.004, 0.008):
        bound = green_norm_bound(eta_hat)
        for _ in range(25):
            g = random_zero_mean(rng, int(rng.integers(1, 32)))
            u = green_apply(g, eta_hat)
            assert sup_norm(u, 4096) <= bound * sup_norm(g, 4096) * (1.0 + 1e-9)


# --------------------------------------------------- norm inequality suite

def test_zero_mean_norm_inequalities():
    # ||v|| <= (pi/2) ||v'|| and ||v|| <= (pi^2/8) ||v''|| on zero-average
    # periodic functions; sampled sup-norms with a fine grid
    rng = np.random.default_rng(5)
    n = 8192
    for _ in range(100):
        v = random_zero_mean(rng, int(rng.integers(1, 33)))
        sup_v = sup_norm(v, n)
        slack = 1.0 + 1e-6
        assert sup_v <= (math.pi / 2.0) * sup_norm(v.derivative(1), n) * slack
        assert sup_v <= (math.pi**2 / 8.0) * sup_norm(v.derivative(2), n) * slack


def _near_triangle_wave(inverse_power):
    # smoothed truncation of the triangle-wave series (the raw partial sum
    # would overshoot in the derivative and hide the sharp ratio)
    size = 64
    k = np.arange(1, size, 2)
    coeffs = np.zeros(size, dtype=complex)
    coeffs[k] = np.sinc(k / size) / (1j * k) ** inverse_power
    return PeriodicFunction(coeffs)


def test_first_inequality_sharpness_triangle_wave():
    # ||v||/||v'|| approaches pi/2 from below for near-triangle waves
    v = _near_triangle_wave(2)
    ratio = sup_norm(v, 8192) / sup_norm(v.derivative(1), 8192)
    assert 0.95 * math.pi / 2.0 <= ratio <= math.pi / 2.0 * (1.0 + 1e-9)


def test_second_inequality_sharpness_parabola_wave():
    # ||v||/||v''|| approaches pi^2/8 for the double integral of a
    # (smoothed) square wave
    v = _near_triangle_wave(3)
    ratio = sup_norm(v, 8192) / sup_norm(v.derivative(2), 8192)
    assert 0.95 * math.pi**2 / 8.0 <= ratio <= math.pi**2 / 8.0 * (1.0 + 1e-9)


# ------------------------------------------------------------------- phi_hat

def test_phi_hat_circular_orbit_mean():
    # at e = 0 the composite collapses to the constant sin(2 xi): the
    # zero-mean part vanishes and the removed mean is -sin(2 xi)
    params = ResonanceParams(p=1, q=1, e=0.0, eps=0.01, eta=0.0, nu=1.0)
    for xi in (0.0, 0.3, math.pi / 4.0):
        pf, removed = phi_hat(xi, zero(16), params)
        assert sup_norm(pf) <= 1e-14
        assert removed == pytest.approx(-math.sin(2.0 * xi), abs=1e-14)


def test_phi_hat_zero_phase_has_zero_mean():
    params = moon_params()
    _, removed = phi_hat(0.0, zero(32), params)
    assert abs(removed) <= 1e-15


def test_phi_hat_mean_matches_quadrature_coefficient():
    # with u = 0 the removed mean equals 2 alpha_j(e) sin(2 xi)
    for params in (moon_params(), mercury_params()):
        alpha = fourier_coefficient(params.e, params.harmonic)
        for xi in (math.pi / 4.0, 0.9):
            _, removed = phi_hat(xi, zero(64), params)
            assert removed == pytest.approx(
                2.0 * alpha * math.sin(2.0 * xi), abs=1e-10
            )


def test_phi_hat_aliasing_guard():
    params = mercury_params()
    with pytest.raises(SolverError, match="unresolved collocation spectrum"):
        phi_hat(0.3, zero(2), params, n_coll=8)


@pytest.mark.parametrize("fraction, refused", [(1e-9, False), (1e-6, True)])
def test_spectrum_check_threshold_on_a_synthetic_spectrum(fraction, refused):
    # no solve comes near the 1e-8 threshold (its grids of >= 256 nodes leave
    # top-band fractions below 1e-27), so a synthetic rfft(samples)/n on 256
    # nodes pins it: unit energy in mode 1, ``fraction`` in mode 87, the first
    # of the top third of modes 1..128
    spectrum = np.zeros(129, dtype=complex)
    spectrum[1] = 1.0
    spectrum[87] = math.sqrt(fraction)
    if refused:
        with pytest.raises(SolverError, match="top-band energy fraction"):
            solver._check_spectrum(spectrum, 0.0)
    else:
        solver._check_spectrum(spectrum, 0.0)


# --------------------------------------------------------------- solve_range

def test_solve_range_zero_oblateness():
    params = ResonanceParams(p=1, q=1, e=0.1, eps=0.0, eta=0.0, nu=1.0)
    sol = solve_range(0.7, params)
    assert len(sol.increments) == 1
    assert sup_norm(sol.u) == 0.0


def test_solve_range_ball_containment_and_rate():
    params = moon_params()
    radius = 2.5 * params.eps_hat * fx_sup_bound(params.e)
    rate_bound = 2.5 * params.eps_hat * fxx_sup_bound(params.e) + 1e-3
    sol = solve_range(0.1, params)
    assert sup_norm(sol.u) <= radius
    ratios = [
        b / a
        for a, b in zip(sol.increments, sol.increments[1:])
        if a > 1e-9  # below this, roundoff dominates the quotient
    ]
    assert ratios and all(r <= rate_bound for r in ratios)


def test_solve_range_fixed_point_residual():
    params = mercury_params(eta=0.001)
    tol = 1e-12
    sol = solve_range(1.1, params, N=128)
    pf, _ = phi_hat(1.1, sol.u, params)
    image = scaled(green_apply(pf, params.eta_hat), params.eps_hat)
    assert sup_norm(difference(image, sol.u)) <= 2.0 * tol


def test_solve_range_unique_fixed_point_from_two_starts():
    rng = np.random.default_rng(6)
    for params in (moon_params(), mercury_params(eta=0.001)):
        tol = 1e-12
        radius = 2.5 * params.eps_hat * fx_sup_bound(params.e)
        start = random_zero_mean(rng, 16)
        start = scaled(start, radius / sup_norm(start))
        a = solve_range(0.4, params)
        b = solve_range(0.4, params, initial=start)
        assert sup_norm(difference(a.u, b.u)) <= 10.0 * tol


def test_solution_ball_across_certified_catalog():
    # ||u(.; xi)|| stays inside the contraction ball for every certified
    # body at 16 sampled phases
    from spinorbit.certification import certify

    bodies = [
        b
        for b in bundled_catalog("all") + bundled_catalog("minor")
        if certify(b).certified
    ]
    assert len(bodies) == 21
    phases = 2.0 * math.pi * np.arange(16) / 16.0
    for body in bodies:
        params = ResonanceParams.from_body(body)
        radius = 2.5 * params.eps_hat * fx_sup_bound(params.e)
        for xi in phases:
            sol = solve_range(float(xi), params)
            assert sup_norm(sol.u) <= radius, (body.name, xi)


def test_solve_range_refuses_outside_certified_region():
    phobos = bundled_catalog("minor")[0]
    with pytest.raises(PreconditionError, match="range"):
        solve_range(0.1, ResonanceParams.from_body(phobos))
    with pytest.raises(PreconditionError, match="Green"):
        solve_range(0.1, moon_params(eta=0.05))


@pytest.mark.parametrize("eta", [-0.001, math.nan, math.inf])
def test_green_condition_is_two_sided(eta):
    # a negative or non-finite eta fails the Green condition first, and both
    # solves refuse it with that reason
    params = moon_params(eta=eta)
    assert conditions(params).failed[0][0] == "green"
    for solve in (lambda: solve_range(0.1, params), lambda: solve_bifurcation(params)):
        with pytest.raises(PreconditionError, match="Green-norm"):
            solve()


@pytest.mark.parametrize("e", [math.nan, math.inf])
def test_non_finite_eccentricity_is_refused_by_name(e):
    params = ResonanceParams(p=1, q=1, e=e, eps=0.01, eta=0.0, nu=1.0)
    with pytest.raises(ValueError, match="eccentricity must be finite and >= 0"):
        conditions(params)
    for solve in (lambda: solve_range(0.1, params), lambda: solve_bifurcation(params)):
        with pytest.raises(PreconditionError, match="eccentricity must be finite and >= 0"):
            solve()


def test_outside_certified_disk_is_a_precondition_error():
    body = Body("X", "Y", 100.0, 99.9, 99.9, 0.5, 1, 1, None)
    params = ResonanceParams.from_body(body)
    for solve in (lambda: solve_range(0.1, params), lambda: solve_range(0.1, params).phi,
                  lambda: solve_bifurcation(params)):
        with pytest.raises(PreconditionError, match="outside the Cauchy-estimate disk"):
            solve()


# ------------------------------------------------------ solve_range(...).phi

def test_phi_mean_close_to_leading_term():
    # |phi(xi) - (-2 alpha_j sin 2 xi)| <= eps_hat * 5/(1-e)^6
    for params in (moon_params(), mercury_params()):
        alpha = fourier_coefficient(params.e, params.harmonic)
        m1 = 5.0 / (1.0 - params.e) ** 6
        for xi in (0.2, math.pi / 4.0, 2.0):
            phi = solve_range(xi, params, N=96).phi
            leading = -2.0 * alpha * math.sin(2.0 * xi)
            assert abs(phi - leading) <= params.eps_hat * m1


def test_phi_mean_vanishes_at_zero_phase_without_dissipation():
    # time-reversal symmetry forces an odd correction and zero average
    assert abs(solve_range(0.0, moon_params()).phi) <= 1e-12


# ---------------------------------------------------------- solve_bifurcation

def test_bifurcation_root_without_dissipation():
    params = moon_params()
    orbit = solve_bifurcation(params)
    assert orbit.xi_star == pytest.approx(math.pi / 2.0, abs=1e-9)
    assert orbit.bifurcation_residual <= 1e-10
    assert math.pi / 4.0 <= orbit.xi_star <= 3.0 * math.pi / 4.0


def test_bifurcation_with_dissipation():
    params = mercury_params(eta=0.001)
    orbit = solve_bifurcation(params, N=128)
    assert orbit.bifurcation_residual <= 1e-10
    target = params.eta_hat * params.nu_hat / params.eps_hat
    phi = solve_range(orbit.xi_star, params, N=128).phi
    assert phi == pytest.approx(target, abs=1e-9)
    # without N, a 3:2 solve takes order 128: bit for bit the same orbit
    u = solve_bifurcation(params).u
    assert u.order == 128 and np.array_equal(u.coefficients, orbit.u.coefficients)


def test_bifurcation_at_boundary_target():
    # eta at the certified ceiling puts the target on the interval edge;
    # the seeded bracket still contains a root
    merc = bundled_catalog("mercury")[0]
    from spinorbit.certification import certify

    cap = certify(merc).eta_admissible
    params = mercury_params(eta=cap)
    assert abs(params.eta_hat * params.nu_hat / params.eps_hat) == pytest.approx(
        conditions(params).halfwidth, rel=1e-12
    )
    orbit = solve_bifurcation(params, N=128)
    assert orbit.bifurcation_residual <= 1e-10


def test_solver_accepts_exactly_the_certified_etas():
    # for in-disk bodies, solve_bifurcation accepts params iff certify says
    # certified and eta <= eta_admissible, the ceiling included; a round
    # body (eps = 0, nu_hat = 0) is neither
    rng = np.random.default_rng(2)
    bodies = [Body("Test", "P", 100.0, 99.6779, 99.6779, 0.0567, 3, 2),
              Body("Round", "P", 100.0, 100.0, 100.0, 0.0, 1, 1)]
    for i in range(32):
        p, q = ((1, 1), (3, 2))[i % 2]
        e = float(rng.uniform(0.0, 0.085 if q == 1 else 0.215))
        b = 100.0 * (1.0 - 10.0 ** rng.uniform(-6.0, -0.5))
        bodies.append(Body(f"R{i}", "P", 100.0, b, b, e, p, q))
    certified = binding = 0
    for body in bodies:
        rep = certify(body)
        certified += rep.certified
        binding += rep.certified and rep.eta_bif_max < rep.eta_green_max
        cap = rep.eta_admissible
        for eta in (0.0, cap, math.nextafter(cap, math.inf), 2.0 * cap):
            params = ResonanceParams.from_body(body, eta=eta)
            try:
                orbit = solve_bifurcation(params)
            except PreconditionError:
                accepted = False
            else:
                accepted = True
                assert orbit.bifurcation_residual <= 1e-10
            assert accepted == (rep.certified and eta <= cap), (body, eta)
    # both verdicts occur, and the bifurcation ceiling binds on several rows
    assert 0 < certified < len(bodies) and binding >= 4


def test_bifurcation_refuses_oversized_target():
    params = ResonanceParams(p=1, q=1, e=0.0549, eps=1e-6, eta=0.008, nu=1.2)
    with pytest.raises(PreconditionError, match="half-width"):
        solve_bifurcation(params)


def test_orbit_reconstruction_identity():
    orbit = solve_bifurcation(moon_params())
    s = np.linspace(0.0, 4.0 * math.pi, 50)
    lhs = orbit.x_of(s + 2.0 * math.pi * orbit.params.q)
    rhs = np.asarray(orbit.x_of(s)) + 2.0 * math.pi * orbit.params.p
    assert np.max(np.abs(lhs - rhs)) <= 1e-9


def test_orbit_export_round_trip():
    import json

    orbit = solve_bifurcation(moon_params())
    payload = json.loads(orbit.to_json(n_samples=32))
    assert payload["p"] == 1 and payload["q"] == 1
    assert payload["xi_star"] == pytest.approx(orbit.xi_star)
    assert "xi_average" not in payload
    coeffs = np.array([complex(re, im) for re, im in payload["u_coefficients"]])
    assert np.allclose(coeffs, orbit.u.coefficients)
    assert len(payload["x"]) == 32


def test_orbit_export_samples_are_python_floats():
    # json's encoder takes Python floats faster than np.float64, byte for byte
    payload = solve_bifurcation(moon_params()).to_dict(n_samples=8)
    assert {type(v) for v in payload["t"] + payload["x"]} == {float}


def test_initial_state_is_the_orbit_at_zero():
    # the closed form adds the modes in Horner's order: x_of and xdot_of at
    # s = 0 bit for bit on the 63 solves, the 21 certified bodies at eta in
    # {0, eta_adm/2, eta_adm}, and on a correction with no modes
    solves = 0
    for body in bundled_catalog("all") + bundled_catalog("minor"):
        report = certify(body)
        if not report.certified:
            continue
        for eta in (0.0, 0.5 * report.eta_admissible, report.eta_admissible):
            orbit = solve_bifurcation(ResonanceParams.from_body(body, eta=eta))
            expected = (float(orbit.x_of(0.0)), float(orbit.xdot_of(0.0)))
            assert orbit.initial_state() == expected, (body.name, eta)
            solves += 1
    assert solves == 63
    # modes of mixed sizes, whose sum in another order (np.sum) differs
    rng = np.random.default_rng(0)
    coefficients = np.zeros(65, dtype=complex)
    coefficients[1:] = ((rng.normal(size=64) + 1j * rng.normal(size=64))
                        * 10.0 ** rng.uniform(-6.0, 0.0, size=64))
    for u in (PeriodicFunction(coefficients), PeriodicFunction([0.0])):
        orbit = ResonantOrbit(params=mercury_params(), xi_star=0.7, u=u, bifurcation_residual=0.0)
        assert orbit.initial_state() == (float(orbit.x_of(0.0)), float(orbit.xdot_of(0.0)))


def test_orbit_export_coefficients_are_python_float_pairs():
    payload = solve_bifurcation(mercury_params(eta=0.001)).to_dict(n_samples=8)
    pairs = payload["u_coefficients"]
    assert len(pairs) == 129 and {type(pair) for pair in pairs} == {list}
    assert {len(pair) for pair in pairs} == {2}
    assert {type(v) for pair in pairs for v in pair} == {float}


# --------------------------------------- phase kernel against per-phase solves
#
# Reference: one fixed-point loop per phase on PeriodicFunction values,
# driven by bisection on [pi/4, 3pi/4].  Every phase solve of
# solve_bifurcation must reproduce it bit for bit; its root agrees with the
# bisection root to within 1e-9.


def _project_reference(samples, order):
    n = len(samples)
    spectrum = np.fft.rfft(np.asarray(samples, dtype=float)) / n
    mean = float(spectrum[0].real)
    energy = np.abs(spectrum[1:]) ** 2
    cutoff = int(math.ceil(2.0 * len(energy) / 3.0))
    total = float(np.sum(energy)) + mean * mean
    top = float(np.sum(energy[cutoff:]))
    if top > 1e-8 * total and total > 1e-20:
        raise SolverError("unresolved collocation spectrum")
    c = np.zeros(order + 1, dtype=complex)
    c[1:] = spectrum[1 : order + 1]
    return PeriodicFunction(c), mean


def _solve_range_reference(xi, params, order, tol, ws, max_iter):
    eps_hat, eta_hat = params.eps_hat, params.eta_hat

    def neg_fx_samples(u_samples):
        x = xi + ws.pt + u_samples
        return np.sin(2.0 * x - ws.two_f) * ws.neg_inv_rho3

    u = zero(order)
    u_samples = np.zeros(ws.n)
    increments = []
    for _ in range(max_iter):
        rhs, _ = _project_reference(neg_fx_samples(u_samples), order)
        new_u = scaled(green_apply(rhs, eta_hat), eps_hat)
        # the synthesis written out, so the kernel's own _synthesize is checked
        new_samples = np.fft.irfft(new_u.coefficients * ws.n, ws.n)
        increments.append(float(np.max(np.abs(new_samples - u_samples))))
        u, u_samples = new_u, new_samples
        if increments[-1] <= tol:
            break
    else:
        raise SolverError("fixed-point iteration cap reached")
    return u, -float(math.fsum(neg_fx_samples(u_samples)) / ws.n), tuple(increments)


def _phase_reference(params, N, tol_fixed_point=1e-12):
    """Cached per-phase solve xi -> (u, phi(xi), increments), and the workspace."""
    ws = solver._Workspace(params, N)
    cache = {}

    def solve(xi):
        if xi not in cache:
            cache[xi] = _solve_range_reference(xi, params, N, tol_fixed_point, ws, 2000)
        return cache[xi]

    return solve, ws


def _bifurcation_reference(solve, target, tol_bifurcation=1e-10):
    """Bisection root of phi - target on [pi/4, 3pi/4] from the per-phase solve."""
    lo, hi = math.pi / 4.0, 3.0 * math.pi / 4.0
    f_lo, f_hi = solve(lo)[1] - target, solve(hi)[1] - target
    if abs(f_lo) <= tol_bifurcation:
        return lo
    if abs(f_hi) <= tol_bifurcation:
        return hi
    assert f_lo > 0.0 > f_hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f_mid = solve(mid)[1] - target
        if abs(f_mid) <= tol_bifurcation:
            return mid
        lo, hi = (mid, hi) if f_mid > 0.0 else (lo, mid)
    pytest.fail("reference bisection did not converge")


def _certified_bodies():
    bodies = [b for b in bundled_catalog("all") + bundled_catalog("minor")
              if certify(b).certified]
    assert len(bodies) == 21
    return bodies


def _record_phase_solves(monkeypatch):
    """The RangeSolution of every phase solve from here on, in call order."""
    kernel = solver._fixed_point
    solves = []

    def recording_kernel(*args, **kwargs):
        solves.append(kernel(*args, **kwargs))
        return solves[-1]

    monkeypatch.setattr(solver, "_fixed_point", recording_kernel)
    return solves


def test_phase_solves_match_per_phase_reference(monkeypatch):
    solves = _record_phase_solves(monkeypatch)
    for body in _certified_bodies():
        cap = certify(body).eta_admissible
        for eta in (0.0, 0.5 * cap, cap):
            params = ResonanceParams.from_body(body, eta=eta)
            target = params.eta_hat * params.nu_hat / params.eps_hat
            solves.clear()
            orbit = solve_bifurcation(params)
            solve, ws = _phase_reference(params, solver._MODES[body.q])
            root = _bifurcation_reference(solve, target)
            case = (body.name, eta)
            # the root: near bisection's, inside the bracket, within tolerance
            assert abs(orbit.xi_star - root) <= 1e-9, case
            assert math.pi / 4.0 <= orbit.xi_star <= 3.0 * math.pi / 4.0, case
            assert orbit.bifurcation_residual <= 1e-10, case
            # the orbit is the per-phase solve at that root
            u, phi, _ = solve(orbit.xi_star)
            assert np.array_equal(orbit.u.coefficients, u.coefficients), case
            assert orbit.bifurcation_residual == abs(phi - target), case
            # the time average of x(q t) - p t is the root itself
            assert orbit.xi_star + float(np.mean(u.samples(ws.n))) == orbit.xi_star, case
            # every phase solved lies in the bracket and gives the same phi
            assert all(math.pi / 4.0 <= r.xi <= 3.0 * math.pi / 4.0 for r in solves), case
            assert all(r.phi == solve(r.xi)[1] for r in solves), case
            assert all(r.increments == solve(r.xi)[2] for r in solves), case


@pytest.mark.parametrize("N", [96, 200])
def test_phase_solves_match_reference_off_power_of_two_grids(N, monkeypatch):
    # 4N = 384 or 800 collocation nodes, on which scaling the spectrum by n
    # before or after the inverse FFT is not exact
    solves = _record_phase_solves(monkeypatch)
    for body in _certified_bodies():
        if body.name not in ("Mimas", "Mercury"):
            continue
        params = ResonanceParams.from_body(body, eta=0.5 * certify(body).eta_admissible)
        solves.clear()
        solve_bifurcation(params, N=N)
        solve, _ = _phase_reference(params, N)
        for r in solves:
            u, phi, increments = solve(r.xi)
            assert np.array_equal(r.u.coefficients, u.coefficients), (body.name, r.xi)
            assert (r.phi, r.increments) == (phi, increments), (body.name, r.xi)


def test_root_search_makes_few_kernel_calls(monkeypatch):
    # one call per phase solve: the 2 bracket endpoints plus a handful of
    # root steps in s = -sin(2 xi), where phi is nearly linear; regula falsi
    # in xi made up to 9 (mean 5.5), bisection ~30
    solves = _record_phase_solves(monkeypatch)
    calls = []
    for body in _certified_bodies():
        cap = certify(body).eta_admissible
        for eta in (0.5 * cap, cap):
            solves.clear()
            solve_bifurcation(ResonanceParams.from_body(body, eta=eta))
            calls.append(len(solves))
    assert len(calls) == 42
    assert max(calls) <= 6 and sum(calls) / len(calls) <= 4.5, calls


def test_solve_without_dissipation_takes_three_phase_solves(monkeypatch):
    # the bracket ends, then the first secant lands on s = 0, xi = pi/2,
    # where phi vanishes by symmetry
    solves = _record_phase_solves(monkeypatch)
    for body in _certified_bodies():
        solves.clear()
        orbit = solve_bifurcation(ResonanceParams.from_body(body, eta=0.0))
        assert orbit.xi_star == math.pi / 2.0, body.name
        assert [r.xi for r in solves] == [math.pi / 4.0, 3.0 * math.pi / 4.0,
                                          math.pi / 2.0], body.name


def test_every_phase_solve_contracts_within_the_proven_rate(monkeypatch):
    # criterion 9's rate check on every phase solve of the 63 solves
    # (21 certified bodies x 3 etas): the observed ratio of consecutive
    # increments stays below (5/2) eps_hat sup|V_xx| (at most 0.40 of it)
    solves = _record_phase_solves(monkeypatch)
    checked = 0
    for body in _certified_bodies():
        cap = certify(body).eta_admissible
        for eta in (0.0, 0.5 * cap, cap):
            params = ResonanceParams.from_body(body, eta=eta)
            rate_bound = 2.5 * params.eps_hat * fxx_sup_bound(params.e) + 1e-3
            solves.clear()
            solve_bifurcation(params)
            for r in solves:
                ratios = [y / x for x, y in zip(r.increments, r.increments[1:]) if x > 1e-9]
                assert all(ratio <= rate_bound for ratio in ratios), (body.name, eta, r.xi, ratios)
                checked += len(ratios)
    assert checked > 500, checked


def test_one_spectrum_check_per_phase_solve(monkeypatch):
    # the aliasing test runs on the iterate whose projection a phase solve
    # returns, not on each of its iterations
    solves = _record_phase_solves(monkeypatch)
    check = solver._check_spectrum
    checks = []

    def counting_check(*args):
        checks.append(args)
        return check(*args)

    monkeypatch.setattr(solver, "_check_spectrum", counting_check)
    epimetheus, = (b for b in bundled_catalog("minor") if b.name == "Epimetheus")
    for params in (moon_params(eta=0.004), mercury_params(eta=0.001),
                   ResonanceParams.from_body(epimetheus, eta=0.004)):
        solves.clear()
        checks.clear()
        solve_bifurcation(params)
        assert len(checks) == len(solves) >= 3, params
        assert sum(len(r.increments) for r in solves) > 3 * len(solves), params


def test_phase_kernel_returns_the_range_solution():
    # one record per phase solve, the same one solve_range returns
    for params in (moon_params(eta=0.004), mercury_params(eta=0.001)):
        for xi in (0.6, 2.0):
            kernel = solver._fixed_point(xi, solver._Workspace(params, solver._MODES[params.q]))
            reference = solve_range(xi, params)
            assert isinstance(kernel, solver.RangeSolution) and kernel.xi == xi
            assert np.array_equal(kernel.u.coefficients, reference.u.coefficients)
            assert kernel.increments == reference.increments
            assert kernel.phi == reference.phi


def test_solve_builds_the_green_multiplier_once(monkeypatch):
    # the workspace holds it for every phase solve
    build = solver._green_multiplier
    calls = []

    def counting_build(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(solver, "_green_multiplier", counting_build)
    solve_bifurcation(mercury_params(eta=0.001))
    assert len(calls) == 1, calls


def test_root_search_safeguard_bounds_regula_falsi():
    # plain Anderson-Bjorck creeps on this curve (tens of thousands of
    # steps); the halving fallback needs a dozen
    evaluations = []

    def f(x):
        evaluations.append(x)
        return math.exp(-30.0 * x) - 1e-6

    root = solver._bracketed_root(f, 0.0, 1.0, 1e-14)
    assert 0.0 < root < 1.0 and abs(f(root)) <= 1e-14
    assert len(evaluations) - 3 <= 20
    assert all(0.0 < x < 1.0 for x in evaluations[2:])


def test_root_search_returns_an_exact_zero_at_a_midpoint():
    # the secant point rounds onto hi, so the first step is the midpoint,
    # where f is exactly zero
    evaluations = []

    def f(x):
        evaluations.append(x)
        return 1.0 if x < 0.5 else 0.0 if x == 0.5 else -1e-20

    assert solver._bracketed_root(f, 0.0, 1.0, 0.0) == 0.5
    assert evaluations == [0.0, 1.0, 0.5]
    assert solver._bracketed_root(lambda x: 1.0 - 2.0 * x, 0.0, 1.0, 0.0) == 0.5


def endpoint_values(lo, f_lo, hi, f_hi):
    """f with the given values at lo and hi that fails on any other call."""
    def f(x):
        if x == lo:
            return f_lo
        if x == hi:
            return f_hi
        raise AssertionError(f"f called at {x}")

    return f


def test_root_search_takes_an_endpoint_within_tolerance_with_no_further_call():
    # no call after the two endpoint calls, and lo is taken first
    for f_lo, f_hi, root in ((0.0, -1.0, 0.25), (1.0, -1e-11, 2.0), (1e-10, 1e-10, 0.25)):
        f = endpoint_values(0.25, f_lo, 2.0, f_hi)
        assert solver._bracketed_root(f, 0.25, 2.0, 1e-10) == root


def test_root_search_refuses_a_bracket_without_a_sign_change():
    with pytest.raises(SolverError, match=r"^no sign change on the seeded bracket") as info:
        solver._bracketed_root(endpoint_values(0.25, -1.0, 2.0, 1.0), 0.25, 2.0, 1e-10)
    assert "(-1.000e+00, 1.000e+00) at (0.25, 2)" in str(info.value)
    with pytest.raises(SolverError, match="no sign change"):
        solver._bracketed_root(endpoint_values(0.25, 1.0, 2.0, 0.5), 0.25, 2.0, 1e-10)


def test_root_search_stagnation_names_the_width(monkeypatch):
    monkeypatch.setattr(solver, "_TOL_BIFURCATION", 1e-300)
    with pytest.raises(SolverError, match=r"root search stagnated at width \d"):
        solve_bifurcation(moon_params(eta=0.004))


def test_solve_refuses_unresolved_spectrum(monkeypatch):
    monkeypatch.setattr(solver, "_COLLOCATION_MIN", 8)
    with pytest.raises(SolverError, match="unresolved collocation spectrum"):
        solve_bifurcation(mercury_params(), N=2)


@pytest.mark.parametrize("N", [0, -1, 1.5, 64.0, "64"])
def test_solves_refuse_a_truncation_order_that_is_not_a_positive_integer(N, monkeypatch):
    def no_workspace(*args):
        raise AssertionError("allocated a workspace")

    monkeypatch.setattr(solver, "_Workspace", no_workspace)
    for solve in (lambda: solve_range(0.1, moon_params(), N=N),
                  lambda: solve_bifurcation(moon_params(), N=N)):
        with pytest.raises(ValueError, match=r"truncation order N must be an integer >= 1, got "):
            solve()


def test_solves_accept_numpy_integer_orders():
    a, b = (solve_range(0.1, moon_params(), N=N) for N in (np.int64(64), 64))
    assert a.phi == b.phi and np.array_equal(a.u.coefficients, b.u.coefficients)


def test_scan_points_accepts_only_zero():
    # the phase scan is gone: the parameter defaults to 0, its one value
    assert inspect.signature(solve_bifurcation).parameters["scan_points"].default == 0
    for scan_points in (64, 1):
        with pytest.raises(ValueError, match="scan_points"):
            solve_bifurcation(moon_params(), scan_points=scan_points)


@pytest.mark.parametrize("params", [moon_params(eta=0.004), mercury_params(eta=0.001)],
                         ids=["Moon", "Mercury"])
def test_exported_samples_are_within_one_ulp_of_x_of(params):
    orbit = solve_bifurcation(params)
    assert orbit.u.order == {1: 64, 2: 128}[params.q]
    for n in (1, 2, 3, 8, 255, 256, 257, 1000):
        payload = orbit.to_dict(n)
        assert len(payload["t"]) == len(payload["x"]) == n
        reference = orbit.x_of(np.array(payload["t"]))
        gap = np.abs(np.array(payload["x"]) - reference)
        assert np.all(gap <= np.spacing(np.abs(reference))), n
    for n in (0, -1):
        payload = orbit.to_dict(n)
        assert payload["t"] == [] and payload["x"] == []


def test_solve_range_iteration_cap(monkeypatch):
    monkeypatch.setattr(solver, "_RANGE_ITERATION_CAP", 1)
    with pytest.raises(SolverError):
        solve_range(0.1, moon_params())
