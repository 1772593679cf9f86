"""Acceptance suite: one test per exit criterion, at its stated tolerance.

Each criterion prints a single PASS line (visible with ``pytest -s`` or
``-rP``); a failed assertion marks the criterion red.  Frozen expected
values in data/expected_reports.json were computed with an independent
arbitrary-precision implementation of the same formulas (mpmath, dps=40)
over the transcribed physical catalog.
"""

import cmath
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from oracles import (complex_eccentric_anomaly, derivative, difference, fx_sup_bound,
                     fxx_sup_bound, green_apply, green_norm_bound, scaled, sup_norm)
from spinorbit import solver
from spinorbit.catalog import ResonanceParams, bundled_catalog
from spinorbit.certification import GREEN_ETA_HAT_MAX, certify
from spinorbit.dynamics import SpinState, check_resonance, integrate, orbit_residual
from spinorbit.potential import FLOAT_SLACK, fourier_coefficient
from spinorbit.series import CANONICAL_B, CANONICAL_ORDER, alpha_series, remainder_bound
from spinorbit.solver import PeriodicFunction, solve_bifurcation, solve_range

EXPECTED = {
    r["name"]: r
    for r in json.loads((Path(__file__).parent / "data/expected_reports.json").read_text())
}

MOONS = bundled_catalog("moons")
MERCURY = bundled_catalog("mercury")[0]
MINOR = bundled_catalog("minor")


def two_significant_digits(value, expected):
    """|value - expected| within half a unit in expected's 2nd digit."""
    if expected == 0.0:
        return value == 0.0
    scale = 10.0 ** (math.floor(math.log10(abs(expected))) - 1)
    return abs(value - expected) <= 0.5 * scale


def test_criterion_1_all_moons_certify():
    start = time.monotonic()
    reports = [certify(b) for b in MOONS]
    elapsed = time.monotonic() - start
    assert len(reports) == 18
    assert all(r.certified for r in reports)
    assert all(r.eta_admissible >= 0.008 for r in reports)
    assert elapsed < 5.0
    print(f"\nPASS criterion 1: all 18 moons certify with eta_admissible >= 0.008 "
          f"(min {min(r.eta_admissible for r in reports):.6f}, {elapsed:.2f}s)")


def test_criterion_2_mercury_certifies():
    start = time.monotonic()
    report = certify(MERCURY)
    elapsed = time.monotonic() - start
    assert report.certified
    assert report.eta_admissible >= 0.001
    assert elapsed < 5.0
    print(f"\nPASS criterion 2: Mercury certifies with eta_admissible = "
          f"{report.eta_admissible:.6f} >= 0.001 ({elapsed:.2f}s)")


def test_criterion_3_summary_table_signs_and_digits():
    reports = [certify(b) for b in MOONS + [MERCURY]]
    assert len(reports) == 19
    for rep in reports:
        exp = EXPECTED[rep.body_name]
        assert rep.range_margin > 0.0
        assert rep.nonempty_margin > 0.0
        for field in ("alpha_lower", "range_margin", "nonempty_margin",
                      "eta_bif_max", "eta_admissible"):
            assert two_significant_digits(getattr(rep, field), exp[field]), (
                rep.body_name, field, getattr(rep, field), exp[field],
            )
    print("\nPASS criterion 3: all 19 margins positive; five report columns "
          "match the frozen table to 2 significant digits")


def test_criterion_4_minor_body_discrimination():
    reports = {b.name: certify(b) for b in MINOR}
    assert reports["Janus"].certified
    assert reports["Epimetheus"].certified
    for name in ("Phobos", "Deimos", "Amalthea"):
        rep = reports[name]
        assert not rep.certified
        failed_some_condition = (
            rep.alpha_lower <= 0.0
            or rep.range_margin <= 0.0
            or rep.nonempty_margin <= 0.0
            or rep.eta_admissible <= 0.0
        )
        assert failed_some_condition
    print("\nPASS criterion 4: exactly Janus and Epimetheus certify among "
          "the five minor bodies")


def test_criterion_5_green_condition_constants():
    assert abs(green_norm_bound(GREEN_ETA_HAT_MAX) - 1.25) <= 1e-12
    cap_1_1 = GREEN_ETA_HAT_MAX / 1
    cap_3_2 = GREEN_ETA_HAT_MAX / 2
    assert 0.0083 <= cap_1_1 < 0.0084
    assert 0.0041 <= cap_3_2 < 0.0042
    print(f"\nPASS criterion 5: norm bound at the cap = 5/4 exactly; eta caps "
          f"{cap_1_1:.7f} (1:1) and {cap_3_2:.7f} (3:2)")


def test_criterion_6_series_quadrature_remainder_triangle():
    start = time.monotonic()
    checked = 0
    for j, e_max in ((2, 0.41), (3, 0.58)):
        for e in np.linspace(e_max / 50.0, e_max, 50):
            e = float(e)
            gap = abs(fourier_coefficient(e, j, 2048) - alpha_series(j, e))
            bound = remainder_bound(e, CANONICAL_ORDER[j], CANONICAL_B[j])
            assert gap <= bound + FLOAT_SLACK, (j, e, gap, bound)
            checked += 1
    elapsed = time.monotonic() - start
    assert checked == 100
    assert elapsed < 10.0
    print(f"\nPASS criterion 6: |quadrature - series| <= remainder bound at "
          f"{checked} eccentricities ({elapsed:.2f}s)")


def test_criterion_7_analytic_bound_property_suites():
    rng = np.random.default_rng(2013)

    # Green-operator norm bound on random zero-average forcings
    for eta_hat in (0.0, 0.004, 0.008):
        bound = green_norm_bound(eta_hat)
        for _ in range(34):
            degree = int(rng.integers(1, 33))
            coeffs = np.zeros(degree + 1, dtype=complex)
            coeffs[1:] = rng.normal(size=degree) + 1j * rng.normal(size=degree)
            g = PeriodicFunction(coeffs)
            assert sup_norm(green_apply(g, eta_hat), 4096) <= (
                bound * sup_norm(g, 4096) * (1.0 + 1e-9)
            )

    # zero-average norm inequalities
    for _ in range(100):
        degree = int(rng.integers(1, 33))
        coeffs = np.zeros(degree + 1, dtype=complex)
        coeffs[1:] = rng.normal(size=degree) + 1j * rng.normal(size=degree)
        v = PeriodicFunction(coeffs)
        sup_v = sup_norm(v, 8192)
        assert sup_v <= math.pi / 2.0 * sup_norm(derivative(v, 1), 8192) * (1 + 1e-6)
        assert sup_v <= math.pi**2 / 8.0 * sup_norm(derivative(v, 2), 8192) * (1 + 1e-6)

    # complex-disk Kepler bounds
    t_grid = np.linspace(0.0, 2.0 * math.pi, 13)
    for b in (0.462678, 0.768368):
        e_star = b / math.cosh(b)
        for _ in range(100):
            radius = e_star * math.sqrt(rng.uniform())
            angle = rng.uniform(0.0, 2.0 * math.pi)
            e = complex(radius * math.cos(angle), radius * math.sin(angle))
            for t in t_grid:
                u = complex_eccentric_anomaly(e, float(t))
                assert abs(u - t) <= b + 1e-10
                assert abs(1.0 - e * cmath.cos(u)) >= 1.0 - b - 1e-10

    print("\nPASS criterion 7: operator-norm, norm-inequality and "
          "complex-disk suites pass (>= 100 samples each)")


def test_criterion_8_constructive_solutions_across_catalog():
    start = time.monotonic()
    bodies = [b for b in MOONS + [MERCURY] + MINOR if certify(b).certified]
    assert len(bodies) == 21
    worst_residual = 0.0
    worst_rk4 = 0.0
    for body in bodies:
        cap = certify(body).eta_admissible
        for eta in (0.0, cap):
            params = ResonanceParams.from_body(body, eta=eta)
            orbit = solve_bifurcation(params)
            residual = orbit_residual(orbit)
            assert residual <= 1e-9, (body.name, eta, residual)
            ball = 2.5 * params.eps_hat / (1.0 - params.e) ** 3
            assert sup_norm(orbit.u) <= ball, (body.name, eta)
            worst_residual = max(worst_residual, residual)
            if eta == 0.0:
                x0, v0 = orbit.initial_state()
                period = 2.0 * math.pi * body.q
                traj = integrate(SpinState(x0, v0, 0.0), period, params)
                gap = float(np.max(np.abs(traj.x - np.asarray(orbit.x_of(traj.t)))))
                assert gap <= 1e-5, (body.name, gap)
                assert check_resonance(traj, body.p, body.q) <= 1e-4
                worst_rk4 = max(worst_rk4, gap)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(f"\nPASS criterion 8: 21 certified bodies solved at eta=0 and at "
          f"their caps; worst orbit residual {worst_residual:.2e}, worst "
          f"RK4 reproduction gap {worst_rk4:.2e} ({elapsed:.1f}s)")


def test_criterion_9_fixed_point_uniqueness_and_contraction():
    rng = np.random.default_rng(99)
    tethys = next(b for b in MOONS if b.name == "Tethys")
    epimetheus = next(b for b in MINOR if b.name == "Epimetheus")
    cases = [
        (tethys, 0.0),        # near-circular
        (MERCURY, 0.001),     # large eccentricity, 3:2
        (epimetheus, 0.004),  # large oblateness, slow contraction
    ]
    tol = 1e-12
    for body, eta in cases:
        params = ResonanceParams.from_body(body, eta=eta)
        modes = solver._MODES[body.q]
        radius = 2.5 * params.eps_hat * fx_sup_bound(params.e)
        start_coeffs = np.zeros(modes + 1, dtype=complex)
        start_coeffs[1:9] = rng.normal(size=8) + 1j * rng.normal(size=8)
        start = PeriodicFunction(start_coeffs)
        start = scaled(start, radius / sup_norm(start))

        a = solve_range(0.6, params)
        b = solve_range(0.6, params, initial=start)
        assert sup_norm(difference(a.u, b.u)) <= 10.0 * tol, body.name

        rate_bound = 2.5 * params.eps_hat * fxx_sup_bound(params.e) + 1e-3
        ratios = [
            y / x for x, y in zip(a.increments, a.increments[1:]) if x > 1e-9
        ]
        assert ratios, body.name
        assert all(r <= rate_bound for r in ratios), (body.name, max(ratios))
    print("\nPASS criterion 9: fixed-point uniqueness and contraction-rate "
          "checks pass for Tethys, Mercury and Epimetheus")
