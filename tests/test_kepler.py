"""Kepler-equation solver tests.

The independent oracle here is interval bisection on g(u) = u - e sin(u) - t
over the bracket [t - e, t + e]; it never shares code with the Newton path
under test.
"""

import cmath
import math

import numpy as np
import pytest

from oracles import (CRITICAL_ECC, complex_anomalies, complex_eccentric_anomaly,
                     eccentric_anomaly_reference)
from spinorbit import kepler, solver
from spinorbit.catalog import bundled_catalog
from spinorbit.certification import certify
from spinorbit.dynamics import DEFAULT_STEP
from spinorbit.kepler import (
    KeplerError,
    anomalies,
    eccentric_anomaly,
)


def bisect_oracle(e, t, width=1e-14):
    """Bisection on u - e sin(u) - t, independent of the solver under test."""
    lo, hi = t - e, t + e
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid - e * math.sin(mid) - t > 0.0:
            hi = mid
        else:
            lo = mid
        if hi - lo < width:
            break
    return 0.5 * (lo + hi)


def test_zero_eccentricity_is_identity():
    assert eccentric_anomaly(0.0, 1.3) == pytest.approx(1.3, abs=1e-15)


def test_half_turn_is_exact_for_any_eccentricity():
    assert eccentric_anomaly(0.5, math.pi) == pytest.approx(math.pi, abs=1e-13)


def test_against_bisection_oracle():
    u = eccentric_anomaly(0.0549, 1.0)
    assert u == pytest.approx(bisect_oracle(0.0549, 1.0), abs=1e-12)


def test_residual_over_random_inputs():
    rng = np.random.default_rng(20131209)
    e = rng.uniform(0.0, 0.6, size=10_000)
    t = rng.uniform(-20.0, 20.0, size=10_000)
    for ei, ti in zip(e, t):
        u = eccentric_anomaly(float(ei), float(ti))
        assert abs(u - ei * math.sin(u) - ti) <= 1e-13


def test_vectorized_matches_scalar():
    t = np.linspace(-7.0, 7.0, 101)
    u_vec = eccentric_anomaly(0.3, t)
    for ti, ui in zip(t, u_vec):
        assert ui == pytest.approx(eccentric_anomaly(0.3, float(ti)), abs=1e-13)


def test_odd_even_symmetry():
    t = np.linspace(0.1, 9.0, 60)
    for e in (0.05, 0.2056, 0.5):
        up = anomalies(e, t)
        um = anomalies(e, -t)
        assert np.max(np.abs(um.u + up.u)) < 1e-12
        assert np.max(np.abs(um.rho - up.rho)) < 1e-12
        assert np.max(np.abs(um.f + up.f)) < 1e-12
        assert np.all(up.rho >= 1.0 - e) and np.all(up.rho <= 1.0 + e)


def test_periodicity():
    t = np.linspace(-3.0, 3.0, 40)
    for e in (0.1, 0.4):
        u0 = eccentric_anomaly(e, t)
        u1 = eccentric_anomaly(e, t + 2.0 * math.pi)
        assert np.max(np.abs(u1 - u0 - 2.0 * math.pi)) < 1e-12


def test_rejects_invalid_real_eccentricity():
    with pytest.raises(ValueError):
        eccentric_anomaly(1.0, 0.3)
    with pytest.raises(ValueError):
        eccentric_anomaly(-0.1, 0.3)


def test_rejects_complex_eccentricity_outside_domain():
    with pytest.raises(ValueError):
        complex_eccentric_anomaly(complex(CRITICAL_ECC + 0.01, 0.0), 0.3)


def test_high_eccentricity_still_converges():
    for t in (1e-3, 0.1, 2.0, 6.0):
        u = eccentric_anomaly(0.999, t)
        assert abs(u - 0.999 * math.sin(u) - t) <= 1e-13


def test_bisection_fallback_meets_the_tolerance(monkeypatch):
    # Newton stagnates near perihelion at extreme e; the elements it leaves
    # go to the bisection fallback, which must still deliver the tolerance
    bisect_kepler, calls = kepler._bisect_kepler, []
    monkeypatch.setattr(kepler, "_bisect_kepler",
                        lambda e, t: calls.append(t) or bisect_kepler(e, t))
    t = np.linspace(0.0, 0.05, 2001)
    u = eccentric_anomaly(0.999, t)
    assert calls
    assert np.max(np.abs(u - 0.999 * np.sin(u) - t)) <= 1e-13


def _grids(body):
    """The solver's collocation grid and the RK4 half grid of one resonance period."""
    n = max(4 * solver._MODES[body.q], solver._COLLOCATION_MIN)
    collocation = body.q * (2.0 * np.pi * np.arange(n) / n)
    span = 2.0 * math.pi * body.q
    steps = round(span / DEFAULT_STEP)
    return collocation, 0.0 + 0.5 * (span / steps) * np.arange(2 * steps + 1)


@pytest.mark.parametrize("body", [b for b in bundled_catalog("all") + bundled_catalog("minor")
                                  if certify(b).certified], ids=lambda b: b.name)
def test_newton_solve_bit_identical_to_array_per_operation_reference(body):
    for t in _grids(body):
        assert np.array_equal(eccentric_anomaly(body.e, t), eccentric_anomaly_reference(body.e, t))


def test_bisection_fallback_bit_identical_to_reference():
    t = np.linspace(0.0, 0.05, 2001)
    assert np.array_equal(eccentric_anomaly(0.999, t), eccentric_anomaly_reference(0.999, t))


@pytest.mark.parametrize("shape", [(0,), (3, 0)])
def test_empty_mean_anomaly_gives_empty_arrays(shape):
    assert eccentric_anomaly(0.3, np.array([])).shape == (0,)
    for values in (eccentric_anomaly(0.3, np.empty(shape)), *anomalies(0.3, np.empty(shape))):
        assert values.shape == shape


@pytest.mark.parametrize("t", [math.nan, math.inf, np.array([0.0, 1.0, -math.inf])])
def test_rejects_non_finite_mean_anomaly(t):
    with pytest.raises(ValueError, match="mean anomaly t must be finite"):
        eccentric_anomaly(0.3, t)


def test_anomalies_circular_orbit():
    u, rho, f = anomalies(0.0, 2.0)
    assert (u, rho, f) == pytest.approx((2.0, 1.0, 2.0), abs=1e-14)


def test_anomalies_perihelion():
    u, rho, f = anomalies(0.2056, 0.0)
    assert u == pytest.approx(0.0, abs=1e-14)
    assert rho == pytest.approx(1.0 - 0.2056, abs=1e-14)
    assert f == pytest.approx(0.0, abs=1e-14)


def test_anomalies_against_oracle():
    e, t = 0.2056, math.pi / 2.0
    u_ref = bisect_oracle(e, t)
    rho_ref = 1.0 - e * math.cos(u_ref)
    f_ref = 2.0 * math.atan(math.sqrt((1.0 + e) / (1.0 - e)) * math.tan(0.5 * u_ref))
    u, rho, f = anomalies(e, t)
    assert u == pytest.approx(u_ref, abs=1e-12)
    assert rho == pytest.approx(rho_ref, abs=1e-12)
    assert f == pytest.approx(f_ref, abs=1e-12)


def test_true_anomaly_unwrapped():
    # f - t must be 2*pi-periodic and f itself continuous through the
    # apoapsis, where the principal half-angle arctangent jumps.
    e = 0.3
    t = np.linspace(-12.0, 12.0, 4001)
    f = anomalies(e, t).f
    assert np.max(np.abs(np.diff(f))) < 0.05  # no branch jumps
    f_shift = anomalies(e, t + 2.0 * math.pi).f
    assert np.max(np.abs(f_shift - f - 2.0 * math.pi)) < 1e-11


@pytest.mark.parametrize("b", [0.462678, 0.768368])
def test_complex_disk_bounds(b):
    # |u_e(t) - t| <= b and |rho_e(t)| >= 1 - b throughout the disk
    # |e| < b/cosh(b): the quantitative inputs to the Cauchy remainder.
    rng = np.random.default_rng(42)
    e_star = b / math.cosh(b)
    t_grid = np.linspace(0.0, 2.0 * math.pi, 17)
    for _ in range(100):
        radius = e_star * math.sqrt(rng.uniform())
        angle = rng.uniform(0.0, 2.0 * math.pi)
        e = complex(radius * math.cos(angle), radius * math.sin(angle))
        for t in t_grid:
            u = complex_eccentric_anomaly(e, float(t), tol=1e-13)
            assert abs(u - t) <= b + 1e-10
            rho = 1.0 - e * cmath.cos(u)
            assert abs(rho) >= 1.0 - b - 1e-10


def test_complex_solver_residual():
    e = complex(0.2, 0.25)
    u = complex_eccentric_anomaly(e, 1.7)
    assert abs(u - e * cmath.sin(u) - 1.7) <= 1e-13


def test_complex_anomalies_match_real_limit():
    # complex path with zero imaginary part agrees with the real path
    e = 0.15
    for t in (0.3, 2.5, 4.0):
        tri_c = complex_anomalies(complex(e, 0.0), t)
        tri_r = anomalies(e, t)
        assert abs(tri_c.u - tri_r.u) < 1e-12
        assert abs(tri_c.rho - tri_r.rho) < 1e-12
        assert abs(tri_c.f - tri_r.f) < 1e-12
