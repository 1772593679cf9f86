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
from spinorbit.potential import potential_fx


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


def test_newton_alone_converges_at_e_0_99(monkeypatch):
    # Newton needs 9 updates here, at 0.02 < |t| < 0.045; a Newton cap
    # below that would hand points to the bisection, which is made to fail
    def no_bisection(e, t):
        raise AssertionError(f"bisection fallback reached at e={e}, t={t}")

    monkeypatch.setattr(kepler, "_bisect_kepler", no_bisection)
    t = np.linspace(-np.pi, np.pi, 20001)
    u = eccentric_anomaly(0.99, t)
    assert np.max(np.abs(u - 0.99 * np.sin(u) - t)) <= 1e-13


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
    # apoapses, the odd multiples of pi, where tan(u/2) is largest and
    # f - u changes sign; there f = t.
    e = 0.3
    odd = math.pi * np.array([-3.0, -1.0, 1.0, 3.0])
    t = np.sort(np.concatenate([np.linspace(-12.0, 12.0, 4001), odd]))
    f = anomalies(e, t).f
    assert np.max(np.abs(np.diff(f))) < 0.05  # no branch jumps
    f_shift = anomalies(e, t + 2.0 * math.pi).f
    assert np.max(np.abs(f_shift - f - 2.0 * math.pi)) < 1e-11
    assert np.max(np.abs(anomalies(e, odd).f - odd)) < 1e-12


@pytest.mark.parametrize("e", [0.0, 0.0549, 0.2056, 0.5, 0.9, 0.99, 0.999])
def test_rho_and_f_against_mpmath_at_the_returned_u(e):
    # the tangent forms of rho and f against 1 - e cos(u) and the unwrapped
    # half-angle arctangent at 40 digits, at the u the solve returned
    mpmath = pytest.importorskip("mpmath")
    t = np.concatenate([math.pi * np.array([1.0, -1.0, 3.0, 14.0]), [0.0, 1e-9, -1e-9, 2.0, -4.0],
                        np.geomspace(1e-6, 1.0, 13), np.random.default_rng(7).uniform(-50, 50, 30)])
    u, rho, f = anomalies(e, t)
    with mpmath.workdps(40):
        E = mpmath.mpf(e)
        for ui, rho_i, f_i in zip(u, rho, f):
            U = mpmath.mpf(float(ui))
            R = 1 - E * mpmath.cos(U)
            half = 2 * mpmath.atan2(mpmath.sqrt(1 + E) * mpmath.sin(U / 2),
                                    mpmath.sqrt(1 - E) * mpmath.cos(U / 2))
            F = float(half + 2 * mpmath.pi * mpmath.nint((U - half) / (2 * mpmath.pi)))
            assert abs(rho_i - float(R)) <= 4 * 2.0**-52 * float(R), (ui, rho_i, R)
            assert abs(f_i - F) <= 4 * math.ulp(F), (ui, f_i, F)


@pytest.mark.parametrize("e", [0.3, 0.6, 0.9, 0.99])
def test_residual_bound_grows_with_the_ulp_of_t_beyond_256(e):
    # beyond |t| = 256 the float nearest the root can leave a residual of
    # ulp(t) > 1e-13: at t = 512.11 the two floats around the root leave
    # +-1.14e-13, so a bound of 1e-13 would stop neither Newton nor bisection
    t = np.linspace(100.0, 2000.0, 20001)
    u = eccentric_anomaly(e, t)
    assert np.max(np.abs(u - e * np.sin(u) - t)) <= 2.0 * math.ulp(2000.0)
    u = eccentric_anomaly(e, 512.11)
    assert abs(u - e * math.sin(u) - 512.11) <= 2.0 * math.ulp(512.11)


@pytest.mark.parametrize("e", [np.float32(0.2056), np.array(0.2056)], ids=["float32", "0-d"])
def test_eccentricity_is_evaluated_in_double_precision(e):
    t = np.linspace(-7.0, 7.0, 201)
    x = np.linspace(-1.0, 1.0, 201)
    for got, want in zip(anomalies(e, t), anomalies(float(e), t)):
        assert np.array_equal(got, want)
    assert np.array_equal(potential_fx(e, x, t), potential_fx(float(e), x, t))


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
