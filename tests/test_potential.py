"""Potential derivatives, Fourier coefficients, series and remainder bounds.

Oracles: an independent composition path for V_x (bisection Kepler solve +
explicit formulas, no shared code), and cross-agreement between the two
deliberately independent quadrature routes.  Expensive mpmath-derived
regression constants are frozen with the generating expressions quoted.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import (alpha_series_reference, alpha_trapezoid_reference,
                     fourier_coefficient_exponential, fxx_sup_bound, potential_fxx,
                     tidal_kernel)
from spinorbit import potential
from spinorbit.catalog import bundled_catalog
from spinorbit.potential import QuadratureError, fourier_coefficient, potential_fx
from spinorbit.series import (
    CANONICAL_B,
    CANONICAL_ORDER,
    alpha_lower_bound,
    alpha_series,
    canonical_disk,
    remainder_bound,
)
from test_kepler import bisect_oracle


def fx_oracle(e, x, t):
    """V_x recomposed from scratch: bisection Kepler solve plus formulas."""
    u = bisect_oracle(e, t % (2.0 * math.pi))
    rho = 1.0 - e * math.cos(u)
    f = 2.0 * math.atan2(
        math.sqrt(1.0 + e) * math.sin(0.5 * u),
        math.sqrt(1.0 - e) * math.cos(0.5 * u),
    )
    return math.sin(2.0 * x - 2.0 * f) / rho**3


def test_fx_trivial_values():
    assert potential_fx(0.0, math.pi / 4.0, 0.0) == pytest.approx(1.0, abs=1e-14)
    for w in (0.0, 1.1, 4.0):
        assert potential_fx(0.0, w, w) == pytest.approx(0.0, abs=1e-14)


def test_fx_against_independent_composition():
    assert potential_fx(0.0549, 0.3, 0.7) == pytest.approx(
        fx_oracle(0.0549, 0.3, 0.7), abs=1e-12
    )


def test_fx_double_periodicity():
    e, x, t = 0.2056, 0.9, 2.3
    base = potential_fx(e, x, t)
    assert potential_fx(e, x + 2.0 * math.pi, t) == pytest.approx(base, abs=1e-12)
    assert potential_fx(e, x, t + 2.0 * math.pi) == pytest.approx(base, abs=1e-12)


def test_fxx_trivial_values():
    assert potential_fxx(0.0, 1.3, 1.3) == pytest.approx(2.0, abs=1e-14)
    assert potential_fxx(0.0, 1.3 + math.pi / 4.0, 1.3) == pytest.approx(0.0, abs=1e-14)


def test_fxx_sup_bound_sampled():
    e = 0.2056
    x = np.linspace(0.0, 2.0 * math.pi, 1000, endpoint=False)
    t = np.linspace(0.0, 2.0 * math.pi, 1000, endpoint=False)
    vals = potential_fxx(e, x[:, None], t[None, :])
    assert np.max(np.abs(vals)) <= fxx_sup_bound(e)


def test_fourier_trivial_at_zero_eccentricity():
    assert fourier_coefficient(0.0, 2) == pytest.approx(-0.5, abs=1e-14)
    assert fourier_coefficient(0.0, 3) == pytest.approx(0.0, abs=1e-14)


def test_only_second_harmonic_survives_at_zero_eccentricity():
    for j in range(-10, 11):
        if j in (0, 2):
            continue
        assert abs(fourier_coefficient(0.0, j)) <= 1e-12


def test_fourier_rejects_bad_inputs():
    with pytest.raises(ValueError):
        fourier_coefficient(0.1, 0)
    with pytest.raises(ValueError):
        fourier_coefficient(0.1, 2, n_quad=63)
    with pytest.raises(ValueError):
        fourier_coefficient(1.0, 2)


@pytest.mark.parametrize("n_quad", [64, 2048, 4096])
def test_nested_grid_matches_separate_grids(monkeypatch, n_quad):
    # the n- and 2n-node sums fourier_coefficient checks against each other
    # are, bit for bit, the trapezoids on their own grids
    monkeypatch.setattr(potential, "_doubling_checked",
                        lambda value, refined, e, j, n: (value, refined))
    for j in range(1, 7):
        for e in np.linspace(0.0, 0.99, 12):
            e = float(e)
            assert fourier_coefficient(e, j, n_quad) == (
                alpha_trapezoid_reference(e, j, n_quad),
                alpha_trapezoid_reference(e, j, 2 * n_quad),
            ), (e, j)


def test_fourier_doubling_check_flags_coarse_grids():
    # 64 nodes cannot resolve the integrand at extreme eccentricity
    with pytest.raises(QuadratureError):
        fourier_coefficient(0.95, 2, n_quad=64)


@pytest.mark.parametrize("e, j, n_quad, at_floor", [
    (0.95, 2, 64, False),      # under-resolved: more nodes pass
    (0.9999, 1, 2048, False),  # under-resolved: the gap shrinks on doubling
    (0.9995, 1, 4096, True),   # rounding of the sum, ~1e2 round-off units
    (0.9999, 1, 65536, True),
])
def test_fourier_doubling_check_tells_round_off_from_truncation(e, j, n_quad, at_floor):
    with pytest.raises(QuadratureError) as info:
        fourier_coefficient(e, j, n_quad=n_quad)
    assert info.value.at_floor is at_floor


def test_exponential_doubling_check_flags_coarse_grids():
    # at e = 0.99 the mean-anomaly grid of 8192 nodes returns -3.70 for
    # alpha_1 = 0.2480; the doubled grid moves it by ~3.9
    with pytest.raises(QuadratureError):
        fourier_coefficient_exponential(0.99, 1, 8192)


def test_alpha_series_values():
    assert alpha_series(2, 0.0) == pytest.approx(-0.5, abs=0.0)
    assert alpha_series(3, 0.0) == pytest.approx(0.0, abs=0.0)
    # -1/2 + (5/4) 0.1^2 - (13/32) 0.1^4, in exact rational arithmetic
    assert alpha_series(2, 0.1) == pytest.approx(-0.487540625, rel=1e-15)
    with pytest.raises(ValueError):
        alpha_series(4, 0.1)


def test_truncation_order_is_the_highest_tabulated_power():
    assert CANONICAL_ORDER == {2: 4, 3: 21}


def _same_double(a, b):
    return a.hex() == b.hex()  # tells -0.0 from 0.0


BUNDLED_E = [b.e for b in bundled_catalog("all") + bundled_catalog("minor")]


@pytest.mark.parametrize("j", [2, 3])
def test_alpha_series_matches_fraction_reference(j):
    assert len(BUNDLED_E) == 24
    edge = [0.0, -0.0, 5e-324, math.nextafter(canonical_disk(j), 0.0)]
    for e in BUNDLED_E + edge:
        assert _same_double(alpha_series(j, e), alpha_series_reference(j, e)), e


@given(st.sampled_from([2, 3]), st.floats(0.0, 1.0, exclude_max=True))
def test_alpha_series_matches_fraction_reference_random(j, e):
    assert _same_double(alpha_series(j, e), alpha_series_reference(j, e))


@pytest.mark.parametrize("e", [math.inf, math.nan, -math.inf, -0.1])
def test_alpha_series_refuses_non_finite_or_negative_e(e):
    for j in (2, 3):
        with pytest.raises(ValueError, match=r"eccentricity must be finite and >= 0"):
            alpha_series(j, e)


def test_quadrature_matches_series_at_small_eccentricity():
    quad = fourier_coefficient(0.1, 2)
    series = alpha_series(2, 0.1)
    assert abs(quad - series) <= remainder_bound(0.1, 4, CANONICAL_B[2])
    assert abs(quad - series) < 1e-6  # actual remainder is ~6e-8 here


def test_remainder_bound_properties():
    b = CANONICAL_B[2]
    assert remainder_bound(0.0, 4, b) == 0.0
    assert remainder_bound(0.02, 4, b) > remainder_bound(0.01, 4, b)
    with pytest.raises(ValueError):
        remainder_bound(b / math.cosh(b), 4, b)  # on the disk boundary
    with pytest.raises(ValueError):
        remainder_bound(0.1, 4, 1.0)


def test_remainder_bound_frozen_regression():
    # mpmath (dps=40): 2/(1-b)^5 ((1+b/cosh b-e)(1+cosh b)+1-b)^2
    #                  (e/(b/cosh b - e))^22  at e=0.2056, b=0.768368
    assert remainder_bound(0.2056, 21, CANONICAL_B[3]) == pytest.approx(
        0.04500146478004399, rel=1e-12
    )


def test_remainder_brackets_true_tail():
    # |alpha_3(quadrature) - series| <= frozen bound at Mercury's eccentricity
    gap = abs(fourier_coefficient(0.2056, 3) - alpha_series(3, 0.2056))
    assert gap <= 0.04500146478004399


def test_alpha_lower_bound_values():
    assert alpha_lower_bound(2, 0.0) == pytest.approx(0.5, abs=0.0)
    assert alpha_lower_bound(3, 0.0) == pytest.approx(0.0, abs=0.0)
    # mpmath (dps=40): |series| - remainder at the Moon's eccentricity
    assert alpha_lower_bound(2, 0.0549) == pytest.approx(
        0.45475265251205715, rel=1e-12
    )
    assert alpha_lower_bound(2, 0.0549) > 0.0
    with pytest.raises(ValueError):
        alpha_lower_bound(2, 0.45)  # outside the canonical disk


def test_series_quadrature_remainder_triangle_quick():
    # the full 50-point sweep runs in the acceptance suite; 1e-10 covers the
    # quadrature's own accuracy contract (its doubling-check threshold),
    # which dominates wherever the certified bound dips below float noise
    for j, e_max in ((2, 0.41), (3, 0.58)):
        for e in np.linspace(0.02, e_max, 12):
            gap = abs(fourier_coefficient(float(e), j) - alpha_series(j, float(e)))
            bound = remainder_bound(float(e), CANONICAL_ORDER[j], CANONICAL_B[j])
            assert gap <= bound + 1e-10


def test_exponential_path_is_real_and_matches():
    for e in (0.0549, 0.2056):
        for j in (1, 2, 3, 4, 5, 6):
            z = fourier_coefficient_exponential(e, j)
            assert abs(z.imag) <= 1e-12
            assert abs(z.real - fourier_coefficient(e, j)) <= 1e-10


def test_coefficients_bounded_by_kernel_sup():
    # |alpha_j| <= sup_t |kernel| <= the analytic disk bound
    b = CANONICAL_B[3]
    t = np.linspace(0.0, 2.0 * math.pi, 512, endpoint=False)
    for e in (0.1, 0.3, 0.5):
        sup_kernel = float(np.max(np.abs(tidal_kernel(e, t))))
        analytic = 2.0 / (1.0 - b) ** 5 * (
            abs(1.0 - e) * (1.0 + math.cosh(b)) + 1.0 - b
        ) ** 2
        assert sup_kernel <= analytic
        for j in range(1, 11):
            assert abs(fourier_coefficient(e, j)) <= sup_kernel + 1e-12


def test_kernel_supports_complex_eccentricity():
    z = tidal_kernel(complex(0.1, 0.2), 1.3)
    assert isinstance(z, complex)
    # reduces to the real kernel when the imaginary part vanishes
    zr = tidal_kernel(complex(0.1, 0.0), 1.3)
    assert abs(zr - tidal_kernel(0.1, 1.3)) < 1e-12


def test_canonical_disk_radii():
    assert canonical_disk(2) == pytest.approx(0.462678 / math.cosh(0.462678), rel=1e-15)
    assert canonical_disk(3) == pytest.approx(0.768368 / math.cosh(0.768368), rel=1e-15)
