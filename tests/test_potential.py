"""Potential derivatives, Fourier coefficients, series and remainder bounds.

Oracles: an independent composition path for V_x (bisection Kepler solve +
explicit formulas, no shared code), and cross-agreement between the two
deliberately independent quadrature routes.  Expensive mpmath-derived
regression constants are frozen with the generating expressions quoted.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (SERIES_COEFFS, STRIP_FRACTIONS, alpha_series_reference,
                     alpha_trapezoid_reference, fourier_coefficient_exponential, fxx_sup_bound,
                     hansen_series, log_truncation_bound_reference, potential_fxx,
                     rounding_bound_reference, tidal_kernel)
from spinorbit import potential
from spinorbit.catalog import bundled_catalog, nu_of_e
from spinorbit.kepler import eccentric_anomaly
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


def test_fourier_refuses_more_than_2_pow_20_nodes():
    # a larger n_quad used to run until numpy ran out of memory
    with pytest.raises(ValueError, match=r"^n_quad must be even, >= 64 and <= 2\*\*20, got 1048578$"):
        fourier_coefficient(0.2, 1, n_quad=2**20 + 2)


@pytest.mark.parametrize("j", [2.5, 2.0, np.float64(-1.5), math.nan, True, False])
def test_fourier_refuses_non_integer_harmonic_by_name(j):
    # not a QuadratureError, whose "n_quad too small" asks for nodes that cannot help
    with pytest.raises(ValueError, match=r"harmonic j must be an integer, got j="):
        fourier_coefficient(0.1, j)


@pytest.mark.parametrize("e", [False, True])
def test_fourier_refuses_a_bool_eccentricity(e):
    # float(False) is 0.0, which would return alpha_2(0) = -0.5
    with pytest.raises(ValueError, match=rf"^eccentricity must satisfy 0 <= e < 1, got {e}$"):
        fourier_coefficient(e, 2)


def test_fourier_accepts_a_numpy_integer_harmonic():
    assert fourier_coefficient(0.1, np.int64(2)) == fourier_coefficient(0.1, 2)


def test_fourier_evaluates_any_real_e_in_double_precision():
    # 0-d arrays and numpy scalars are read as a Python float; alpha_2(0.1)
    # is the value the 4096-node quadrature gave, unchanged on 64 nodes
    expected = -0.4875405641920221
    for e in (np.asarray(0.1), np.float64(0.1), 0.1):
        assert fourier_coefficient(e, 2).hex() == expected.hex(), type(e)
    assert fourier_coefficient(np.float32(0.1), 2) == fourier_coefficient(float(np.float32(0.1)), 2)


def _chosen_grid(e, j, n_quad):
    """The rule of ``fourier_coefficient``, restated on the reference bound:
    the smallest power of two n in [64, n_quad] with
    log T(e, j, n) <= log(FLOAT_SLACK - R(e, j)), or None."""
    rounding = potential._rounding_bound(e, j)
    if not rounding < potential.FLOAT_SLACK:
        return None
    log_budget = math.log(potential.FLOAT_SLACK - rounding)
    n = 64
    while n <= n_quad:
        if log_truncation_bound_reference(e, j, n) <= log_budget:
            return n
        n *= 2
    return None


def test_grid_proof_picks_the_reference_grid(monkeypatch):
    # some strip width proves n exactly when the least over the widths does,
    # so stopping at the first width keeps the grid: 5,740 (e, j, n_quad),
    # e up to the round-off floor, with the integrand stubbed to record n
    grids = []
    monkeypatch.setattr(potential, "_alpha_integrand",
                        lambda e, j, n: grids.append(n) or np.zeros(n))
    e_values = [*np.linspace(0.0, 0.9966, 78).tolist(), 1e-9, 0.0549, 0.2056, 0.99663]
    cases = [(e, j, n_quad) for e in e_values
             for j in [*range(-16, 0), *range(1, 17), 33, 64, 200]
             for n_quad in (2048, 2**20)]
    assert len(cases) >= 5000
    for e, j, n_quad in cases:
        grids.clear()
        try:
            fourier_coefficient(e, j, n_quad)
        except QuadratureError:
            pass
        n = _chosen_grid(e, j, n_quad)
        assert grids == ([n] if n else []), (e, j, n_quad)


@pytest.mark.parametrize("e", [0.0, 1e-9, 0.0549, 0.3, 0.6, 0.9, 0.99, 0.9966])
def test_grid_proof_flips_at_the_reference_bound(e):
    # a budget just above the least log T over the widths proves n, one just
    # below proves no grid up to n.  libm's and numpy's sinh, cosh and log
    # differ in the last bits, which the cancellation in 1 - e cosh y near
    # the pole lifts to about 5e-10 at most in log T
    for j in (1, 2, 4, 16, 64, -3):
        for n in (64, 256, 2048, 2**16):
            least = log_truncation_bound_reference(e, j, n)
            tol = 1e-8 * max(1.0, abs(least))
            assert potential._proven_grid(e, j, n, least + tol) <= n, (j, n)
            assert potential._proven_grid(e, j, n, least - tol) > n, (j, n)


def test_strip_widths_are_the_reference_widths():
    assert isinstance(potential._STRIP_FRACTIONS, tuple)
    assert sorted(potential._STRIP_FRACTIONS) == STRIP_FRACTIONS.tolist()


@pytest.mark.parametrize("e", [0.0, 0.0549, 0.2056, 0.5, 0.9, 0.99, 0.9966])
def test_rounding_bound_is_its_derivation(e):
    # the closed form and its rounded-up constants, against the docstring's
    # terms summed afresh with the means I_p taken numerically
    for j in (1, 2, 3, 64, -7, 10**5):
        assert potential._rounding_bound(e, j) == pytest.approx(rounding_bound_reference(e, j),
                                                                rel=1e-13, abs=0.0), j


def test_cached_quadrature_matches_reference_in_any_call_order():
    # every value is, bit for bit, the reference trapezoid on the grid the
    # bounds chose, and every refusal comes where no grid is proven
    calls = [(float(e), j, n_quad)
             for e in (0.0, 0.0549, 0.2056, 0.45, 0.9, 0.95, 0.99)
             for j in [*range(-8, 0), *range(1, 9)]
             for n_quad in (64, 2048)]
    random.Random(19).shuffle(calls)
    refusals = 0
    for e, j, n_quad in calls:
        n = _chosen_grid(e, j, n_quad)
        if n is None:
            refusals += 1
            with pytest.raises(QuadratureError, match=f"n_quad={n_quad} too small"):
                fourier_coefficient(e, j, n_quad)
        else:
            assert fourier_coefficient(e, j, n_quad) == alpha_trapezoid_reference(e, j, n), (e, j)
    assert refusals > 0
    # the one cached geometry at its edges: -0.0 right after 0.0, a numpy
    # scalar and a 0-d array equal to the cached float, and a 1024-node grid
    # between 64-node calls, which evicts the entry and refills it
    assert _chosen_grid(0.9966, 1, 2048) == 1024
    edges = [(0.0, 2), (-0.0, 2), (0.2056, 3), (np.float64(0.2056), 1), (np.asarray(0.2056), 4),
             (0.3, 1), (0.9966, 1), (0.3, 2)]
    for e, j in edges:
        n = _chosen_grid(float(e), j, 2048)
        assert fourier_coefficient(e, j) == alpha_trapezoid_reference(float(e), j, n), (e, j)
    with pytest.raises(ValueError):
        potential._geometry(0.3, 64)[0][0] = 0.0


def test_fourier_doubling_check_flags_coarse_grids():
    # 64 nodes cannot resolve the integrand at extreme eccentricity
    with pytest.raises(QuadratureError):
        fourier_coefficient(0.95, 2, n_quad=64)


@pytest.mark.parametrize("e, j, n_quad, at_floor", [
    (0.95, 2, 64, False),      # under-resolved: more nodes pass
    (0.9999, 1, 2048, True),   # the rounding bound alone is above FLOAT_SLACK
    (0.9995, 1, 4096, True),
    (0.9999, 1, 65536, True),
])
def test_fourier_doubling_check_tells_round_off_from_truncation(e, j, n_quad, at_floor):
    with pytest.raises(QuadratureError) as info:
        fourier_coefficient(e, j, n_quad=n_quad)
    assert info.value.at_floor is at_floor


# alpha_1(e) frozen from mpmath at dps 30: the 16384-node trapezoid of the
# same integrand, unchanged in 20 digits at 32768 nodes
ALPHA_1_FROZEN = {
    0.99: 0.24802901458810153467,
    0.996: 0.25501534632227637422,
    0.999: 0.26147047520224677113,
    0.9995: 0.26345441125137661743,
}


@pytest.mark.parametrize("n_quad", [2048, 4096, 8192, 16384, 65536])
def test_fourier_answers_within_float_slack_or_refuses_at_floor(n_quad):
    # at e = 0.9995 the 2048-node sum is 5.8e-10 off by rounding alone, which
    # more nodes do not lower
    answered = {}
    for e in ALPHA_1_FROZEN:
        try:
            answered[e] = fourier_coefficient(e, 1, n_quad)
        except QuadratureError as exc:
            assert exc.at_floor, (e, n_quad)
    assert 0.99 in answered and 0.9995 not in answered
    for e, value in answered.items():
        assert abs(value - ALPHA_1_FROZEN[e]) <= potential.FLOAT_SLACK, (e, n_quad)


# alpha_j(e) frozen from mpmath at dps 30: the 4096-node trapezoid of the
# integrand -(1-e)^2 Re[(A + iB)^4 e^{ijm}] / (2 rho^4), unchanged within
# 1e-28 at 8192 nodes
ALPHA_FROZEN = {
    (0.2056, 3): -0.3270890966819027591576,
    (0.6, 7): -0.7163065429486160612464,
    (0.9, -5): -0.06408225213825883403022,
    (0.99, 1): 0.2480290145881015346694,
    (0.99, 64): 4.715419294972453889817,
}
REFERENCE_NODES = 2**16


@pytest.mark.parametrize("e, j", list(ALPHA_FROZEN))
def test_reference_trapezoid_matches_mpmath(e, j):
    gap = abs(alpha_trapezoid_reference(e, j, REFERENCE_NODES) - ALPHA_FROZEN[e, j])
    assert gap <= 2.0 * potential._rounding_bound(e, j)


@settings(deadline=None, max_examples=60)
@given(st.floats(0.0, 0.99), st.integers(1, 64), st.sampled_from([1, -1]))
def test_fourier_within_float_slack_of_a_65536_node_reference(e, j, sign):
    j *= sign
    value = fourier_coefficient(e, j, REFERENCE_NODES)
    reference = alpha_trapezoid_reference(e, j, REFERENCE_NODES)
    assert abs(value - reference) <= potential.FLOAT_SLACK
    # the truncation bound of the chosen grid plus both sums' rounding bounds
    n = _chosen_grid(e, j, REFERENCE_NODES)
    bound = (math.exp(log_truncation_bound_reference(e, j, n))
             + 2.0 * potential._rounding_bound(e, j))
    assert abs(value - reference) <= bound, (n, bound)


@given(st.floats(0.0, 0.99), st.integers(1, 10**5), st.sampled_from([64, 512, 4096]))
def test_both_error_bounds_grow_with_the_harmonic(e, j, n):
    # why ``fourier`` may ask for its top row first
    assert potential._rounding_bound(e, j) < potential._rounding_bound(e, j + 1)
    assert log_truncation_bound_reference(e, j, n) <= log_truncation_bound_reference(e, -j - 1, n)
    budget = math.log(potential.FLOAT_SLACK)
    assert potential._proven_grid(e, j, n, budget) <= potential._proven_grid(e, -j - 1, n, budget)


def test_numpy_sin_and_cos_within_one_ulp():
    # the rounding bound assumes it; arguments as the integrand takes them:
    # half and whole nodes, and phases up to |j| pi at the largest |j| answered
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(21)
    args = np.concatenate([rng.uniform(-math.pi, math.pi, 400),
                           rng.uniform(-1.2e5 * math.pi, 1.2e5 * math.pi, 400)])
    with mpmath.workprec(120):
        for f, exact in ((np.sin, mpmath.sin), (np.cos, mpmath.cos)):
            for x, y in zip(args.tolist(), f(args).tolist()):
                truth = exact(mpmath.mpf(x))
                assert abs(mpmath.mpf(y) - truth) <= math.ulp(float(truth)), (f, x)


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


@pytest.mark.parametrize("j", [2, 3])
def test_series_coefficients_are_the_derived_hansen_coefficients(j):
    # every "certified: yes" trusts these integers, read as rationals
    derived = hansen_series(j, CANONICAL_ORDER[j])
    assert {k: c for k, c in enumerate(derived) if c} == SERIES_COEFFS[j]


@pytest.mark.parametrize("j", [2, 3])
def test_derived_tail_lies_within_the_remainder_bound(j):
    # the tail beyond the truncation order, summed exactly through e^31 at
    # sampled e across the disk, lies within remainder_bound.  This checks
    # the bound, it does not prove it: the terms past e^31 are left out, and
    # the last derived term is asserted far below the bound so that they
    # could not plausibly close the gap
    order, top = CANONICAL_ORDER[j], 31
    derived = hansen_series(j, top)
    last = max(k for k, c in enumerate(derived) if c)
    for fraction in (0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99):
        e = fraction * canonical_disk(j)
        x = Fraction(e)
        tail = sum(derived[k] * x**k for k in range(order + 1, top + 1))
        bound = remainder_bound(e, order, CANONICAL_B[j])
        assert abs(tail) <= bound, (e, float(tail), bound)
        assert abs(derived[last] * x**last) <= 1e-6 * (bound - abs(tail)), e


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


@pytest.mark.parametrize("j", [2, 3])
def test_alpha_series_matches_fraction_reference_across_the_disk(j):
    rng = random.Random(j)
    disk = canonical_disk(j)
    points = [rng.uniform(0.0, disk) for _ in range(10_000)]
    for e in points + [0.0, math.nextafter(disk, 0.0)]:
        assert _same_double(alpha_series(j, e), alpha_series_reference(j, e)), e


@given(st.sampled_from([2, 3]), st.floats(0.0, 1.0, exclude_max=True))
def test_alpha_series_matches_fraction_reference_random(j, e):
    assert _same_double(alpha_series(j, e), alpha_series_reference(j, e))


@pytest.mark.parametrize("e", [math.inf, math.nan, -math.inf, -0.1])
def test_alpha_series_refuses_non_finite_or_negative_e(e):
    for j in (2, 3):
        with pytest.raises(ValueError, match=r"eccentricity must be finite and >= 0"):
            alpha_series(j, e)


@pytest.mark.parametrize("e", [False, True])
def test_alpha_series_refuses_a_bool_eccentricity(e):
    # alpha_lower_bound(2, False) used to read False as e = 0 and return 0.5
    for j in (2, 3):
        with pytest.raises(ValueError, match=rf"^eccentricity must be finite and >= 0, got {e}$"):
            alpha_series(j, e)
        with pytest.raises(ValueError, match=rf"^eccentricity must be finite and >= 0, got {e}$"):
            alpha_lower_bound(j, e)


@pytest.mark.parametrize("e", [False, True])
@pytest.mark.parametrize("call, message", [
    (lambda e: eccentric_anomaly(e, 0.0), "real eccentricity must satisfy 0 <= e < 1, got {}"),
    (nu_of_e, "eccentricity must satisfy 0 <= e < 1, got {}"),
    (lambda e: remainder_bound(e, CANONICAL_ORDER[2], CANONICAL_B[2]),
     "e={} outside the Cauchy-estimate disk"),
], ids=["eccentric_anomaly", "nu_of_e", "remainder_bound"])
def test_a_bool_eccentricity_is_refused_everywhere(call, message, e):
    # float(False) is 0.0, but a bool is no eccentricity
    with pytest.raises(ValueError, match="^" + message.format(e)):
        call(e)


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
    with pytest.raises(ValueError, match=r"only for j in \(2, 3\), got 4"):
        alpha_lower_bound(4, 0.1)  # refused by alpha_series


def test_series_quadrature_remainder_triangle_quick():
    # the full 50-point sweep runs in the acceptance suite; 1e-10 covers the
    # quadrature's own accuracy contract (FLOAT_SLACK), which dominates
    # wherever the certified bound dips below float noise
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
