"""Certification conditions, report assembly and serialization."""

import json
import math
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from oracles import green_apply, green_norm_bound, sup_norm
from spinorbit.catalog import Body, ResonanceParams, bundled_catalog, oblateness
from spinorbit.certification import (
    GREEN_ETA_HAT_MAX,
    certify,
    conditions,
    reports_to_csv,
    reports_to_json,
    reports_to_markdown,
)
from spinorbit.potential import fourier_coefficient
from spinorbit.solver import PeriodicFunction

EXPECTED = {
    r["name"]: r
    for r in json.loads((Path(__file__).parent / "data/expected_reports.json").read_text())
}


def test_green_norm_bound_at_zero():
    assert green_norm_bound(0.0) == pytest.approx(math.pi**2 / 8.0, rel=1e-15)


def test_green_norm_bound_exactly_five_fourths_at_cap():
    assert abs(green_norm_bound(GREEN_ETA_HAT_MAX) - 1.25) <= 1e-12


def test_green_norm_bound_monotone():
    assert green_norm_bound(0.001) < green_norm_bound(0.005)


def test_green_norm_bound_domain():
    with pytest.raises(ValueError):
        green_norm_bound(2.0 / math.pi)


def test_green_eta_ceilings_printed_digits():
    (moon,) = [b for b in bundled_catalog("moons") if b.name == "Moon"]
    (merc,) = bundled_catalog("mercury")
    assert 0.0083 <= certify(moon).eta_green_max < 0.0084
    assert 0.0041 <= certify(merc).eta_green_max < 0.0042


def test_green_ceiling_is_the_largest_double_below_its_exact_value():
    # pi to 37 decimals encloses pi; 2/pi - pi/5 decreases in pi, so the
    # upper end of the enclosure bounds it from below and the lower end
    # from above
    pi_lo = Fraction("3.1415926535897932384626433832795028841")
    pi_hi = pi_lo + Fraction(1, 10**37)
    assert Fraction(GREEN_ETA_HAT_MAX) <= 2 / pi_hi - pi_hi / 5
    assert Fraction(math.nextafter(GREEN_ETA_HAT_MAX, 1.0)) > 2 / pi_lo - pi_lo / 5


def test_green_ceiling_equals_frozen_for_every_bundled_body():
    bodies = bundled_catalog("all") + bundled_catalog("minor")
    assert len(bodies) == 24
    for body in bodies:
        assert certify(body).eta_green_max == EXPECTED[body.name]["eta_green_max"], body.name


def test_green_bound_eta_admissible_never_above_frozen():
    green_bound = [b for b in bundled_catalog("all") + bundled_catalog("minor")
                   if EXPECTED[b.name]["certified"]
                   and EXPECTED[b.name]["eta_admissible"] == EXPECTED[b.name]["eta_green_max"]]
    assert len(green_bound) == 20
    for body in green_bound:
        assert certify(body).eta_admissible <= EXPECTED[body.name]["eta_admissible"], body.name


def hatted(e, eps, p, q, nu=None):
    """conditions() at eta = 0 and the given unhatted parameters (nu
    defaults to p/q)."""
    return conditions(ResonanceParams(p=p, q=q, e=e, eps=eps, eta=0.0,
                                      nu=p / q if nu is None else nu))


def test_range_margin_limits():
    assert hatted(0.0, 0.0, 1, 1).range == pytest.approx(0.2, rel=1e-15)
    assert hatted(0.0, 0.2, 1, 1).range == pytest.approx(0.0, abs=1e-15)
    # unhatted margin = hatted margin / q^2
    assert hatted(0.0, 0.0, 3, 2).range / 4 == pytest.approx(0.05, rel=1e-15)
    with pytest.raises(ValueError):
        hatted(0.0, 0.0, 2, 1)


def test_nonempty_margin_limits():
    assert hatted(0.0, 0.0, 1, 1).nonempty == pytest.approx(0.2, rel=1e-15)
    # the 3:2 coefficient vanishes at e = 0: no certificate for any eps > 0
    assert hatted(0.0, 0.01, 3, 2).nonempty / 4 == pytest.approx(-0.01, rel=1e-12)


def test_eta_max_degenerate_cases():
    assert hatted(0.0, 0.0, 1, 1, nu=1.5).eta_hat_bif == 0.0       # eps = 0
    assert hatted(0.0, 0.0, 1, 1, nu=1.0).eta_hat_bif == 0.0       # eps = 0, nu_hat = 0
    assert hatted(0.0, 0.2, 1, 1, nu=1.5).eta_hat_bif == 0.0       # vanishing bracket
    assert math.isinf(hatted(0.0, 0.1, 1, 1, nu=1.0).eta_hat_bif)  # q nu - p = 0 sentinel


@pytest.mark.parametrize("params, name, reason", [
    (ResonanceParams.from_body(bundled_catalog("moons")[0], eta=0.009), "green",
     r"eta_hat=0\.009 violates the Green-norm condition 0 <= eta_hat <= 0\.008301241649622695"),
    (ResonanceParams.from_body(bundled_catalog("minor")[0]), "range",
     r"range \(contraction\) condition fails: margin -\S+ <= 0"),
    (ResonanceParams(p=3, q=2, e=0.0, eps=0.01, eta=0.0, nu=1.5), "nonempty",
     r"non-empty \(topological\) condition fails: margin -0\.04 <= 0"),
    (ResonanceParams(p=1, q=1, e=0.1, eps=0.0, eta=0.0, nu=1.0), "bifurcation",
     r"eps=0\.0: the phase equation needs eps > 0"),
    (ResonanceParams(p=1, q=1, e=0.0549, eps=1e-6, eta=0.008, nu=1.2), "bifurcation",
     r"bifurcation condition fails: eta_hat=0\.008, ceiling \S+ from the certified "
     r"phase-equation half-width \S+"),
    # (1-e)^3/5 = eps_hat = 0.4 m a = 0.2: both strict margins exactly 0.0
    (ResonanceParams(p=1, q=1, e=0.0, eps=0.2, eta=0.0, nu=1.0), "range",
     r"range \(contraction\) condition fails: margin 0 <= 0"),
    (ResonanceParams(p=1, q=1, e=0.0, eps=0.2, eta=0.0, nu=1.0), "nonempty",
     r"non-empty \(topological\) condition fails: margin 0 <= 0"),
], ids=["green", "range", "nonempty", "eps", "bifurcation", "range-zero", "nonempty-zero"])
def test_every_failure_gives_its_reason(params, name, reason):
    reasons = [r for n, r in conditions(params).failed if n == name]
    assert len(reasons) == 1
    assert re.fullmatch(reason, reasons[0]), reasons[0]


def test_margins_monotone_decreasing_in_eps():
    for eps_lo, eps_hi in ((0.0, 0.05), (0.05, 0.1)):
        lo, hi = hatted(0.1, eps_lo, 1, 1), hatted(0.1, eps_hi, 1, 1)
        assert hi.range < lo.range
        assert hi.nonempty < lo.nonempty


def test_moon_row_matches_frozen_table():
    moon = bundled_catalog("moons")[0]
    rep = certify(moon)
    exp = EXPECTED["Moon"]
    assert rep.alpha_lower == pytest.approx(exp["alpha_lower"], rel=1e-12, abs=0.0)
    assert rep.range_margin == pytest.approx(exp["range_margin"], rel=1e-12, abs=0.0)
    assert rep.nonempty_margin == pytest.approx(exp["nonempty_margin"], rel=1e-12, abs=0.0)
    assert rep.eta_bif_max == pytest.approx(exp["eta_bif_max"], rel=1e-12, abs=0.0)
    assert rep.eta_admissible == pytest.approx(exp["eta_admissible"], rel=1e-12, abs=0.0)


def test_mercury_row_matches_frozen_table():
    (merc,) = bundled_catalog("mercury")
    rep = certify(merc)
    exp = EXPECTED["Mercury"]
    assert rep.eta_green_max == pytest.approx(exp["eta_green_max"], rel=1e-12, abs=0.0)
    assert rep.eta_bif_max == pytest.approx(exp["eta_bif_max"], rel=1e-12, abs=0.0)
    assert rep.certified and rep.eta_admissible >= 0.001


# Known defects, pinned so that the change which mends each one flips its test.


@pytest.mark.xfail(strict=True, raises=ValueError,
                   reason="a row outside the certified disk ends in a ValueError")
def test_row_outside_the_disk_is_a_no():
    rep = certify(Body("X", "Y", 100.0, 99.9, 99.9, 0.5, 1, 1))
    assert not rep.certified and rep.alpha_lower == -math.inf


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the bifurcation ceiling is rounded to nearest, not down")
def test_mercury_eta_admissible_never_above_frozen():
    (merc,) = bundled_catalog("mercury")
    assert certify(merc).eta_admissible <= EXPECTED["Mercury"]["eta_admissible"]


def test_report_invariants():
    for rep in map(certify, bundled_catalog("all") + bundled_catalog("minor")):
        assert rep.eta_admissible <= rep.eta_green_max
        expected_flag = (
            rep.alpha_lower > 0.0
            and rep.range_margin > 0.0
            and rep.nonempty_margin > 0.0
            and rep.eta_admissible > 0.0
        )
        assert rep.certified == expected_flag


def test_certified_path_is_conservative():
    # replacing the certified lower bound by the (larger) quadrature value
    # of |alpha_j| can only widen every margin: no certified body flips
    for body in bundled_catalog("all") + bundled_catalog("minor"):
        rep = certify(body)
        j = 2 * body.p // body.q
        alpha_quad = abs(fourier_coefficient(body.e, j))
        assert alpha_quad >= rep.alpha_lower
        if rep.certified:
            e, eps = body.e, oblateness(body.a_km, body.b_km)
            scale = 0.4 if body.q == 1 else 0.1
            assert scale * (1.0 - e) ** 6 * alpha_quad - eps > 0.0


def test_green_bound_consistency_with_numerical_solves():
    # for random zero-mean forcings, the solved response never exceeds the
    # certified operator-norm bound
    rng = np.random.default_rng(7)
    for eta_hat in (0.0, 0.004, 0.008):
        bound = green_norm_bound(eta_hat)
        for _ in range(20):
            degree = int(rng.integers(1, 12))
            coeffs = np.zeros(degree + 1, dtype=complex)
            coeffs[1:] = rng.normal(size=degree) + 1j * rng.normal(size=degree)
            g = PeriodicFunction(coeffs)
            u = green_apply(g, eta_hat)
            assert sup_norm(u, 4096) <= bound * sup_norm(g, 4096) * (1.0 + 1e-9)


def test_report_serializers():
    reports = [certify(b) for b in bundled_catalog("minor")]
    csv_text = reports_to_csv(reports)
    assert csv_text.splitlines()[0].startswith("body_name,")
    assert len(csv_text.splitlines()) == 6
    parsed = json.loads(reports_to_json(reports))
    assert [r["body_name"] for r in parsed] == [b.body_name for b in reports]
    md = reports_to_markdown(reports)
    assert md.count("\n") == 7  # header + separator + 5 rows
    assert "| Janus |" in md


def test_markdown_escapes_a_pipe_in_a_body_name():
    body = Body("A|B", "Earth", 1738.1, 1737.7, 1736.0, 0.0549, 1, 1)
    head, _, row = reports_to_markdown([certify(body)]).splitlines()
    assert row.startswith("| A\\|B | ")
    # the row has as many cells as the header
    assert row.replace("\\|", "").count("|") == head.count("|")


def test_inf_sentinel_serializes():
    from spinorbit.certification import CertificationReport

    rep = CertificationReport(
        body_name="X", alpha_lower=0.5, range_margin=0.1, nonempty_margin=0.1,
        eta_bif_max=math.inf, eta_green_max=0.008, eta_admissible=0.008,
        certified=True,
    )
    assert json.loads(reports_to_json([rep]))[0]["eta_bif_max"] == "inf"
    assert "inf" in reports_to_csv([rep])
