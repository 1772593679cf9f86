"""Properties of certify and the solver over random bodies filling the
certified eccentricity disks (criterion 8 beyond the catalog)."""

import dataclasses
import json
import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinorbit.catalog import Body, ResonanceParams
from spinorbit.certification import certify, reports_to_json
from spinorbit.dynamics import orbit_residual
from spinorbit.series import canonical_disk
from spinorbit.solver import solve_bifurcation


@st.composite
def bodies(draw):
    p, q = draw(st.sampled_from([(1, 1), (3, 2)]))
    e = draw(st.floats(0.0, canonical_disk(2 * p // q), exclude_max=True))
    # half the draws near a = 100 km, where bodies of both resonances certify
    b = draw(st.one_of(st.floats(1.0, 100.0), st.floats(99.0, 100.0)))
    return Body("Random", "P", 100.0, b, b, e, p, q)


def _refuse(constant):
    raise ValueError(f"non-strict JSON constant {constant}")


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(bodies())
# found by this test: the remainder power overflowing just inside the 3:2
# disk, and a round body (eps = 0) certified although the solver refuses it
@example(Body("Edge", "P", 100.0, 99.0, 99.0, 0.5865373882183372, 3, 2))
@example(Body("Round", "P", 100.0, 100.0, 100.0, 0.0, 1, 1))
def test_certify_is_total_strict_and_certified_bodies_solve(body):
    report = certify(body)
    assert not any(isinstance(v, float) and math.isnan(v)
                   for v in dataclasses.astuple(report))
    json.loads(reports_to_json([report]), parse_constant=_refuse)
    if report.certified:
        for eta in (0.0, report.eta_admissible):
            params = ResonanceParams.from_body(body, eta=eta)
            orbit = solve_bifurcation(params)
            assert orbit_residual(orbit) <= 1e-9, (body, eta)
