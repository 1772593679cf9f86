"""The four benchmark workloads: what one request runs, and how it is checked.

A request calls the package only through an ``api`` namespace, exactly as
the CLI handlers do.  ``plain_api`` holds the package callables themselves,
so an untraced run pays nothing for tracing; ``traced_api`` wraps each one
in a span.  ``check`` returns one outcome per item of a request: ``None``
for a pass, or ``(kind, reason)`` with kind ``"error"`` (an exception),
``"wrong"`` (an output that failed its check) or ``"defect"`` (the known
defect of ROADMAP item 3, counted apart from failures).
"""

import inspect
import json
import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable

import numpy as np

from spinorbit import catalog, certification, dynamics, potential, solver
from spinorbit.catalog import ResonanceParams
from spinorbit.dynamics import SpinState
from spinorbit.potential import CANONICAL_B, CANONICAL_ORDER, canonical_disk

import inputs

# package entry points a request calls, and the span name each gets
ENTRY_POINTS = {
    "load_catalog": ("catalog.load_catalog", catalog.load_catalog),
    "certify": ("certification.certify", certification.certify),
    "reports_to_json": ("certification.reports_to_json", certification.reports_to_json),
    "solve_bifurcation": ("solver.solve_bifurcation", solver.solve_bifurcation),
    "orbit_to_json": ("solver.to_json", solver.ResonantOrbit.to_json),
    "orbit_x_of": ("solver.x_of", solver.ResonantOrbit.x_of),
    "orbit_residual": ("dynamics.orbit_residual", dynamics.orbit_residual),
    "check_resonance": ("dynamics.check_resonance", dynamics.check_resonance),
    "integrate": ("dynamics.integrate", dynamics.integrate),
    "fourier_coefficient": ("potential.fourier_coefficient", potential.fourier_coefficient),
    "alpha_series": ("potential.alpha_series", potential.alpha_series),
    "remainder_bound": ("potential.remainder_bound", potential.remainder_bound),
}

PHASE_SOLVE = "solver.phase_solve"
FOURIER_HARMONICS = (1, 2, 3, 4)


def _count_nodes(counts, args, kwargs, result):
    counts["kepler.anomalies.nodes"] += int(np.size(args[1] if len(args) > 1 else kwargs["t"]))


def _count_steps(counts, args, kwargs, result):
    counts["dynamics.integrate.steps"] += len(result) - 1


# callables one package module looks up from another at call time
HOOKS = (
    (certification, "alpha_lower_bound", "potential.alpha_lower_bound", None),
    (solver, "alpha_lower_bound", "potential.alpha_lower_bound", None),
    (solver, "anomalies", "kepler.anomalies", _count_nodes),
    (dynamics, "anomalies", "kepler.anomalies", _count_nodes),
    (potential, "anomalies", "kepler.anomalies", _count_nodes),
    (dynamics, "potential_fx", "potential.potential_fx", None),
    (solver, "green_apply", "solver.green_apply", None),  # one per fixed-point iteration
    (solver, "_solve_range_ws", PHASE_SOLVE, None),       # one per phase solve
)


def plain_api():
    return SimpleNamespace(**{key: fn for key, (_, fn) in ENTRY_POINTS.items()})


def traced_api(tracer):
    api = SimpleNamespace(**{
        key: tracer.wrap(name, fn, _count_steps if key == "integrate" else None)
        for key, (name, fn) in ENTRY_POINTS.items()
    })
    default_scan = inspect.signature(solver.solve_bifurcation).parameters["scan_points"].default
    traced_solve = api.solve_bifurcation

    def solve_counting_scan(*args, **kwargs):
        # the scan runs before the bisection, so the first scan_points phase
        # solves of a call are the scan's
        before = tracer.calls[PHASE_SOLVE]
        orbit = traced_solve(*args, **kwargs)
        solves = tracer.calls[PHASE_SOLVE] - before
        tracer.counts["solver.scan_solves"] += min(solves, kwargs.get("scan_points", default_scan))
        return orbit

    api.solve_bifurcation = solve_counting_scan
    return api


def error_outcome(exc):
    tb = exc.__traceback__
    while tb is not None and tb.tb_next is not None:
        tb = tb.tb_next
    where = f" in {tb.tb_frame.f_code.co_name}" if tb is not None else ""
    return ("error", f"{type(exc).__name__}{where}")


def _wrong(reason):
    return ("wrong", reason)


DEFECT = "defect"


def is_failure(outcome):
    return outcome is not None and outcome[0] != DEFECT


def _modes(body):
    # the CLI default truncation order
    return 64 if body.q == 1 else 128


def two_significant_digits(value, expected):
    """|value - expected| within half a unit in expected's 2nd digit (the
    acceptance suite's rule)."""
    if expected == 0.0:
        return value == 0.0
    scale = 10.0 ** (math.floor(math.log10(abs(expected))) - 1)
    return abs(value - expected) <= 0.5 * scale


def _bundled_bodies(raw):
    """Body objects for the (name, catalog, eta) inputs, through the package."""
    names = {name for name, _, _ in raw}
    bodies = {}
    for selector in {sel for _, sel, _ in raw}:
        for body in catalog.bundled_catalog(selector):
            if body.name in names:
                bodies[body.name] = body
    return [(bodies[name], eta) for name, _, eta in raw]


# -- certify-sweep: spinorbit certify --catalog X.csv --format json ----------

def sweep_run(api, request):
    text, _ = request
    bodies = api.load_catalog(text)
    reports, errors = [], {}
    for body in bodies:
        try:
            reports.append(api.certify(body))
        except Exception as exc:  # the CLI ends in a traceback here; count the row
            errors[body.name] = exc
    return bodies, reports, errors, api.reports_to_json(reports)


REPORT_FIELDS = ("alpha_lower", "range_margin", "nonempty_margin", "eta_bif_max",
                 "eta_admissible")


def _report_problem(report, frozen):
    conditions = (report.alpha_lower, report.range_margin, report.nonempty_margin,
                  report.eta_admissible)
    if report.certified != all(c > 0.0 for c in conditions):
        return _wrong("certified disagrees with the margins")
    if report.eta_admissible != min(report.eta_bif_max, report.eta_green_max):
        return _wrong("eta_admissible != min(eta_bif_max, eta_green_max)")
    if frozen is not None:
        if report.certified != frozen["certified"]:
            return _wrong("certified differs from the frozen report")
        for field in REPORT_FIELDS:
            if not two_significant_digits(getattr(report, field), frozen[field]):
                return _wrong(f"{field} differs from the frozen report")
    return None


def _certify_error(body, exc):
    """Outcome of a row whose certify raised.  ValueError from
    remainder_bound for a row outside its certified eccentricity disk is the
    known defect (ROADMAP item 3); any other exception is a failure."""
    outcome = error_outcome(exc)
    j = 2 * body.p // body.q
    if (outcome == ("error", "ValueError in remainder_bound") and j in CANONICAL_B
            and body.e >= canonical_disk(j)):
        return (DEFECT, "certify raises ValueError outside the certified disk")
    return outcome


def sweep_check(request, output):
    _, expected = request
    bodies, reports, errors, text = output
    if [b.name for b in bodies] != list(expected):
        return [_wrong("catalog rows lost or reordered")] * len(expected)
    try:
        emitted = {d["body_name"]: d for d in json.loads(text)}
    except (ValueError, KeyError, TypeError):
        emitted = {}
    by_name = {r.body_name: r for r in reports}
    bodies_by_name = {b.name: b for b in bodies}
    outcomes = []
    for name, frozen in expected.items():
        if name in errors:
            outcomes.append(_certify_error(bodies_by_name[name], errors[name]))
        elif emitted.get(name) != by_name[name].to_dict():
            outcomes.append(_wrong("JSON output differs from the report"))
        else:
            outcomes.append(_report_problem(by_name[name], frozen))
    return outcomes


# -- orbit-scan: spinorbit orbit BODY --eta X ---------------------------------

class Refused(Exception):
    """The CLI would refuse the request (exit 1)."""


def orbit_run(api, request):
    body, eta = request
    report = api.certify(body)
    if not report.certified or eta > report.eta_admissible:
        raise Refused(f"{body.name} not certified at eta={eta}")
    params = ResonanceParams.from_body(body, eta=eta)
    orbit = api.solve_bifurcation(params, N=_modes(body))
    residual = api.orbit_residual(orbit)
    identity = api.check_resonance(orbit, body.p, body.q)
    return orbit, residual, identity, api.orbit_to_json(orbit, 256)


def orbit_check(request, output):
    orbit, residual, identity, text = output
    if not residual <= 1e-9:
        return [_wrong(f"orbit residual {residual:.2e} > 1e-9")]
    if not identity <= 1e-9:
        return [_wrong(f"resonance identity {identity:.2e} > 1e-9")]
    if not orbit.bifurcation_residual <= 1e-10:
        return [_wrong(f"bifurcation residual {orbit.bifurcation_residual:.2e} > 1e-10")]
    try:
        payload = json.loads(text)
    except ValueError:
        return [_wrong("orbit JSON does not parse")]
    if payload.get("xi_star") != orbit.xi_star or len(payload.get("x", ())) != 256:
        return [_wrong("orbit JSON differs from the orbit")]
    return [None]


# -- rk4-verify: criterion 8's RK4 cross-check ---------------------------------

def rk4_run(api, request):
    body, eta = request
    params = ResonanceParams.from_body(body, eta=eta)
    orbit = api.solve_bifurcation(params, N=_modes(body), scan_points=0)
    x0, v0 = orbit.initial_state()
    traj = api.integrate(SpinState(x0, v0, 0.0), 2.0 * math.pi * body.q, params)
    gap = float(np.max(np.abs(traj.x - np.asarray(api.orbit_x_of(orbit, traj.t)))))
    return gap, api.check_resonance(traj, body.p, body.q)


def rk4_check(request, output):
    gap, identity = output
    if not gap <= 1e-5:
        return [_wrong(f"RK4 reproduction gap {gap:.2e} > 1e-5")]
    if not identity <= 1e-4:
        return [_wrong(f"RK4 resonance identity {identity:.2e} > 1e-4")]
    return [None]


# -- fourier-table: spinorbit fourier E, and criterion 6 -----------------------

def fourier_run(api, e):
    rows = []
    for j in FOURIER_HARMONICS:
        row = {"j": j, "alpha_quadrature": api.fourier_coefficient(e, j, 2048),
               "alpha_series": None, "remainder_bound": None}
        if j in CANONICAL_B and e < canonical_disk(j):
            row["alpha_series"] = api.alpha_series(j, e)
            row["remainder_bound"] = api.remainder_bound(e, CANONICAL_ORDER[j], CANONICAL_B[j])
        rows.append(row)
    return rows, json.dumps(rows, indent=1)


def fourier_check(request, output):
    rows, text = output
    for row in rows:
        if not math.isfinite(row["alpha_quadrature"]):
            return [_wrong(f"alpha_{row['j']} quadrature not finite")]
        if row["alpha_series"] is not None:
            gap = abs(row["alpha_quadrature"] - row["alpha_series"])
            if not gap <= row["remainder_bound"] + 1e-10:
                return [_wrong(f"alpha_{row['j']}: |quadrature - series| > remainder")]
    if json.loads(text) != rows:
        return [_wrong("coefficient JSON differs from the rows")]
    return [None]


@dataclass(frozen=True)
class Workload:
    load: Callable      # generated inputs -> requests, through the package (untimed)
    run: Callable       # (api, request) -> output; the timed part
    check: Callable     # (request, output) -> one outcome per item
    items: Callable     # request -> number of checked items


WORKLOADS = {
    "certify-sweep": Workload(list, sweep_run, sweep_check,
                              lambda request: len(request[1])),
    "orbit-scan": Workload(_bundled_bodies, orbit_run, orbit_check,
                           lambda request: 1),
    "rk4-verify": Workload(_bundled_bodies, rk4_run, rk4_check,
                           lambda request: 1),
    "fourier-table": Workload(list, fourier_run, fourier_check,
                              lambda request: 1),
}


def requests_for(name, seed):
    return WORKLOADS[name].load(inputs.GENERATORS[name](seed))
