"""Existence conditions for p:q spin-orbit resonances and report assembly.

In the rescaled ("hatted") parameters of the period-normalized equation,

    eps_hat = q^2 eps,   eta_hat = q eta,   nu_hat = q nu - p,

the 1:1 and 3:2 resonances obey the same four inequalities.  With e the
eccentricity, a the certified lower bound on |alpha_j| (j = 2p/q; the
truncated series minus its Cauchy remainder, so a positive report is
conservative) and m = (1-e)^6:

1. Green-operator norm: 0 <= eta_hat <= 2/pi - pi/5, which keeps the
   inverse of u'' + eta_hat u' on zero-average functions at norm <= 5/4.
   The float ceiling GREEN_ETA_HAT_MAX is the largest double below
   2/pi - pi/5, so a float eta_hat that passes meets the exact inequality.
2. Range (contraction): eps_hat < (1-e)^3/5, which makes the
   periodic-correction fixed-point map contract.
3. Non-empty (topological): eps_hat < (2/5) m a, so that the scalar phase
   equation sweeps an interval of positive half-width 2a - 5 eps_hat/m.
4. Bifurcation: eta_hat |nu_hat| <= eps_hat (2a - 5 eps_hat/m), which keeps
   the phase equation's target value inside that interval.

:func:`conditions` is the one statement of these inequalities, with the
reason each failure gives; the certifier, the solver's preconditions and
the command line all read it.
"""

import csv
import io
import json
import math
from dataclasses import dataclass, fields

from .catalog import SUPPORTED_RESONANCES, Body, ResonanceParams
from .series import alpha_lower_bound

__all__ = [
    "GREEN_ETA_HAT_MAX",
    "green_eta_cap",
    "Conditions",
    "conditions",
    "certify",
    "certify_catalog",
    "CertificationReport",
    "reports_to_csv",
    "reports_to_json",
    "reports_to_markdown",
    "REPORT_COLUMNS",
    "json_value",
]

# Largest eta_hat keeping the Green-operator norm bound at 5/4:
# 2/pi - pi/5 = (pi/5)(10/pi^2 - 1) = 0.00830124..., rounded down to the
# largest double below it (the float expression rounds up, by 14 ulps).
GREEN_ETA_HAT_MAX = 0.008301241649622695


def green_eta_cap(q: int) -> float:
    """Ceiling on eta itself from the Green-norm condition: eta_hat_max / q."""
    return GREEN_ETA_HAT_MAX / q


@dataclass(frozen=True)
class Conditions:
    """The four conditions at one parameter set, in hatted units.

    ``green``, ``range``, ``nonempty`` and ``bifurcation`` are margins: the
    right-hand side minus the left-hand side of each inequality (for the
    two-sided Green condition, the smaller of the two).  The strict ones
    (range, non-empty) hold when positive, the others when non-negative.
    ``halfwidth`` is 2a - 5 eps_hat/(1-e)^6, and ``eta_hat_bif`` the
    bifurcation ceiling on eta_hat: 0.0 when eps_hat <= 0 (the phase
    equation is undefined) or the half-width is not positive (no
    certificate at any eta), +inf when nu_hat = 0 (only the Green cap
    remains).  ``failed`` holds a (name, reason) pair for each condition
    that fails, in the order stated above.
    """

    alpha_lower: float
    halfwidth: float
    eta_hat_bif: float
    green: float
    range: float
    nonempty: float
    bifurcation: float
    failed: tuple


def conditions(params: ResonanceParams) -> Conditions:
    """Evaluate the four existence conditions at ``params``.

    Raises ValueError for a resonance outside the supported ones, and (from
    ``alpha_lower_bound``) for e negative, non-finite or outside the
    certified disk of j.
    """
    if (params.p, params.q) not in SUPPORTED_RESONANCES:
        raise ValueError(
            f"unsupported resonance {params.p}:{params.q} (certifiable: 1:1 and 3:2)"
        )
    e, eps_hat, eta_hat, nu_hat = params.e, params.eps_hat, params.eta_hat, params.nu_hat
    alpha = alpha_lower_bound(params.harmonic, e)
    m = (1.0 - e) ** 6
    halfwidth = 2.0 * alpha - 5.0 * eps_hat / m
    if halfwidth <= 0.0 or eps_hat <= 0.0:
        eta_hat_bif = 0.0
    elif nu_hat == 0.0:
        eta_hat_bif = math.inf
    else:
        eta_hat_bif = eps_hat / abs(nu_hat) * halfwidth
    green = min(eta_hat, GREEN_ETA_HAT_MAX - eta_hat)
    range_ = (1.0 - e) ** 3 / 5.0 - eps_hat
    nonempty = 0.4 * m * alpha - eps_hat
    bifurcation = eta_hat_bif - eta_hat
    failed = []
    if not green >= 0.0:
        failed.append(("green", f"eta_hat={eta_hat!r} violates the Green-norm condition "
                                f"0 <= eta_hat <= {GREEN_ETA_HAT_MAX!r}"))
    if not range_ > 0.0:
        failed.append(("range", f"range (contraction) condition fails: margin "
                                f"{range_:.6g} <= 0"))
    if not nonempty > 0.0:
        failed.append(("nonempty", f"non-empty (topological) condition fails: margin "
                                   f"{nonempty:.6g} <= 0"))
    if not params.eps > 0.0:
        failed.append(("bifurcation", f"eps={params.eps}: the phase equation needs eps > 0"))
    elif not (eta_hat_bif > 0.0 and bifurcation >= 0.0):
        failed.append(("bifurcation", f"bifurcation condition fails: eta_hat={eta_hat:.6g}, "
                                      f"ceiling {eta_hat_bif:.6g} from the certified "
                                      f"phase-equation half-width {halfwidth:.6g}"))
    return Conditions(
        alpha_lower=alpha,
        halfwidth=halfwidth,
        eta_hat_bif=eta_hat_bif,
        green=green,
        range=range_,
        nonempty=nonempty,
        bifurcation=bifurcation,
        failed=tuple(failed),
    )


@dataclass(frozen=True)
class CertificationReport:
    """Per-body evaluation of the four conditions.

    Columns 2-5 of the printed summary: certified lower bound on
    |alpha_j|, the range and non-empty margins (positive = satisfied), and
    the bifurcation ceiling on eta.  ``eta_admissible`` is the ceiling
    combined with the Green-norm cap.
    """

    body_name: str
    alpha_lower: float
    range_margin: float
    nonempty_margin: float
    eta_bif_max: float
    eta_green_max: float
    eta_admissible: float
    certified: bool

    def to_dict(self) -> dict:
        return {column: json_value(getattr(self, column)) for column in REPORT_COLUMNS}


REPORT_COLUMNS = tuple(f.name for f in fields(CertificationReport))


def json_value(value):
    """``value``, or "inf"/"-inf" for an infinite float: strict JSON has no inf."""
    return repr(value) if isinstance(value, float) and math.isinf(value) else value


def certify(body: Body) -> CertificationReport:
    """Evaluate all conditions for one body at eta = 0, in unhatted units."""
    c = conditions(ResonanceParams.from_body(body))
    q = body.q
    bif = c.eta_hat_bif / q
    green = green_eta_cap(q)
    return CertificationReport(
        body_name=body.name,
        alpha_lower=c.alpha_lower,
        range_margin=c.range / q**2,
        nonempty_margin=c.nonempty / q**2,
        eta_bif_max=bif,
        eta_green_max=green,
        eta_admissible=min(bif, green),
        certified=not c.failed,
    )


def certify_catalog(bodies) -> list:
    """Certify every body, preserving input order."""
    return [certify(b) for b in bodies]


def _cell(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def reports_to_csv(reports) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(REPORT_COLUMNS)
    for r in reports:
        writer.writerow([_cell(getattr(r, c)) for c in REPORT_COLUMNS])
    return buf.getvalue()


def reports_to_json(reports) -> str:
    return json.dumps([r.to_dict() for r in reports], indent=1) + "\n"


def reports_to_markdown(reports) -> str:
    """Markdown table with the summary-column order, for visual diffing."""
    head = "| body | lower bound on the resonant coefficient | range margin | non-empty margin | eta ceiling (bifurcation) | eta ceiling (Green) | eta admissible | certified |"
    sep = "|" + "---|" * 8
    lines = [head, sep]
    for r in reports:
        cells = [r.body_name] + [
            f"{v:.6g}"
            for v in (
                r.alpha_lower,
                r.range_margin,
                r.nonempty_margin,
                r.eta_bif_max,
                r.eta_green_max,
                r.eta_admissible,
            )
        ] + ["yes" if r.certified else "no"]
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n"
