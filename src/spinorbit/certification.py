"""Existence conditions for p:q spin-orbit resonances and report assembly.

In the rescaled ("hatted") parameters of the period-normalized equation,

    eps_hat = q^2 eps,   eta_hat = q eta,   nu_hat = q nu - p,

the 1:1 and 3:2 resonances obey the same four inequalities.  With e the
eccentricity, a the certified lower bound on |alpha_j| (j = 2p/q; the
truncated series minus its Cauchy remainder, so a positive report is
conservative) and m = (1-e)^6:

1. Green-operator norm: eta_hat <= GREEN_ETA_HAT_MAX, which keeps the
   inverse of u'' + eta_hat u' on zero-average functions at norm <= 5/4.
2. Range (contraction): eps_hat < (1-e)^3/5, which makes the
   periodic-correction fixed-point map contract.
3. Non-empty (topological): eps_hat < (2/5) m a, so that the scalar phase
   equation sweeps an interval of positive half-width 2a - 5 eps_hat/m.
4. Bifurcation: eta_hat |nu_hat| <= eps_hat (2a - 5 eps_hat/m), which keeps
   the phase equation's target value inside that interval.

:func:`conditions` is the one statement of these inequalities; the
certifier, the solver's preconditions and the command line all read it.
"""

import csv
import io
import json
import math
from dataclasses import dataclass, fields

from .catalog import SUPPORTED_RESONANCES, Body, ResonanceParams
from .potential import alpha_lower_bound

__all__ = [
    "GREEN_ETA_HAT_MAX",
    "green_eta_cap",
    "green_norm_bound",
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

# Largest eta_hat keeping the Green-operator norm bound at 5/4 exactly:
# (pi/5)(10/pi^2 - 1) = 0.00830124...
GREEN_ETA_HAT_MAX = math.pi / 5.0 * (10.0 / math.pi**2 - 1.0)


def green_eta_cap(q: int) -> float:
    """Ceiling on eta itself from the Green-norm condition: eta_hat_max / q."""
    return GREEN_ETA_HAT_MAX / q


def green_norm_bound(eta_hat: float) -> float:
    """Operator-norm bound (1 + eta_hat (pi/2)/(1 - eta_hat pi/2)) pi^2/8.

    Valid for 0 <= eta_hat < 2/pi; equals pi^2/8 at eta_hat = 0 and exactly
    5/4 at eta_hat = GREEN_ETA_HAT_MAX.
    """
    if not 0.0 <= eta_hat < 2.0 / math.pi:
        raise ValueError(f"eta_hat must lie in [0, 2/pi), got {eta_hat}")
    half_pi_eta = eta_hat * math.pi / 2.0
    return (1.0 + half_pi_eta / (1.0 - half_pi_eta)) * math.pi**2 / 8.0


@dataclass(frozen=True)
class Conditions:
    """The four conditions at one parameter set, in hatted units.

    ``green``, ``range``, ``nonempty`` and ``bifurcation`` are margins: the
    right-hand side minus the left-hand side of each inequality.  The
    strict ones (range, non-empty) hold when positive, the others when
    non-negative.  ``halfwidth`` is 2a - 5 eps_hat/(1-e)^6, and
    ``eta_hat_bif`` the bifurcation ceiling on eta_hat: 0.0 when eps_hat
    <= 0 (the phase equation is undefined) or the half-width is not
    positive (no certificate at any eta), +inf when nu_hat = 0 (only the
    Green cap remains).
    """

    alpha_lower: float
    halfwidth: float
    eta_hat_bif: float
    green: float
    range: float
    nonempty: float
    bifurcation: float

    @property
    def failed(self) -> tuple:
        """Names of the failed conditions, in the order stated above."""
        holds = {
            "green": self.green >= 0.0,
            "range": self.range > 0.0,
            "nonempty": self.nonempty > 0.0,
            "bifurcation": self.eta_hat_bif > 0.0 and self.bifurcation >= 0.0,
        }
        return tuple(name for name, ok in holds.items() if not ok)


def conditions(params: ResonanceParams) -> Conditions:
    """Evaluate the four existence conditions at ``params``.

    Raises ValueError for a resonance outside the supported ones, and (from
    ``alpha_lower_bound``) for e outside the certified disk of j.
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
    return Conditions(
        alpha_lower=alpha,
        halfwidth=halfwidth,
        eta_hat_bif=eta_hat_bif,
        green=GREEN_ETA_HAT_MAX - eta_hat,
        range=(1.0 - e) ** 3 / 5.0 - eps_hat,
        nonempty=0.4 * m * alpha - eps_hat,
        bifurcation=eta_hat_bif - eta_hat,
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
