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
the command line all read it.  :func:`json_text` is the package's one JSON
writer, ``json.dumps(value, indent=1)`` byte for byte: the report rows, the
orbit and the coefficient table all go through it.
"""

import csv
import io
import json
import math
from collections import namedtuple
from dataclasses import dataclass, fields

from .catalog import SUPPORTED_RESONANCES, Body, ResonanceParams
from .series import alpha_lower_bound

__all__ = [
    "GREEN_ETA_HAT_MAX",
    "Conditions",
    "conditions",
    "certify",
    "CertificationReport",
    "reports_to_csv",
    "reports_to_json",
    "reports_to_markdown",
    "REPORT_COLUMNS",
    "table_text",
    "json_value",
    "json_text",
]

# Largest eta_hat keeping the Green-operator norm bound at 5/4:
# 2/pi - pi/5 = (pi/5)(10/pi^2 - 1) = 0.00830124..., rounded down to the
# largest double below it (the float expression rounds up, by 14 ulps).
GREEN_ETA_HAT_MAX = 0.008301241649622695


class Conditions(namedtuple("Conditions", "alpha_lower halfwidth eta_hat_bif green range "
                                         "nonempty bifurcation failed")):
    """The four conditions at one parameter set, in hatted units: a tuple.

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

    __slots__ = ()


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


_CONTAINERS = (list, tuple, dict)


def _brackets(items) -> str:
    """'' when no item is a container, '[]' when every item is a list or
    tuple, '{}' when every item is a dict, and '?' otherwise."""
    types = {type(v) for v in items}
    if not any(issubclass(t, _CONTAINERS) for t in types):
        return ""
    if all(issubclass(t, (list, tuple)) for t in types):
        return "[]"
    return "{}" if all(issubclass(t, dict) for t in types) else "?"


def json_text(value) -> str:
    """``json.dumps(value, indent=1)``, byte for byte, mostly from json's C encoder.

    ``indent`` makes json fall back to its pure-Python encoder.  Without it
    the C encoder runs, and it takes any string as its item separator.  So
    a flat container (one that holds no container) is one C call, whose
    separator is the line break and indent of its items' level.  A list of
    non-empty flat containers of one kind, all lists or all dicts, is one
    C call at the level of their items; the seams between the containers
    are then re-broken.  The C encoder escapes a newline inside a string,
    so a closing bracket followed by a raw newline is always such a seam.
    Everything else recurses in Python.  Keys must be ``str``, as they are
    in every payload of this package.  Standard library only, so
    ``certify`` still imports no numpy.
    """
    return _json_text(value, 0)


def _json_text(value, level: int) -> str:
    if not isinstance(value, _CONTAINERS) or not value:
        return json.dumps(value)
    outer, inner = "\n" + " " * level, "\n" + " " * (level + 1)
    is_dict = isinstance(value, dict)
    brackets = _brackets(value.values() if is_dict else value)
    if not brackets:
        text = json.dumps(value, separators=("," + inner, ": "))
        return text[0] + inner + text[1:-1] + outer + text[-1]
    if is_dict:
        parts = [json.dumps(k) + ": " + _json_text(v, level + 1) for k, v in value.items()]
        return "{" + inner + ("," + inner).join(parts) + outer + "}"
    if brackets != "?" and all(value) and not _brackets(
            x for v in value for x in (v.values() if brackets == "{}" else v)):
        start, end = brackets
        deep = inner + " "
        text = json.dumps(value, separators=("," + deep, ": "))
        body = text[2:-2].replace(end + "," + deep + start,
                                  inner + end + "," + inner + start + deep)
        return "[" + inner + start + deep + body + inner + end + outer + "]"
    parts = [_json_text(v, level + 1) for v in value]
    return "[" + inner + ("," + inner).join(parts) + outer + "]"


def certify(body: Body) -> CertificationReport:
    """Evaluate all conditions for one body at eta = 0, in unhatted units."""
    c = conditions(ResonanceParams.from_body(body))
    q = body.q
    bif = c.eta_hat_bif / q
    green = GREEN_ETA_HAT_MAX / q
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


def _cell(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def table_text(rows, fmt: str) -> str:
    """The one CSV (``fmt`` "csv") and markdown writer: ``rows`` of text cells,
    the header first; in markdown a ``|`` in a cell is written ``\\|``."""
    if fmt == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(rows)
        return buf.getvalue()
    lines = ["| " + " | ".join(c.replace("|", "\\|") for c in row) + " |" for row in rows]
    lines.insert(1, "|" + "---|" * len(rows[0]))
    return "\n".join(lines) + "\n"


def reports_to_csv(reports) -> str:
    rows = [REPORT_COLUMNS] + [[_cell(getattr(r, c)) for c in REPORT_COLUMNS] for r in reports]
    return table_text(rows, "csv")


def reports_to_json(reports) -> str:
    return json_text([r.to_dict() for r in reports]) + "\n"


def reports_to_markdown(reports) -> str:
    """Markdown table with the summary-column order, for visual diffing."""
    rows = [("body", "lower bound on the resonant coefficient", "range margin",
             "non-empty margin", "eta ceiling (bifurcation)", "eta ceiling (Green)",
             "eta admissible", "certified")]
    for r in reports:
        numbers = [f"{getattr(r, c):.6g}" for c in REPORT_COLUMNS[1:-1]]
        rows.append([r.body_name, *numbers, "yes" if r.certified else "no"])
    return table_text(rows, "md")
