"""Command-line frontend: certification reports, coefficient tables, orbits.

Three subcommands:

* ``certify`` -- evaluate the four resonance-existence conditions for every
  body of a catalog and emit one report row per body (csv/json/md).
  Exit 0 when all selected bodies certify, 1 otherwise or when a body lies
  outside the certified disk of its series (refused by name, no report), 2
  on input errors or when no body is selected.
* ``fourier`` -- tabulate the potential's Fourier coefficients alpha_j at a
  given eccentricity by quadrature, alongside the certified series value
  and remainder bound where available (j = 2, 3 inside their disks);
  ``within_bound`` allows the quadrature's own FLOAT_SLACK.  Exit 2 on an e
  or --nquad that ``fourier_coefficient`` refuses, 1 when it refuses the
  --jmax row, which it is asked for before any other.
* ``orbit`` -- construct the resonant periodic orbit of a certified body
  at a chosen dissipation eta, check its equation residual, and emit it
  as JSON, always (it takes no --format).  Exit 1 when a condition fails
  at that eta, the solve fails, or the residual exceeds 1e-9.

Each subcommand declares only the flags its handler reads, and its handler
receives the parsed namespace.  ``certify`` and ``orbit`` read a catalog:
the bundled one ('all' = 18 moons + Mercury) by default, or a file path or
one of moons/mercury/minor/all given with --catalog or through the
RESONANCE_CATALOG environment variable, and name bodies case-insensitively
through one lookup: an empty catalog or an unknown name exits 2 with the
same message from both.  All three write to --out when it is given; an
--out that cannot be written exits 2.

``certify`` never imports numpy: ``fourier`` and ``orbit`` import the numpy
modules they use inside their handlers.
"""

import argparse
import math
import os
import sys
from pathlib import Path

from . import catalog as cat
from . import certification as cert
from .series import CANONICAL_B, CANONICAL_ORDER, alpha_series, canonical_disk, remainder_bound

_FORMATS = ("csv", "json", "md")
# documented bound on a returned orbit's equation residual
_ORBIT_TOLERANCE = 1e-9


def _bodies(selector: str | None, names=None) -> list:
    """The bodies of the catalog (``selector``, $RESONANCE_CATALOG or 'all'),
    or those in ``names``, case-insensitive, in catalog order."""
    selector = selector or os.environ.get("RESONANCE_CATALOG") or "all"
    bodies = (cat.bundled_catalog(selector) if selector in cat.BUNDLED_NAMES
              else cat.load_catalog(Path(selector)))
    if not bodies:
        raise ValueError("the catalog is empty; no bodies selected")
    known = {b.name.lower() for b in bodies}
    for name in names or ():
        if name.lower() not in known:
            raise ValueError(f"unknown body {name!r}; no bodies selected")
    wanted = {name.lower() for name in names} if names else known
    return [b for b in bodies if b.name.lower() in wanted]


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _emit(text: str, out: str | None, code: int = 0) -> int:
    """Write ``text`` to ``out`` (stdout if None) and return ``code``, or 2
    when ``out`` cannot be written."""
    if not out:
        sys.stdout.write(text)
        return code
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        return _fail(f"cannot write --out {out}: {exc.strerror}", 2)
    return code


def cmd_certify(args) -> int:
    try:
        bodies = _bodies(args.catalog, args.body)
    except (OSError, ValueError) as exc:  # CatalogError is a ValueError
        return _fail(str(exc), 2)
    reports = []
    for body in bodies:
        try:
            reports.append(cert.certify(body))
        except ValueError as exc:  # outside the certified disk of its series
            return _fail(f"{body.name}: {exc}", 1)
    renderer = {
        "csv": cert.reports_to_csv,
        "json": cert.reports_to_json,
        "md": cert.reports_to_markdown,
    }[args.format]
    code = 0 if all(r.certified for r in reports) else 1
    return _emit(renderer(reports), args.out, code)


def _fourier_rows(e: float, j_max: int, n_quad: int):
    from . import potential
    # top row first: both error bounds grow with |j|, so it is refused if any is
    quads = [potential.fourier_coefficient(e, j, n_quad) for j in range(j_max, 0, -1)]
    rows = []
    for j, quad in enumerate(reversed(quads), 1):
        row = {"j": j, "alpha_quadrature": quad, "alpha_series": None,
               "remainder_bound": None, "within_bound": None}
        if j in CANONICAL_B and e < canonical_disk(j):
            series = alpha_series(j, e)
            bound = remainder_bound(e, CANONICAL_ORDER[j], CANONICAL_B[j])
            row.update(
                alpha_series=series,
                remainder_bound=bound,
                # the quadrature itself is only accurate to FLOAT_SLACK
                within_bound=abs(quad - series) <= bound + potential.FLOAT_SLACK,
            )
        rows.append(row)
    return rows


def _render_fourier(rows, fmt: str) -> str:
    cols = tuple(rows[0])
    if fmt == "json":
        rows = [{c: cert.json_value(v) for c, v in r.items()} for r in rows]
        return cert.json_text(rows) + "\n"

    def cell(v):
        if v is None:
            return ""
        if isinstance(v, bool):
            return "yes" if v else "no"
        return str(v)

    if fmt == "csv":
        lines = [",".join(cols)]
        lines += [",".join(cell(r[c]) for c in cols) for r in rows]
        return "\n".join(lines) + "\n"
    lines = ["| " + " | ".join(cols) + " |", "|" + "---|" * len(cols)]
    lines += ["| " + " | ".join(cell(r[c]) or "-" for c in cols) + " |" for r in rows]
    return "\n".join(lines) + "\n"


def cmd_fourier(args) -> int:
    from .potential import QuadratureError
    if args.jmax < 1:
        return _fail(f"--jmax must be >= 1, got {args.jmax}", 2)
    try:
        rows = _fourier_rows(args.e, args.jmax, args.nquad)
    except ValueError as exc:  # e or n_quad refused by fourier_coefficient
        return _fail(str(exc), 2)
    except QuadratureError as exc:
        hint = "raising --nquad will not lower it" if exc.at_floor else "raise --nquad"
        return _fail(f"{exc}; {hint}", 1)
    return _emit(_render_fourier(rows, args.format), args.out)


def cmd_orbit(args) -> int:
    from . import dynamics, solver
    if not (math.isfinite(args.eta) and args.eta >= 0):
        return _fail("--eta must be finite and >= 0", 2)
    if not 2 <= args.samples <= 2**20:
        return _fail(f"--samples must be >= 2 and <= 2**20, got {args.samples}", 2)
    try:
        body, = _bodies(args.catalog, [args.body])
    except (OSError, ValueError) as exc:
        return _fail(str(exc), 2)

    params = cat.ResonanceParams.from_body(body, eta=args.eta)
    try:
        orbit = solver.solve_bifurcation(params)
    except solver.PreconditionError as exc:
        return _fail(f"{body.name} not certified at eta={args.eta}: {exc}", 1)
    except solver.SolverError as exc:
        return _fail(str(exc), 1)
    residual = dynamics.orbit_residual(orbit)
    if not residual <= _ORBIT_TOLERANCE:
        return _fail(f"orbit residual {residual:.3e} exceeds the tolerance "
                     f"{_ORBIT_TOLERANCE:g}", 1)

    payload = orbit.to_dict(n_samples=args.samples)
    payload["orbit_residual"] = residual
    payload["certification"] = cert.certify(body).to_dict()
    return _emit(cert.json_text(payload) + "\n", args.out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinorbit",
        description="Certify and construct p:q spin-orbit resonances.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_catalog(p):
        p.add_argument("--catalog", default=None,
                       help="catalog path or bundled name "
                            "(moons/mercury/minor/all); default "
                            "$RESONANCE_CATALOG or 'all'")

    def add_format(p):
        p.add_argument("--format", default="md", choices=_FORMATS,
                       help="output format (default md)")

    p_cert = sub.add_parser("certify", help="evaluate the existence conditions")
    p_cert.set_defaults(handler=cmd_certify)
    add_catalog(p_cert)
    add_format(p_cert)
    p_cert.add_argument("--body", action="append", default=None,
                        help="restrict to the named body (repeatable)")

    p_four = sub.add_parser("fourier", help="tabulate potential coefficients")
    p_four.set_defaults(handler=cmd_fourier)
    add_format(p_four)
    p_four.add_argument("e", type=float, help="orbital eccentricity")
    p_four.add_argument("--jmax", type=int, default=4,
                        help="largest harmonic to tabulate (default 4)")
    p_four.add_argument("--nquad", type=int, default=2048,
                        help="most quadrature nodes (even, 64 to 2**20; default 2048)")

    p_orb = sub.add_parser("orbit", help="construct a resonant orbit (JSON)")
    p_orb.set_defaults(handler=cmd_orbit)
    add_catalog(p_orb)
    p_orb.add_argument("body", help="body name from the catalog")
    p_orb.add_argument("--eta", type=float, default=0.0,
                       help="dissipation parameter (default 0)")
    p_orb.add_argument("--samples", type=int, default=256,
                       help="exported x(t) samples (2 to 2**20; default 256)")

    for p in (p_cert, p_four, p_orb):
        p.add_argument("--out", default=None, help="write output to a file")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)

if __name__ == "__main__":
    sys.exit(main())
