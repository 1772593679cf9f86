"""Command-line frontend: certification reports, coefficient tables, orbits.

Three subcommands:

* ``certify`` -- evaluate the four resonance-existence conditions for every
  body of a catalog and emit one report row per body (csv/json/md).
  Exit 0 when all selected bodies certify, 1 otherwise, 2 on input errors.
* ``fourier`` -- tabulate the potential's Fourier coefficients alpha_j at a
  given eccentricity by quadrature, alongside the certified series value
  and remainder bound where available (j = 2, 3 inside their disks).
  Exit 1 when --nquad nodes do not resolve a coefficient.
* ``orbit`` -- construct the resonant periodic orbit of a certified body
  at a chosen dissipation eta, verify it by direct integration residuals,
  and emit it as JSON.  Exit 1 when a condition fails at that eta, the
  solve fails, or the orbit's equation residual exceeds 1e-9.

The default catalog is the bundled one ('all' = 18 moons + Mercury); a
file path or one of moons/mercury/minor/all may be given with --catalog or
through the RESONANCE_CATALOG environment variable.
"""

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field
from typing import Optional

from . import catalog as cat
from . import certification as cert
from . import dynamics, solver
from .potential import (
    CANONICAL_B,
    CANONICAL_ORDER,
    QuadratureError,
    alpha_series,
    canonical_disk,
    fourier_coefficient,
    remainder_bound,
)

_FORMATS = ("csv", "json", "md")
# documented bound on a returned orbit's equation residual
_ORBIT_TOLERANCE = 1e-9


@dataclass
class RunConfig:
    """Validated settings shared by the subcommands."""

    command: str
    catalog_path: str
    body_filter: Optional[list] = None
    eta: float = 0.0
    output_format: str = "md"
    quadrature_n: int = 2048
    fourier_modes: Optional[int] = None
    tol_fixed_point: float = 1e-12
    tol_bifurcation: float = 1e-10
    out: Optional[str] = None
    extra: dict = field(default_factory=dict)

    def validate(self):
        if self.output_format not in _FORMATS:
            raise ValueError(f"unknown format {self.output_format!r}")
        if self.quadrature_n < 64 or self.quadrature_n % 2:
            raise ValueError("--nquad must be even and >= 64")
        if self.fourier_modes is not None and self.fourier_modes < 1:
            raise ValueError("--modes must be >= 1")
        for tol in (self.tol_fixed_point, self.tol_bifurcation):
            if not (math.isfinite(tol) and tol > 0):
                raise ValueError("tolerances must be positive and finite")
        if not (math.isfinite(self.eta) and self.eta >= 0):
            raise ValueError("--eta must be finite and >= 0")
        if self.extra.get("samples", 2) < 2:
            raise ValueError("--samples must be >= 2")
        if self.command == "fourier":
            e, j_max = self.extra["e"], self.extra["j_max"]
            if not 0.0 <= e < 1.0:
                raise ValueError(f"eccentricity must satisfy 0 <= e < 1, got {e}")
            if j_max < 1:
                raise ValueError(f"--jmax must be >= 1, got {j_max}")


def _resolve_catalog(selector: Optional[str]):
    name = selector or os.environ.get("RESONANCE_CATALOG") or "all"
    if name in cat.BUNDLED_NAMES:
        return cat.bundled_catalog(name)
    return cat.load_catalog(name)


def _emit(text: str, out: Optional[str]):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def cmd_certify(cfg: RunConfig) -> int:
    try:
        bodies = _resolve_catalog(cfg.catalog_path)
    except (cat.CatalogError, OSError, ValueError) as exc:
        return _fail(str(exc), 2)
    if cfg.body_filter:
        wanted = {n.lower() for n in cfg.body_filter}
        bodies = [b for b in bodies if b.name.lower() in wanted]
        if not bodies:
            return _fail("no bodies selected", 2)
    reports = cert.certify_catalog(bodies)
    renderer = {
        "csv": cert.reports_to_csv,
        "json": cert.reports_to_json,
        "md": cert.reports_to_markdown,
    }[cfg.output_format]
    _emit(renderer(reports), cfg.out)
    return 0 if all(r.certified for r in reports) else 1


def _fourier_rows(e: float, j_max: int, n_quad: int):
    rows = []
    for j in range(1, j_max + 1):
        quad = fourier_coefficient(e, j, n_quad)
        row = {"j": j, "alpha_quadrature": quad, "alpha_series": None,
               "remainder_bound": None, "within_bound": None}
        if j in CANONICAL_B and e < canonical_disk(j):
            series = alpha_series(j, e)
            bound = remainder_bound(e, CANONICAL_ORDER[j], CANONICAL_B[j])
            row.update(
                alpha_series=series,
                remainder_bound=bound,
                within_bound=abs(quad - series) <= bound,
            )
        rows.append(row)
    return rows


def _render_fourier(rows, fmt: str) -> str:
    cols = ("j", "alpha_quadrature", "alpha_series", "remainder_bound", "within_bound")
    if fmt == "json":
        return json.dumps(rows, indent=1) + "\n"

    def cell(v):
        if v is None:
            return ""
        if isinstance(v, bool):
            return "yes" if v else "no"
        if isinstance(v, float):
            return repr(v)
        return str(v)

    if fmt == "csv":
        lines = [",".join(cols)]
        lines += [",".join(cell(r[c]) for c in cols) for r in rows]
        return "\n".join(lines) + "\n"
    lines = ["| " + " | ".join(cols) + " |", "|" + "---|" * len(cols)]
    lines += ["| " + " | ".join(cell(r[c]) or "-" for c in cols) + " |" for r in rows]
    return "\n".join(lines) + "\n"


def cmd_fourier(cfg: RunConfig) -> int:
    try:
        rows = _fourier_rows(cfg.extra["e"], cfg.extra["j_max"], cfg.quadrature_n)
    except QuadratureError as exc:
        return _fail(f"{exc}; raise --nquad", 1)
    _emit(_render_fourier(rows, cfg.output_format), cfg.out)
    return 0


def cmd_orbit(cfg: RunConfig) -> int:
    try:
        bodies = _resolve_catalog(cfg.catalog_path)
    except (cat.CatalogError, OSError, ValueError) as exc:
        return _fail(str(exc), 2)
    name = cfg.extra["body"]
    matches = [b for b in bodies if b.name.lower() == name.lower()]
    if not matches:
        return _fail(f"unknown body {name!r}", 2)
    body = matches[0]

    params = cat.ResonanceParams.from_body(body, eta=cfg.eta)
    modes = cfg.fourier_modes or (64 if body.q == 1 else 128)
    try:
        orbit = solver.solve_bifurcation(
            params,
            N=modes,
            tol_fixed_point=cfg.tol_fixed_point,
            tol_bifurcation=cfg.tol_bifurcation,
        )
    except solver.PreconditionError as exc:
        return _fail(f"{body.name} not certified at eta={cfg.eta}: {exc}", 1)
    except (solver.SolverError, solver.AliasingError) as exc:
        return _fail(str(exc), 1)
    residual = dynamics.orbit_residual(orbit)
    if not residual <= _ORBIT_TOLERANCE:
        return _fail(
            f"orbit residual {residual:.3e} exceeds the tolerance "
            f"{_ORBIT_TOLERANCE:g}; raise --modes or tighten the solver tolerances",
            1,
        )

    payload = orbit.to_dict(n_samples=cfg.extra.get("samples", 256))
    payload["orbit_residual"] = residual
    payload["resonance_identity_residual"] = dynamics.check_resonance(
        orbit, body.p, body.q
    )
    payload["certification"] = cert.certify(body).to_dict()
    _emit(json.dumps(payload, indent=1) + "\n", cfg.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinorbit",
        description="Certify and construct p:q spin-orbit resonances.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--catalog", default=None,
                       help="catalog path or bundled name "
                            "(moons/mercury/minor/all); default "
                            "$RESONANCE_CATALOG or 'all'")
        p.add_argument("--format", default="md", choices=_FORMATS,
                       help="output format (default md)")
        p.add_argument("--out", default=None, help="write output to a file")

    p_cert = sub.add_parser("certify", help="evaluate the existence conditions")
    add_common(p_cert)
    p_cert.add_argument("--body", action="append", default=None,
                        help="restrict to the named body (repeatable)")

    p_four = sub.add_parser("fourier", help="tabulate potential coefficients")
    add_common(p_four)
    p_four.add_argument("e", type=float, help="orbital eccentricity")
    p_four.add_argument("--jmax", type=int, default=4,
                        help="largest harmonic to tabulate (default 4)")
    p_four.add_argument("--nquad", type=int, default=2048,
                        help="quadrature nodes (even, >= 64; default 2048)")

    p_orb = sub.add_parser("orbit", help="construct a resonant orbit")
    add_common(p_orb)
    p_orb.add_argument("body", help="body name from the catalog")
    p_orb.add_argument("--eta", type=float, default=0.0,
                       help="dissipation parameter (default 0)")
    p_orb.add_argument("--modes", type=int, default=None,
                       help="Fourier truncation order (default 64, or 128 "
                            "for the 3:2 case)")
    p_orb.add_argument("--samples", type=int, default=256,
                       help="number of exported x(t) samples (default 256)")
    p_orb.add_argument("--tol-fixed-point", type=float, default=1e-12)
    p_orb.add_argument("--tol-bifurcation", type=float, default=1e-10)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    cfg = RunConfig(
        command=args.command,
        catalog_path=args.catalog,
        output_format=args.format,
        out=args.out,
    )
    if args.command == "certify":
        cfg.body_filter = args.body
    elif args.command == "fourier":
        cfg.quadrature_n = args.nquad
        cfg.extra = {"e": args.e, "j_max": args.jmax}
    elif args.command == "orbit":
        cfg.eta = args.eta
        cfg.fourier_modes = args.modes
        cfg.tol_fixed_point = args.tol_fixed_point
        cfg.tol_bifurcation = args.tol_bifurcation
        cfg.extra = {"body": args.body, "samples": args.samples}
    try:
        cfg.validate()
    except ValueError as exc:
        return _fail(str(exc), 2)

    handler = {"certify": cmd_certify, "fourier": cmd_fourier, "orbit": cmd_orbit}
    return handler[cfg.command](cfg)


if __name__ == "__main__":
    sys.exit(main())
