"""Physical parameter catalog of resonant bodies and derived model parameters.

A body record carries the observed maximal/minimal equatorial radii a >= b
(km), the informational polar radius c, the orbital eccentricity e and the
locked resonance p:q.  From these the model derives the oblateness

    eps = (3/2) (a^2 - b^2) / (a^2 + b^2)

and the dissipation drift

    nu(e) = N(e) / Omega(e),
    Omega(e) = (1 + 3 e^2 + (3/8) e^4) / (1 - e^2)^(9/2),
    N(e)     = (1 + (15/2) e^2 + (45/8) e^4 + (5/16) e^6) / (1 - e^2)^6,

the tidal-torque averages of the linear viscous model.  ``load_catalog``
reads a file (a ``Path``) or catalog text (``str``/``bytes``): CSV with the
header name,primary,a_km,b_km,c_km,e,p,q[,K] ('#' comments allowed) or an
equivalent JSON array.  No other column is accepted, and only K may be
absent, empty or null.  Three transcribed catalogs ship with the package
(the eighteen synchronous moons, Mercury, and five minor bodies).
"""

import json
import math
from collections import namedtuple
from pathlib import Path

__all__ = [
    "Body",
    "ResonanceParams",
    "CatalogError",
    "oblateness",
    "nu_of_e",
    "load_catalog",
    "bundled_catalog",
    "bundled_catalog_path",
    "BUNDLED_NAMES",
]

# resonances covered by the certification conditions
SUPPORTED_RESONANCES = ((1, 1), (3, 2))

BUNDLED_NAMES = ("moons", "mercury", "minor", "all")


class CatalogError(ValueError):
    """Malformed catalog input (parse failure or invariant violation)."""


def _number(value):
    if isinstance(value, bool):
        raise TypeError
    return float(value)


def _integer(value):
    # a JSON 1.7 or true must not load as 1
    if isinstance(value, bool) or isinstance(value, float) and not value.is_integer():
        raise TypeError
    return int(value)


# The catalog record, in CSV column order: column -> (parser, value kind
# named in errors).  K must stay last: it alone may be omitted.  str.strip
# raises TypeError for anything but a str (a JSON null or 5).
_COLUMNS = {
    "name": (str.strip, "text"),
    "primary": (str.strip, "text"),
    "a_km": (_number, "numeric"),
    "b_km": (_number, "numeric"),
    "c_km": (_number, "numeric"),
    "e": (_number, "numeric"),
    "p": (_integer, "integer"),
    "q": (_integer, "integer"),
    "K": (_number, "numeric"),
}
# the value of a column that a row leaves out
_ABSENT = object()


def oblateness(a_km: float, b_km: float) -> float:
    """Equatorial oblateness (3/2)(a^2 - b^2)/(a^2 + b^2) from the radii."""
    if not (a_km > 0.0 and b_km > 0.0):
        raise ValueError(f"radii must be positive, got a={a_km}, b={b_km}")
    if a_km < b_km:
        raise ValueError(f"expected a >= b, got a={a_km} < b={b_km}")
    # one exact power of two scales both radii so no square over- or underflows
    k = math.frexp(a_km)[1]
    a, b = math.ldexp(a_km, -k), math.ldexp(b_km, -k)
    return 1.5 * (a**2 - b**2) / (a**2 + b**2)


def nu_of_e(e: float) -> float:
    """Dissipation drift nu(e) = N(e)/Omega(e); equals 1 iff e = 0.  Raises
    ValueError for e outside [0, 1) or a bool."""
    if isinstance(e, bool) or not 0.0 <= e < 1.0:
        raise ValueError(f"eccentricity must satisfy 0 <= e < 1, got {e}")
    e2 = e * e
    omega = (1.0 + 3.0 * e2 + 0.375 * e2 * e2) / (1.0 - e2) ** 4.5
    n = (1.0 + 7.5 * e2 + 5.625 * e2 * e2 + 0.3125 * e2 * e2 * e2) / (1.0 - e2) ** 6
    return n / omega


# one field per column, in column order; K is stored as ``rigidity``
_BodyRecord = namedtuple("Body", [c if c != "K" else "rigidity" for c in _COLUMNS],
                         defaults=(None,))
_FLOAT_FIELDS = ("a_km", "b_km", "c_km", "e", "rigidity")


class Body(_BodyRecord):
    """One catalog record: radii in km, eccentricity, resonance p:q.

    An immutable tuple of the catalog's columns, in column order; every
    way to build one (positional, keyword, ``_make``, ``_replace``, copy,
    pickle) checks the record.  ``rigidity`` (CSV/JSON column ``K``) is the
    internal dissipation constant; stored for documentation, never used by
    the certification, which constrains the dissipation parameter eta
    directly.  The polar radius ``c_km`` is likewise informational.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = _BodyRecord.__new__(cls, *args, **kwargs)
        name, primary, a_km, b_km, c_km, e, p, q, rigidity = self
        # a line break or other control character would split a report row
        if not (isinstance(name, str) and name and name.isprintable()):
            raise CatalogError(f"body name {name!r} must be a non-empty printable string")
        if not isinstance(primary, str):
            raise CatalogError(f"{name}: primary={primary!r} is not a string")
        # as the parsers read them: only rigidity may be None, a bool is no
        # number, and p and q are ints (bool has no subclass, and a class
        # test is cheaper than isinstance)
        for field, value in zip(_FLOAT_FIELDS, (a_km, b_km, c_km, e, rigidity)):
            if value.__class__ is float:
                finite = math.isfinite(value)
            elif value is None and field == "rigidity":
                continue
            else:
                try:  # math refuses None, a str, a complex: what is not real
                    if value.__class__ is bool:
                        raise TypeError
                    finite = math.isfinite(value)
                except OverflowError:  # an int beyond the largest float
                    finite = False
                except (TypeError, ValueError):
                    raise CatalogError(f"{name}: {field}={value!r} is not a number")
            if not finite:
                raise CatalogError(f"{name}: {field}={value} is not finite")
        if p.__class__ is not int or q.__class__ is not int:
            field, value = ("q", q) if p.__class__ is int else ("p", p)
            raise CatalogError(f"{name}: {field}={value!r} is not an integer")
        if not (a_km > 0.0 and b_km > 0.0):
            raise CatalogError(f"{name}: radii must be positive")
        if a_km < b_km:
            raise CatalogError(f"{name}: max equatorial radius a={a_km} < b={b_km}")
        if not 0.0 <= e < 1.0:
            raise CatalogError(f"{name}: eccentricity {e} outside [0, 1)")
        if p < 1 or q < 1:
            raise CatalogError(f"{name}: p and q must be >= 1")
        if math.gcd(p, q) != 1:
            raise CatalogError(f"{name}: p={p}, q={q} not co-prime")
        if (p, q) not in SUPPORTED_RESONANCES:
            raise CatalogError(
                f"{name}: resonance {p}:{q} not supported "
                f"(certifiable cases: 1:1 and 3:2)"
            )
        return self

    @classmethod
    def _make(cls, iterable):
        # namedtuple's own _make, and _replace through it, skip __new__
        return cls(*iterable)

    def __reduce__(self):
        # copy and every pickle protocol rebuild through __new__
        return type(self), tuple(self)


class ResonanceParams(namedtuple("ResonanceParams", "p q e eps eta nu")):
    """Model parameters (p, q, e, eps, eta, nu) for one certification/solve.

    An immutable tuple.  The rescaled parameters of the period-normalized
    equation are exposed as properties: eta_hat = q eta, nu_hat = q nu - p,
    eps_hat = q^2 eps.
    """

    __slots__ = ()

    @classmethod
    def from_body(cls, body: Body, eta: float = 0.0) -> "ResonanceParams":
        return cls(body.p, body.q, body.e, oblateness(body.a_km, body.b_km), eta,
                   nu_of_e(body.e))

    @property
    def eta_hat(self) -> float:
        return self.q * self.eta

    @property
    def nu_hat(self) -> float:
        return self.q * self.nu - self.p

    @property
    def eps_hat(self) -> float:
        return self.q**2 * self.eps

    @property
    def harmonic(self) -> int:
        """Index j of the resonant Fourier mode (solves 2p - j q = 0)."""
        return 2 * self.p // self.q


def _body(values, where: str) -> Body:
    """The Body of one row: ``values`` holds one value per column, in
    column order, ``_ABSENT`` for a column the row leaves out."""
    parsed = []
    try:
        for (column, (parse, kind)), value in zip(_COLUMNS.items(), values):
            if column == "K" and value in (_ABSENT, None, ""):
                parsed.append(None)
            elif value is _ABSENT:
                raise CatalogError(f"missing column {column!r}")
            else:
                try:
                    parsed.append(parse(value))
                except (TypeError, ValueError, OverflowError):
                    raise CatalogError(f"bad {kind} value {value!r} for {column}")
        return Body(*parsed)
    except CatalogError as exc:
        raise CatalogError(f"{where}: {exc}")


def _load_csv(text: str) -> list:
    bodies = []
    header = None
    columns = list(_COLUMNS)
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        cells = [c.strip() for c in line.split(",")]
        if header is None:
            if cells not in (columns, columns[:-1]):
                raise CatalogError(
                    f"line {line_no}: expected header "
                    f"{','.join(columns[:-1])}[,K], got {line!r}"
                )
            header = cells
            continue
        # a row may omit K only when the header has it
        if len(cells) not in (len(header), len(columns) - 1):
            raise CatalogError(
                f"line {line_no}: expected {len(header)} fields, got {len(cells)}"
            )
        if len(cells) < len(columns):
            cells.append(_ABSENT)
        bodies.append(_body(cells, f"line {line_no}"))
    if header is None:
        raise CatalogError("no header row found")
    return bodies


def _load_json(text: str) -> list:
    try:
        records = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CatalogError(f"JSON parse failure: {exc}")
    if not isinstance(records, list):
        raise CatalogError("JSON catalog must be an array of body objects")
    rows = []
    for i, rec in enumerate(records):
        if not isinstance(rec, dict):
            raise CatalogError(f"record {i}: expected a JSON object, got {rec!r}")
        unknown = rec.keys() - _COLUMNS.keys()
        if unknown:
            raise CatalogError(f"record {i}: unknown key {min(unknown)!r}")
        row = [rec.get(column, _ABSENT) for column in _COLUMNS]
        # the parsers also read CSV text, so JSON strings stop here; an
        # empty K is documented as absent
        for (column, (_, kind)), value in zip(_COLUMNS.items(), row):
            if kind != "text" and isinstance(value, str) and (column, value) != ("K", ""):
                raise CatalogError(f"record {i}: bad {kind} value {value!r} for {column}")
        rows.append(row)
    return [_body(row, f"record {i}") for i, row in enumerate(rows)]


def load_catalog(source) -> list:
    """Load and validate a catalog from a file (``Path``) or its text.

    Text (``str`` or ``bytes``) starting with '[' or '{' is parsed as JSON,
    anything else as CSV; a file or ``bytes`` may start with a UTF-8 BOM.
    Duplicate body names, compared case-insensitively, are rejected; every
    invariant violation is reported with its row.
    """
    if isinstance(source, Path):
        source = source.read_text(encoding="utf-8-sig")
    elif isinstance(source, bytes):
        source = source.decode("utf-8-sig")
    elif not isinstance(source, str):
        raise TypeError(f"unsupported catalog source {type(source)!r}")

    stripped = source.lstrip()
    bodies = _load_json(source) if stripped.startswith(("[", "{")) else _load_csv(source)

    seen = {}
    for body in bodies:
        key = body.name.lower()
        if key in seen:
            raise CatalogError(f"duplicate body names {seen[key]!r} and {body.name!r}")
        seen[key] = body.name
    return bodies


def bundled_catalog_path(name: str) -> Path:
    """Filesystem path of a bundled catalog ('moons', 'mercury', 'minor')."""
    files = BUNDLED_NAMES[:-1]  # 'all' is a concatenation, not a file
    if name not in files:
        raise ValueError(f"no bundled catalog {name!r}; choose from {'/'.join(files)}")
    return Path(__file__).with_name("data") / f"{name}.csv"


def bundled_catalog(name: str) -> list:
    """Load a bundled catalog; 'all' concatenates moons + mercury."""
    if name == "all":
        return bundled_catalog("moons") + bundled_catalog("mercury")
    return load_catalog(bundled_catalog_path(name))
