"""Catalog ingestion, validation and derived model parameters."""

import copy
import json
import math
import pickle
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinorbit import certification
from spinorbit.catalog import (
    Body,
    CatalogError,
    ResonanceParams,
    bundled_catalog,
    bundled_catalog_path,
    load_catalog,
    nu_of_e,
    oblateness,
)

EXPECTED = {
    r["name"]: r
    for r in json.loads((Path(__file__).parent / "data/expected_reports.json").read_text())
}


def test_oblateness_trivial():
    assert oblateness(1.0, 1.0) == 0.0
    assert oblateness(math.sqrt(3.0), 1.0) == pytest.approx(0.75, rel=1e-15)


def test_oblateness_moon_row():
    # matches the mpmath-frozen value used throughout the summary table
    assert oblateness(1738.10, 1737.70) == pytest.approx(
        EXPECTED["Moon"]["eps"], rel=1e-12
    )


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(st.floats(1e-3, 1e5), st.floats(0.5, 1.0), st.integers(-1000, 1000))
# the Moon's radii scaled until a square would overflow, or underflow to 0
@example(1738.10, 1737.70 / 1738.10, 1000)
@example(1738.10, 1737.70 / 1738.10, -1000)
def test_oblateness_is_invariant_under_power_of_two_scaling(a, ratio, k):
    b = a * ratio
    assert oblateness(math.ldexp(a, k), math.ldexp(b, k)) == oblateness(a, b)


def test_oblateness_rejects_bad_radii():
    with pytest.raises(ValueError):
        oblateness(0.0, 0.0)
    with pytest.raises(ValueError):
        oblateness(-1.0, -2.0)
    with pytest.raises(ValueError):
        oblateness(1.0, 2.0)


def test_nu_trivial_and_taylor():
    assert nu_of_e(0.0) == pytest.approx(1.0, abs=0.0)
    # nu(e) = 1 + 6 e^2 + O(e^4)
    assert nu_of_e(1e-3) == pytest.approx(1.0 + 6e-6, rel=1e-8)


def test_nu_mercury_row():
    assert nu_of_e(0.2056) == pytest.approx(1.2558354581561657, rel=1e-13)


def test_nu_monotone():
    grid = np.linspace(0.0, 0.9, 200)
    vals = [nu_of_e(float(e)) for e in grid]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert all(v >= 1.0 for v in vals)


def test_nu_rejects_out_of_range():
    with pytest.raises(ValueError):
        nu_of_e(1.0)


def test_bundled_moons():
    moons = bundled_catalog("moons")
    assert len(moons) == 18
    assert all((b.p, b.q) == (1, 1) for b in moons)
    assert moons[0].name == "Moon"
    assert moons[0].rigidity == pytest.approx(1e-8)
    assert moons[0].c_km == pytest.approx(1736.0)


def test_bundled_mercury():
    (merc,) = bundled_catalog("mercury")
    assert (merc.p, merc.q) == (3, 2)
    assert merc.e == pytest.approx(0.2056)


def test_bundled_minor():
    minor = bundled_catalog("minor")
    assert [b.name for b in minor] == [
        "Phobos", "Deimos", "Amalthea", "Janus", "Epimetheus",
    ]


def test_bundled_all_concatenates():
    bodies = bundled_catalog("all")
    assert len(bodies) == 19
    assert bodies[-1].name == "Mercury"


def catalog_text(name, fmt):
    """A bundled catalog as text: its CSV file, or a JSON array of records
    written here field by field (K is the column of ``rigidity``)."""
    if fmt == "csv":
        return bundled_catalog_path(name).read_text(encoding="utf-8")
    return json.dumps([{"K" if field == "rigidity" else field: value
                        for field, value in body._asdict().items()}
                       for body in bundled_catalog(name)], indent=1)


def test_round_trip_csv_and_json():
    # each bundled catalog loads to the same bodies from its CSV file and
    # from a JSON text of the same records
    for name in ("moons", "mercury", "minor"):
        bodies = bundled_catalog(name)
        for fmt in ("csv", "json"):
            assert load_catalog(catalog_text(name, fmt)) == bodies


def test_load_from_path_and_bytes(tmp_path):
    src = bundled_catalog_path("mercury")
    assert load_catalog(src) == load_catalog(src.read_bytes())
    copy = tmp_path / "copy.csv"
    copy.write_text(src.read_text())
    assert load_catalog(copy) == load_catalog(src)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_utf8_bom_is_accepted(tmp_path, fmt):
    # spreadsheet exports start with a byte-order mark
    text = catalog_text("minor", fmt)
    plain, marked = tmp_path / f"plain.{fmt}", tmp_path / f"marked.{fmt}"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    assert load_catalog(marked) == load_catalog(plain) == bundled_catalog("minor")
    assert load_catalog(marked.read_bytes()) == load_catalog(plain)


@pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"], ids=["plain", "bom"])
def test_non_utf8_catalog_is_refused_by_byte_and_offset(tmp_path, bom):
    # a Latin-1 export: the first byte that is not UTF-8 is named with its
    # offset into the file, counting any BOM, and the codec's error is kept
    data = bom + catalog_text("mercury", "csv").replace("Mercury,Sun", "Mercur\xe9,Sun").encode("latin-1")
    offset = data.index(b"\xe9")
    path = tmp_path / "latin1.csv"
    path.write_bytes(data)
    for source in (data, path):
        with pytest.raises(CatalogError, match=f"^catalog is not UTF-8: byte 0xe9 at offset {offset}$") as info:
            load_catalog(source)
        assert isinstance(info.value.__cause__, UnicodeDecodeError)


def test_row_precise_diagnostics():
    text = "name,primary,a_km,b_km,c_km,e,p,q,K\nX,Y,1.0,2.0,1.0,0.1,1,1,\n"
    with pytest.raises(CatalogError, match="line 2"):
        load_catalog(text)


def test_duplicate_names_rejected():
    row = "Moon,Earth,2.0,1.0,1.0,0.1,1,1,\n"
    text = "name,primary,a_km,b_km,c_km,e,p,q,K\n" + row + row
    with pytest.raises(CatalogError, match="duplicate"):
        load_catalog(text)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("field", ["a_km", "b_km", "c_km", "e", "rigidity"])
def test_body_rejects_non_finite(field, value):
    fields = dict(name="X", primary="Y", a_km=2.0, b_km=1.0, c_km=1.0, e=0.1,
                  p=1, q=1, rigidity=1.0)
    fields[field] = value
    with pytest.raises(CatalogError, match=f"{field}=.* is not finite"):
        Body(**fields)


_MOON = ("Moon", "Earth", 1738.10, 1737.70, 1736.00, 0.0549, 1, 1, 1e-8)
_E_OUT_OF_RANGE = _MOON[:5] + (1.5,) + _MOON[6:]
_PROTOCOLS = range(pickle.HIGHEST_PROTOCOL + 1)


def _routes(record):
    """Every way to build a Body of ``record``, each as a call."""
    fields = dict(zip(Body._fields, record))
    # tuple.__new__ skips Body's checks, as namedtuple's own _make would
    unchecked = tuple.__new__(Body, record)
    return [
        lambda: Body(*record),
        lambda: Body(**fields),
        lambda: Body._make(record),
        lambda: Body(*_MOON)._replace(**fields),
        lambda: copy.copy(unchecked),
        lambda: copy.deepcopy(unchecked),
    ] + [lambda protocol=protocol: pickle.loads(pickle.dumps(unchecked, protocol))
         for protocol in _PROTOCOLS]


@pytest.mark.parametrize("route", _routes(_E_OUT_OF_RANGE),
                         ids=["positional", "keyword", "_make", "_replace", "copy", "deepcopy"]
                         + [f"pickle-{protocol}" for protocol in _PROTOCOLS])
def test_every_route_to_a_body_checks_it(route):
    with pytest.raises(CatalogError, match=r"^Moon: eccentricity 1\.5 outside \[0, 1\)$"):
        route()


@pytest.mark.parametrize("record, message", [
    (("X", "Y", 2.0, 1.0, 1.0, False, True, True), "X: e=False is not a number"),
    (("X", "Y", 2.0, 1.0, 1.0, 0.1, 1.5, 1), "X: p=1.5 is not an integer"),
    (("X", "Y", 2.0, 1.0, 1.0, 0.1, 1, True), "X: q=True is not an integer"),
    (("X", "Y", 2.0, 1.0, 1.0, 0.1, 3.0, 2), "X: p=3.0 is not an integer"),
    (("X", "Y", True, 1.0, 1.0, 0.1, 1, 1), "X: a_km=True is not a number"),
    (("X", "Y", 2.0, 1.0, 1.0, 0.1, 1, 1, False), "X: rigidity=False is not a number"),
    (("X", None, 2.0, 1.0, 1.0, 0.1, 1, 1), "X: primary=None is not a string"),
    (("X", 5, 2.0, 1.0, 1.0, 0.1, 1, 1), "X: primary=5 is not a string"),
    (("X", "Y", None, 1.0, 1.0, 0.1, 1, 1), "X: a_km=None is not a number"),
    (("X", "Y", 2.0, None, 1.0, 0.1, 1, 1), "X: b_km=None is not a number"),
    (("X", "Y", 2.0, 1.0, None, 0.1, 1, 1), "X: c_km=None is not a number"),
    (("X", "Y", 2.0, 1.0, 1.0, None, 1, 1), "X: e=None is not a number"),
    (("X", "Y", "2", 1.0, 1.0, 0.1, 1, 1), "X: a_km='2' is not a number"),
    (("X", "Y", 2.0, 1.0, 1.0, "0.1", 1, 1), "X: e='0.1' is not a number"),
    (("X", "Y", 2.0, 1.0, 1.0, 0.1, 1, 1, "1e-8"), "X: rigidity='1e-8' is not a number"),
    (("X", "Y", 2.0, 1.0, 1j, 0.1, 1, 1), "X: c_km=1j is not a number"),
    (("X", "Y", 2.0, b"1", 1.0, 0.1, 1, 1), "X: b_km=b'1' is not a number"),
    (("X", "Y", 10**400, 1.0, 1.0, 0.1, 1, 1), f"X: a_km={10**400} is not finite"),
], ids=["bool-e-p-q", "fractional-p", "bool-q", "float-p", "bool-a", "bool-rigidity",
        "none-primary", "int-primary", "none-a", "none-b", "none-c", "none-e", "str-a", "str-e",
        "str-rigidity", "complex-c", "bytes-b", "int-beyond-floats-a"])
def test_every_route_to_a_body_refuses_what_the_parsers_refuse(record, message):
    for route in _routes(record):
        with pytest.raises(CatalogError, match=f"^{message}$"):
            route()


def test_body_copies_and_pickles_to_an_equal_body():
    body = Body(*_MOON)
    for clone in (copy.copy(body), copy.deepcopy(body), Body._make(body), body._replace(),
                  pickle.loads(pickle.dumps(body))):
        assert type(clone) is Body and clone == body


def test_records_are_tuples_without_a_dict():
    (merc,) = bundled_catalog("mercury")
    params = ResonanceParams.from_body(merc)
    conditions = certification.conditions(params)
    for record, field in ((merc, "e"), (params, "eta"), (conditions, "green")):
        assert isinstance(record, tuple)
        assert not hasattr(record, "__dict__")
        with pytest.raises(AttributeError):
            setattr(record, field, 0.0)
        with pytest.raises(AttributeError):
            record.extra = 0.0


def test_body_invariants():
    with pytest.raises(CatalogError):
        Body("X", "Y", 2.0, 1.0, 1.0, 0.1, 2, 4, None)  # not co-prime
    with pytest.raises(CatalogError):
        Body("X", "Y", 2.0, 1.0, 1.0, 0.1, 2, 1, None)  # unsupported resonance
    with pytest.raises(CatalogError):
        Body("X", "Y", 2.0, 1.0, 1.0, 1.2, 1, 1, None)  # e out of range
    with pytest.raises(CatalogError):
        Body("X", "Y", 2.0, 1.0, 1.0, 0.1, 0, 1, None)  # p < 1
    with pytest.raises(CatalogError, match="^X: radii must be positive$"):
        Body("X", "Y", 2.0, 0.0, 1.0, 0.1, 1, 1, None)


def test_unreadable_sources_refused():
    with pytest.raises(CatalogError, match="^no header row found$"):
        load_catalog("# comments only\n\n# no header\n")
    with pytest.raises(TypeError, match="unsupported catalog source"):
        load_catalog(42)
    with pytest.raises(ValueError, match="^no bundled catalog 'x'; choose from moons/mercury/minor$"):
        bundled_catalog_path("x")


def test_json_parse_errors():
    with pytest.raises(CatalogError):
        load_catalog("[not json")
    with pytest.raises(CatalogError, match="record 0"):
        load_catalog('[{"name": "X"}]')


_JSON_RECORD = dict(name="X", primary="Y", a_km=2.0, b_km=1.0, c_km=1.0, e=0.1, p=1, q=1)


@pytest.mark.parametrize("override, field", [
    ({"p": 1.7, "q": 1.2}, "p"),   # would load as 1:1
    ({"p": 3, "q": 2.5}, "q"),
    ({"p": True}, "p"),
    ({"q": True}, "q"),
    ({"a_km": True}, "a_km"),
    ({"e": False}, "e"),
    ({"a_km": None}, "a_km"),
    ({"p": None}, "p"),
    ({"e": [0.1]}, "e"),
])
def test_json_rejects_booleans_fractions_and_non_numbers(override, field):
    record = dict(_JSON_RECORD, **override)
    with pytest.raises(CatalogError, match=f"^record 0: bad .* value .* for {field}$"):
        load_catalog(json.dumps([record]))


@pytest.mark.parametrize("value", [None, 5, ["Moon"]], ids=["null", "number", "list"])
@pytest.mark.parametrize("field", ["name", "primary"])
def test_json_rejects_non_string_text(field, value):
    # str() used to turn these into a body named 'None', '5' or "['Moon']"
    record = dict(_JSON_RECORD, **{field: value})
    with pytest.raises(CatalogError, match=f"^record 0: bad text value .* for {field}$"):
        load_catalog(json.dumps([record]))


@pytest.mark.parametrize("field, value", [
    ("a_km", "2.0"), ("e", "0.1"), ("p", "1"), ("q", "1"), ("K", "5"),
])
def test_json_rejects_numbers_written_as_strings(field, value):
    # these used to load as numbers; a CSV cell is text and is parsed
    record = dict(_JSON_RECORD, **{field: value})
    kind = "integer" if field in ("p", "q") else "numeric"
    with pytest.raises(CatalogError, match=f"^record 0: bad {kind} value '{value}' for {field}$"):
        load_catalog(json.dumps([record]))


@pytest.mark.parametrize("name", ["A\nB", "A\rB", "A\tB", "\x1b[1m"])
def test_body_name_must_be_printable(name):
    # a control character would split or garble a report row
    with pytest.raises(CatalogError) as info:
        load_catalog(json.dumps([dict(_JSON_RECORD, name=name)]))
    assert str(info.value) == f"record 0: body name {name!r} must be a non-empty printable string"
    (body,) = load_catalog(json.dumps([dict(_JSON_RECORD, name="A|B é")]))
    assert body.name == "A|B é"


def test_json_accepts_empty_k():
    (body,) = load_catalog(json.dumps([dict(_JSON_RECORD, K="")]))
    assert body.rigidity is None


def test_short_csv_row_named_short():
    # without K in the header no cell may be left out
    text = "name,primary,a_km,b_km,c_km,e,p,q\nX,Y,2.0,1.0,1.0,0.1,1\n"
    with pytest.raises(CatalogError, match="^line 2: expected 8 fields, got 7$"):
        load_catalog(text)


def test_str_is_catalog_text_never_a_path(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("mercury.csv").write_text(bundled_catalog_path("mercury").read_text())
    assert load_catalog(Path("mercury.csv")) == bundled_catalog("mercury")
    with pytest.raises(CatalogError, match="^line 1: expected header"):
        load_catalog("mercury.csv")


def test_json_accepts_integral_floats():
    (body,) = load_catalog(json.dumps([dict(_JSON_RECORD, p=3.0, q=2.0)]))
    assert (body.p, body.q) == (3, 2) and type(body.p) is int


def test_resonance_params_derived_quantities():
    (merc,) = bundled_catalog("mercury")
    params = ResonanceParams.from_body(merc, eta=0.001)
    assert params.eta_hat == pytest.approx(0.002)
    assert params.nu_hat == pytest.approx(2.0 * nu_of_e(merc.e) - 3.0)
    assert params.eps_hat == pytest.approx(4.0 * oblateness(merc.a_km, merc.b_km))
    assert params.harmonic == 3
    moon = bundled_catalog("moons")[0]
    assert ResonanceParams.from_body(moon).harmonic == 2
