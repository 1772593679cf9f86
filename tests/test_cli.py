"""Exit-code contract, output formats and determinism of the command line."""

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

from spinorbit import catalog as cat
from spinorbit import potential, solver
from spinorbit.certification import certify
from spinorbit.cli import main
from spinorbit.series import alpha_series


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_certify_moons_all_pass(capsys):
    code, out, _ = run_cli(capsys, "certify", "--catalog", "moons", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 19  # header + 18 rows
    assert all(line.endswith("true") for line in lines[1:])


def test_certify_minor_mixed_exit_one(capsys):
    code, out, _ = run_cli(capsys, "certify", "--catalog", "minor", "--format", "csv")
    assert code == 1
    rows = {line.split(",")[0]: line for line in out.strip().splitlines()[1:]}
    assert rows["Janus"].endswith("true")
    assert rows["Epimetheus"].endswith("true")
    for name in ("Phobos", "Deimos", "Amalthea"):
        assert rows[name].endswith("false")


def test_certify_body_filter(capsys):
    code, out, _ = run_cli(
        capsys, "certify", "--catalog", "all", "--body", "Mercury", "--format", "json"
    )
    assert code == 0
    (row,) = json.loads(out)
    assert row["body_name"] == "Mercury"
    assert row["eta_admissible"] >= 0.001


def test_certify_empty_filter_exit_two(capsys, tmp_path):
    # an unmatched --body, a header-only CSV and an empty JSON array
    (tmp_path / "header.csv").write_text("name,primary,a_km,b_km,c_km,e,p,q\n")
    (tmp_path / "empty.json").write_text("[]")
    for argv in (("--body", "Vulcan"), ("--catalog", str(tmp_path / "header.csv")),
                 ("--catalog", str(tmp_path / "empty.json"))):
        code, out, err = run_cli(capsys, "certify", *argv)
        assert code == 2, argv
        assert out == ""
        assert "no bodies selected" in err


def test_certify_unknown_body_among_known_exit_two(capsys):
    # Moon alone used to be reported, with exit 0
    code, out, err = run_cli(capsys, "certify", "--body", "Moon", "--body", "Nope")
    assert code == 2
    assert out == ""
    assert "'Nope'" in err and "no bodies selected" in err


def test_certify_missing_catalog_exit_two(capsys):
    code, _, err = run_cli(capsys, "certify", "--catalog", "/nonexistent/file.csv")
    assert code == 2


def test_certify_markdown_header(capsys):
    code, out, _ = run_cli(capsys, "certify", "--catalog", "mercury")
    assert code == 0
    assert out.splitlines()[0].startswith("| body |")


_PINNED = Path(__file__).parent / "data" / "cli"


# argv and exit code of each run whose output tests/data/cli holds
_PINNED_RUNS = {
    "certify_all": (("certify", "--catalog", "all"), 0),
    "certify_minor": (("certify", "--catalog", "minor"), 1),
    "fourier_0.2056": (("fourier", "0.2056", "--jmax", "4"), 0),
    "fourier_0.9": (("fourier", "0.9", "--jmax", "4"), 0),
    # names holding ',', '"' and '|': CSV quoting and the markdown escape
    "certify_named": (("certify", "--catalog", str(_PINNED / "named_catalog.json")), 1),
}


# the fourier 0.2056 CSV rows are pinned in test_fourier_rows_to_the_bit
@pytest.mark.parametrize("file", sorted(
    p.name for p in _PINNED.iterdir() if p.suffix in (".csv", ".md")))
def test_tables_are_the_pinned_bytes(capsys, file):
    name, fmt = file.rsplit(".", 1)
    argv, code = _PINNED_RUNS[name]
    expected = (_PINNED / file).read_bytes().decode("utf-8")
    assert run_cli(capsys, *argv, "--format", fmt) == (code, expected, "")


def test_output_determinism(capsys):
    runs = [
        run_cli(capsys, "certify", "--catalog", "all", "--format", fmt)[1]
        for fmt in ("csv", "csv", "json", "json")
    ]
    assert runs[0] == runs[1]
    assert runs[2] == runs[3]


def test_catalog_env_default(capsys, monkeypatch):
    monkeypatch.setenv("RESONANCE_CATALOG", "mercury")
    code, out, _ = run_cli(capsys, "certify", "--format", "csv")
    assert code == 0
    assert len(out.strip().splitlines()) == 2


def test_fourier_circular_orbit(capsys):
    code, out, _ = run_cli(capsys, "fourier", "0", "--jmax", "4", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    by_j = {r["j"]: r for r in rows}
    assert by_j[2]["alpha_quadrature"] == pytest.approx(-0.5, abs=1e-13)
    for j in (1, 3, 4):
        assert abs(by_j[j]["alpha_quadrature"]) <= 1e-12
    assert by_j[2]["within_bound"] is True


@pytest.mark.parametrize("e", ["0", "1e-6"])
def test_fourier_within_bound_allows_quadrature_round_off(capsys, e):
    # the j = 3 remainder bound is 0 or ~5.7e-123 here, below the ~1e-17
    # round-off of the quadrature; the comparison allows FLOAT_SLACK
    code, out, _ = run_cli(capsys, "fourier", e, "--jmax", "3", "--format", "csv")
    assert code == 0
    row3 = out.splitlines()[3].split(",")
    assert row3[0] == "3" and row3[-1] == "yes"
    assert 0.0 < abs(float(row3[1]) - float(row3[2])) <= 1e-10


def test_fourier_within_bound_beyond_the_allowance_is_no(capsys, monkeypatch):
    # a quadrature 2e-10 away from the series exceeds the allowance
    monkeypatch.setattr(potential, "fourier_coefficient",
                        lambda e, j, n_quad: alpha_series(j, e) + 2e-10 if j == 3 else 0.0)
    code, out, _ = run_cli(capsys, "fourier", "0", "--jmax", "3", "--format", "json")
    assert code == 0
    row3 = json.loads(out)[2]
    assert row3["remainder_bound"] == 0.0 and row3["within_bound"] is False


def test_fourier_outside_disk_marks_unavailable(capsys):
    code, out, _ = run_cli(capsys, "fourier", "0.7", "--jmax", "3", "--format", "json")
    assert code == 0
    for row in json.loads(out):
        assert row["alpha_series"] is None
        assert row["remainder_bound"] is None
        assert row["alpha_quadrature"] is not None


def _strict_json(text):
    def refuse(constant):
        raise ValueError(f"non-strict JSON constant {constant}")
    return json.loads(text, parse_constant=refuse)


# the 3:2 remainder power overflows for the floats just below the disk edge
EDGE_E = "0.5865373882183372"


def test_certify_overflowing_remainder_is_a_strict_no(capsys, tmp_path):
    row = tmp_path / "row.csv"
    row.write_text(f"name,primary,a_km,b_km,c_km,e,p,q\nEdge,P,100.0,99.0,99.0,{EDGE_E},3,2\n")
    code, out, _ = run_cli(capsys, "certify", "--catalog", str(row), "--format", "json")
    assert code == 1
    (report,) = _strict_json(out)
    assert report["alpha_lower"] == "-inf" and report["certified"] is False
    for fmt in ("csv", "md"):
        code, out, _ = run_cli(capsys, "certify", "--catalog", str(row), "--format", fmt)
        assert code == 1 and "-inf" in out


def test_certify_radii_of_any_finite_size(capsys, tmp_path):
    # Moon-shaped rows whose squared radii in km overflow (Huge) or
    # underflow to zero (Wee)
    rows = tmp_path / "rows.csv"
    rows.write_text("name,primary,a_km,b_km,c_km,e,p,q\n"
                    "Huge,P,1.7381e303,1.7377e303,1.736e303,0.0549,1,1\n"
                    "Wee,P,1.7381e-297,1.7377e-297,1.736e-297,0.0549,1,1\n")
    code, out, err = run_cli(capsys, "certify", "--catalog", str(rows), "--format", "json")
    assert code == 0 and err == ""
    assert [r["certified"] for r in _strict_json(out)] == [True, True]


def test_fourier_overflowing_remainder_is_strict_json(capsys):
    code, out, _ = run_cli(capsys, "fourier", EDGE_E, "--jmax", "3", "--format", "json")
    assert code == 0
    row3 = _strict_json(out)[2]
    assert row3["remainder_bound"] == "inf" and row3["within_bound"] is True


def _indent_one(text):
    """Whether ``text`` is json.dumps(payload, indent=1) + "\n" of the payload it holds."""
    return text == json.dumps(json.loads(text), indent=1) + "\n"


def test_every_json_output_is_json_dumps_indent_one(capsys):
    # the package's one JSON writer is json's indent=1 encoder byte for byte:
    # certify for every bundled catalog, orbit and to_json for the 21
    # certified bodies at eta in {0, eta_adm/2, eta_adm}, and fourier inside,
    # at the edge of and outside the disks
    for selector in cat.BUNDLED_NAMES:
        _, out, _ = run_cli(capsys, "certify", "--catalog", selector, "--format", "json")
        assert _indent_one(out), selector
    solves = 0
    for selector in ("all", "minor"):
        for body in cat.bundled_catalog(selector):
            report = certify(body)
            if not report.certified:
                continue
            for eta in (0.0, 0.5 * report.eta_admissible, report.eta_admissible):
                code, out, _ = run_cli(capsys, "orbit", body.name, "--catalog", selector,
                                       "--eta", repr(eta))
                assert code == 0 and _indent_one(out), (body.name, eta)
                orbit = solver.solve_bifurcation(cat.ResonanceParams.from_body(body, eta=eta))
                assert orbit.to_json() == json.dumps(orbit.to_dict(), indent=1) + "\n"
                solves += 1
    assert solves == 63
    for e in ("0", "0.2056", EDGE_E, "0.7"):
        code, out, _ = run_cli(capsys, "fourier", e, "--jmax", "4", "--format", "json")
        assert code == 0 and _indent_one(out), e


def test_fourier_mercury_cross_check(capsys):
    code, out, _ = run_cli(capsys, "fourier", "0.2056", "--jmax", "3", "--format", "json")
    assert code == 0
    row3 = json.loads(out)[2]
    assert row3["within_bound"] is True
    assert abs(row3["alpha_quadrature"] - row3["alpha_series"]) <= row3["remainder_bound"]


_FOURIER_KEYS = ("j", "alpha_quadrature", "alpha_series", "remainder_bound", "within_bound")


def _fourier_record(row):
    """The JSON record of a fourier CSV row."""
    j, *numbers, within = row.split(",")
    values = [float(c) if c else None for c in numbers]
    return dict(zip(_FOURIER_KEYS, [int(j), *values, {"yes": True, "no": False, "": None}[within]]))


@pytest.mark.parametrize("argv, rows", [
    # j = 4 down to 1 share one 64-node geometry
    (("0.2056", "--jmax", "4"), {
        1: "1,0.05113086064690325,,,",
        2: "2,-0.447882110565719,-0.4478867150747264,369.69630536379225,yes",
        3: "3,-0.3270890966819027,-0.3270890966819028,0.045001464780044124,yes",
        4: "4,-0.16299573640608214,,,",
    }),
    # eight harmonics on one shared 512-node geometry, the last to the bit
    (("0.99", "--jmax", "8"), {8: "8,1.4010804527537788,,,"}),
    # the deepest grid below the round-off floor: 64 to 512 nodes unproven, then 1024
    (("0.9966", "--jmax", "1"), {1: "1,0.25599307900518475,,,"}),
    # a negative zero e: the remainder bound is +0.0, not -0.0
    (("-0.0", "--jmax", "3"), {2: "2,-0.5,-0.5,0.0,yes"}),
], ids=["mercury-e", "e-0.99-j-8", "e-0.9966", "e-minus-zero"])
def test_fourier_rows_to_the_bit(capsys, argv, rows):
    code, out, err = run_cli(capsys, "fourier", *argv, "--format", "csv")
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[0] == ",".join(_FOURIER_KEYS)
    assert len(lines) == 1 + int(argv[-1])
    for j, row in rows.items():
        assert lines[j] == row
    # the same values in strict JSON
    code, out, err = run_cli(capsys, "fourier", *argv, "--format", "json")
    assert (code, err) == (0, "")
    records = _strict_json(out)
    for j, row in rows.items():
        assert records[j - 1] == _fourier_record(row)


def test_fourier_unresolved_quadrature_refused(capsys):
    # 64 nodes do not resolve alpha_j at e = 0.95: refused, not a traceback
    code, out, err = run_cli(capsys, "fourier", "0.95", "--nquad", "64")
    assert code == 1
    assert out == ""
    assert "--nquad" in err and "n_quad=64" in err


def test_fourier_round_off_floor_not_sent_to_more_nodes(capsys):
    # at e = 0.9999 the rounding bound alone exceeds 1e-10 at every n_quad,
    # and the 2048-node alpha_1 at e = 0.9995 is 5.8e-10 off: the refusal
    # says so instead of asking for more nodes
    for argv in (("0.9999", "--nquad", "65536"), ("0.9995",)):
        code, out, err = run_cli(capsys, "fourier", *argv, "--jmax", "1")
        assert code == 1, argv
        assert out == ""
        assert "round-off floor" in err
        assert "raise --nquad" not in err


def test_fourier_refuses_the_top_harmonic_before_any_other_row(capsys, monkeypatch):
    # both error bounds grow with |j|: --jmax is asked for first, and its
    # phase rounding alone exceeds 1e-10 here, which more nodes do not lower
    real, calls = potential.fourier_coefficient, []
    monkeypatch.setattr(potential, "fourier_coefficient",
                        lambda e, j, n_quad: calls.append(j) or real(e, j, n_quad))
    code, out, err = run_cli(capsys, "fourier", "0.2", "--jmax", "100000000")
    assert (code, out, calls) == (1, "", [100000000])
    assert "round-off floor" in err and "raise --nquad" not in err


def test_fourier_rows_ascend_after_the_top_one_is_computed(capsys):
    code, out, _ = run_cli(capsys, "fourier", "0.99", "--jmax", "8", "--format", "json")
    assert code == 0
    assert [r["j"] for r in json.loads(out)] == list(range(1, 9))


def test_fourier_invalid_eccentricity_exit_two(capsys):
    code, _, err = run_cli(capsys, "fourier", "1.5")
    assert code == 2
    assert "eccentricity" in err


def test_orbit_moon(capsys):
    code, out, _ = run_cli(capsys, "orbit", "Moon", "--eta", "0")
    assert code == 0
    payload = json.loads(out)
    assert payload["bifurcation_residual"] <= 1e-10
    assert payload["orbit_residual"] <= 1e-9
    assert "resonance_identity_residual" not in payload
    assert payload["certification"]["certified"] is True


def test_orbit_reports_each_fact_once(capsys):
    # the time average of x(q t) - p t is xi_star and x(t + 2 pi q) =
    # x(t) + 2 pi p holds by construction, so neither is a separate key; a
    # range solution's max|u| and step count follow from u and increments
    code, out, _ = run_cli(capsys, "orbit", "Moon", "--eta", "0.004")
    assert code == 0
    payload = json.loads(out)
    assert list(payload) == [
        "p", "q", "e", "eps", "eta", "nu", "xi_star", "bifurcation_residual",
        "u_coefficients", "t", "x", "orbit_residual", "certification",
    ]
    assert payload["orbit_residual"] <= 1e-9
    assert [f.name for f in dataclasses.fields(solver.ResonantOrbit)] == [
        "params", "xi_star", "u", "bifurcation_residual"]
    assert solver.RangeSolution._fields == ("xi", "u", "increments", "phi")


@pytest.mark.parametrize("body, selector, eta", [
    ("Mercury", "all", "0.001"),
    # just under Mercury's bifurcation ceiling: the root nearest a bracket
    # end (s = -sin 2 xi = 0.78, where ds/dxi -> 0 at the end)
    ("Mercury", "all", "0.0014135"),
    ("Epimetheus", "minor", "0.004"),
    # just under Epimetheus's Green cap: the slowest contraction
    ("Epimetheus", "minor", "0.0083012416496226"),
])
def test_orbit_solves_up_to_its_ceilings(capsys, body, selector, eta):
    code, out, err = run_cli(capsys, "orbit", body, "--catalog", selector, "--eta", eta)
    assert (code, err) == (0, "")
    payload = _strict_json(out)
    assert payload["orbit_residual"] <= 1e-9
    assert payload["certification"]["certified"] is True


def test_orbit_mercury_over_cap_refused(capsys):
    code, _, err = run_cli(capsys, "orbit", "Mercury", "--eta", "0.002")
    assert code == 1
    assert "bifurcation condition" in err


def test_orbit_eta_above_green_cap_refused(capsys):
    code, _, err = run_cli(capsys, "orbit", "Moon", "--eta", "0.009")
    assert code == 1
    assert "Green-norm condition" in err


def test_orbit_just_above_the_exact_green_ceiling_refused(capsys):
    # 0.008301241649622697 lies above 2/pi - pi/5 but below the float
    # (pi/5)(10/pi^2 - 1), which rounds up
    code, out, err = run_cli(capsys, "orbit", "Moon", "--eta", "0.008301241649622697")
    assert code == 1 and out == ""
    assert "Green-norm condition" in err


def test_orbit_uncertified_body_refused(capsys):
    code, _, err = run_cli(capsys, "orbit", "Phobos", "--catalog", "minor")
    assert code == 1
    assert "range" in err


def test_orbit_at_bifurcation_ceiling_accepted(capsys, tmp_path):
    # eta_admissible of this row comes from the bifurcation condition; the
    # orbit command must accept exactly the eta that certify reports
    row = tmp_path / "row.csv"
    row.write_text("name,primary,a_km,b_km,c_km,e,p,q\n"
                   "Test,P,100.0,99.6779,99.6779,0.0567,3,2\n")
    code, out, _ = run_cli(capsys, "certify", "--catalog", str(row), "--format", "json")
    assert code == 0
    (report,) = json.loads(out)
    assert report["eta_admissible"] == 0.0006007460216792887
    assert report["eta_bif_max"] < report["eta_green_max"]
    code, out, _ = run_cli(capsys, "orbit", "Test", "--catalog", str(row),
                           "--eta", "0.0006007460216792887")
    assert code == 0
    assert json.loads(out)["orbit_residual"] <= 1e-9


@pytest.mark.parametrize("body, weaken", [
    # residual 2.1e-4: truncation too low
    ("Mercury", lambda mp: mp.setitem(solver._MODES, 2, 4)),
    # residual 5.2e-8: one iteration only
    ("Moon", lambda mp: mp.setattr(solver, "_TOL_FIXED_POINT", 1.0)),
], ids=["modes-4", "fixed-point-tol-1"])
def test_orbit_residual_over_tolerance_refused(capsys, monkeypatch, body, weaken):
    weaken(monkeypatch)
    code, out, err = run_cli(capsys, "orbit", body)
    assert code == 1
    assert out == ""
    assert "orbit residual" in err and "1e-09" in err


def test_orbit_root_search_stagnation_exit_one(capsys, monkeypatch):
    # no phase meets a residual of 1e-300: the root search gives up once its
    # bracket is narrower than 1e-15, and the command says so
    monkeypatch.setattr(solver, "_TOL_BIFURCATION", 1e-300)
    code, out, err = run_cli(capsys, "orbit", "Moon", "--eta", "0.004")
    assert code == 1
    assert out == ""
    assert err.startswith("error: root search stagnated at width ")
    assert "Traceback" not in err


def test_orbit_unresolved_spectrum_exit_one(capsys, monkeypatch):
    # two modes on eight nodes cannot resolve Mercury's forcing
    monkeypatch.setitem(solver._MODES, 2, 2)
    monkeypatch.setattr(solver, "_COLLOCATION_MIN", 8)
    code, out, err = run_cli(capsys, "orbit", "Mercury")
    assert code == 1
    assert out == ""
    assert err.startswith("error: unresolved collocation spectrum")
    assert "Traceback" not in err


def test_orbit_unknown_body_exit_two(capsys):
    code, _, err = run_cli(capsys, "orbit", "Vulcan")
    assert code == 2
    assert "unknown body" in err


@pytest.mark.parametrize("command", ["certify --body", "orbit"])
def test_certify_and_orbit_share_one_body_lookup(capsys, tmp_path, command):
    # orbit used to say "unknown body 'X'" for an empty catalog too
    argv = command.split()
    code, out, _ = run_cli(capsys, *argv, "mOON", "--out", str(tmp_path / "out"))
    assert (code, out) == (0, "")
    assert "Moon" in (tmp_path / "out").read_text()
    (tmp_path / "empty.json").write_text("[]")
    for extra, message in [
        ((), "error: unknown body 'Vulcan'; no bodies selected\n"),
        (("--catalog", str(tmp_path / "empty.json")),
         "error: the catalog is empty; no bodies selected\n"),
    ]:
        assert run_cli(capsys, *argv, "Vulcan", *extra) == (2, "", message)


def test_orbit_exports_the_requested_samples(capsys):
    code, out, _ = run_cli(capsys, "orbit", "Moon", "--samples", "32")
    assert code == 0
    payload = json.loads(out)
    assert (len(payload["t"]), len(payload["x"])) == (32, 32)


@pytest.mark.parametrize("samples", ["0", "1", "1048577"])
def test_orbit_refuses_samples_outside_2_to_2_pow_20(capsys, tmp_path, samples):
    # 2**20 + 1 used to be computed; far larger asks ran out of memory
    out_file = tmp_path / "orbit.json"
    code, out, err = run_cli(capsys, "orbit", "Moon", "--samples", samples,
                             "--out", str(out_file))
    assert (code, out) == (2, "")
    assert err == f"error: --samples must be >= 2 and <= 2**20, got {samples}\n"
    assert not out_file.exists()


def test_fourier_refuses_nquad_in_the_quadrature_s_own_words(capsys):
    for nquad in ("63", "2097152"):
        code, out, err = run_cli(capsys, "fourier", "0.2", "--nquad", nquad)
        assert (code, out) == (2, "")
        assert err == f"error: n_quad must be even, >= 64 and <= 2**20, got {nquad}\n"


def test_orbit_writes_file(capsys, tmp_path):
    out_file = tmp_path / "orbit.json"
    code, out, _ = run_cli(capsys, "orbit", "Moon", "--out", str(out_file))
    assert code == 0
    assert out == ""
    assert json.loads(out_file.read_text())["q"] == 1


def test_invalid_flag_values_exit_two(capsys):
    assert run_cli(capsys, "fourier", "0.1", "--nquad", "63")[0] == 2
    assert run_cli(capsys, "fourier", "0.1", "--jmax", "0") == (
        2, "", "error: --jmax must be >= 1, got 0\n")
    assert run_cli(capsys, "orbit", "Moon", "--eta", "-1")[0] == 2
    assert run_cli(capsys, "orbit", "Moon", "--eta", "nan")[0] == 2
    assert run_cli(capsys, "orbit", "Moon", "--eta", "inf")[0] == 2


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "spinorbit.cli", "certify", "--catalog", "mercury",
         "--format", "csv"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[1].startswith("Mercury,")


@pytest.mark.parametrize("text", [
    '[{"name": "X", "primary": "Y", "a_km": 2.0, "b_km": 1.0, "c_km": 1.0,'
    ' "e": 0.1, "p": 1.7, "q": 1.2}]',     # used to certify as 1:1
    '[1, 2]',                              # used to end in AttributeError
    '[{"name": "X", "primary": "Y", "a_km": null, "b_km": 1.0, "c_km": 1.0,'
    ' "e": 0.1, "p": 1, "q": 1}]',         # used to end in TypeError
    '[{"name": "A\\nB", "primary": "P", "a_km": 2, "b_km": 1, "c_km": 1,'
    ' "e": 0.1, "p": 1, "q": 1}]',         # would split its report row
], ids=["fractional-p-q", "non-object-record", "null-field", "line-break-in-name"])
def test_malformed_json_catalog_exit_two(capsys, tmp_path, text):
    path = tmp_path / "catalog.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, "certify", "--catalog", str(path))
    assert code == 2
    assert out == ""
    assert "record 0" in err


def test_json_catalog_certifies_to_the_csv_catalog_s_bytes(capsys, tmp_path):
    # the bundled moons as a JSON catalog, K null in one record and missing
    # in another: each record is read by column position
    rows = [{"K" if k == "rigidity" else k: v for k, v in body._asdict().items()}
            for body in cat.bundled_catalog("moons")]
    rows[0]["K"] = None
    del rows[1]["K"]
    path = tmp_path / "moons.json"
    path.write_text(json.dumps(rows, indent=1))
    from_json = run_cli(capsys, "certify", "--catalog", str(path), "--format", "json")
    assert from_json == run_cli(capsys, "certify", "--catalog", "moons", "--format", "json")
    assert from_json[0] == 0


def test_json_object_catalog_exit_two(capsys, tmp_path):
    # used to be read as CSV and refused for its header
    path = tmp_path / "catalog.json"
    path.write_text(' {"a": 1}')
    code, out, err = run_cli(capsys, "certify", "--catalog", str(path))
    assert code == 2
    assert out == ""
    assert "JSON catalog must be an array of body objects" in err


def test_orbit_outside_certified_disk_refused(capsys, tmp_path):
    row = tmp_path / "row.csv"
    row.write_text("name,primary,a_km,b_km,c_km,e,p,q\n"
                   "Test,P,100.0,99.9,99.9,0.5,1,1\n")
    code, out, err = run_cli(capsys, "orbit", "Test", "--catalog", str(row))
    assert code == 1
    assert out == ""
    assert "Test not certified at eta=0.0" in err
    assert "outside the Cauchy-estimate disk" in err


def test_certify_outside_certified_disk_refused_by_name(tmp_path):
    # e = 0.5 lies outside the 1:1 disk e < 0.4172: refused, not a traceback
    row = tmp_path / "row.csv"
    row.write_text("name,primary,a_km,b_km,c_km,e,p,q\n"
                   "Moon,Earth,1738.10,1737.70,1736.00,0.0549,1,1\n"
                   "X,Y,100,99.9,99.9,0.5,1,1\n")
    proc = subprocess.run(
        [sys.executable, "-m", "spinorbit.cli", "certify", "--catalog", str(row)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: X: e=0.5 outside the Cauchy-estimate disk")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv", [
    ("certify", "--catalog", "mercury"),
    ("fourier", "0.1"),
    ("orbit", "Moon"),
])
def test_unwritable_out_exit_two(capsys, tmp_path, argv):
    target = str(tmp_path / "missing" / "out.txt")
    code, out, err = run_cli(capsys, *argv, "--out", target)
    assert code == 2
    assert out == ""
    assert target in err


@pytest.mark.parametrize("argv", [
    ("orbit", "Moon", "--format", "csv"),     # orbit always writes JSON
    ("fourier", "0.1", "--catalog", "moons"),  # fourier reads no catalog
    # the truncation order and both tolerances belong to the solver
    ("orbit", "Moon", "--modes", "4"),
    ("orbit", "Moon", "--tol-fixed-point", "1e-12"),
    ("orbit", "Moon", "--tol-bifurcation", "1e-10"),
])
def test_flags_a_subcommand_does_not_read_exit_two(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("name, text", [
    ("catalog.csv", "name,primary,a_km,b_km,c_km,e,p,q,eta\n"
                    "X,Y,1738.1,1737.7,1736.0,0.0549,1,1,0.5\n"),
    ("catalog.json", '[{"name": "X", "primary": "Y", "a_km": 1738.1, "b_km": 1737.7,'
                     ' "c_km": 1736.0, "e": 0.0549, "p": 1, "q": 1, "eta": 0.5}]'),
], ids=["csv-column", "json-key"])
def test_unknown_column_exit_two(capsys, tmp_path, name, text):
    # the eta column used to be dropped and the body certified
    path = tmp_path / name
    path.write_text(text)
    code, out, err = run_cli(capsys, "certify", "--catalog", str(path))
    assert code == 2
    assert out == ""
    assert "eta" in err


def test_case_variant_duplicate_names_exit_two(capsys, tmp_path):
    path = tmp_path / "catalog.csv"
    path.write_text("name,primary,a_km,b_km,c_km,e,p,q\n"
                    "Io,Jupiter,2.0,1.0,1.0,0.1,1,1\nIO,Jupiter,3.0,1.0,1.0,0.1,1,1\n")
    code, out, err = run_cli(capsys, "certify", "--catalog", str(path))
    assert code == 2
    assert out == ""
    assert "'Io'" in err and "'IO'" in err


def test_relative_path_starting_with_bracket(capsys, tmp_path, monkeypatch):
    # a --catalog value is a file name, whatever its first character
    monkeypatch.chdir(tmp_path)
    with open("[old]mercury.csv", "w") as fh:
        fh.write(cat.bundled_catalog_path("mercury").read_text())
    code, out, _ = run_cli(capsys, "certify", "--catalog", "[old]mercury.csv",
                           "--format", "csv")
    assert code == 0
    assert out.splitlines()[1].startswith("Mercury,")
