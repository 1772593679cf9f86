"""Exit-code contract, output formats and determinism of the command line."""

import json
import subprocess
import sys

import pytest

from spinorbit import catalog as cat
from spinorbit import potential, solver
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


def test_fourier_mercury_cross_check(capsys):
    code, out, _ = run_cli(capsys, "fourier", "0.2056", "--jmax", "3", "--format", "json")
    assert code == 0
    row3 = json.loads(out)[2]
    assert row3["within_bound"] is True
    assert abs(row3["alpha_quadrature"] - row3["alpha_series"]) <= row3["remainder_bound"]


def test_fourier_unresolved_quadrature_refused(capsys):
    # 64 nodes do not resolve alpha_j at e = 0.95: refused, not a traceback
    code, out, err = run_cli(capsys, "fourier", "0.95", "--nquad", "64")
    assert code == 1
    assert out == ""
    assert "--nquad" in err and "n_quad=64" in err


def test_fourier_round_off_floor_not_sent_to_more_nodes(capsys):
    # at e = 0.9999 the doubled-node gap is rounding at every n_quad: the
    # refusal says so instead of asking for more nodes
    code, out, err = run_cli(capsys, "fourier", "0.9999", "--jmax", "1", "--nquad", "65536")
    assert code == 1
    assert out == ""
    assert "round-off floor" in err
    assert "raise --nquad" not in err


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
    assert payload["resonance_identity_residual"] <= 1e-9
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


def test_orbit_writes_file(capsys, tmp_path):
    out_file = tmp_path / "orbit.json"
    code, out, _ = run_cli(capsys, "orbit", "Moon", "--out", str(out_file))
    assert code == 0
    assert out == ""
    assert json.loads(out_file.read_text())["q"] == 1


def test_invalid_flag_values_exit_two(capsys):
    assert run_cli(capsys, "fourier", "0.1", "--nquad", "63")[0] == 2
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
], ids=["fractional-p-q", "non-object-record", "null-field"])
def test_malformed_json_catalog_exit_two(capsys, tmp_path, text):
    path = tmp_path / "catalog.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, "certify", "--catalog", str(path))
    assert code == 2
    assert out == ""
    assert "record 0" in err


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
