"""The certificate stays on the standard library: certify never imports numpy.
And the package's records are tuples, but for the three dataclasses the
benchmark rebuilds."""

import dataclasses
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import spinorbit

SRC = str(Path(spinorbit.__file__).resolve().parents[1])


def fresh_interpreter(code, *args, flags=()):
    """Run ``code`` with ``args`` in a new interpreter (started with the
    interpreter ``flags``) that imports this checkout of the package, and
    return what it prints as JSON."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *flags, "-c", code, *args], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path}, check=True)
    return json.loads(proc.stdout)


RUN_CLI = """
import contextlib, io, json, sys
from spinorbit.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps({"code": code, "numpy": "numpy" in sys.modules}))
"""


@pytest.mark.parametrize("argv, code", [
    (["certify", "--catalog", "all", "--format", "csv"], 0),
    (["certify", "--catalog", "all", "--format", "json"], 0),
    (["certify", "--catalog", "all", "--format", "md"], 0),
    (["certify", "--catalog", "minor"], 1),
    (["certify", "--body", "Moon"], 0),
    (["certify", "--body", "Nope"], 2),
], ids=["all-csv", "all-json", "all-md", "minor", "moon", "unknown-body"])
def test_certify_never_imports_numpy(argv, code):
    assert fresh_interpreter(RUN_CLI, *argv) == {"code": code, "numpy": False}


UNUSED_BY_CERTIFY = ("numpy", "importlib.resources", "fractions", "decimal", "typing")


def test_certify_loads_neither_numpy_nor_importlib_resources():
    # -S, because an installed .pth file may import importlib.resources or
    # typing in site
    code = ("import contextlib, io, json, sys; from spinorbit.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = main(['certify', '--catalog', 'all'])\n"
            "print(json.dumps([code, sorted(set(sys.argv[1:]) & set(sys.modules))]))")
    assert fresh_interpreter(code, *UNUSED_BY_CERTIFY, flags=["-S"]) == [0, []]
    for name in ("moons", "mercury", "minor"):
        packaged = Path(resources.files("spinorbit").joinpath(f"data/{name}.csv"))
        assert spinorbit.bundled_catalog_path(name) == packaged


def test_package_and_certificate_modules_never_import_numpy():
    code = ("import json, sys; import spinorbit, spinorbit.certification, spinorbit.series; "
            "print(json.dumps('numpy' in sys.modules))")
    assert fresh_interpreter(code) is False


def test_package_keeps_the_catalog_and_certification_names():
    assert spinorbit.certify is spinorbit.certification.certify
    assert spinorbit.load_catalog is spinorbit.catalog.load_catalog
    assert spinorbit.bundled_catalog is spinorbit.catalog.bundled_catalog
    assert spinorbit.ResonanceParams is spinorbit.catalog.ResonanceParams


# the records perfbench/test_smoke.py rebuilds with dataclasses.replace;
# every other record is a tuple
BENCHMARK_REBUILT_RECORDS = {
    "certification.CertificationReport", "dynamics.Trajectory", "solver.ResonantOrbit"}


def test_only_the_records_the_benchmark_rebuilds_are_dataclasses():
    found = set()
    for info in pkgutil.iter_modules(spinorbit.__path__):
        module = importlib.import_module(f"spinorbit.{info.name}")
        found |= {f"{info.name}.{name}" for name, value in vars(module).items()
                  if isinstance(value, type) and value.__module__ == module.__name__
                  and dataclasses.is_dataclass(value)}
    assert found == BENCHMARK_REBUILT_RECORDS
