"""One-line mutants of the package, each with the verdict Tier-1 must give it.

    python mutants/run.py

For each mutant, copies the checkout's
``src/``, ``tests/`` and ``pyproject.toml`` into a temporary directory,
makes the one-line change there, and runs ``python -m pytest -x -q tests``
on the copy.  A mutant is "killed" when a test fails and "survives" when
every test passes.  The working tree is never written.  Prints one line per
mutant and exits 1 when any verdict differs from the expected one, or when
a mutant's text is not found exactly once in its file.  A test run that
pytest itself cannot complete (exit 3 or more) raises.

The survivors are listed on purpose: three change only step counts or a
node count that no test can see without a proven bound, and four are
equivalent or inert at the default settings.  A survivor that a new test
kills is a verdict change, so the list has to be updated with the test.
Standard library only; the mutants run one at a time.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

KILLED, SURVIVES = "killed", "survives"

# name: (file under src/spinorbit, the line's text, its mutant, expected verdict)
MUTANTS = {
    "integrate-first-failure": (
        "dynamics.py", "stop = 1 + int(finite.argmin())", "stop = 2 + int(finite.argmin())",
        KILLED),
    "strip-fractions-even-half": (
        "potential.py", "[k / 32.0 for k in range(1, 32)]", "[k / 32.0 for k in range(1, 1)]",
        KILLED),
    "strip-fractions-geometric-half": (
        "potential.py", "for k in range(11, 41)]", "for k in range(11, 11)]", KILLED),
    "strip-cap-64": (
        "potential.py", "if e * math.cosh(64.0) > 1.0 else 64.0",
        "if e * math.cosh(32.0) > 1.0 else 32.0", KILLED),
    "illinois-for-anderson-bjorck": (
        "solver.py", "f_a *= m if m > 0.0 else 0.5", "f_a *= 0.5", KILLED),
    "eps-positive-or-zero": (
        "certification.py", "if not params.eps > 0.0:", "if not params.eps >= 0.0:", KILLED),
    "remainder-overflow-value": (
        "series.py", "        return math.inf", "        return 1e300", KILLED),
    "oblateness-unscaled": (
        "catalog.py", "a, b = math.ldexp(a_km, -k), math.ldexp(b_km, -k)", "a, b = a_km, b_km",
        KILLED),
    "samples-floor": (
        "cli.py", "if not 2 <= args.samples <= 2**20:", "if not 1 <= args.samples <= 2**20:",
        KILLED),
    "jmax-floor": (
        "cli.py", "if args.jmax < 1:", "if args.jmax < 0:", KILLED),
    "alignment-tolerance": (
        "dynamics.py", "if abs(offset * h - period) > 1e-9:", "if abs(offset * h - period) > 1e-3:",
        KILLED),
    "spectrum-cutoff-half": (
        "solver.py", "cutoff = int(math.ceil(2.0 * len(energy) / 3.0))",
        "cutoff = int(math.ceil(len(energy) / 2.0))", KILLED),
    "mean-term-tolerance": (
        "solver.py", "if abs(c[0]) > 1e-12 * max(scale, 1.0):",
        "if abs(c[0]) > 1e-6 * max(scale, 1.0):", KILLED),
    "range-iteration-cap": (
        "solver.py", "_RANGE_ITERATION_CAP = 2000", "_RANGE_ITERATION_CAP = 60", KILLED),
    "kepler-newton-cap": (
        "kepler.py", "_NEWTON_CAP = 60", "_NEWTON_CAP = 8", KILLED),
    "remainder-zero-at-e-zero": (
        "series.py", "    if e == 0.0:", "    if False:", KILLED),
    "halving-trigger": (
        "solver.py", "width > 0.5 * widths[-4]", "width > 0.75 * widths[-4]", KILLED),
    # a wrong node count that only a proven residual bound would see
    "residual-nodes": (
        "dynamics.py", "n = max(512, 2 * orbit.u.order + 2)", "n = max(64, 2 * orbit.u.order + 2)",
        SURVIVES),
    # safeguards that change only step counts
    "stagnation-width": (
        "solver.py", "if width < 1e-15:", "if width < 1e-12:", SURVIVES),
    "kepler-bisection-cap": (
        "kepler.py", "_ITERATION_CAP = 200", "_ITERATION_CAP = 100", SURVIVES),
    # equivalent, or inert at the defaults
    "geometry-cache-unbounded": (
        "potential.py", "@functools.lru_cache(maxsize=1)", "@functools.lru_cache(maxsize=None)",
        SURVIVES),
    "halfwidth-negative": (
        "certification.py", "if halfwidth <= 0.0 or eps_hat <= 0.0:",
        "if halfwidth < 0.0 or eps_hat <= 0.0:", SURVIVES),
    "inf-as-str": (
        "certification.py", "return repr(value) if isinstance(value, float)",
        "return str(value) if isinstance(value, float)", SURVIVES),
    "collocation-minimum": (
        "solver.py", "_COLLOCATION_MIN = 256", "_COLLOCATION_MIN = 192", SURVIVES),
}


def mutate(source: str, old: str, new: str) -> str:
    """``source`` with the one line holding ``old`` changed to hold ``new``."""
    if source.count(old) != 1:
        raise ValueError(f"{old!r} occurs {source.count(old)} times, not once")
    mutant = source.replace(old, new)
    compile(mutant, "<mutant>", "exec")  # a mutant must still be Python
    return mutant


def verdict(name: str) -> str:
    """Run Tier-1 on a temporary copy of the checkout with mutant ``name``."""
    file, old, new, _ = MUTANTS[name]
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", copy)
        target = copy / "src" / "spinorbit" / file
        target.write_text(mutate(target.read_text(), old, new))
        env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        run = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                              "tests"], cwd=copy, env=env, capture_output=True, text=True)
    # 1: a test failed; 2: collection stopped on an error
    if run.returncode not in (0, 1, 2):
        raise RuntimeError(f"{name}: pytest exited {run.returncode}\n{run.stdout}{run.stderr}")
    return KILLED if run.returncode else SURVIVES


def main() -> int:
    wrong = 0
    for name in MUTANTS:
        expected = MUTANTS[name][3]
        try:
            got = verdict(name)
        except ValueError as exc:
            got = f"not applied: {exc}"
        ok = got == expected
        wrong += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {got} (expected {expected})", flush=True)
    print(f"{len(MUTANTS) - wrong} of {len(MUTANTS)} verdicts as expected")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
