"""Seeded inputs for the benchmark workloads, built with the stdlib only.

Nothing here imports spinorbit: the package sees only the inputs these
functions return.  Bundled bodies are read as plain CSV text from the
package's data directory and the frozen eta ceilings come from
``tests/data/expected_reports.json`` (read, never written), so no input
depends on the code under test.  Every draw is stratified over the pool,
so two seeds give pools of the same composition in different orders.
"""

import csv
import json
import math
import random
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DATA_DIR = ROOT / "src" / "spinorbit" / "data"
EXPECTED_REPORTS = ROOT / "tests" / "data" / "expected_reports.json"

CATALOG_HEADER = "name,primary,a_km,b_km,c_km,e,p,q,K"
CATALOG_ROWS = 25
SWEEP_CATALOGS = 40
SWEEP_E_MAX = 0.45        # Mercury's chaotic eccentricity range (Correia & Laskar 2004)
SWEEP_COPY_SHARE = 0.1    # rows copied verbatim from the bundled catalogs
SWEEP_3_2_SHARE = 0.2
SWEEP_LOG10_EPS = (-5.0, -1.0)
ORBIT_REQUESTS = 32       # a quarter Mercury, the rest certified 1:1 bodies
FOURIER_REQUESTS = 64
FOURIER_E_MAX = 0.6


def _strata(rng, n, lo, hi):
    """n draws, one uniform in each of n equal slices of [lo, hi), shuffled."""
    values = [lo + (hi - lo) * (k + rng.random()) / n for k in range(n)]
    rng.shuffle(values)
    return values


def bundled_rows():
    """Rows of the three bundled catalogs as dicts of CSV strings."""
    rows = []
    for name in ("moons", "mercury", "minor"):
        text = (DATA_DIR / f"{name}.csv").read_text(encoding="utf-8")
        lines = [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
        for row in csv.DictReader(lines):
            row["catalog"] = "all" if name != "minor" else "minor"
            rows.append(row)
    return rows


def expected_reports():
    """Frozen reports (mpmath, dps=40) keyed by body name."""
    records = json.loads(EXPECTED_REPORTS.read_text(encoding="utf-8"))
    return {r["name"]: r for r in records}


def _synthetic_line(rng, name, p, q, e, log10_eps):
    # radii chosen so that (3/2)(a^2 - b^2)/(a^2 + b^2) equals eps
    eps = 10.0 ** log10_eps
    b = 10.0 ** rng.uniform(1.0, 3.5)
    a = b * math.sqrt((1.5 + eps) / (1.5 - eps))
    return ",".join([name, "Synthetic", repr(a), repr(b), repr(0.98 * b), repr(e),
                     str(p), str(q), ""])


def certify_sweep(seed):
    """Catalog requests: (csv_text, {row name: frozen report or None})."""
    rng = random.Random(seed)
    total = SWEEP_CATALOGS * CATALOG_ROWS
    bundled = bundled_rows()
    rng.shuffle(bundled)
    expected = expected_reports()

    rows = []  # (line, frozen report or None)
    n_copy = round(SWEEP_COPY_SHARE * total)
    for k in range(n_copy):
        src = bundled[k % len(bundled)]
        line = ",".join([f"{src['name']}~{k}"] + [
            src[c] or "" for c in CATALOG_HEADER.split(",")[1:]])
        rows.append((line, expected[src["name"]]))
    copied_3_2 = sum(1 for k in range(n_copy) if bundled[k % len(bundled)]["q"] == "2")

    n_3_2 = round(SWEEP_3_2_SHARE * total) - copied_3_2
    n_1_1 = total - n_copy - n_3_2
    k = 0
    for (p, q), n in (((1, 1), n_1_1), ((3, 2), n_3_2)):
        for e, log_eps in zip(_strata(rng, n, 0.0, SWEEP_E_MAX),
                              _strata(rng, n, *SWEEP_LOG10_EPS)):
            rows.append((_synthetic_line(rng, f"S{k}", p, q, e, log_eps), None))
            k += 1
    rng.shuffle(rows)

    requests = []
    for start in range(0, total, CATALOG_ROWS):
        chunk = rows[start:start + CATALOG_ROWS]
        text = "\n".join([CATALOG_HEADER] + [line for line, _ in chunk]) + "\n"
        requests.append((text, {line.split(",", 1)[0]: exp for line, exp in chunk}))
    return requests


def _body_mix(rng, n):
    """n certified bundled bodies: a quarter Mercury, the rest 1:1 bodies,
    each 1:1 body at least once when n allows."""
    expected = expected_reports()
    rows = [r for r in bundled_rows() if expected[r["name"]]["certified"]]
    mercury = [r for r in rows if r["q"] == "2"]
    synchronous = [r for r in rows if r["q"] == "1"]
    n_mercury = n // 4
    n_sync = n - n_mercury
    picks = (synchronous * (n_sync // len(synchronous))
             + rng.sample(synchronous, n_sync % len(synchronous)))
    mix = mercury * n_mercury + picks
    rng.shuffle(mix)
    return [(r["name"], r["catalog"], expected[r["name"]]["eta_admissible"]) for r in mix]


def orbit_scan(seed):
    """(body name, bundled catalog, eta) with eta uniform on [0, eta_admissible)."""
    rng = random.Random(seed)
    mix = _body_mix(rng, ORBIT_REQUESTS)
    fractions = _strata(rng, len(mix), 0.0, 1.0)
    return [(name, catalog, u * cap) for (name, catalog, cap), u in zip(mix, fractions)]


def rk4_verify(seed):
    """(body name, bundled catalog, eta = 0)."""
    rng = random.Random(seed)
    return [(name, catalog, 0.0) for name, catalog, _ in _body_mix(rng, ORBIT_REQUESTS)]


def fourier_table(seed):
    """Eccentricities uniform on [0, 0.6)."""
    return _strata(random.Random(seed), FOURIER_REQUESTS, 0.0, FOURIER_E_MAX)


GENERATORS = {
    "certify-sweep": certify_sweep,
    "orbit-scan": orbit_scan,
    "rk4-verify": rk4_verify,
    "fourier-table": fourier_table,
}
