"""Smoke tests of the benchmark itself.

    python3 -m pytest perfbench -q

They run every workload for one second in both modes, check that every
metric prints by name with its unit and matches BENCHMARK.json, and check
that a deliberately wrong output is counted as a failure.
"""

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WALL_CLOCK = {"ops_per_s": "1/s", "latency_p50_ms": "ms", "latency_tail_ms": "ms",
              "fail_ratio": "ratio", "known_defect_ratio": "ratio", "ref_ms": "ms"}


def test_metric_lists_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_prints(workload, trace):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    printed = dict(expected) if trace else {**expected, **WALL_CLOCK}
    for name, unit in printed.items():
        assert any(line.split()[:1] == [name] and f" {unit}" in line for line in lines), name
    assert result["failed"] == 0
    if not trace:
        defects = next(float(line.split()[1]) for line in lines
                       if line.split()[:1] == ["known_defect_ratio"])
        # out-of-disk rows raise from remainder_bound: counted apart, not hidden
        assert (defects > 0) == (workload == "certify-sweep")


def _corrupt_certify(api):
    def certify(body):
        report = workloads.ENTRY_POINTS["certify"][1](body)
        return dataclasses.replace(report, eta_admissible=report.eta_admissible * 1.5)
    api.certify = certify


def _corrupt_orbit(api):
    def solve_bifurcation(params, **kwargs):
        orbit = workloads.ENTRY_POINTS["solve_bifurcation"][1](params, **kwargs)
        return dataclasses.replace(orbit, xi_star=orbit.xi_star + 1e-3)
    api.solve_bifurcation = solve_bifurcation


def _corrupt_integrate(api):
    def integrate(initial, t_end, params):
        traj = workloads.ENTRY_POINTS["integrate"][1](initial, t_end, params)
        return dataclasses.replace(traj, x=traj.x + 1e-3 * traj.t)
    api.integrate = integrate


def _corrupt_fourier(api):
    def fourier_coefficient(e, j, n_quad):
        return workloads.ENTRY_POINTS["fourier_coefficient"][1](e, j, n_quad) + 1e-3
    api.fourier_coefficient = fourier_coefficient


def test_only_out_of_disk_errors_count_as_the_known_defect():
    def remainder_bound(body):
        raise ValueError("raised for every row")

    def certify(body):
        remainder_bound(body)

    w = workloads.WORKLOADS["certify-sweep"]
    requests = workloads.requests_for("certify-sweep", 7)[:8]
    api = workloads.plain_api()
    api.certify = certify
    tally = worker.Tally()
    worker.run_pass(w, api, requests, tally, [])
    bodies = [b for text, _ in requests for b in workloads.catalog.load_catalog(text)]
    outside = sum(b.e >= workloads.canonical_disk(2 * b.p // b.q) for b in bodies)
    assert 0 < outside < len(bodies)
    assert tally.defects == outside
    assert tally.failed == len(bodies) - outside


@pytest.mark.parametrize("workload, corrupt", [
    ("certify-sweep", _corrupt_certify),
    ("orbit-scan", _corrupt_orbit),
    ("rk4-verify", _corrupt_integrate),
    ("fourier-table", _corrupt_fourier),
])
def test_wrong_output_counts_as_failure(workload, corrupt):
    w = workloads.WORKLOADS[workload]
    requests = workloads.requests_for(workload, 7)[:4]
    api = workloads.plain_api()
    corrupt(api)
    tally = worker.Tally()
    worker.run_pass(w, api, requests, tally, [])
    assert tally.wrong > 0
    assert tally.failed >= tally.wrong


def test_refuses_a_directory_without_the_package(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "orbit-scan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert done.returncode != 0
    assert done.stdout == ""
