#!/usr/bin/env python3
"""Benchmark of the spinorbit package: seeded workloads, checked outputs.

    python3 perfbench/run.py --workload orbit-scan --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout; it builds nothing and uses ``src/`` as
it is.  Each run

1. starts a few fresh interpreters that import the package and load the
   workload's first input, for ``setup_s`` and ``cli.import_s``, each
   paired with a fresh interpreter that imports a fixed set of stdlib
   modules, to scale ``setup_s`` to a nominal host speed;
2. starts one worker process that runs the workload as a closed loop with
   one client for ``--seconds`` and checks every output;
3. prints every metric by name with its unit, then, as the last line, one
   JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (spans are written to ``perfbench/out/``).  The
exit code is 0 when every output that was produced passed its checks, 1
when one did not, and 2 when the checkout cannot be benchmarked.
See perfbench/README.md for the workloads and the metrics.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REQUIRED = (SRC / "spinorbit" / "__init__.py", ROOT / "tests" / "data" / "expected_reports.json")
WORKLOADS = ("certify-sweep", "orbit-scan", "rk4-verify", "fourier-table")
SETUP_RUNS = 8          # fresh interpreters per run, half before and half after the worker
TIME_LIMIT = 170.0      # seconds for the whole run
TAIL_BEYOND = 10        # samples that must lie beyond the tail percentile
TAIL_BLOCK = 200        # least requests per block of whole passes for the tail
SMOOTH_HALF_WIDTH = 4   # reference timings on each side in the running median

# start-up work that touches nothing in the package: the host speed of the
# moment is measured as its wall time, and setup_s is scaled to a host on
# which it takes REFERENCE_START_S
REFERENCE_START = "import argparse, csv, dataclasses, fractions, json, numpy"
REFERENCE_START_S = 0.25

# times are in units of the host's speed at the moment: 1 ref-ms is the wall
# time of one call of the workload's reference kernel (worker.py) timed just
# before the request
END_TO_END = {
    "ops_per_ref_s": "1/ref-s",
    "latency_p50_ref_ms": "ref-ms",
    "latency_tail_ref_ms": "ref-ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# per-layer metrics: counts and busy times are per request of the traced run
PER_LAYER = {
    "catalog.load_catalog.busy_s": "s/req",
    "certification.certify.calls": "1/req",
    "certification.certify.busy_s": "s/req",
    "certification.certify.failed": "1/req",
    "potential.alpha_lower_bound.calls": "1/req",
    "potential.alpha_lower_bound.busy_s": "s/req",
    "certification.reports_to_json.busy_s": "s/req",
    "potential.fourier_coefficient.calls": "1/req",
    "potential.fourier_coefficient.busy_s": "s/req",
    "kepler.anomalies.calls": "1/req",
    "kepler.anomalies.nodes": "1/req",
    "kepler.anomalies.busy_s": "s/req",
    "solver.solve_bifurcation.busy_s": "s/req",
    "solver.phase_solves": "1/req",
    "solver.fixed_point_iterations": "1/req",
    "solver.scan_share": "ratio",
    "solver.to_json.busy_s": "s/req",
    "dynamics.integrate.busy_s": "s/req",
    "dynamics.integrate.steps": "1/req",
    "dynamics.orbit_residual.busy_s": "s/req",
    "dynamics.check_resonance.busy_s": "s/req",
    "cli.import_s": "s",
    "catalog.self_s": "s/req",
    "certification.self_s": "s/req",
    "potential.self_s": "s/req",
    "kepler.self_s": "s/req",
    "solver.self_s": "s/req",
    "dynamics.self_s": "s/req",
    "trace.overhead_ops_per_s": "1/s",
}

# per-layer metric -> span name whose calls it counts
CALL_COUNTS = {
    "certification.certify.calls": "certification.certify",
    "potential.alpha_lower_bound.calls": "potential.alpha_lower_bound",
    "potential.fourier_coefficient.calls": "potential.fourier_coefficient",
    "kepler.anomalies.calls": "kepler.anomalies",
    "solver.phase_solves": "solver.phase_solve",
    "solver.fixed_point_iterations": "solver.green_apply",
}
WORK_COUNTS = ("kepler.anomalies.nodes", "dynamics.integrate.steps")
LAYERS = ("catalog", "certification", "potential", "kepler", "solver", "dynamics")


class BenchmarkError(Exception):
    """The checkout cannot be benchmarked or a child process failed."""


def child(args, deadline, name):
    """Run a fresh interpreter with ``args``; return its stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchmarkError(f"no time left to start {name}")
    try:
        # run() kills the child and waits for it when the timeout expires
        done = subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"{name} did not finish within {timeout:.0f} s")
    if done.returncode != 0:
        raise BenchmarkError(f"{name} exited with {done.returncode}:\n{done.stderr[-4000:]}")
    return done.stdout


def script(name, args, deadline):
    """Run a perfbench script in a fresh interpreter; return its last stdout line."""
    out = child([str(HERE / name), *args], deadline, name).strip()
    if not out:
        raise BenchmarkError(f"{name} printed nothing")
    return out.splitlines()[-1]


def measure_setup(workload, seed, deadline, runs, warm_up=False):
    """Start-up samples from ``runs`` fresh interpreters, each after one
    that starts REFERENCE_START; with ``warm_up``, one pair more first that
    only fills the bytecode cache."""
    samples = []
    for run in range(runs + warm_up):
        launched = time.monotonic()
        child(["-c", REFERENCE_START], deadline, "reference start")
        reference_s = time.monotonic() - launched
        launched = time.monotonic()
        probe = json.loads(script("setup_probe.py", [workload, str(seed)], deadline))
        if run or not warm_up:
            samples.append({"setup_wall_s": probe["ready"] - launched - probe["generate_s"],
                            "reference_s": reference_s,
                            "import_s": probe["import_s"],
                            "numpy_s": probe["numpy_s"]})
    return samples


def tail(latencies, pass_size):
    """(value, percentile, block size, blocks): in each block of whole passes
    holding at least TAIL_BLOCK requests, the latency at the highest
    percentile with TAIL_BEYOND samples beyond it, averaged over the blocks.

    Over a whole run that percentile would sit ever further out as the run
    grows, and one host hiccup would set it; fixed blocks keep it at p95-p96.
    """
    size = pass_size * math.ceil(TAIL_BLOCK / pass_size)
    blocks = [latencies[k:k + size] for k in range(0, len(latencies) - size + 1, size)]
    blocks = blocks or [latencies]
    m = len(blocks[0])
    rank = max(1, m - TAIL_BEYOND)
    value = statistics.fmean(sorted(block)[rank - 1] for block in blocks)
    return value, 100.0 * rank / m, m, len(blocks)


def smoothed(values):
    """Running median over SMOOTH_HALF_WIDTH values on each side."""
    h = SMOOTH_HALF_WIDTH
    return [statistics.median(values[max(0, i - h):i + h + 1]) for i in range(len(values))]


def pass_median(latencies, size):
    """Median latency of each pass of ``size`` requests, averaged over the passes."""
    return statistics.fmean(statistics.median(latencies[k:k + size])
                            for k in range(0, len(latencies), size))


def end_to_end(worker, setup):
    """(metrics, notes, wall-clock metrics with their units and notes)."""
    latencies = worker["latencies"]
    size = worker["requests_per_pass"]
    ref_wall = smoothed(worker["references"])  # wall seconds per ref-ms, per request
    relative = [lat / ref for lat, ref in zip(latencies, ref_wall)]  # in ref-ms
    passed = worker["attempted"] - worker["failed"]  # known-defect items count as handled
    tail_value, tail_pct, block, blocks = tail(relative, size)
    metrics = {
        "ops_per_ref_s": passed / (1e-3 * sum(relative)),
        "latency_p50_ref_ms": pass_median(relative, size),
        "latency_tail_ref_ms": tail_value,
        "setup_s": setup["setup_s"],
        "peak_rss_mb": worker["peak_rss_mb"],
    }
    passes = len(latencies) // size
    notes = {
        "ops_per_ref_s": f"items not failed per ref-s of request time, "
                         f"{passes} passes of {worker['items_per_pass']} items",
        "latency_p50_ref_ms": f"median request of each pass, averaged over {passes} passes",
        "latency_tail_ref_ms": f"p{tail_pct:.2f} of each block of {block} requests, "
                               f"{min(TAIL_BEYOND, block - 1)} beyond it, averaged over "
                               f"{blocks} blocks",
        "setup_s": f"median of {SETUP_RUNS} fresh interpreters, {setup['setup_wall_s']:.4f} s "
                   f"wall, scaled by {REFERENCE_START_S} s over the median reference "
                   f"start {setup['reference_s']:.4f} s; import spinorbit "
                   f"{setup['import_s']:.4f} s, numpy {setup['numpy_s']:.4f} s of it",
        "peak_rss_mb": "worker process",
    }
    wall = {
        "ops_per_s": (worker["rate"], "1/s", "items not failed per second"),
        "latency_p50_ms": (1e3 * pass_median(latencies, size), "ms", "as above"),
        "latency_tail_ms": (1e3 * tail(latencies, size)[0], "ms", "as above"),
        "fail_ratio": (worker["failed"] / worker["attempted"], "ratio",
                       f"{worker['failed']} of {worker['attempted']} items"),
        "known_defect_ratio": (worker["defects"] / worker["attempted"], "ratio",
                               f"{worker['defects']} of {worker['attempted']} items: certify "
                               f"raises ValueError outside the certified disk"),
        "ref_ms": (1e3 * statistics.median(worker["references"]), "ms",
                   f"wall time of 1 ref-ms, median of {len(worker['references'])} "
                   f"reference calls"),
    }
    return metrics, notes, wall


def per_layer(worker, setup):
    requests = worker["traced_requests"]
    calls, busy, counts = worker["calls"], worker["busy"], worker["counts"]
    metrics = {}
    for name in PER_LAYER:
        if name.endswith(".busy_s"):
            metrics[name] = busy.get(name[:-len(".busy_s")], 0.0) / requests
    for name, span in CALL_COUNTS.items():
        metrics[name] = calls.get(span, 0) / requests
    for name in WORK_COUNTS:
        metrics[name] = counts.get(name, 0) / requests
    metrics["certification.certify.failed"] = (
        worker["failed_calls"].get("certification.certify", 0) / requests)
    phase_solves = calls.get("solver.phase_solve", 0)
    metrics["solver.scan_share"] = (
        counts.get("solver.scan_solves", 0) / phase_solves if phase_solves else 0.0)
    metrics["cli.import_s"] = setup["import_s"]
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = worker["self_by_layer"].get(layer, 0.0) / requests
    plain, traced = worker["plain_rate"], worker["traced_rate"]
    metrics["trace.overhead_ops_per_s"] = traced - plain
    notes = {
        "trace.overhead_ops_per_s": f"traced {traced:.6g} minus untraced {plain:.6g} "
                                    f"ops_per_s, {worker['passes']} alternating passes each",
        "cli.import_s": f"fresh interpreter, median of {SETUP_RUNS}",
    }
    return {name: metrics[name] for name in PER_LAYER}, notes, {}


def report(args, worker, setup):
    if args.trace:
        metrics, notes, wall = per_layer(worker, setup)
        units = PER_LAYER
    else:
        metrics, notes, wall = end_to_end(worker, setup)
        units = END_TO_END
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:40s} {value:.6g} {units[name]}{note}")
    if wall:
        print("  wall clock, not normalized by host speed:")
    for name, (value, unit, note) in wall.items():
        print(f"  {name:40s} {value:.6g} {unit}  ({note})")
    if args.trace:
        print(f"  {worker['spans']} spans over {worker['traced_requests']} traced requests "
              f"written to {Path(worker['span_file']).relative_to(ROOT)}")
        if worker["unobserved"]:
            print("  not observable from outside (reported as 0): "
                  + ", ".join(worker["unobserved"]))
    else:
        share = setup["setup_wall_s"] / (setup["setup_wall_s"]
                                         + wall["latency_p50_ms"][0] / 1e3)
        print(f"  start-up is {100 * share:.1f}% of setup_s plus one median request; "
              f"the roadmap's '>90% of CLI time is start-up' "
              f"{'holds' if share > 0.9 else 'does not hold'} here")
    for kind, reason, n in worker["reasons"]:
        label = "KNOWN DEFECT" if kind == "defect" else "FAILED"
        print(f"  {label} {n} item(s): {kind}: {reason}", file=sys.stderr)
    return {
        "correct": worker["wrong"] == 0,
        "attempted": worker["attempted"],
        "failed": worker["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT
    missing = [str(p.relative_to(ROOT)) for p in REQUIRED if not p.is_file()]
    if missing:
        print(f"error: not a spinorbit checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    try:
        # probes before and after the worker, so one slow moment of the host
        # does not set the median
        samples = measure_setup(args.workload, args.seed, deadline, SETUP_RUNS // 2,
                                warm_up=True)
        worker = json.loads(script("worker.py", [args.workload, str(args.seed),
                                                 repr(args.seconds), str(args.trace)],
                                   deadline))
        samples += measure_setup(args.workload, args.seed, deadline, SETUP_RUNS // 2)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    setup = {key: statistics.median(sample[key] for sample in samples) for key in samples[0]}
    setup["setup_s"] = setup["setup_wall_s"] * REFERENCE_START_S / setup["reference_s"]
    result = report(args, worker, setup)
    print(json.dumps(result))
    if not result["correct"]:
        print("error: wrong outputs, see FAILED lines above", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
