"""Measurement process: runs one workload as a closed loop with one client.

    PYTHONPATH=src python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE

Prints one JSON object with the raw measurements; ``run.py`` starts it in
a fresh interpreter and turns them into metrics.  The seeded pool of
requests is run in whole passes until SECONDS have elapsed, each request
timed on its own and checked outside the timed region.  Before each request
the worker also times the workload's reference kernel, so ``run.py`` can
express latencies in units of the host's speed at that moment.  With TRACE = 1
untraced and traced passes alternate, so both see the same host speed.
"""

import dataclasses
import json
import resource
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import numpy as np

import spans
import workloads

OUT_DIR = Path(__file__).resolve().parent / "out"
WARMUP_SECONDS = 1.0
_REFERENCE_GRID = np.linspace(0.0, 6.0, 4096)


def reference_kernel():
    """Fixed work that touches nothing in the package: exact rational
    arithmetic in the interpreter and a numpy FFT, the two kinds of work the
    workloads do.  One call defines the unit 1 ref-ms.  Shared hosts change
    speed by up to 2x within minutes, and this kernel slows with them."""
    acc = Fraction(0)
    for k in range(30):
        acc = acc * Fraction(3, 7) + Fraction(k, 11)
    total = 0.0
    for _ in range(2):
        total += float(np.abs(np.fft.rfft(np.sin(3.0 * _REFERENCE_GRID))).sum())
    return acc, total


def elementwise_kernel():
    """Fixed numpy work on 4096-element arrays, touching nothing in the
    package: Newton steps of a Kepler equation and a complex power, the kind
    of work fourier-table does.  When the host changed speed by 2x, the
    ratio of fourier-table's request time to this kernel's stayed within 9%,
    to reference_kernel's it moved by 20%."""
    x = _REFERENCE_GRID.copy()
    for _ in range(4):
        x = x - (x - 0.3 * np.sin(x) - _REFERENCE_GRID) / (1.0 - 0.3 * np.cos(x))
    z = np.sin(0.5 * x) - 1j * np.cos(0.5 * x)
    return float(np.abs(z**4 / (1.0 - 0.3 * np.cos(x)) ** 3).sum())


# the kernel that defines 1 ref-ms, per workload
REFERENCE_KERNELS = {"fourier-table": elementwise_kernel}


class Tally:
    """Items attempted, failed and hit by the known defect, with the reason
    for each."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.defects = 0
        self.reasons = Counter()  # (kind, reason) -> items

    def add(self, outcomes):
        self.attempted += len(outcomes)
        for outcome in outcomes:
            if outcome is not None:
                if workloads.is_failure(outcome):
                    self.failed += 1
                else:
                    self.defects += 1
                self.reasons[outcome] += 1

    @property
    def wrong(self):
        return sum(n for (kind, _), n in self.reasons.items() if kind == "wrong")


def run_request(workload, api, request):
    """(seconds, outcomes) of one request; checks run after the clock stops."""
    start = perf_counter()
    try:
        output = workload.run(api, request)
    except Exception as exc:  # a failed request is counted, not fatal
        seconds = perf_counter() - start
        return seconds, [workloads.error_outcome(exc)] * workload.items(request)
    seconds = perf_counter() - start
    return seconds, workload.check(request, output)


def run_pass(workload, api, requests, tally, latencies, references=None,
             before_request=None, reference=reference_kernel):
    """One pass over the pool; returns (items not failed, busy seconds).  With a
    ``references`` list, times ``reference`` before each request."""
    busy = 0.0
    passed = 0
    for index, request in enumerate(requests):
        if references is not None:
            start = perf_counter()
            reference()
            references.append(perf_counter() - start)
        if before_request is not None:
            before_request(index)
        seconds, outcomes = run_request(workload, api, request)
        tally.add(outcomes)
        latencies.append(seconds)
        busy += seconds
        passed += sum(not workloads.is_failure(o) for o in outcomes)
    return passed, busy


def warm_up(workload, api, requests):
    """Run requests untimed until caches and lazy set-up have settled."""
    end = perf_counter() + WARMUP_SECONDS
    for request in requests:
        run_request(workload, api, request)
        if perf_counter() >= end:
            break


def measure(workload, requests, seconds, reference):
    api = workloads.plain_api()
    warm_up(workload, api, requests)
    tally, latencies, references = Tally(), [], []
    total_passed = total_busy = 0.0
    end = perf_counter() + seconds
    while not latencies or perf_counter() < end:
        passed, busy = run_pass(workload, api, requests, tally, latencies, references,
                                reference=reference)
        total_passed, total_busy = total_passed + passed, total_busy + busy
    return {"rate": total_passed / total_busy, "latencies": latencies,
            "references": references, **_tally_fields(tally)}


def measure_traced(workload, requests, seconds, span_file):
    tracer = spans.Tracer()
    plain, traced = workloads.plain_api(), workloads.traced_api(tracer)
    request_span = tracer.wrap("bench.request", workload.run)
    traced_workload = dataclasses.replace(workload, run=request_span)
    warm_up(workload, plain, requests)
    tally = Tally()
    plain_passed = plain_busy = traced_passed = traced_busy = 0.0
    passes = 0

    def number_request(index):
        tracer.request_id = passes * len(requests) + index

    end = perf_counter() + seconds
    while not passes or perf_counter() < end:
        passed, busy = run_pass(workload, plain, requests, tally, [])
        plain_passed, plain_busy = plain_passed + passed, plain_busy + busy
        with tracer.hooked(workloads.HOOKS):
            passed, busy = run_pass(traced_workload, traced, requests, tally, [],
                                    before_request=number_request)
        traced_passed, traced_busy = traced_passed + passed, traced_busy + busy
        passes += 1
    tracer.write_spans(span_file)
    return {
        "plain_rate": plain_passed / plain_busy,
        "traced_rate": traced_passed / traced_busy,
        "passes": passes,
        "traced_requests": passes * len(requests),
        "calls": dict(tracer.calls),
        "failed_calls": dict(tracer.failed),
        "busy": dict(tracer.busy),
        "self_by_layer": dict(tracer.self_time_by_layer()),
        "counts": dict(tracer.counts),
        "unobserved": tracer.unobserved,
        "spans": len(tracer.spans),
        "span_file": str(span_file),
        **_tally_fields(tally),
    }


def _tally_fields(tally):
    return {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "defects": tally.defects,
        "wrong": tally.wrong,
        "reasons": [[kind, reason, n] for (kind, reason), n in tally.reasons.most_common()],
    }


def main(argv):
    name, seed, seconds, trace = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1"
    workload = workloads.WORKLOADS[name]
    requests = workloads.requests_for(name, seed)
    if trace:
        span_file = OUT_DIR / f"spans-{name}-seed{seed}.csv"
        result = measure_traced(workload, requests, seconds, span_file)
    else:
        result = measure(workload, requests, seconds,
                         REFERENCE_KERNELS.get(name, reference_kernel))
    result["requests_per_pass"] = len(requests)
    result["items_per_pass"] = sum(workload.items(r) for r in requests)
    # ru_maxrss is in KiB on Linux
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
