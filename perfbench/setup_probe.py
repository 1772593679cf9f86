"""Start-up probe, run in a fresh interpreter by ``run.py``.

    PYTHONPATH=src python3 perfbench/setup_probe.py WORKLOAD SEED

Imports the package and the CLI as ``spinorbit`` does on every call, parses
the CLI arguments for the workload's first input and loads that input
through the package.  Prints the ``time.monotonic()`` reading when it is
ready (the clock is system-wide on Linux, so the parent compares it with
its own launch time), the import times, and the time spent generating the
input, which is the benchmark's work rather than the package's.
"""

import time

start = time.monotonic()

import numpy  # noqa: E402,F401

numpy_done = time.monotonic()

import spinorbit  # noqa: E402

package_done = time.monotonic()

import json  # noqa: E402
import sys  # noqa: E402

from spinorbit import cli  # noqa: E402

import inputs  # noqa: E402


def load_first_input(workload, first):
    """Parse the matching CLI arguments and load the input through the package."""
    parser = cli.build_parser()
    if workload == "certify-sweep":
        parser.parse_args(["certify", "--format", "json"])
        spinorbit.load_catalog(first[0])
    elif workload in ("orbit-scan", "rk4-verify"):
        name, selector, eta = first
        parser.parse_args(["orbit", name, "--eta", repr(eta), "--catalog", selector])
        body = next(b for b in spinorbit.bundled_catalog(selector) if b.name == name)
        spinorbit.ResonanceParams.from_body(body, eta=eta)
    else:
        parser.parse_args(["fourier", repr(first), "--format", "json"])


def main(argv):
    workload, seed = argv[0], int(argv[1])
    generate_start = time.monotonic()
    first = inputs.GENERATORS[workload](seed)[0]
    generate_s = time.monotonic() - generate_start
    load_first_input(workload, first)
    print(json.dumps({
        "ready": time.monotonic(),
        "generate_s": generate_s,
        "numpy_s": numpy_done - start,
        "import_s": package_done - start,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
