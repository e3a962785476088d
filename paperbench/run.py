"""Paper-scale benchmark of the STGNN-DJD reproduction: training, prediction, ingest.

Usage (from the repository root)::

    python3 paperbench/run.py --workload train_571 --seed 1 --seconds 15 --trace 0

Workloads (see ``workloads.py`` for why each exists and which layers it
loads or bypasses): ``train_571``, ``train_40``, ``predict_571`` and
``ingest_fleet``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` wraps the library's
layer entry points (``tracer.py``) and reports per-layer metrics
instead. Before any metric the run passes a self-check of its
measurement primitives and its workload's correctness gates; a failure
in either prints ``"correct": false`` and no metrics. The line before
the result is the environment fingerprint, and a traced run writes its
spans to ``paperbench/out/trace-<workload>-<seed>.jsonl``.

Timings are calibrated to a reference host speed. This benchmark's
host shares its CPUs with other machines and its speed drifts by a
third within minutes and by half within an hour, which no length of
run averages away. So a probe process (``probe.py``: a fixed
interpreter loop every 50 ms, never calling the system under test)
runs beside the whole run on the system's CPU, and the run reports each
time divided by the probe's slowdown against its nominal speed
(``measure.HostProbe``, which records why the program's own load does
not move it), and each rate multiplied by it. The uncalibrated numbers
and the probe are on the ``details`` line.

The system under test is built from ``src/`` of the checkout this file
sits in; without it the run exits with status 2 and prints no result.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy is imported anywhere: with two
# OpenBLAS threads the first ~14 forwards run several times slower, so
# what a short run measures would depend on luck. The system-under-test
# child inherits the environment.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"
os.environ["MKL_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Every run must end well inside the 180 s a run is allowed.
RUN_DEADLINE_SECONDS = 170


def _deadline(signum, frame):
    raise TimeoutError(f"run exceeded {RUN_DEADLINE_SECONDS} s")


def _terminated(signum, frame):
    raise SystemExit(128 + signum)  # unwind, so the child is torn down


def main() -> int:
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"no system under test: {os.path.join(ROOT, 'src', 'repro')} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))

    from measure import HostProbe, fingerprint, self_check

    signal.signal(signal.SIGALRM, _deadline)
    signal.signal(signal.SIGTERM, _terminated)
    signal.alarm(RUN_DEADLINE_SECONDS)
    failures = self_check()
    print("env " + json.dumps(fingerprint(args.workload, args.seed)), flush=True)
    if failures:
        print("self-check failed: " + "; ".join(failures), file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 0
    # Seeds feed numpy generators and model initialisers, which take
    # non-negative values below 2**32.
    seed = args.seed % 2**31
    try:
        with HostProbe() as host:
            outcome = WORKLOADS[args.workload](seed, args.seconds, bool(args.trace), host)
    except Exception:  # a crashed or wedged system under test is an incorrect run
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 0
    finally:
        signal.alarm(0)

    slowdown = host.slowdown
    print("details " + json.dumps({"gates": outcome.gates, "raw": outcome.metrics,
                                   "probe": host.result, "host_slowdown": slowdown,
                                   **outcome.details}), flush=True)
    if not outcome.correct:
        failed_gates = [name for name, ok in outcome.gates.items() if not ok]
        print("correctness gates failed: " + ", ".join(failed_gates), file=sys.stderr)
        metrics = {}
    elif args.trace:
        units = _units("per_layer")
        metrics = {name: {"value": outcome.layers[name], "unit": units[name]} for name in units}
    else:
        units = _units("end_to_end")
        metrics = {name: {"value": _calibrated(outcome.metrics[name], unit, slowdown),
                          "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": outcome.correct, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0


def _calibrated(value: float, unit: str, slowdown: float) -> float:
    """A time at the reference host speed (rates scale the other way)."""
    if unit in ("s", "ms"):
        return value / slowdown
    if unit == "1/s":
        return value * slowdown
    return value


def _units(kind: str) -> dict[str, str]:
    """Metric name -> unit, from BENCHMARK.json (the single list of metrics)."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[kind]}


if __name__ == "__main__":
    sys.exit(main())
