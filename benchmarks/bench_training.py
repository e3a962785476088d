"""Training-throughput benchmark: serial vs worker-pool gradient engine.

Measures epoch wall-clock and samples/sec of the training loop on the
benchmark cities, in several configurations:

* ``serial`` — this tree's single-process loop (tape-ordered backward,
  persistent grad buffers, fused Adam, dataset window cache);
* ``workers=N`` for each N in ``--workers-sweep`` — the fork-based
  :class:`GradientWorkerPool` splitting each batch across N processes,
  over persistent shared-memory arenas (``--transport`` accepts ``auto``
  and ``shm``, which select the same transport);
* ``seed baseline`` (optional, ``--baseline-ref``) — the serial loop of
  a previous commit, run from a temporary ``git worktree`` so the two
  trees are measured by the same harness on the same data.

Every measurement runs in a fresh subprocess (cold caches, no
cross-contamination between modes), drives ``Trainer._run_epoch``
directly under the trainer's float64 pin, and reports the per-epoch
training losses so the parent can assert serial/parallel parity
(< 1e-9, the guarantee documented in ``core/parallel.py``). Worker
configurations also report the pool's per-phase breakdown
(serialize / compute-wait / reduce seconds per epoch), which is where
a transport's overhead is visible regardless of core count.

Results go to ``BENCH_training.json`` at the repo root, including both
``cpu_count`` and ``affinity_cpus`` (``len(os.sched_getaffinity(0))``)
— process parallelism cannot beat serial on a single-core or
single-affinity container, so speedups must be read against the
recorded core counts.

Usage::

    PYTHONPATH=src python benchmarks/bench_training.py              # full run
    PYTHONPATH=src python benchmarks/bench_training.py --smoke      # CI gate
    PYTHONPATH=src python benchmarks/bench_training.py --smoke --transport=shm
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULTS_PATH = REPO_ROOT / "BENCH_training.json"
PARITY_TOLERANCE = 1e-9
_CHILD_MARKER = "RESULT_JSON:"

try:
    import repro  # noqa: F401  (resolves via PYTHONPATH when set)
except ImportError:  # pragma: no cover - direct invocation convenience
    sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402


# ----------------------------------------------------------------------
# Child mode: one measurement in one process
# ----------------------------------------------------------------------
def _get_dataset(city: str):
    if city == "tiny":
        from repro import SyntheticCityConfig, generate_city

        return generate_city(SyntheticCityConfig.tiny(days=8, num_stations=6), seed=7)
    if city == "chicago_571":
        # The paper-scale city (571 Divvy stations), matching
        # benchmarks/bench_scale.py's generation exactly.
        from repro import SyntheticCityConfig, generate_city

        return generate_city(SyntheticCityConfig.chicago_571(days=6), seed=2022)
    from _harness import get_dataset

    return get_dataset(city)


def _build_trainer(dataset, batch_size: int, workers: int, transport: str):
    from _harness import BENCH_SEED, STGNN_SELECTED
    from repro import STGNNDJD, Trainer, TrainingConfig

    model = STGNNDJD.from_dataset(dataset, seed=BENCH_SEED, **STGNN_SELECTED)
    kwargs = dict(epochs=1, batch_size=batch_size, seed=BENCH_SEED)
    try:
        config = TrainingConfig(workers=workers, transport=transport, **kwargs)
    except TypeError:
        # Older tree: TrainingConfig predates the transport (or even the
        # workers) field. Baselines only run serially, so that's fine.
        try:
            config = TrainingConfig(workers=workers, **kwargs)
        except TypeError:
            if workers:
                raise
            config = TrainingConfig(**kwargs)
    return Trainer(model, dataset, config)


def _run_child(city: str, workers: int, epochs: int, warmup: int,
               batch_size: int, transport: str) -> None:
    """Measure one (city, workers, transport) config; print a JSON line."""
    from repro import backend

    dataset = _get_dataset(city)
    trainer = _build_trainer(dataset, batch_size, workers, transport)
    train_idx, _, _ = dataset.split_indices()

    pool = None
    if workers:
        from repro.core.parallel import GradientWorkerPool

        try:
            pool = GradientWorkerPool.create(trainer, workers,
                                             transport=transport)
        except TypeError:  # older tree without the transport kwarg
            pool = GradientWorkerPool.create(trainer, workers)

    def run_epoch() -> float:
        if pool is not None:
            return trainer._run_epoch(train_idx, pool)
        return trainer._run_epoch(train_idx)

    try:
        # Same float64 pin as Trainer.fit; epochs timed without the
        # validation pass so the number is pure training throughput.
        with backend.dtype_scope(np.float64):
            for _ in range(warmup):
                run_epoch()
            phase_base = dict(pool.phase_seconds) if pool is not None else None
            start = time.perf_counter()
            losses = [run_epoch() for _ in range(epochs)]
            elapsed = time.perf_counter() - start
            phases = None
            if pool is not None and phase_base is not None:
                phases = {
                    key: (pool.phase_seconds[key] - phase_base[key]) / epochs
                    for key in phase_base
                }
            # Untimed profiled pass: the epoch's op dispatches (per-op
            # seconds/bytes, fused coverage) for the run report. Skipped
            # under the pool — the profiler only sees this process.
            profile_dict = None
            if pool is None:
                from _harness import op_profile

                _, profile_dict = op_profile(run_epoch)
    finally:
        if pool is not None:
            pool.close()

    result = {
        "train_samples": int(len(train_idx)),
        "epochs": epochs,
        "epoch_seconds": elapsed / epochs,
        "samples_per_sec": len(train_idx) * epochs / elapsed,
        "train_loss": losses,
        "pool_active": pool is not None,
        "transport": getattr(pool, "transport", None),
        "phase_seconds_per_epoch": phases,
        "op_profile": profile_dict,
    }
    print(_CHILD_MARKER + json.dumps(result), flush=True)


# ----------------------------------------------------------------------
# Parent mode: orchestrate subprocesses, compare, persist
# ----------------------------------------------------------------------
def _measure(
    city: str,
    workers: int,
    epochs: int,
    warmup: int,
    batch_size: int,
    transport: str = "auto",
    pythonpath: str | None = None,
) -> dict:
    cmd = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--_child",
        f"--city={city}",
        f"--workers={workers}",
        f"--epochs={epochs}",
        f"--warmup={warmup}",
        f"--batch-size={batch_size}",
        f"--transport={transport}",
    ]
    env = dict(os.environ)
    if pythonpath is not None:
        env["PYTHONPATH"] = pythonpath
    proc = subprocess.run(
        cmd, capture_output=True, text=True, env=env, cwd=str(REPO_ROOT)
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"measurement failed ({city}, workers={workers}):\n{proc.stderr}"
        )
    for line in proc.stdout.splitlines():
        if line.startswith(_CHILD_MARKER):
            return json.loads(line[len(_CHILD_MARKER):])
    raise RuntimeError(f"no result marker in child output:\n{proc.stdout}")


def _baseline_pythonpath(ref: str, stack: list) -> tuple[str, str]:
    """Check ``ref`` out into a temp worktree; return (src path, sha)."""
    sha = subprocess.run(
        ["git", "rev-parse", ref],
        capture_output=True, text=True, check=True, cwd=str(REPO_ROOT),
    ).stdout.strip()
    tmp = tempfile.mkdtemp(prefix="bench-seed-")
    worktree = Path(tmp) / "seed"
    subprocess.run(
        ["git", "worktree", "add", "--detach", str(worktree), sha],
        capture_output=True, text=True, check=True, cwd=str(REPO_ROOT),
    )

    def cleanup() -> None:
        subprocess.run(
            ["git", "worktree", "remove", "--force", str(worktree)],
            capture_output=True, cwd=str(REPO_ROOT),
        )

    stack.append(cleanup)
    return str(worktree / "src"), sha


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="CI gate: 1 tiny epoch, serial + 2 workers, no baseline")
    parser.add_argument("--workers-sweep", default="1,2,4",
                        help="comma-separated worker counts to measure")
    parser.add_argument("--transport", default="auto",
                        choices=("auto", "shm"),
                        help="gradient transport for the worker configurations")
    parser.add_argument("--epochs", type=int, default=3,
                        help="timed epochs per configuration")
    parser.add_argument("--warmup", type=int, default=1,
                        help="untimed warmup epochs per configuration")
    parser.add_argument("--batch-size", type=int, default=32)
    parser.add_argument("--baseline-ref", default="HEAD",
                        help="git ref measured as the seed baseline "
                             "('' disables the baseline run)")
    parser.add_argument("--output", type=Path, default=RESULTS_PATH)
    parser.add_argument("--city", action="append", dest="cities",
                        help="benchmark city (repeatable; default: "
                             "Chicago, Los Angeles, chicago_571)")
    parser.add_argument("--_child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workers", type=int, default=0, help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args._child:
        _run_child(args.cities[0], args.workers, args.epochs, args.warmup,
                   args.batch_size, args.transport)
        return 0

    if args.smoke:
        cities = ["tiny"]
        args.epochs, args.warmup, args.batch_size = 1, 0, 8
        sweep = [2]
        args.baseline_ref = ""
    else:
        cities = args.cities or ["Chicago", "Los Angeles", "chicago_571"]
        sweep = [int(w) for w in args.workers_sweep.split(",") if w.strip()]

    cleanups: list = []
    baseline_src = baseline_sha = None
    if args.baseline_ref:
        try:
            baseline_src, baseline_sha = _baseline_pythonpath(
                args.baseline_ref, cleanups
            )
        except subprocess.CalledProcessError as exc:
            print(f"baseline unavailable ({exc.stderr.strip()}); skipping",
                  file=sys.stderr)

    affinity = (
        len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    )
    results = {
        "smoke": args.smoke,
        "cpu_count": os.cpu_count(),
        "affinity_cpus": affinity,
        "transport": args.transport,
        "workers_sweep": sweep,
        "epochs": args.epochs,
        "batch_size": args.batch_size,
        "baseline_ref": baseline_sha,
        "parity_tolerance": PARITY_TOLERANCE,
        "cities": {},
    }
    failures = []
    try:
        for city in cities:
            print(f"== {city}: serial ==", flush=True)
            serial = _measure(city, 0, args.epochs, args.warmup, args.batch_size)
            print(f"   {serial['samples_per_sec']:.1f} samples/s, "
                  f"{serial['epoch_seconds']:.2f} s/epoch")
            entry = {"serial": serial, "speedup_vs_serial": {},
                     "parity_max_abs_diff": 0.0}

            for workers in sweep:
                print(f"== {city}: workers={workers} "
                      f"(transport={args.transport}) ==", flush=True)
                parallel = _measure(city, workers, args.epochs, args.warmup,
                                    args.batch_size, transport=args.transport)
                speedup = serial["epoch_seconds"] / parallel["epoch_seconds"]
                print(f"   {parallel['samples_per_sec']:.1f} samples/s, "
                      f"{parallel['epoch_seconds']:.2f} s/epoch "
                      f"({speedup:.2f}x serial, "
                      f"transport={parallel['transport']})")
                if parallel.get("phase_seconds_per_epoch"):
                    phases = parallel["phase_seconds_per_epoch"]
                    print("   phases/epoch: " + ", ".join(
                        f"{key}={value:.3f}s" for key, value in phases.items()
                    ))

                parity = max(
                    abs(a - b)
                    for a, b in zip(serial["train_loss"], parallel["train_loss"])
                )
                entry[f"workers{workers}"] = parallel
                entry["speedup_vs_serial"][str(workers)] = speedup
                entry["parity_max_abs_diff"] = max(
                    entry["parity_max_abs_diff"], parity
                )
                if parallel["pool_active"] and parity >= PARITY_TOLERANCE:
                    failures.append(
                        f"{city} workers={workers}: serial/parallel loss "
                        f"divergence {parity:.3e} >= {PARITY_TOLERANCE}"
                    )
                print(f"   parity: max |Δloss| = {parity:.3e}")

            if baseline_src is not None:
                print(f"== {city}: seed baseline ({baseline_sha[:12]}) ==",
                      flush=True)
                baseline = _measure(city, 0, args.epochs, args.warmup,
                                    args.batch_size, pythonpath=baseline_src)
                entry["seed_baseline"] = baseline
                entry["speedup_serial_vs_seed"] = (
                    baseline["epoch_seconds"] / serial["epoch_seconds"]
                )
                print(f"   {baseline['samples_per_sec']:.1f} samples/s; "
                      f"serial speedup vs seed: "
                      f"{entry['speedup_serial_vs_seed']:.2f}x")
            results["cities"][city] = entry
    finally:
        for cleanup in cleanups:
            cleanup()

    args.output.write_text(json.dumps(results, indent=2) + "\n")
    print(f"\nwrote {args.output}")
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
