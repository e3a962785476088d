"""Measurement primitives: percentiles, tree PSS, warm-up, fingerprint, teardown.

Each primitive is small and tested on its own (``test_measure.py``);
:func:`self_check` runs the essential properties again at the start of
every benchmark run, so a run on a machine where one of them breaks (no
``/proc``, a clock that stands still) reports itself as incorrect
instead of printing numbers.
"""

from __future__ import annotations

import ctypes
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time

# A quantile is reported only when at least this many samples lie
# beyond its nearest rank; below that the tail is one or two requests.
MIN_BEYOND = 10


class InsufficientSample(ValueError):
    """The sample is too small to support the requested quantile."""


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank ``q``-quantile, refused without ``MIN_BEYOND`` samples past it.

    A failed operation enters ``samples`` as ``math.inf``: it sorts last,
    so it misses every latency limit instead of vanishing from the tail.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must be in (0, 1), got {q}")
    n = len(samples)
    rank = max(1, math.ceil(q * n))
    if n - rank < MIN_BEYOND:
        raise InsufficientSample(
            f"{n} samples leave {n - rank} beyond the {q:.0%} rank; "
            f"need {MIN_BEYOND}"
        )
    return sorted(samples)[rank - 1]


def latencies_with_failures(latencies: list[float], failed: int) -> list[float]:
    """The latency sample with each failed operation entered as ``inf``."""
    return list(latencies) + [math.inf] * failed


# ----------------------------------------------------------------------
# Memory: proportional set size over a process tree
# ----------------------------------------------------------------------
def _ppid(pid: int) -> int | None:
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            stat = handle.read()
    except OSError:
        return None
    # The command name may hold spaces and parentheses: split after the last ')'.
    return int(stat[stat.rindex(b")") + 2:].split()[1])


def process_tree(root: int) -> list[int]:
    """``root`` and every live descendant, from one scan of ``/proc``."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            parent = _ppid(int(entry))
            if parent is not None:
                children.setdefault(parent, []).append(int(entry))
    tree, frontier = [], [root]
    while frontier:
        pid = frontier.pop()
        tree.append(pid)
        frontier.extend(children.get(pid, ()))
    return tree


def pss_kib(pid: int) -> int:
    """Proportional set size of one process in KiB (0 once it has exited)."""
    try:
        with open(f"/proc/{pid}/smaps_rollup") as handle:
            for line in handle:
                if line.startswith("Pss:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def tree_pss_mib(root: int) -> float:
    """PSS summed over ``root``'s process tree, in MiB.

    PSS charges each shared page to its sharers in equal parts, so the
    sum over a tree counts copy-on-write pages inherited by forked
    gradient workers once, not once per worker as RSS would.
    """
    return sum(pss_kib(pid) for pid in process_tree(root)) / 1024.0


class PeakPssSampler:
    """Background sampler of the system's tree PSS; keeps the peak.

    ``root`` is the system-under-test child, summed with all its
    descendants (gradient workers, server threads live in it). The load
    generator's own PSS (``load_pid``) is sampled beside it but kept
    apart in :attr:`load_peak_mib`: it holds the generated inputs, not
    the system's state.
    """

    def __init__(self, root: int, load_pid: int | None = None, interval: float = 0.25) -> None:
        self.root = root
        self.load_pid = load_pid
        self.interval = interval
        self.peak_mib = 0.0
        self.load_peak_mib = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="pss-sampler", daemon=True)

    def sample(self) -> float:
        total = tree_pss_mib(self.root)
        self.peak_mib = max(self.peak_mib, total)
        if self.load_pid is not None:
            self.load_peak_mib = max(self.load_peak_mib, pss_kib(self.load_pid) / 1024.0)
        return total

    def _run(self) -> None:
        while True:
            self.sample()
            if self._stop.wait(self.interval):
                return

    def __enter__(self) -> "PeakPssSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join()
        self.sample()


# ----------------------------------------------------------------------
# Warm-up
# ----------------------------------------------------------------------
def settled(times: list[float], window: int = 3, tolerance: float = 0.1) -> bool:
    """Whether the last ``window`` call times sit within ``tolerance`` of their median."""
    if len(times) < window:
        return False
    tail = times[-window:]
    mid = statistics.median(tail)
    return all(abs(t - mid) <= tolerance * mid for t in tail)


def warm_up(call, min_calls: int = 3, max_calls: int = 30,
            max_seconds: float = 10.0) -> list[float]:
    """Call ``call()`` until its per-call time settles; returns the times.

    ``call`` returns its own duration, so it may time just the part of
    an iteration that matters (a GET after an untimed POST).
    """
    times: list[float] = []
    deadline = time.perf_counter() + max_seconds
    while len(times) < max_calls:
        times.append(call())
        if len(times) >= min_calls and settled(times):
            break
        if time.perf_counter() > deadline:
            break
    return times


# ----------------------------------------------------------------------
# Host speed
# ----------------------------------------------------------------------
# Lower decile of the probe loop (probe.py, one sample per 50 ms) on the
# reference host, 2 vCPUs at 2.1 GHz and otherwise idle: the scale that
# calibrated times are expressed in.
PROBE_NOMINAL_S = 1.3e-3


class HostProbe:
    """``probe.py`` running beside the system for a ``with`` block.

    The benchmark's host shares its CPUs with other machines, and the
    speed of one vCPU moves by a third within minutes and by half within
    an hour (the probe loop read 1.3 ms and 2.8 ms within one hour),
    which no length of run averages away. :attr:`slowdown` is how much
    slower than the reference the host ran over the block: the probe
    loop's lower-decile time over its nominal time. Dividing a time by
    it (multiplying a rate) cancels the drift to first order, so runs
    made minutes apart compare.

    The divisor does not follow the program: on one vCPU, a busy
    interpreter loop or a numpy load at 100% beside the probe moved its
    lower decile by -0.4% and -2.2% against the probe alone (medians of
    six alternating 3-second phases, whose own phase-to-phase noise was
    15%), because a waking probe preempts the busy process and its
    fastest tenth runs undisturbed. Beside each of the four workloads
    its reading matched the probe alone on the same CPU just before and
    just after the run (median ratio 0.96-1.02, three runs each). So a
    change to the program moves the calibrated result in full.
    (Sampling only while the program idles was tried and did not track
    the program's speed; a numpy streaming probe added its own
    memory-bandwidth noise.)
    """

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(os.path.dirname(os.path.abspath(__file__)), "probe.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
        self.result: dict | None = None

    def __enter__(self) -> "HostProbe":
        return self

    def __exit__(self, *exc_info) -> None:
        self.proc.stdin.close()
        output = self.proc.stdout.read()
        self.proc.stdout.close()
        self.proc.wait(timeout=10)
        if output:
            self.result = json.loads(output)

    @property
    def slowdown(self) -> float:
        return self.result["loop_s"] / PROBE_NOMINAL_S


# ----------------------------------------------------------------------
# Environment fingerprint
# ----------------------------------------------------------------------
_BLAS_GETTERS = (
    "openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
)


def blas_threads() -> int | None:
    """Thread count read back from the OpenBLAS numpy actually loaded."""
    with open("/proc/self/maps") as handle:
        paths = {line.split()[-1] for line in handle if "openblas" in line.lower()}
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in _BLAS_GETTERS:
            getter = getattr(lib, name, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                return int(getter())
    return None


def fingerprint(workload: str, seed: int) -> dict:
    import numpy as np

    return {
        "workload": workload,
        "seed": seed,
        "cpus": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


# ----------------------------------------------------------------------
# Teardown
# ----------------------------------------------------------------------
def unlink_logged_segments(log_path: str) -> list[str]:
    """Unlink the shared-memory segments named in ``log_path`` that still exist.

    The system under test appends each segment's name to the log when
    it creates one (``sut.log_shm_segments``), so even a child killed
    mid-run leaves the names behind; segments of unrelated processes
    are never touched. Removes the log; returns the names it unlinked.
    """
    try:
        with open(log_path) as handle:
            names = [line.strip() for line in handle if line.strip()]
        os.unlink(log_path)
    except FileNotFoundError:
        return []
    leaked = []
    for name in names:
        try:
            os.unlink(os.path.join("/dev/shm", name.lstrip("/")))
            leaked.append(name)
        except FileNotFoundError:
            pass
    return leaked


def group_members(pgid: int) -> list[int]:
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                stat = handle.read()
        except OSError:
            continue
        fields = stat[stat.rindex(b")") + 2:].split()
        if int(fields[2]) == pgid and fields[0] != b"Z":
            members.append(int(entry))
    return members


def reap_group(pgid: int, timeout: float = 10.0) -> list[int]:
    """Kill every process left in group ``pgid`` and wait until none remain.

    The system under test runs in its own session, so its gradient
    workers and multiprocessing's resource tracker share its group even
    after the child itself has exited. Returns the pids that had to be
    killed (empty when the child cleaned up after itself).
    """
    stragglers = group_members(pgid)
    if stragglers:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + timeout
    while group_members(pgid) and time.monotonic() < deadline:
        time.sleep(0.05)
    return stragglers


# ----------------------------------------------------------------------
# Self-check
# ----------------------------------------------------------------------
def self_check() -> list[str]:
    """The primitives' essential properties on this machine; failures by name."""
    failures = []
    sample = [float(i) for i in range(1, 101)]
    if percentile(sample, 0.5) != 50.0 or percentile(sample, 0.9) != 90.0:
        failures.append("percentile: wrong nearest rank")
    try:
        percentile(sample[:99], 0.9)
        failures.append("percentile: accepted p90 with 9 samples beyond it")
    except InsufficientSample:
        pass
    if percentile(latencies_with_failures(sample[:80], 20), 0.5) != 50.0 or \
            percentile(latencies_with_failures(sample[:80], 20), 0.9) != math.inf:
        failures.append("percentile: failed operations do not sort last")
    own = pss_kib(os.getpid())
    if own <= 0:
        failures.append("pss: cannot read /proc/self/smaps_rollup")
    if os.getpid() not in process_tree(os.getpid()):
        failures.append("pss: process tree misses its root")
    start = time.perf_counter()
    time.sleep(0.002)
    if not time.perf_counter() - start >= 0.0015:
        failures.append("clock: perf_counter does not advance")
    from tracer import Tracer

    failures.extend(Tracer.self_check())
    return failures
