"""Host-speed probe: times a fixed interpreter loop at a low duty cycle until stdin closes.

Run by the benchmark beside the system under test for the whole run
(``measure.HostProbe``), on the CPU the system runs on. Every
``INTERVAL`` seconds it times a fixed interpreter loop (~1.3 ms, about
3% of one CPU), and when its stdin reaches end-of-file it prints the
lower decile of those times as one JSON line. The loop never touches
the system under test; it measures how fast this host is running.

The lower decile, not the median: samples that the system under test
preempts part-way say nothing about the host, and the fastest tenth
ran undisturbed (a waking probe preempts a busy process at once), while
a host that runs slower (a busy neighbour on the same core, CPU time
taken by the hypervisor) slows them too.
"""

from __future__ import annotations

import json
import select
import statistics
import sys
from time import perf_counter

INTERVAL = 0.05


def main() -> int:
    times = []
    while True:
        start = perf_counter()
        total = 0
        for i in range(20000):
            total += i * i % 7
        times.append(perf_counter() - start)
        if select.select([sys.stdin], [], [], INTERVAL)[0]:
            break
    low = statistics.quantiles(times, n=10)[0] if len(times) > 1 else times[0]
    print(json.dumps({"loop_s": low, "samples": len(times)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
