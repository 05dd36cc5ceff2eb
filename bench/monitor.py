"""Speed monitor: times a fixed kernel on the workload's CPU while the workload runs.

On the 2-CPU virtual machine this benchmark was written on, speed changed by
up to ~40% within minutes, because other tenants share the host's cores.
``run.py`` pins this process and the workload process to the same CPU. Every
``INTERVAL_S`` this process wakes, times one run of ``kernel``, and sleeps
again. That costs the workload about 5% of the CPU, the same on every run. A
call's time divided by the kernel time measured during the call is then
steady: on 185 noise-free QPT calls it cut the spread of 15 s medians from 23%
to 2%.

The kernel does not touch ccxlab. It makes the kind of work ccxlab's hot
loops make: small tensor contractions, axis moves, and dicts of bit strings
built in Python.

Usage: ``monitor.py <cpu> <max seconds>``. It prints ``ready`` once warmed up.
On SIGTERM, or after ``max seconds``, it prints one JSON list of
``[monotonic start, seconds]`` samples and exits.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time

import numpy as np

INTERVAL_S = 0.02
KERNEL_STEPS = 40

GATE = np.eye(4, dtype=complex).reshape(2, 2, 2, 2)
STATE = np.ones((2,) * 6, dtype=complex)


def kernel() -> None:
    t = STATE
    for _ in range(KERNEL_STEPS):
        t = np.moveaxis(np.tensordot(GATE, t, axes=([2, 3], [4, 5])), [0, 1], [4, 5])
        {format(i, "03b"): i for i in range(8)}


def main() -> int:
    cpu, max_s = int(sys.argv[1]), float(sys.argv[2])
    os.sched_setaffinity(0, {cpu})
    stop = []
    signal.signal(signal.SIGTERM, lambda signum, frame: stop.append(signum))
    kernel()
    print("ready", flush=True)
    samples = []
    deadline = time.monotonic() + max_s
    while not stop and time.monotonic() < deadline:
        start = time.monotonic()
        kernel()
        samples.append((start, time.monotonic() - start))
        time.sleep(INTERVAL_S)
    print(json.dumps(samples))
    return 0


if __name__ == "__main__":
    sys.exit(main())
