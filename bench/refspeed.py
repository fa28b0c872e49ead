"""Reference-speed time: CPU time corrected for the machine's current speed.

On a shared machine the same code runs fast or slow in phases lasting from
under a second to about a minute, so a CPU second is not a fixed amount of
work: the throughput of one workload moved by 20 to 40 percent between runs
minutes apart. The benchmark therefore runs a fixed kernel of interpreter
and small-array numpy work next to every measured call, and reports the
call's CPU time in reference seconds:

    cpu_seconds * REFERENCE_KERNEL_S / (CPU seconds of the kernel nearby)

The kernel uses no code of the program, so the program getting faster or
slower moves the reported time and the kernel does not. Raw CPU times are
reported beside the corrected ones.
"""
from __future__ import annotations

from time import process_time

import numpy as np

# the kernel's CPU time on an Intel Xeon VM in its fast phase; reference
# seconds equal CPU seconds on that machine at that speed
REFERENCE_KERNEL_S = 0.005

_VALUES = np.random.default_rng(0).random(5000)
_IDS = np.arange(5000)


def kernel_seconds() -> float:
    """CPU seconds of one pass of the fixed kernel."""
    start = process_time()
    total = 0
    for i in range(3000):
        total += i * i
    for i in range(60):
        np.unique(_IDS[_VALUES < 0.5][:300])
        np.random.default_rng(i).random(100)
    return process_time() - start


def kernel_block(budget: float) -> float:
    """Mean CPU seconds per pass over passes adding up to ``budget`` (one at least)."""
    passes = [kernel_seconds()]
    while sum(passes) < budget:
        passes.append(kernel_seconds())
    return sum(passes) / len(passes)


def at_reference(cpu_seconds: float, kernel_s: float) -> float:
    """CPU seconds measured next to a kernel pass of ``kernel_s``, in reference seconds."""
    return cpu_seconds * REFERENCE_KERNEL_S / kernel_s
