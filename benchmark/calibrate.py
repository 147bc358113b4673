"""Host speed calibration for the benchmark's times.

On shared CPUs (a virtual machine on a loaded host) the same Python code runs
up to twice as slow for seconds to minutes at a time.  On a 2-vCPU KVM guest
(Xeon, 2.1 GHz) the interquartile spread of 15- and 30-second runs of one
workload was 15-25% of the median.  So the benchmark runs a short fixed kernel
every 0.2 s between verdicts and scales each measured stretch by
``REFERENCE_S / kernel time``: times are reported in seconds of a host on
which the kernel takes ``REFERENCE_S``.  The kernel mixes the operations the
verdict path spends its time on (tuple-keyed dicts, 61-bit modular products,
SHA-256 of short strings, sorting), so it slows down under load much as the
workloads do.  On that guest, with medians over passes, this cut the spread
to 2-6%.  It calls nothing in ellchain, so a change to ellchain cannot move it.
"""

from __future__ import annotations

import gc
import hashlib
import time

#: the kernel's median time on that guest (Python 3.11), so that reported
#: times are close to the wall times of a typical run there
REFERENCE_S = 0.005
_PRIME = (1 << 61) - 1


def kernel_seconds() -> float:
    """Time one run of the kernel, with the cyclic collector paused.

    A collection triggered here would scan the caller's heap, which is large
    in the middle of a sweep and says nothing about the host's speed.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        table: dict[tuple, int] = {}
        acc = 1
        for i in range(6000):
            key = (i, i & 7, "x")
            table[key] = table.get(key, 0) + i
            acc = acc * (i + 3) % _PRIME
            if i % 8 == 0:
                hashlib.sha256(f"{i}:{acc}".encode()).digest()
        sorted(table.items())
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def speed_factor() -> float:
    """Reference-host seconds per measured second, from one kernel run."""
    return REFERENCE_S / kernel_seconds()
