"""Read how fast the host runs, and run single-threaded work on the
least contended CPU.

On a shared host a virtual CPU can run at half speed for tens of
seconds while a neighbour is busy, and the other CPU of the same
machine at full speed.  The scheduler does not know which is which, so
before each repetition of timed work the benchmark times a short fixed
probe on every CPU it may use and, for single-threaded work, pins
itself to the fastest.  Multi-threaded work stays on every CPU.  The
probe runs outside every timed region.
"""

from __future__ import annotations

import hashlib
import os
import time
from typing import Sequence

#: Blake2b rounds in one probe (about a millisecond on a 2020s core).
PROBE_ROUNDS = 3000


def usable_cpus() -> Sequence[int]:
    """The CPUs this process may run on (empty when it cannot pin)."""
    if not hasattr(os, "sched_getaffinity"):
        return ()
    return tuple(sorted(os.sched_getaffinity(0)))


def _probe() -> float:
    start = time.perf_counter()
    digest = b"perfbench"
    for _ in range(PROBE_ROUNDS):
        digest = hashlib.blake2b(digest).digest()
    return time.perf_counter() - start


def probe_cpus(cpus: Sequence[int], pin: bool) -> float:
    """Time the probe on each of ``cpus``; then pin the calling thread to
    the fastest when ``pin``, else let it run on all of ``cpus``.

    Returns the fastest probe's seconds, a reading of how fast the host
    ran at that moment (printed by the benchmark beside its timings).
    """
    if len(cpus) < 2:
        return min(_probe(), _probe())
    timings = {}
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        _probe()  # the first probe after a migration pays for cold caches
        timings[cpu] = min(_probe(), _probe())
    fastest = min(timings, key=timings.get)
    os.sched_setaffinity(0, {fastest} if pin else set(cpus))
    return timings[fastest]
