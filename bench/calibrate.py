"""A fixed calibration kernel that tracks the host's speed during a run.

The virtual machines this benchmark runs on share their cores with other
tenants, and their speed moves by up to a factor of two for seconds or
minutes at a time.  ``run.py`` runs this kernel between consecutive timed
requests and divides each request's time by the kernel time measured
around it, then multiplies by ``REFERENCE_S``: every time it reports is
the time the request would take on a host where one kernel takes
``REFERENCE_S`` of CPU time.  A change to countgen moves the request's
time but not the kernel's, so it shows in full.

The kernel imports nothing from countgen and mixes the three kinds of
work countgen does: big-integer sums in dictionaries (census and rank
tables), sets of small tuples (Earley charts and trace classes) and a
plain integer loop (coin draws, circuit evaluation).  It must never be
changed without re-anchoring every baseline measured with it.
"""

from __future__ import annotations

import gc
import time

CLOCK = time.process_time
REFERENCE_S = 0.003  # about the kernel's CPU time on the 2-vCPU VM it was tuned on
_STEP = ((1, 0), (1, 2), (1, 3), (3, 3))  # match states of "abb" over {a, b}


def kernel():
    layer = {0: 1}
    for _ in range(160):
        nxt: dict = {}
        for q, ways in layer.items():
            for p in _STEP[q]:
                nxt[p] = nxt.get(p, 0) + ways
        layer = nxt
    chart: dict = {}
    for i in range(3000):
        key = (i % 13, i % 7)
        chart.setdefault(key, set()).add((key, i % 11))
    total = 0
    for i in range(12000):
        total += i * i % 7
    return layer, len(chart), total


def kernel_seconds() -> float:
    # with the collector off, the kernel's time does not depend on how
    # many objects countgen keeps alive
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = CLOCK()
        kernel()
        return CLOCK() - start
    finally:
        if enabled:
            gc.enable()
