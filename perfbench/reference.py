"""A fixed reference routine that measures how fast the machine runs right now.

The machine the benchmark was tuned on is a shared virtual machine whose
speed drifts by up to half over minutes while other tenants load the
host; process CPU time drifts with it, so no clock inside the guest
removes the drift. ``worker.py`` times this routine before every
untraced pass and after the last, and ``run.py`` divides each pass's
wall time by the mean of the two reference times around it. The
routine does the kinds of work the CLI spends its time on: interpreted
Python, small numpy calls and JSON float encoding. It does not import
``bayesrisk``, so a change to the program does not change it, and it
allocates nothing large, so its time does not depend on the state of
the heap the program left behind.
"""

import json
import time

import numpy as np

_SMALL = np.linspace(1.0, 2.0, 16)
_FLOATS = [1.0 / (i + 3) for i in range(15000)]


def _python() -> int:
    total = 0
    for i in range(60000):
        total += i * i % 7
    return total


def _numpy() -> float:
    total = 0.0
    for _ in range(1500):
        normed = _SMALL / _SMALL.sum()
        total += float(np.abs(normed - _SMALL).sum())
    return total


def _json() -> int:
    return len(json.dumps({"mass": _FLOATS}))


def reference_s() -> float:
    """Wall time of one run of the reference routine (30 to 50 ms on the tuning machine)."""
    start = time.perf_counter()
    _python()
    _numpy()
    _json()
    return time.perf_counter() - start
