"""A fixed reference computation that tracks the machine's speed during a run.

The benchmark machine is shared: the same op on the same input can run 25%
slower or faster minutes apart, which swamps the spread between seeds.  The
kernel below does a fixed amount of the kinds of work datex does (Python
dict/frozenset churn, small numpy arrays, one HiGHS LP) without calling
datex, so a change to datex cannot move it.  A run times it every
``EVERY_S`` seconds of wall time, between ops; the ``_cal`` metrics scale
op times by ``REF_S`` over the run's mean kernel time.  The machine switches
between fast and slow states within seconds, so the mean over many samples,
not the median, measures the share of the run spent slow.
"""

from __future__ import annotations

import gc
import time

import numpy as np
from scipy.optimize import linprog

EVERY_S = 0.5   # wall seconds between kernel samples
REF_S = 0.015   # mean kernel seconds on the machine the bounds were set on, when idle

_rng = np.random.default_rng(0)
_A = _rng.uniform(0.0, 1.0, (20, 40))
_C = -_rng.uniform(0.0, 1.0, 40)


def kernel_s() -> float:
    """Wall seconds of one run of the reference kernel.

    The garbage collector is off while it runs: a full collection scans the
    benchmark's whole heap, which is not machine speed.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        table: dict[frozenset[int], float] = {}
        for i in range(20000):
            key = frozenset((i % 97, i % 89, i % 7))
            table[key] = table.get(key, 0.0) + 0.5 * i
        v = np.zeros(50)
        ramp = np.arange(50.0)
        for i in range(500):
            v = np.maximum(0.99 * v, np.sqrt(ramp + i))
        linprog(_C, A_ub=_A, b_ub=np.ones(20), bounds=(0, None), method="highs-ds")
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()
