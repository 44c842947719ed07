"""Fixed reference computations that track how fast the machine runs now.

On a shared host the same op can take 1.5x longer for minutes at a time
while a neighbour is busy, and CPU time slows just as much as wall time.  The
benchmark therefore times a reference kernel between ops and states its
gated timings in multiples of it ("ref").  The kernels never call the
package, so a change to the package cannot move them.

The two kinds of work the package does slow down differently, so there are
two kernels and each workload follows the one like its dominant layer:
"python" is interpreter-bound scalar code (small tuples, JSON, float math,
bisection), like the protocols, the cut tables and the closed forms;
"numpy" is elementwise passes with masks over arrays too large for L2, like
the Monte Carlo kernels.
"""

from __future__ import annotations

import bisect
import json
import math
import time
from typing import NamedTuple

import numpy as np

PY_ROUNDS = 1500
NP_ROUNDS = 6
_EDGES = tuple(k / 16.0 for k in range(-8, 9))


class Pair(NamedTuple):
    x: float
    y: float


class Reference:
    def __init__(self, kind: str, n: int = 1 << 18):
        self._kernel = {"python": self._python, "numpy": self._numpy}[kind]
        self._a = np.random.default_rng(0).random(n)
        # preallocated, so sampling adds no allocations and a fixed few MB
        # to the process's peak memory
        self._d = np.empty(n)
        self._best = np.empty(n)
        self._mask = np.empty(n, dtype=bool)
        self._kernel()  # the first run pays for page faults and warm-up

    def sample(self) -> float:
        """Median of three runs of the kernel, in seconds (each about 10 ms
        on a 2-core VM); the median drops a run hit by a scheduling blip."""
        return sorted(self._kernel() for _ in range(3))[1]

    def _python(self) -> float:
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(PY_ROUNDS):
            p = Pair(i * 0.001, -i * 0.002)
            text = json.dumps({"a": p.x, "b": p.y, "k": [i, i + 1]})
            acc += math.log2(1.0 + abs(p.x - p.y)) + json.loads(text)["k"][1]
            acc += sum(x * x for x in p) + bisect.bisect_left(_EDGES, p.x)
        return time.perf_counter() - t0

    def _numpy(self) -> float:
        t0 = time.perf_counter()
        a, d2, best, mask = self._a, self._d, self._best, self._mask
        best.fill(np.inf)
        for k in range(NP_ROUNDS):
            np.subtract(a, 0.1 * k, out=d2)
            np.multiply(d2, d2, out=d2)
            d2 += a
            np.less(d2, best, out=mask)
            np.copyto(best, d2, where=mask)
        return time.perf_counter() - t0
