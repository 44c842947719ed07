"""Per-layer spans and counts, recorded from outside the package.

The tracer replaces each traced public function with a wrapper in every
package module that binds it (so `montecarlo.strip_cuts`, the name
`_labelled` looks up in `lattice`, and so on all become spans), and puts the
originals back afterwards.  A span is (name, start, end, parent, op); spans
live in flat in-memory arrays until the run writes them out.  A layer's self
time is its span time minus the time of its child spans.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

PACKAGE = "babai_refine"


def _count_trials(counts, args, out):
    counts["montecarlo.trials"] += out.trials


def _count_bisection(counts, args, out):
    counts["montecarlo.bisection_rounds"] += int(out["extra_rounds"].sum())
    counts["montecarlo.unhalted"] += int(np.count_nonzero(~out["halted"]))


def _count_messages(counts, args, out):
    counts["protocols.messages"] += len(out.messages)


# (module, function, hook run on each traced return)
TRACED = (
    ("cli", "main", None),
    ("cli", "cmd_sweep", None),
    ("montecarlo", "simulate", _count_trials),
    ("montecarlo", "sample_cell_arrays", None),
    ("montecarlo", "babai_batch", None),
    ("montecarlo", "exact_nearest_batch", None),
    ("montecarlo", "run_batch_12", None),
    ("montecarlo", "run_batch_21", None),
    ("montecarlo", "run_batch_infinite", _count_bisection),
    ("lattice", "cell_geometry", None),
    ("lattice", "strip_cuts", None),
    ("lattice", "row_cuts", None),
    ("lattice", "exact_nearest_point", None),
    ("lattice", "babai_error_probability", None),
    ("analytics", "budget_point", None),
    ("analytics", "pe_at_rate", None),
    ("analytics", "curve_point", None),
    ("analytics", "rate_12", None),
    ("analytics", "kappa_12", None),
    ("analytics", "kappa_21", None),
    ("quadrature", "adaptive_simpson", None),
    ("protocols", "run_single_round_12", _count_messages),
    ("protocols", "run_single_round_21", _count_messages),
    ("protocols", "run_infinite_rounds", _count_messages),
    ("protocols", "replay_decision", None),
    ("protocols", "transcript_to_json", None),
    ("protocols", "transcript_from_json", None),
)

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fn, _ in TRACED)

COUNTS = (
    "montecarlo.trials",
    "montecarlo.bisection_rounds",
    "montecarlo.unhalted",
    "quadrature.integrand_evals",
    "protocols.messages",
    "lattice.cell_geometry.hits",
    "lattice.cell_geometry.misses",
)


class Tracer:
    """Span recorder; `install` patches the package, `uninstall` restores it.

    Spans are recorded only while `active` is true, so output checks that
    call into the package between ops leave no spans and no counts.
    """

    def __init__(self):
        self.active = False
        self.op = -1
        self.counts: Counter = Counter()
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op_of = array("i")
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, code: int, fn, hook):
        name, start, end, parent, op_of = self.name, self.start, self.end, self.parent, self.op_of
        stack, counts = self._stack, self.counts
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            sid = len(start)
            name.append(code)
            parent.append(stack[-1])
            op_of.append(tracer.op)
            start.append(0.0)
            end.append(0.0)
            stack.append(sid)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[sid] = t0
                end[sid] = t1
            if hook is not None:
                hook(counts, args, out)
            return out

        return traced

    def _wrap_quadrature(self, code: int, fn):
        counts = self.counts

        def counted(f, *args, **kwargs):
            def integrand(x):
                counts["quadrature.integrand_evals"] += 1
                return f(x)

            return fn(integrand, *args, **kwargs)

        return self._wrap(code, counted, None)

    def install(self) -> None:
        modules = [
            m
            for key, m in list(sys.modules.items())
            if key == PACKAGE or key.startswith(PACKAGE + ".")
        ]
        for code, (mod, fn, hook) in enumerate(TRACED):
            original = getattr(sys.modules[f"{PACKAGE}.{mod}"], fn)
            if (mod, fn) == ("quadrature", "adaptive_simpson"):
                wrapper = self._wrap_quadrature(code, original)
            else:
                wrapper = self._wrap(code, original, hook)
            for m in modules:
                if getattr(m, fn, None) is original:
                    setattr(m, fn, wrapper)
                    self._undo.append((m, fn, original))

    def uninstall(self) -> None:
        while self._undo:
            m, fn, original = self._undo.pop()
            setattr(m, fn, original)

    def mark(self) -> int:
        """Index of the next span, to slice one pass's spans out later."""
        return len(self.start)

    def self_times(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        """Per traced function (calls, self seconds) over spans [lo, hi)."""
        code = np.frombuffer(self.name, dtype=np.int32)[lo:hi]
        dur = np.frombuffer(self.end)[lo:hi] - np.frombuffer(self.start)[lo:hi]
        parent = np.frombuffer(self.parent, dtype=np.int32)[lo:hi]
        child = np.zeros_like(dur)
        nested = parent >= lo
        np.add.at(child, parent[nested] - lo, dur[nested])
        calls = np.bincount(code, minlength=len(TRACED))
        self_s = np.bincount(code, weights=dur - child, minlength=len(TRACED))
        return calls, self_s

    def save(self, path, t0: float) -> None:
        """Write every span, times relative to t0, as a compressed npz."""
        np.savez_compressed(
            path,
            names=np.array(SPAN_NAMES),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start) - t0,
            end=np.frombuffer(self.end) - t0,
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op_of, dtype=np.int32),
        )
