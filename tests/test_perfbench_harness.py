"""The benchmark harness in perfbench/ still runs against the package.

These tests only read perfbench/.  Every function its tracer wraps must
exist, the tracer must see each scheme's kernel when `simulate` dispatches
to it, and the first op of every workload must run and pass its own output
check.  A refactor that renames a traced function, calls a kernel around
the name the tracer patches, or changes a call an op makes fails here, not
only in a benchmark run.
"""

import importlib
import sys
from pathlib import Path

import pytest

from babai_refine import montecarlo

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def harness():
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield importlib.import_module("workloads"), importlib.import_module("tracing")
    finally:
        sys.path.remove(str(PERFBENCH))


def test_traced_functions_resolve(harness):
    _, tracing = harness
    for mod, fn, _ in tracing.TRACED:
        module = importlib.import_module(f"{tracing.PACKAGE}.{mod}")
        assert callable(getattr(module, fn, None)), f"{mod}.{fn}"


def test_tracer_sees_every_scheme_kernel(harness, params_main):
    _, tracing = harness
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.active = True
        for name, sizes in (("12", {"n1": 2, "n2": 3}), ("21", {"n": 4}), ("infinite", {})):
            config = montecarlo.SimConfig(params_main, name, trials=1000, seed=3, **sizes)
            montecarlo.simulate(config)
        tracer.active = False
    finally:
        tracer.uninstall()
    calls, _ = tracer.self_times(0, tracer.mark())
    count = dict(zip(tracing.SPAN_NAMES, calls.tolist()))
    assert count["montecarlo.simulate"] == 3
    for kernel in ("run_batch_12", "run_batch_21", "run_batch_infinite"):
        assert count[f"montecarlo.{kernel}"] == 1, kernel


@pytest.mark.parametrize(
    "workload", ["mc-coarse", "sweep-analytic", "sweep-empirical", "transcripts"]
)
def test_first_op_runs_and_passes_its_check(harness, workload):
    workloads, _ = harness
    assert workload in workloads.WORKLOADS
    op = workloads.WORKLOADS[workload](7).ops[0]
    workloads.clear_caches()
    result = op.run()
    assert isinstance(op.output(result), str)
    assert op.check(result) == []


def test_tracer_counts_independent_of_block_size(harness, params_main, monkeypatch):
    """The harness's trial and bisection counts add up over blocks, and the
    infinite kernel runs once per block of `_BLOCK` trials."""
    _, tracing = harness
    trials = (1 << 17) + 5
    config = montecarlo.SimConfig(params_main, "infinite", trials=trials, seed=11)

    def traced_run():
        tracer = tracing.Tracer()
        tracer.install()
        try:
            tracer.active = True
            montecarlo.simulate(config)
            tracer.active = False
        finally:
            tracer.uninstall()
        calls, _ = tracer.self_times(0, tracer.mark())
        return tracer.counts, dict(zip(tracing.SPAN_NAMES, calls.tolist()))

    counted = ("montecarlo.trials", "montecarlo.bisection_rounds", "montecarlo.unhalted")
    counts, calls = traced_run()
    assert calls["montecarlo.run_batch_infinite"] == -(-trials // montecarlo._BLOCK)
    monkeypatch.setattr(montecarlo, "_BLOCK", 1 << 20)
    whole_counts, whole_calls = traced_run()
    assert whole_calls["montecarlo.run_batch_infinite"] == 1
    assert counts["montecarlo.trials"] == trials and counts["montecarlo.bisection_rounds"] > 0
    assert [counts[k] for k in counted] == [whole_counts[k] for k in counted]
