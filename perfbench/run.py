"""Benchmark of babai-refine: one workload per run, closed loop, one thread.

Run from the repository root:

    python3 perfbench/run.py --workload mc-coarse --seed 1 --seconds 20 --trace 0

The package is imported from `src/` next to this directory.  With
`--trace 0` the run measures set-up (`setup_s`: import plus the first cold
`cell_geometry` call, median over fresh processes), then repeats the
workload's fixed op list in passes while the next pass still fits in
`--seconds`, and reports the end-to-end metrics: `wall_s` (median over
passes of the summed op times), `op_p50_s` (median op time), both also in
units of a reference kernel timed between ops (`wall_ref`, `op_p50_ref`;
see reference.py), and `peak_rss_mb`.  With `--trace 1` it alternates an
untraced pass with a
traced one and reports the per-layer metrics of the traced passes;
end-to-end numbers never come from a traced pass.  Every op's output is
checked and its SHA-256 recorded.  The last line of stdout is the JSON
result; results, digests and spans go to `perfbench/out/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SINGLE_THREAD = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
SETUP_RUNS = 9
SETUP_CODE = """\
import math, time
t0 = time.perf_counter()
import babai_refine
babai_refine.cell_geometry(babai_refine.LatticeParams(rho=1.0, theta=math.acos(0.3)))
print(repr(time.perf_counter() - t0))
"""
P99_MIN_OPS = 1000
MAX_PROBLEMS = 100  # failure messages kept per run
REF_INTERVAL_S = 0.5  # op time between two samples of the reference kernel
MAX_OPS = 250_000  # untraced op times kept per run


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def measure_setup() -> list[float]:
    """Import-plus-first-call time in fresh processes (one warm-up, unreported)."""
    env = dict(os.environ, PYTHONPATH=str(SRC), **SINGLE_THREAD)
    times = []
    for _ in range(SETUP_RUNS + 1):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE],
            env=env,
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times[1:]


class Record:
    """What the passes of one run leave behind.

    Digests are kept for the first pass only; later passes are compared with
    it as they go, so the harness's own memory does not grow with the
    number of passes and stays out of peak_rss_mb.
    """

    def __init__(self, workload):
        import numpy as np

        self.workload = workload
        self.digests: list[str] | None = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        # untraced op times, in seconds and in reference units; filled up
        # front so their memory does not depend on how many ops fit the run
        self.op_times = np.full(MAX_OPS, np.nan)
        self.op_refs = np.full(MAX_OPS, np.nan)
        self.timed = 0
        self.walls: dict[bool, list[float]] = {False: [], True: []}
        self.walls_ref: list[float] = []
        self.ref_samples: list[float] = []

    def fail(self, messages: list[str]) -> None:
        self.failed += 1
        self.problems.extend(messages[: MAX_PROBLEMS - len(self.problems)])


def run_pass(record: Record, tracer=None, reference=None) -> None:
    """Run every op once, each after clearing the caches; check each output.

    With a reference, the kernel is sampled at the start and again whenever
    REF_INTERVAL_S of op time has passed, and each op's time is also stated
    in units of the latest sample.
    """
    from workloads import CACHES, clear_caches

    ops = record.workload.ops
    first = record.digests is None
    digests = []
    wall = wall_ref = 0.0
    since_sample = math.inf
    for i, op in enumerate(ops):
        if reference is not None and since_sample >= REF_INTERVAL_S:
            ref = reference.sample()
            record.ref_samples.append(ref)
            since_sample = 0.0
        clear_caches()
        if tracer is not None:
            tracer.op = record.attempted
            tracer.active = True
        record.attempted += 1
        t0 = time.perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # an op that raises counts as failed
            record.fail([f"{op.label}: raised {type(exc).__name__}: {exc}"])
            digests.append("")
            continue
        finally:
            elapsed = time.perf_counter() - t0
            wall += elapsed
            since_sample += elapsed
            if tracer is not None:
                tracer.active = False
            if reference is not None:
                record.op_times[record.timed] = elapsed
                record.op_refs[record.timed] = elapsed / ref
                record.timed += 1
                wall_ref += elapsed / ref
        if tracer is not None:
            info = CACHES[0].cache_info()
            tracer.counts["lattice.cell_geometry.hits"] += info.hits
            tracer.counts["lattice.cell_geometry.misses"] += info.misses
        digest = hashlib.sha256(op.output(result).encode()).hexdigest()
        problems = [f"{op.label}: {p}" for p in op.check(result)]
        if not first and digest != record.digests[i]:
            problems.append(f"{op.label}: output differs from the first pass")
        if problems:
            record.fail(problems)
        digests.append(digest)
    if first:
        record.digests = digests
    record.walls[tracer is not None].append(wall)
    if reference is not None:
        record.walls_ref.append(wall_ref)


class Stopwatch:
    """Time spent inside `montecarlo.simulate`, for trials_per_s.

    One clock read pair per simulate call; the call count and arguments are
    untouched, so it does not turn an end-to-end run into a traced one.
    """

    def __init__(self):
        import babai_refine
        from babai_refine import cli, montecarlo

        self.seconds = 0.0
        original = montecarlo.simulate

        def timed(config):
            t0 = time.perf_counter()
            try:
                return original(config)
            finally:
                self.seconds += time.perf_counter() - t0

        self._undo = []
        for m in (babai_refine, montecarlo, cli):
            if getattr(m, "simulate", None) is original:
                self._undo.append((m, original))
                m.simulate = timed

    def close(self):
        for m, original in self._undo:
            m.simulate = original


def git_sha():
    """HEAD of the checkout, read from .git without running git; None if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(args, nops):
    import numpy

    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops_per_pass": nops,
    }


def compare_digests(path: Path, digests: list[str]) -> list[int]:
    """Indices of ops whose digest differs from the record of an earlier run
    with the same workload and seed; the first run writes the record."""
    if path.exists():
        recorded = json.loads(path.read_text())["op_sha256"]
        return [i for i, (a, b) in enumerate(zip(recorded, digests)) if a != b]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"op_sha256": digests}, indent=0) + "\n")
    return []


def metric(value, unit):
    return {"value": value, "unit": unit}


def run(args, bench):
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    setup = measure_setup() if not args.trace else []
    workload = WORKLOADS[args.workload](args.seed)
    record = Record(workload)
    nops = len(workload.ops)
    tracer = stopwatch = reference = None
    layers = []  # per traced pass: (calls, self seconds, counts)
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    else:
        from reference import Reference

        reference = Reference(workload.reference)
        stopwatch = Stopwatch()

    deadline = time.perf_counter() + args.seconds
    t_start = time.perf_counter()
    try:
        while True:
            lap_start = time.perf_counter()
            run_pass(record, reference=reference)
            if tracer is not None:
                tracer.counts.clear()
                lo = tracer.mark()
                tracer.install()
                try:
                    run_pass(record, tracer)
                finally:
                    tracer.uninstall()
                layers.append((*tracer.self_times(lo, tracer.mark()), dict(tracer.counts)))
            lap = time.perf_counter() - lap_start
            if time.perf_counter() + lap > deadline or record.timed + nops > MAX_OPS:
                break
    finally:
        if stopwatch is not None:
            stopwatch.close()

    record_path = OUT / "digests" / f"{args.workload}-seed{args.seed}.json"
    for i in compare_digests(record_path, record.digests):
        record.fail([f"{workload.ops[i].label}: output differs from {record_path.name}"])
    for msg in record.problems[:20]:
        print(f"FAILED {msg}", file=sys.stderr)

    walls = record.walls[False]
    env = environment(args, nops)
    env["untraced_passes"] = len(walls)
    env["traced_passes"] = len(record.walls[True])
    env["ops_attempted"] = record.attempted
    env["run_s"] = time.perf_counter() - t_start
    digest = hashlib.sha256("".join(record.digests).encode()).hexdigest()
    print(f"workload {args.workload} seed {args.seed}: {len(walls)} untraced passes of {nops} ops")
    if not args.trace:
        metrics, reported = end_to_end(record, setup, workload, stopwatch)
        env["setup_runs_s"] = setup
        env["pass_wall_s"] = walls
    else:
        metrics = per_layer(layers, record.walls)
        reported = metrics
        for name, m in metrics.items():
            print(f"{name} {m['value']:.6g} {m['unit']}")
        tracer.save(OUT / f"{args.workload}-seed{args.seed}-spans.npz", t_start)
    print(f"output sha256 {digest}")

    check_declared(bench, metrics, "per_layer" if args.trace else "end_to_end")
    result = {
        "correct": record.failed == 0,
        "attempted": record.attempted,
        "failed": record.failed,
        "metrics": metrics,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    results_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    doc = {
        "environment": env,
        "result": result,
        "reported": reported,
        "output_sha256": digest,
        "op_sha256": record.digests,
        "problems": record.problems,
    }
    results_path.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"results {results_path.relative_to(ROOT)}")
    print(json.dumps(result))


def end_to_end(record, setup, workload, stopwatch):
    """The metrics BENCHMARK.json gates, and the ones printed beside them.

    Gated: setup_s, wall_ref and op_p50_ref (wall_s and op_p50_s in units
    of the reference kernel, see reference.py) and peak_rss_mb.  wall_s and
    op_p50_s in seconds swing with the host's load, so they are printed and
    recorded but not gated.  op_p99_s needs at least P99_MIN_OPS samples,
    trials_per_s a workload that simulates and failed_ops_ratio is 0 when
    all is well, so none of these three holds on every workload either.
    """
    import numpy as np

    walls = record.walls[False]
    op_times, op_refs = record.op_times[: record.timed], record.op_refs[: record.timed]
    metrics = {
        "setup_s": metric(statistics.median(setup), "s"),
        "wall_ref": metric(statistics.median(record.walls_ref), "ref"),
        "op_p50_ref": metric(float(np.median(op_refs)), "ref"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    extra = {
        "wall_s": metric(statistics.median(walls), "s"),
        "op_p50_s": metric(float(np.median(op_times)), "s"),
        "ref_s": metric(statistics.median(record.ref_samples), "s"),
    }
    if len(op_times) >= P99_MIN_OPS:
        extra["op_p99_s"] = metric(float(np.quantile(op_times, 0.99)), "s")
    trials = sum(op.trials for op in workload.ops) * len(walls)
    if trials:
        extra["trials_per_s"] = metric(trials / stopwatch.seconds, "1/s")
    extra["failed_ops_ratio"] = metric(record.failed / record.attempted, "ratio")
    notes = {
        "setup_s": f"median of {len(setup)} fresh processes",
        "wall_s": f"median of {len(walls)} passes",
        "wall_ref": f"median of {len(walls)} passes",
        "op_p50_s": f"n={len(op_times)}",
        "op_p50_ref": f"n={len(op_times)}",
        "op_p99_s": f"n={len(op_times)}",
        "ref_s": f"median of {len(record.ref_samples)} reference samples",
        "trials_per_s": f"{trials} trials",
        "failed_ops_ratio": f"{record.failed}/{record.attempted}",
    }
    reported = {**metrics, **extra}
    for name in ("setup_s", "wall_s", "wall_ref", "op_p50_s", "op_p50_ref", "op_p99_s",
                 "trials_per_s", "peak_rss_mb", "failed_ops_ratio", "ref_s"):
        if name in reported:
            m = reported[name]
            print(f"{name} {m['value']:.6g} {m['unit']} {notes.get(name, '')}".rstrip())
    if "op_p99_s" not in reported:
        print(f"op_p99_s not reported: {len(op_times)} ops < {P99_MIN_OPS}")
    if not trials:
        print("trials_per_s not reported: the workload does not simulate")
    return metrics, reported


def per_layer(layers, walls):
    """Per-layer metrics: median self time per traced pass, exact counts."""
    import numpy as np

    from tracing import COUNTS, SPAN_NAMES

    calls, _, counts = layers[0]
    for other_calls, _, other_counts in layers[1:]:
        if other_counts != counts or not np.array_equal(other_calls, calls):
            raise RuntimeError("per-layer counts differ between traced passes")
    self_s = np.median(np.array([s for _, s, _ in layers]), axis=0)
    out = {}
    for k, name in enumerate(SPAN_NAMES):
        if name == "lattice.cell_geometry":
            hits = counts.get("lattice.cell_geometry.hits", 0)
            misses = counts.get("lattice.cell_geometry.misses", 0)
            out[f"{name}.calls"] = metric(hits + misses, "count")
            out[f"{name}.misses"] = metric(misses, "count")
            out[f"{name}.hit_ratio"] = metric(hits / (hits + misses) if hits + misses else 0.0, "ratio")
        else:
            out[f"{name}.calls"] = metric(int(calls[k]), "count")
        out[f"{name}.self_s"] = metric(float(self_s[k]), "s")
    for name in COUNTS:
        if not name.startswith("lattice.cell_geometry"):
            out[name] = metric(counts.get(name, 0), "count")
    traced, untraced = statistics.median(walls[True]), statistics.median(walls[False])
    residual = [w - float(s.sum()) for w, (_, s, _) in zip(walls[True], layers)]
    out["trace.wall_s"] = metric(traced, "s")
    out["trace.untraced_wall_s"] = metric(untraced, "s")
    out["trace.overhead_ratio"] = metric(traced / untraced, "ratio")
    out["trace.residual_s"] = metric(statistics.median(residual), "s")
    return out


def check_declared(bench, metrics, kind):
    declared = [m["name"] for m in bench[kind]]
    if sorted(declared) != sorted(metrics):
        missing = sorted(set(declared) - set(metrics))
        extra = sorted(set(metrics) - set(declared))
        raise SystemExit(f"BENCHMARK.json {kind} disagrees with the run: missing {missing}, extra {extra}")


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "babai_refine" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'babai_refine'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    os.environ.update(SINGLE_THREAD)
    sys.path.insert(0, str(SRC))
    import babai_refine

    if Path(babai_refine.__file__).resolve().parent != SRC / "babai_refine":
        print(f"error: imported babai_refine from {babai_refine.__file__}", file=sys.stderr)
        return 2
    run(args, bench)
    return 0


if __name__ == "__main__":
    sys.exit(main())
