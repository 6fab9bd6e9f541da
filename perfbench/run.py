"""Benchmark of hiercorr: one workload per process, a closed loop with one caller.

Run from the root of a checkout:

    python3 perfbench/run.py --workload interior --seed 0 --seconds 60 --trace 0

Workloads: interior, boundary, search, certify (see workloads.py).  A run
repeats sessions for --seconds (at least one).  A session sets up (inputs
from the seed, build_model) and then runs the workload's fixed list of ops
once, in order, each op starting when the previous one returned; outputs
are checked after the last op.

--trace 0 prints the end-to-end metrics, measured with tracing off, and
writes each pass's op latencies to .bench_out/.
--trace 1 alternates untraced and traced sessions, prints the per-layer
metrics of the traced ones and the tracing overhead, and writes the spans
to .bench_out/.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.

Each op is taken at its best latency over the passes of a run.  A shared
host also runs this process up to 1.8x slower for stretches of seconds to
minutes, and then the best latency of an op spent in the interpreter is
slow too (process CPU time slows down as much as wall time, so it is not
time stolen from the process).  A fixed piece of pure-Python reference work,
about 0.6 ms long, is timed before every op, after the last one and around
every set-up; its 1st percentile over the run marks the host's best speed.
The latency of an op that slows down with the host (Op.slows_with_host in
workloads.py) is scaled by that best reference time over the mean of the
reference times just before and just after it; so are set-up and import
times.  Ops whose time goes to BLAS are taken as measured.  A change that
makes hiercorr slower moves the op times and not the reference, so it shows
in full.  The unscaled figures are printed too.
"""
from __future__ import annotations

import argparse
import inspect
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("interior", "boundary", "search", "certify")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
DEFAULT_SEED = 0
IMPORT_SAMPLES = 5

END_TO_END = {
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
LAYERS = ("bench", "hierarchy", "algebra", "maxent", "maximizers",
          "factorization", "twoqubit", "io", "cli")
PROJECT_SHAPES = ("q3", "q4", "q5", "q6", "q7", "t3", "cqcq-2222")
# per-layer metric -> (unit, source): "calls" and "s" read the spans of that
# name, "acc" a counter summed from op outputs
PER_LAYER = {
    "hierarchy.build_model.calls": ("count", "calls"),
    "hierarchy.build_model.s": ("s", "s"),
    "hierarchy.basis_matrices.s": ("s", "s"),
    "hierarchy.basis_matrices.bytes": ("B", "bytes"),
    "algebra.expectation_values.s": ("s", "s"),
    "algebra.gibbs_map.s": ("s", "s"),
    "algebra.State.calls": ("count", "calls"),
    "algebra.State.s": ("s", "s"),
    "algebra.algebra_mask.s": ("s", "s"),
    "maxent.maxent_project.calls": ("count", "calls"),
    "maxent.maxent_project.s": ("s", "s"),
    "maxent.iterations": ("count", "acc"),
    "maxent.s_per_iteration": ("s", None),
    **{f"maxent.route.{r}": ("count", "acc") for r in ("exact", "product", "ipf", "dual", "primal")},
    **{f"maxent.project_ms.{t}": ("ms", None) for t in PROJECT_SHAPES},
    "maxent.nonconverged": ("count", "acc"),
    "maxent.peel_rounds": ("count", "acc"),
    "maxent.ipf_sweep_cap_hits": ("count", "acc"),
    "maxent.divergence_gap_max": ("nats", None),
    "maximizers.search_local_maximizers.calls": ("count", "calls"),
    "maximizers.search_local_maximizers.s": ("s", "s"),
    "maximizers.evaluations": ("count", "acc"),
    "maximizers.projection_failures": ("count", "acc"),
    "maximizers.evaluations_per_restart": ("count", None),
    "hierarchy.numerical_basis_rank.calls": ("count", "calls"),
    "hierarchy.numerical_basis_rank.s": ("s", "s"),
    "factorization.enumerate_feasibility.s": ("s", "s"),
    "factorization.subsets": ("count", "acc"),
    "factorization.toric_kernel.s": ("s", "s"),
    "twoqubit.verify_mutual_information_bound.s": ("s", "s"),
    "cli.main.calls": ("count", "calls"),
    "cli.main.s": ("s", "s"),
    "io.load_state.s": ("s", "s"),
    "io.dump_report.s": ("s", "s"),
    **{f"self_s.{layer}": ("s", None) for layer in LAYERS},
    "trace.overhead_s": ("s", None),
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=60.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny shrinks every op list, for the benchmark's own tests")
    return p.parse_args(argv)


def environment(np, scipy):
    try:
        build = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: build.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "machine": platform.machine(),
    }


def import_timings():
    """(reference before, `import hiercorr`, reference after) in seconds, in
    each of IMPORT_SAMPLES fresh interpreters.  Each reference time is the
    median of three, after one untimed call that warms the fresh interpreter."""
    code = "\n".join([
        "import statistics, sys, time",
        inspect.getsource(reference_work),
        inspect.getsource(reference_seconds),
        "def reference():",
        "    return statistics.median(reference_seconds() for _ in range(3))",
        "sys.path.insert(0, sys.argv[1])",
        "reference_work()",
        "before = reference()",
        "t = time.perf_counter()",
        "import hiercorr",
        "took = time.perf_counter() - t",
        "print(before, took, reference())",
    ])
    samples = []
    for _ in range(IMPORT_SAMPLES):
        done = subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True,
                              text=True, check=True, timeout=120)
        samples.append(tuple(map(float, done.stdout.split())))
    return samples


def reference_work():
    """Fixed pure-Python work whose time follows the host's current speed."""
    table = {}
    for i in range(6000):
        table[i & 255] = table.get(i & 255, 0) + i * i
    return table


def reference_seconds():
    t = time.perf_counter()
    reference_work()
    return time.perf_counter() - t


def at_best_speed(seconds, before, after, best):
    """A time measured between two reference timings, scaled to the speed at
    which the reference work took best."""
    return seconds * 2.0 * best / (before + after)


def tail_percentile(n):
    """Highest whole percentile with at least 10 of n samples beyond it
    (the median when n < 20)."""
    return max(50, math.floor(100 * (1 - 10 / n)))


class Run:
    def __init__(self, args, workloads, tracer):
        self.args = args
        self.workloads = workloads
        self.tracer = tracer
        # per pass: (op latencies, reference times before each op and after
        # the last), in seconds, for untraced (False) and traced (True) passes
        self.passes = {False: [], True: []}
        self.setups = []  # (seconds, reference before, reference after)
        self.follows_host = []  # per op: is its latency scaled to the host's best speed
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.unexpected = 0
        self.acc = defaultdict(float)
        self.cache = {}

    def session(self, index, tr, workdir):
        a = self.args
        tr.op = f"s{index}"
        before = reference_seconds()
        t0 = time.perf_counter()
        with tr.span("bench.setup"):
            ops = self.workloads.setup(a.workload, a.seed, a.size, tr, workdir)
        setup = time.perf_counter() - t0
        outs, times, refs = [], [], [reference_seconds()]
        for i, op in enumerate(ops):
            tr.op = f"s{index}.{i}"
            t = time.perf_counter()
            with tr.span("bench.op", kind=op.kind):
                try:
                    out = op.run(tr)
                except Exception as exc:  # a failed op is counted, the run goes on
                    out = exc
            times.append(time.perf_counter() - t)
            refs.append(reference_seconds())
            outs.append(out)
        self.passes[tr.on].append((times, refs))
        self.follows_host = [op.slows_with_host for op in ops]
        if not tr.on:
            self.setups.append((setup, before, refs[0]))
        for i, (op, out) in enumerate(zip(ops, outs)):
            tr.op = f"s{index}.{i}"
            with tr.span("bench.check"):
                try:
                    why = op.check(out, tr, self.cache)
                except Exception as exc:  # a broken output must not stop the run
                    why = f"check raised {type(exc).__name__}: {exc}"
            self.attempted += 1
            if why:
                self.failed += 1
                self.unexpected += not op.known_defect
                self.failures.append(f"{op.kind}[{op.tag}]: {why}"
                                     + (" (known defect)" if op.known_defect else ""))
            if tr.on:
                op.count(out, self.acc)

    def best_reference(self):
        """The reference time at the host's best speed in this run."""
        return percentile([r for _, refs in self.passes[False] for r in refs], 1)

    def latencies(self, traced, best):
        """Per op, its latency in each pass: at the host's best speed if the
        op slows down with the host, as measured otherwise."""
        return [[at_best_speed(t, r0, r1, best) if scale else t
                 for t, r0, r1, scale in zip(times, refs, refs[1:], self.follows_host)]
                for times, refs in self.passes[traced]]

    def end_to_end(self, imports):
        best = self.best_reference()
        per_op = [min(op) for op in zip(*self.latencies(False, best))]
        per_op_ms = [t * 1000.0 for t in per_op]
        import_s = statistics.median(at_best_speed(t, r0, r1, best) for r0, t, r1 in imports)
        setup_s = statistics.median(at_best_speed(*s, best) for s in self.setups)
        passes, n = len(self.passes[False]), len(per_op)
        pct = tail_percentile(n)
        values = {
            "wall_s": math.fsum(per_op),
            "op_p50_ms": statistics.median(per_op_ms),
            "op_tail_ms": percentile(per_op_ms, pct),
            "setup_s": import_s + setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        each = f"each op its best of {passes} passes"
        notes = {
            "wall_s": f"sum over {n} ops, {each}",
            "op_p50_ms": f"n={n} ops, {each}",
            "op_tail_ms": f"p{pct}, n={n} ops, {each}",
            "setup_s": f"import {import_s:.4f} s (median of {IMPORT_SAMPLES}) + median set-up "
                       f"of {len(self.setups)} sessions, at the host's best speed",
            "peak_rss_mb": "ru_maxrss of this process",
        }
        raw_best = math.fsum(min(op) for op in zip(*(times for times, _ in self.passes[False])))
        refs = [r for _, rs in self.passes[False] for r in rs]
        notes["raw"] = (f"unscaled: sum of each op's best latency {raw_best:.4f} s; reference "
                        f"work p1 {best * 1e3:.4f} ms, median {statistics.median(refs) * 1e3:.4f} ms "
                        f"over {len(refs)} timings")
        return values, notes

    def per_layer(self):
        tr = self.tracer
        n = len(self.passes[True])
        calls, secs, nbytes = defaultdict(int), defaultdict(float), defaultdict(float)
        project_ms = defaultdict(list)
        for name, start, end, _, _, attrs in tr.spans:
            calls[name] += 1
            secs[name] += end - start
            nbytes[name] += attrs.get("bytes", 0)
            if name == "maxent.maxent_project":
                project_ms[attrs["shape"]].append((end - start) * 1000.0)
        values = {}
        for metric, (_, source) in PER_LAYER.items():
            span = metric.rsplit(".", 1)[0]
            if source == "calls":
                values[metric] = calls[span] / n
            elif source == "s":
                values[metric] = secs[span] / n
            elif source == "bytes":
                values[metric] = nbytes[span] / n
            elif source == "acc":
                values[metric] = self.acc[metric] / n
        iters = values["maxent.iterations"]
        values["maxent.s_per_iteration"] = values["maxent.maxent_project.s"] / iters if iters else 0.0
        for tag in PROJECT_SHAPES:
            got = project_ms.get(tag)
            values[f"maxent.project_ms.{tag}"] = statistics.median(got) if got else 0.0
        values["maxent.divergence_gap_max"] = self.acc["maxent.divergence_gap_max"]
        restarts = self.acc["maximizers.restarts"]
        values["maximizers.evaluations_per_restart"] = (
            self.acc["maximizers.evaluations"] / restarts if restarts else 0.0)
        own = tr.self_times()
        for layer in LAYERS:
            values[f"self_s.{layer}"] = own.get(layer, 0.0) / n
        best = self.best_reference()
        walls = {on: statistics.median(math.fsum(p) for p in self.latencies(on, best))
                 for on in (False, True)}
        values["trace.overhead_s"] = walls[True] - walls[False]
        notes = {"trace.overhead_s": "median traced pass - median untraced pass"}
        return {k: values[k] for k in PER_LAYER}, notes


def percentile(values, pct):
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "hiercorr").is_dir():
        print(f"error: no hiercorr sources under {SRC}", file=sys.stderr)
        return 2
    # the library default a user gets: one BLAS thread per available core,
    # whatever the calling shell had set
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(nproc)
    sys.path.insert(0, str(SRC))
    import numpy as np
    import scipy

    import spans
    import workloads

    env = environment(np, scipy)
    imports = import_timings()
    tracer = spans.Tracer()
    null = spans.NullTracer()
    run = Run(args, workloads, tracer)
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    began = time.perf_counter()
    try:
        index = 0
        while True:
            traced = bool(args.trace) and index % 2 == 1
            t0 = time.perf_counter()
            run.session(index, tracer if traced else null, workdir)
            index += 1
            took = time.perf_counter() - t0
            enough = run.passes[False] and (run.passes[True] or not args.trace)
            # start no session that would end after the measuring time
            if enough and time.perf_counter() - began + took > args.seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    header = {"workload": args.workload, "seed": args.seed, "size": args.size,
              "seconds": args.seconds, "trace": args.trace, "env": env}
    print("# " + json.dumps(header))
    if args.trace:
        values, notes = run.per_layer()
        units = {k: u for k, (u, _) in PER_LAYER.items()}
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.write(spans_path, header)
        print(f"# {len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}")
    else:
        values, notes = run.end_to_end(imports)
        units = END_TO_END
        latency_path = OUT / f"latency-{args.workload}-seed{args.seed}.json"
        latency_path.write_text(json.dumps({**header, "passes": run.passes[False],
                                            "setups": run.setups, "imports": imports,
                                            "follows_host": run.follows_host}))
    for name, value in values.items():
        print(f"# {name} = {value:.6g} {units[name]}" + (f"  ({notes[name]})" if name in notes else ""))
    if "raw" in notes:
        print(f"# {notes['raw']}")
    print(f"# attempted {run.attempted}, failed {run.failed} "
          f"(failed_frac {run.failed / run.attempted:.4g}), {run.unexpected} outside known defects")
    for line in sorted(set(run.failures))[:20]:
        print(f"# failure: {line}")
    result = {
        "correct": run.unexpected == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
