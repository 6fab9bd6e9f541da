"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench -q
"""
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from spans import NullTracer, Tracer  # noqa: E402

from hiercorr import SystemShape, build_model, hypergraph_k, random_density  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_prints_every_metric(workload, trace):
    done = _run("--workload", workload, "--seed", "3", "--seconds", "0",
                "--trace", str(trace), "--size", "tiny")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for m in spec:
        assert isinstance(result["metrics"][m["name"]]["value"], float)
        assert any(line.startswith(f"# {m['name']} = ") and f" {m['unit']}" in line
                   for line in lines)


@pytest.fixture
def bare_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    return tmp_path


def test_benchmark_alone_exits_nonzero_without_result(bare_checkout):
    done = _run("--workload", "interior", "--seed", "0", "--seconds", "1", "--trace", "0",
                cwd=bare_checkout)
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def _projection_op():
    shape = SystemShape.qubits(3)
    rho = random_density(shape, np.random.default_rng(5))
    return workloads.ProjectOp(rho, build_model(shape, hypergraph_k(3, 2)), set())


def test_projection_check_flags_a_perturbed_projection():
    op = _projection_op()
    tr = NullTracer()
    res = op.run(tr)
    assert op.check(res, tr, {}) is None

    shifted = dataclasses.replace(res, divergence=res.divergence + 1e-4)
    assert "relative entropy" in op.check(shifted, tr, {})

    d = op.rho.shape.dim
    mixed = (1 - 1e-3) * res.state.matrix + 1e-3 * np.eye(d) / d
    moved = dataclasses.replace(res, state=type(res.state)(op.rho.shape, mixed))
    assert "moment residual" in op.check(moved, tr, {})

    assert "converged" in op.check(dataclasses.replace(res, converged=False), tr, {})
    assert "raised" in op.check(RuntimeError("boom"), tr, {})


def test_rank_check_flags_a_wrong_rank():
    op = workloads.RankOp(build_model(SystemShape.bits(3), hypergraph_k(3, 2)))
    rank = op.run(NullTracer())
    assert op.check(rank, NullTracer(), {}) is None
    assert op.check(rank - 1, NullTracer(), {}) is not None


def test_support_sample_keeps_the_share_of_each_kind_of_support():
    configs, orbits = workloads._cube_orbits()
    assert sum(len(o) for o in orbits) == 255

    def classes(seed):
        _, sample = workloads.support_sample(np.random.default_rng(seed), 24)
        return sorted(next(i for i, o in enumerate(orbits) if s in o) for s in sample), sample

    (a, sa), (b, sb) = classes(1), classes(2)
    assert len(sa) == 24 and a == b and sa != sb
    assert classes(1)[1] == sa
    assert set(a) == set(range(len(orbits)))
    nonfeasible = sum(workloads.cylinder_closure(configs, s, 2) != frozenset(s) for s in sa)
    assert nonfeasible == round(24 * 90 / 255)


def test_tracer_self_time_subtracts_children():
    tr = Tracer()
    with tr.span("maxent.outer"):
        with tr.span("algebra.inner"):
            pass
    (outer, o0, o1, *_), (inner, i0, i1, parent, *_) = tr.spans
    assert parent == 0
    own = tr.self_times()
    assert own["maxent"] == pytest.approx((o1 - o0) - (i1 - i0))
    assert own["algebra"] == pytest.approx(i1 - i0)


def test_only_ops_that_slow_with_the_host_are_scaled():
    r = run.Run(None, None, None)
    r.follows_host = [True, False]
    # the reference took 1 ms at best and 3 ms around the first op of pass 0
    r.passes[False] = [([0.2, 0.2], [0.001, 0.005, 0.001]), ([0.3, 0.3], [0.001] * 3)]
    best = r.best_reference()
    assert best == pytest.approx(0.001)
    (first, second) = r.latencies(False, best)
    assert first == pytest.approx([0.2 / 3, 0.2])
    assert second == pytest.approx([0.3, 0.3])
