"""Workloads of the hiercorr benchmark: inputs, ops and their correctness checks.

A workload's ``setup`` generates every input from the seed, builds the
models and returns the fixed list of ops, in order.  An op is one top-level
public call into hiercorr.  ``run`` makes that call and returns what it
returned; ``check`` compares the output with a reference and returns None
when it is correct or the reason it is not; ``count`` adds the layer
counters a traced run reports.  ``run`` and ``check`` open spans on the
tracer they are given; with tracing off those spans cost one call each.

The lazy dense basis stack (``HierarchicalModel.basis_matrices``) is not
built in set-up: its cost stays inside the first op on each model, as a
one-shot user pays it.  A traced run materializes it in a span of its own
just before that first op, inside the op's span.
"""
from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
from collections import defaultdict
from pathlib import Path

import numpy as np

from hiercorr import cli
from hiercorr import io as hio
from hiercorr.algebra import (
    State,
    SystemShape,
    algebra_mask,
    expectation_values,
    gibbs_map,
    relative_entropy,
)
from hiercorr.factorization import (
    build_interaction_matrix,
    enumerate_feasibility,
    toric_kernel,
)
from hiercorr.hierarchy import (
    build_model,
    covering_hypergraphs,
    hypergraph_k,
    model_dim,
    numerical_basis_rank,
)
from hiercorr.maxent import maxent_project, multi_information
from hiercorr.maximizers import search_local_maximizers
from hiercorr.states import ghz_state, random_density, random_pure, uniform_on
from hiercorr.twoqubit import verify_mutual_information_bound

LOG2 = math.log(2.0)
# tolerances of the demo checks that test the same quantities
DIVERGENCE_GAP_TOL = 1e-6  # independence-closed-form, projection-identity
GHZ_TOL = 1e-3  # ghz-ladder
PURE_C2_TOL = 1e-2  # generic-pure-states
LADDER_SUM_TOL = 1e-3  # ghz-ladder increment sum
SEARCH_VALUE_TOL = 1e-6  # maximizer-search
EXP_FORM_TOL = 1e-5  # maximizer-search
BOUND_TOL = 1e-9  # separable-information-bound
LIMIT_SUPPORT_TOL = 1e-8  # feasibility-exhaustive
# moment residuals that maxent_project accepts as converged, in the interior
# and on the boundary (INTERIOR_TOL and BOUNDARY_TOL of hiercorr.maxent)
INTERIOR_MOMENT_TOL = 1e-8
BOUNDARY_MOMENT_TOL = 1e-5
# a projection must equal the Gibbs state of the parameters it reports
GIBBS_TOL = 1e-6
# default sweep cap of the ipf route
IPF_SWEEP_CAP = 20000

WORKLOADS = ("interior", "boundary", "search", "certify")


def shape_tag(shape: SystemShape) -> str:
    """Short name of a shape: q5 = five qubits, t3 = three qutrits, b3 = three
    bits, otherwise unit kinds and sizes (cqcq-2222)."""
    for letter, size, uniform in (("q", 2, shape.all_quantum), ("t", 3, shape.all_quantum),
                                  ("b", 2, shape.all_classical)):
        if uniform and shape.sizes == (size,) * shape.N:
            return f"{letter}{shape.N}"
    return "".join(k[0] for k in shape.kinds) + "-" + "".join(map(str, shape.sizes))


def _built(tr, shape, hg):
    with tr.span("hierarchy.build_model"):
        return build_model(shape, hg)


def _first_use(tr, model, seen: set):
    """Traced runs time the lazy stack apart, inside the op that pays for it."""
    if tr.on and id(model) not in seen:
        seen.add(id(model))
        m, d = model.n_elements, model.shape.dim
        with tr.span("hierarchy.basis_matrices", bytes=m * d * d * 16):
            model.basis_matrices()


def _failed(out):
    if isinstance(out, BaseException):
        return f"raised {type(out).__name__}: {out}"
    return None


# ------------------------------------------------------------------ ops


class Op:
    known_defect = False  # a failure here is a documented defect of hiercorr
    # The op's latency follows the host's slow phases the way the pure-Python
    # reference work of run.py does, so run.py scales it to the host's best
    # speed.  Pooled over ten certify runs, the slope of log latency on log
    # reference slowdown is 0.9-1.1 for these ops (0.5 for the rank checks on
    # (2,2,2,3)), which spend their time in the interpreter and in small
    # numpy calls.
    slows_with_host = True

    def count(self, out, acc):
        """Add this op's layer counters to acc; most ops have none."""


class ProjectOp(Op):
    """maxent_project(rho, model, method="auto") on one state."""

    kind = "maxent.maxent_project"
    # Time goes to dense eigh/exp in BLAS, which the host's slow phases barely
    # touch: pooled over ten interior runs the slope above is -0.04 to 0.05 on
    # q4-q7, t3, (2,2,2,2) and the ladders (0.8 on the small q3 projections,
    # taken as measured too).  Scaling would make these ops read faster in
    # slow runs.
    slows_with_host = False

    def __init__(self, rho, model, seen, *, boundary=False, expect=None, known_defect=False):
        self.rho = rho
        self.model = model
        self.seen = seen
        self.tag = shape_tag(rho.shape)
        self.moment_tol = BOUNDARY_MOMENT_TOL if boundary else INTERIOR_MOMENT_TOL
        self.expect = expect
        self.known_defect = known_defect

    def run(self, tr):
        _first_use(tr, self.model, self.seen)
        with tr.span(self.kind, shape=self.tag):
            return maxent_project(self.rho, self.model, method="auto")

    def check(self, res, tr, cache):
        return _failed(res) or check_projection(self, res, tr)

    def count(self, res, acc):
        if isinstance(res, BaseException):
            return
        acc["maxent.iterations"] += res.iterations
        acc[f"maxent.route.{res.method}"] += 1
        acc["maxent.nonconverged"] += not res.converged
        acc["maxent.peel_rounds"] += res.diagnostics.get("rounds", 0)
        acc["maxent.ipf_sweep_cap_hits"] += res.method == "ipf" and res.iterations >= IPF_SWEEP_CAP
        gap = abs(res.divergence - res.diagnostics["relative_entropy_direct"])
        if math.isfinite(gap):
            acc["maxent.divergence_gap_max"] = max(acc["maxent.divergence_gap_max"], gap)


def check_projection(op, res, tr):
    """Is res the projection of op.rho onto op.model?

    The returned state must be a valid state, match the moments of rho on
    the model basis, equal the Gibbs state of the parameters it reports,
    and carry a divergence equal to the relative entropy of rho to it.
    """
    if not res.converged:
        return "converged=False"
    shape = op.rho.shape
    with tr.span("algebra.State"):
        State(shape, op.rho.matrix)
    with tr.span("algebra.State"):
        pi = State(shape, res.state.matrix)
    with tr.span("algebra.algebra_mask"):
        algebra_mask(shape)
    stack = op.model.basis_matrices()
    with tr.span("algebra.expectation_values"):
        moments = expectation_values(pi.matrix - op.rho.matrix, stack)
    resid = float(np.max(np.abs(moments)))
    if resid > op.moment_tol:
        return f"moment residual {resid:.2e} above {op.moment_tol:.0e}"
    if res.theta is not None:
        hamiltonian = res.theta.hamiltonian(op.model)
        with tr.span("algebra.gibbs_map"):
            gibbs = gibbs_map(hamiltonian)
        off = float(np.max(np.abs(gibbs - pi.matrix)))
        if off > GIBBS_TOL:
            return f"projection is {off:.2e} away from the Gibbs state of its parameters"
    else:
        with tr.span("algebra.gibbs_map"):
            gibbs_map(op.rho.matrix)
    with tr.span("algebra.relative_entropy"):
        direct = relative_entropy(op.rho.matrix, pi.matrix)
    if not abs(res.divergence - direct) <= DIVERGENCE_GAP_TOL:
        return f"|divergence - relative entropy| = {abs(res.divergence - direct):.2e}"
    return op.expect(res, pi) if op.expect else None


class LadderOp(Op):
    """`hiercorr decompose --state FILE`, in-process through cli.main."""

    kind = "cli.main"
    slows_with_host = False  # a ladder of projections, as ProjectOp

    def __init__(self, rho, path):
        self.rho = rho
        self.path = str(path)
        self.tag = shape_tag(rho.shape)

    def run(self, tr):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), tr.span(self.kind, shape=self.tag):
            code = cli.main(["decompose", "--state", self.path])
        return code, buf.getvalue()

    def check(self, out, tr, cache):
        bad = _failed(out)
        if bad:
            return bad
        code, text = out
        if code != 0:
            return f"exit code {code}"
        report = json.loads(text)
        with tr.span("io.dump_report"):
            dumped = hio.dump_report(report)
        if json.loads(dumped) != report:
            return "report does not survive a dump and reload"
        with tr.span("io.load_state"):
            loaded = hio.load_state(self.path)
        if float(np.max(np.abs(loaded.matrix - self.rho.matrix))) > 1e-12:
            return "state file does not reload to the generated state"
        res = report["results"]
        c, total = res["c"], res["total"]
        want = multi_information(self.rho)
        if abs(total - want) > DIVERGENCE_GAP_TOL:
            return f"total {total:.9f} differs from the multi-information {want:.9f}"
        if abs(sum(res["C"].values()) - total) > LADDER_SUM_TOL:
            return "increments do not sum to the total"
        if any(b > a + DIVERGENCE_GAP_TOL for a, b in zip(c, c[1:])) or min(c) < 0.0:
            return f"ladder {c} is not non-increasing and non-negative"
        return None


class SearchOp(Op):
    """search_local_maximizers with a small restart count, one seed per op."""

    kind = "maximizers.search_local_maximizers"

    def __init__(self, shape, model, seen, seed, restarts, top, best_support):
        self.shape = shape
        self.model = model
        self.seen = seen
        self.seed = seed
        self.restarts = restarts
        self.top = top
        self.best_support = best_support
        self.tag = shape_tag(shape)

    def run(self, tr):
        _first_use(tr, self.model, self.seen)
        with tr.span(self.kind, shape=self.tag):
            return search_local_maximizers(
                self.shape, self.model, n_restarts=self.restarts, seed=self.seed
            )

    def check(self, rep, tr, cache):
        bad = _failed(rep)
        if bad:
            return bad
        if rep.projection_failures:
            return f"{rep.projection_failures} projections did not converge"
        with tr.span("algebra.State"):
            State(self.shape, rep.best.state.matrix)
        if abs(rep.best.value - self.top) > SEARCH_VALUE_TOL:
            return f"best value {rep.best.value:.9f}, known maximum {self.top:.9f}"
        if any(r.value > self.top + SEARCH_VALUE_TOL for r in rep.records):
            return "a local maximum exceeds the global one"
        if any(r.support_dim > rep.bound.value for r in rep.records):
            return "a maximizer breaks the support bound"
        if any(r.exp_residual > EXP_FORM_TOL for r in rep.records):
            return "a maximizer is not of exponential form on its support"
        if self.best_support is not None and rep.best.support_dim != self.best_support:
            return f"best maximizer has support {rep.best.support_dim}, expected {self.best_support}"
        return None

    def count(self, rep, acc):
        if isinstance(rep, BaseException):
            return
        acc["maximizers.evaluations"] += rep.evaluations
        acc["maximizers.projection_failures"] += rep.projection_failures
        acc["maximizers.restarts"] += rep.n_restarts


class RankOp(Op):
    """numerical_basis_rank of one built model against the closed form."""

    kind = "hierarchy.numerical_basis_rank"

    def __init__(self, model):
        self.model = model
        self.tag = shape_tag(model.shape)

    def run(self, tr):
        with tr.span(self.kind, shape=self.tag):
            return numerical_basis_rank(self.model)

    def check(self, rank, tr, cache):
        want = model_dim(self.model.shape, self.model.hypergraph)[0]
        return _failed(rank) or (None if rank == want else f"rank {rank}, closed form {want}")


def cylinder_closure(configs, support, k):
    """Configurations all of whose restrictions to at most k units occur in
    the support.  A feasible support equals its closure; on three bits at
    k = 2 the converse holds too."""
    n = len(configs[0])
    subsets = [nu for r in range(k + 1) for nu in itertools.combinations(range(n), r)]
    seen = {(nu, tuple(y[i] for i in nu)) for y in support for nu in subsets}
    return frozenset(
        x for x in configs if all((nu, tuple(x[i] for i in nu)) in seen for nu in subsets)
    )


def closed_counts(shape, k, max_size):
    """Per support size: (supports, supports equal to their closure)."""
    configs = [tuple(c) for c in build_interaction_matrix(shape, k).configs]
    out = {}
    for size in range(1, max_size + 1):
        subs = list(itertools.combinations(configs, size))
        out[size] = (len(subs), sum(cylinder_closure(configs, s, k) == frozenset(s) for s in subs))
    return out


class FeasibilityOp(Op):
    """enumerate_feasibility on bits, against counts of closed supports."""

    kind = "factorization.enumerate_feasibility"

    def __init__(self, shape, k, max_size, exact):
        self.shape = shape
        self.k = k
        self.max_size = max_size
        self.exact = exact  # closure decides feasibility exactly for this shape
        self.tag = shape_tag(shape)

    def run(self, tr):
        with tr.span(self.kind, shape=self.tag):
            return enumerate_feasibility(self.shape, self.k, self.max_size)

    def check(self, rep, tr, cache):
        bad = _failed(rep)
        if bad:
            return bad
        key = (self.shape, self.k, self.max_size)
        if key not in cache:
            cache[key] = closed_counts(self.shape, self.k, self.max_size)
        for size, (total, closed) in cache[key].items():
            got_total, feasible = rep.by_size[size]
            if got_total != total:
                return f"{got_total} supports of size {size}, expected {total}"
            if feasible > closed or (self.exact and feasible != closed):
                return f"{feasible} feasible supports of size {size}, {closed} closed ones"
        if not rep.small_sets_all_feasible or rep.min_nonfeasible_size != self.k + 1:
            return f"smallest non-feasible support has size {rep.min_nonfeasible_size}"
        return None

    def count(self, rep, acc):
        if not isinstance(rep, BaseException):
            acc["factorization.subsets"] += sum(total for total, _ in rep.by_size.values())


class ToricOp(Op):
    """toric_kernel of an interaction matrix: an integer basis of its kernel."""

    kind = "factorization.toric_kernel"

    def __init__(self, imat):
        self.imat = imat
        self.tag = shape_tag(imat.shape)

    def run(self, tr):
        with tr.span(self.kind, shape=self.tag):
            return toric_kernel(self.imat)

    def check(self, kernel, tr, cache):
        bad = _failed(kernel)
        if bad:
            return bad
        a = self.imat.matrix
        want = a.shape[1] - np.linalg.matrix_rank(a)
        if kernel.shape[0] != want or np.linalg.matrix_rank(kernel) != want:
            return f"kernel has {kernel.shape[0]} rows, expected {want} independent ones"
        if np.any(a @ kernel.T):
            return "a kernel row is not in the kernel"
        return None


class BoundOp(Op):
    """verify_mutual_information_bound on a seeded sample of separable states."""

    kind = "twoqubit.verify_mutual_information_bound"
    tag = "q2"

    def __init__(self, samples, seed):
        self.samples = samples
        self.seed = seed

    def run(self, tr):
        with tr.span(self.kind):
            return verify_mutual_information_bound(n_samples=self.samples, seed=self.seed)

    def check(self, rep, tr, cache):
        bad = _failed(rep)
        if bad:
            return bad
        if not rep["passed"] or rep["violations"]:
            return f"{rep['violations']} separable states above log 2"
        if rep["extreme_point_gap"] > BOUND_TOL or rep["max_mutual_information"] > LOG2 + BOUND_TOL:
            return "bound not attained or exceeded"
        return None


# ------------------------------------------------------------- workloads


def setup_interior(rng, size, tr, workdir):
    """Seeded full-rank states: k = 2 projections on every shape, and full
    ladders through the CLI on state files written here."""
    shapes = [SystemShape.qubits(n) for n in range(3, 8)] + [
        SystemShape.quantum((3, 3, 3)),
        SystemShape((2, 2, 2, 2), ("classical", "quantum", "classical", "quantum")),
    ]
    ladder_qubits = (3, 4, 5)
    per_shape, per_ladder = (4, 2) if size == "full" else (1, 1)
    if size != "full":
        shapes, ladder_qubits = [shapes[0], shapes[-1]], (3,)
    seen = set()
    ops = []
    for shape in shapes:
        model = _built(tr, shape, hypergraph_k(shape.N, 2))
        ops += [ProjectOp(random_density(shape, rng), model, seen) for _ in range(per_shape)]
    for n in ladder_qubits:
        for j in range(per_ladder):
            rho = random_density(SystemShape.qubits(n), rng)
            path = Path(workdir) / f"ladder-q{n}-{j}.json"
            path.write_text(json.dumps(hio.state_to_dict(rho)))
            ops.append(LadderOp(rho, path))
    return ops


def _cube_orbits():
    """Supports on three bits, grouped by symmetry class under relabeling
    and flipping the bits (which the pairwise family is invariant under)."""
    configs = list(itertools.product((0, 1), repeat=3))
    group = [(p, f) for p in itertools.permutations(range(3))
             for f in itertools.product((0, 1), repeat=3)]
    orbits = defaultdict(list)
    for r in range(1, 9):
        for sub in itertools.combinations(configs, r):
            key = min(tuple(sorted(tuple(c[p[i]] ^ f[i] for i in range(3)) for c in sub))
                      for p, f in group)
            orbits[key].append(sub)
    return configs, [orbits[key] for key in sorted(orbits)]


def _largest_remainder(count, weights):
    """Split count in proportion to weights; ties go to the earlier weight."""
    total = sum(weights)
    quota = [count * w / total for w in weights]
    take = [int(q) for q in quota]
    by_remainder = sorted(range(len(weights)), key=lambda i: take[i] - quota[i])
    for i in by_remainder[: count - sum(take)]:
        take[i] += 1
    return take


def support_sample(rng, count):
    """Seeded sample of the 255 supports on three bits.

    The split between feasible and non-feasible supports follows the 255 by
    largest remainder.  Within each part every symmetry class gets one
    support when there is room, and the rest is split by class size.  None
    of this depends on the seed, which picks the members.  So every seed
    keeps the natural share of non-feasible supports and the same kinds of
    boundary behaviour, while drawing different supports.
    """
    configs, orbits = _cube_orbits()
    parts = ([o for o in orbits if cylinder_closure(configs, o[0], 2) == frozenset(o[0])],
             [o for o in orbits if cylinder_closure(configs, o[0], 2) != frozenset(o[0])])
    picks = []
    for part, n_part in zip(parts, _largest_remainder(count, [sum(map(len, p)) for p in parts])):
        base = 1 if n_part >= len(part) else 0
        rest = _largest_remainder(n_part - base * len(part), [len(o) - base for o in part])
        for orbit, n in zip(part, (base + r for r in rest)):
            picks += [orbit[i] for i in rng.choice(len(orbit), size=n, replace=False)]
    return configs, [picks[i] for i in rng.permutation(len(picks))]


def _expect_ghz(res, pi):
    if abs(res.divergence - LOG2) > GHZ_TOL:
        return f"GHZ divergence {res.divergence:.9f}, expected log 2"
    return None


def _expect_pure(res, pi):
    if res.divergence > PURE_C2_TOL:
        return f"generic pure state at divergence {res.divergence:.3e}"
    return None


def _expect_closure(configs, closure):
    def expect(res, pi):
        probs = np.real(np.diag(pi.matrix))
        limit = frozenset(c for c, p in zip(configs, probs) if p > LIMIT_SUPPORT_TOL)
        return None if limit == closure else "limit support is not the cylinder closure"
    return expect


def setup_boundary(rng, size, tr, workdir):
    """Rank-deficient targets: GHZ, Haar-random pure states, and uniform
    distributions on sampled three-bit supports.

    Pure states are on three qubits only: at four a projection takes about
    1.6 s and at five up to 20 s (the iteration cap), which would leave too
    few passes in a run to measure steadily.
    """
    ghz_n, pure_n, supports = ((3, 4, 5, 6, 7), (3,) * 8, 24) if size == "full" else ((3,), (3,), 4)
    seen = set()
    models = {}

    def model_for(shape):
        if shape not in models:
            models[shape] = _built(tr, shape, hypergraph_k(shape.N, 2))
        return models[shape]

    ops = []
    for n in ghz_n:
        rho = ghz_state(n)
        ops.append(ProjectOp(rho, model_for(rho.shape), seen, boundary=True, expect=_expect_ghz))
    for n in pure_n:
        rho = random_pure(SystemShape.qubits(n), rng)
        ops.append(ProjectOp(rho, model_for(rho.shape), seen, boundary=True, expect=_expect_pure))
    bits = SystemShape.bits(3)
    configs, sample = support_sample(rng, supports)
    for sub in sample:
        closure = cylinder_closure(configs, sub, 2)
        # non-feasible supports are the known ipf defect: sweep cap, divergence
        # gap and, on one symmetry class, converged=False
        ops.append(ProjectOp(uniform_on(bits, sub), model_for(bits), seen, boundary=True,
                             expect=_expect_closure(configs, closure),
                             known_defect=closure != frozenset(sub)))
    return ops


# (shape, k, global maximum, support of the best maximizer) from the
# maximizer-search demo check
SEARCH_CASES = (
    (SystemShape.bits(2), 1, LOG2, 2),
    (SystemShape.qubits(2), 1, 2 * LOG2, 1),
    (SystemShape.bits(3), 2, LOG2, None),
)


SEARCH_RESTARTS = 2


def _search_ops(rng, per_case, tr):
    """per_case multistart searches on each case, one seed per op."""
    seen = set()
    ops = []
    for shape, k, top, best_support in SEARCH_CASES:
        model = _built(tr, shape, hypergraph_k(shape.N, k))
        for seed in rng.integers(0, 2**31, size=per_case):
            ops.append(SearchOp(shape, model, seen, int(seed), SEARCH_RESTARTS, top, best_support))
    return ops


def setup_search(rng, size, tr, workdir):
    """Many small multistart searches: per-call overhead dominates."""
    ops = _search_ops(rng, 10 if size == "full" else 1, tr)
    return [ops[i] for i in rng.permutation(len(ops))]


# separable states per two-qubit bound op; several short ops rather than one
# long one, so that each op's best time over a run's passes is steady
BOUND_SAMPLES = 250


def setup_certify(rng, size, tr, workdir):
    """Results with a known answer: rank certificates over all covering
    hypergraphs on both branches of numerical_basis_rank, feasibility counts,
    toric kernels, the two-qubit bound, and multistart searches that must
    find the known global maximum."""
    if size == "full":
        n_units, shapes = 4, [SystemShape.quantum((2, 2, 2, 3)), SystemShape.quantum((3, 3, 3, 3))]
        feas, bounds, searches = [(3, 8, True), (4, 4, False)], 8, 4
    else:
        n_units, shapes = 3, [SystemShape.quantum((2, 2, 3))]
        feas, bounds, searches = [(3, 8, True)], 1, 1
    hgs = list(covering_hypergraphs(n_units))
    ops = [RankOp(_built(tr, shape, hg)) for shape in shapes for hg in hgs]
    for n, max_size, exact in feas:
        bits = SystemShape.bits(n)
        ops.append(FeasibilityOp(bits, 2, max_size, exact))
        with tr.span("factorization.build_interaction_matrix"):
            ops.append(ToricOp(build_interaction_matrix(bits, 2)))
    ops += [BoundOp(BOUND_SAMPLES, int(seed)) for seed in rng.integers(0, 2**31, size=bounds)]
    ops += _search_ops(rng, searches, tr)
    return [ops[i] for i in rng.permutation(len(ops))]


SETUP = {
    "interior": setup_interior,
    "boundary": setup_boundary,
    "search": setup_search,
    "certify": setup_certify,
}


def setup(workload, seed, size, tr, workdir):
    """Fixed op list of a workload; the same seed gives the same inputs."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, WORKLOADS.index(workload)]))
    return SETUP[workload](rng, size, tr, workdir)
