"""Interaction matrices of k-body classical families, feasibility and toric tests.

The 0/1 interaction matrix has one row per (subset of k units, local
configuration on it) and one column per global configuration; a column
carries a 1 exactly in the rows its configuration restricts to.  Monomial
images of this matrix sweep out the factorizable distributions; membership in
the closure is certified against the integer kernel (binomial relations).
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .algebra import ShapeError, SystemShape
from .states import all_configs

SUBSET_GUARD = 2**20
# entries of the largest array one pass of enumerate_feasibility holds, a
# (supports, configurations) float32 block: 1 MB whatever the total work
BLOCK_ENTRIES = 2**18
# relative tolerance on the two sides of each binomial relation
TORIC_RTOL = 1e-9


class GuardExceeded(RuntimeError):
    """Exhaustive enumeration would exceed the configured work limit."""


@dataclass
class InteractionMatrix:
    """Rows (nu, y) over columns x with entry 1 iff x restricted to nu equals y."""

    shape: SystemShape
    k: int
    rows: list[tuple[tuple[int, ...], tuple[int, ...]]]
    configs: list[tuple[int, ...]]
    matrix: np.ndarray

    def row(self, nu, y) -> np.ndarray:
        key = (tuple(sorted(int(i) for i in nu)), tuple(int(s) for s in y))
        try:
            idx = self._row_lookup[key]
        except AttributeError:
            self._row_lookup = {r: i for i, r in enumerate(self.rows)}
            idx = self._row_lookup[key]
        return self.matrix[idx]

    @property
    def n_rows(self) -> int:
        return self.matrix.shape[0]


def _check_family(shape: SystemShape, k: int) -> None:
    if not shape.all_classical:
        raise ShapeError("interaction matrices are defined for all-classical shapes")
    if not 1 <= k <= shape.N:
        raise ValueError(f"k must lie in 1..{shape.N}, got {k}")


def build_interaction_matrix(shape: SystemShape, k: int) -> InteractionMatrix:
    """Interaction matrix of the k-body family of an all-classical shape.

    Columns follow mixed-radix configuration order with unit 1 most
    significant; rows iterate subsets nu of size k lexicographically and,
    within each nu, local configurations in the same mixed-radix order.
    """
    _check_family(shape, k)
    configs = all_configs(shape)
    digits = np.array(configs, dtype=np.int64)
    rows = []
    blocks = []
    for nu in itertools.combinations(range(1, shape.N + 1), k):
        local = [()]
        for n in (shape.sizes[i - 1] for i in nu):
            local = [c + (s,) for c in local for s in range(n)]
        rows.extend((nu, y) for y in local)
        # a column matches a row when its digits on nu are the row's local ones
        on_nu = digits[:, [i - 1 for i in nu]]
        blocks.append(np.all(np.array(local)[:, None, :] == on_nu[None], axis=2))
    mat = np.concatenate(blocks).astype(np.int64)
    return InteractionMatrix(shape=shape, k=k, rows=rows, configs=configs, matrix=mat)


def monomial_map(imat: InteractionMatrix, t) -> np.ndarray:
    """Image of nonnegative row weights t: componentwise product of t over each column's rows.

    Zero weights simply annihilate every configuration their row touches
    (the empty product over no rows is 1).
    """
    t = np.asarray(t, dtype=float)
    if t.shape != (imat.n_rows,):
        raise ValueError(f"expected {imat.n_rows} weights, got {t.shape}")
    if t.min() < 0:
        raise ValueError("monomial weights must be nonnegative")
    out = np.ones(len(imat.configs))
    for r in range(imat.n_rows):
        col = imat.matrix[r].astype(bool)
        out[col] *= t[r]
    return out


def _in_closure(cells: np.ndarray, supports: np.ndarray) -> np.ndarray:
    """Closure membership (m, configurations) of m supports of one size.

    cells is the boolean configuration x cell incidence, the transposed
    interaction matrix, whose rows (nu, y) are the cells; supports is an
    (m, l) array of configuration indices.  A configuration is in a
    support's closure iff each of its cells holds some member of the support.
    """
    covered = cells[supports[:, 0]]
    for col in supports.T[1:]:
        covered = covered | cells[col]
    # float32 counts of uncovered cells are exact far beyond any row count
    uncovered = (~covered).astype(np.float32) @ cells.T.astype(np.float32)
    return uncovered == 0


def cylinder_closure(imat: InteractionMatrix, support) -> frozenset:
    """Configurations whose restriction to every interaction subset occurs in the support.

    The closure contains the support; the support is k-feasible exactly when
    the two are equal, and then the closure is also the support of the
    iterative-proportional-fitting limit of the uniform distribution on it.
    Only then: the pairwise projection of the uniform distribution on the
    non-feasible parity triple {100, 010, 001} is that distribution itself,
    while its closure adds 000.
    """
    configs = frozenset(tuple(int(s) for s in c) for c in support)
    if not configs:
        raise ValueError("support must be non-empty")
    index = {c: i for i, c in enumerate(imat.configs)}
    unknown = configs.difference(index)
    if unknown:
        raise ShapeError(f"configuration {min(unknown)} does not match the shape")
    members = np.array([[index[c] for c in configs]])
    inside = _in_closure(imat.matrix.T.astype(bool), members)[0]
    return frozenset(x for x, keep in zip(imat.configs, inside.tolist()) if keep)


def is_k_feasible(imat: InteractionMatrix, support) -> bool:
    """Whether a set of configurations can carry a uniform factorizable limit,
    that is, whether it equals its cylinder closure."""
    support = frozenset(tuple(int(s) for s in c) for c in support)
    return cylinder_closure(imat, support) == support


@dataclass
class FeasibilityReport:
    shape: SystemShape
    k: int
    max_size: int
    by_size: dict[int, tuple[int, int]]  # size -> (total, feasible)
    small_sets_all_feasible: bool
    minimal_nonfeasible: list[tuple[tuple[int, ...], ...]]
    min_nonfeasible_size: int | None

    def to_dict(self) -> dict:
        return {
            "sizes": list(self.shape.sizes),
            "k": self.k,
            "max_size": self.max_size,
            "by_size": {
                str(s): {"total": t, "feasible": f} for s, (t, f) in self.by_size.items()
            },
            "small_sets_all_feasible": self.small_sets_all_feasible,
            "min_nonfeasible_size": self.min_nonfeasible_size,
            "minimal_nonfeasible": [
                [list(c) for c in fam] for fam in self.minimal_nonfeasible
            ],
        }


def enumerate_feasibility(shape: SystemShape, k: int, max_size: int) -> FeasibilityReport:
    """Classify every non-empty support of size <= max_size as feasible or not.

    Also confirms that every support of size <= k is feasible, and collects
    the non-feasible supports of the smallest size at which any appear.
    Refuses workloads above SUBSET_GUARD subsets before building anything.
    Supports are classified in blocks of at most BLOCK_ENTRIES array entries,
    in itertools.combinations order.
    """
    _check_family(shape, k)
    n = shape.dim
    total_work = sum(math.comb(n, l) for l in range(1, max_size + 1))
    if total_work > SUBSET_GUARD:
        raise GuardExceeded(
            f"{total_work} subsets exceed the enumeration guard of {SUBSET_GUARD}"
        )
    imat = build_interaction_matrix(shape, k)
    configs = imat.configs
    cells = imat.matrix.T.astype(bool)
    block = max(1, BLOCK_ENTRIES // max(cells.shape))
    by_size: dict[int, tuple[int, int]] = {}
    minimal: list[tuple[tuple[int, ...], ...]] = []
    min_size = None
    small_ok = True
    for l in range(1, max_size + 1):
        total = feas = 0
        combos = itertools.combinations(range(n), l)
        while True:
            flat = itertools.chain.from_iterable(itertools.islice(combos, block))
            supports = np.fromiter(flat, dtype=np.intp).reshape(-1, l)
            if not len(supports):
                break
            # the closure contains the support, so equal sizes mean equal sets
            ok = _in_closure(cells, supports).sum(axis=1) == l
            total += len(supports)
            feas += int(np.count_nonzero(ok))
            if ok.all():
                continue
            if l <= k:
                small_ok = False
            if min_size is None:
                min_size = l
            if l == min_size:
                minimal.extend(tuple(configs[i] for i in fam) for fam in supports[~ok].tolist())
        by_size[l] = (total, feas)
    return FeasibilityReport(
        shape=shape,
        k=k,
        max_size=max_size,
        by_size=by_size,
        small_sets_all_feasible=small_ok,
        minimal_nonfeasible=minimal,
        min_nonfeasible_size=min_size,
    )


def integer_kernel(mat: np.ndarray) -> np.ndarray:
    """Basis of the integer kernel lattice {x : mat x = 0} via exact elimination.

    Row reduces [mat^T | I] over the integers with unimodular operations
    (swaps and subtraction of integer multiples, Euclid-style); rows whose
    transposed part vanishes yield the kernel basis in the identity part.
    """
    a = np.asarray(mat)
    m, n = a.shape
    rows = [[int(a[j][i]) for j in range(m)] + [int(i == t) for t in range(n)] for i in range(n)]
    r = 0
    for c in range(m):
        pivots = [i for i in range(r, n) if rows[i][c] != 0]
        if not pivots:
            continue
        while True:
            pivots = [i for i in range(r, n) if rows[i][c] != 0]
            if len(pivots) == 1 and pivots[0] == r:
                break
            i0 = min(pivots, key=lambda i: abs(rows[i][c]))
            rows[r], rows[i0] = rows[i0], rows[r]
            done = True
            for i in range(r + 1, n):
                if rows[i][c] != 0:
                    q = rows[i][c] // rows[r][c]
                    if q != 0:
                        rows[i] = [x - q * y for x, y in zip(rows[i], rows[r])]
                    if rows[i][c] != 0:
                        done = False
            if done and rows[r][c] != 0:
                break
        r += 1
    kernel = []
    for i in range(r, n):
        if any(rows[i][:m]):
            raise AssertionError("elimination left a non-zero residue row")
        vec = rows[i][m:]
        g = 0
        for x in vec:
            g = math.gcd(g, abs(x))
        if g > 1:
            vec = [x // g for x in vec]
        lead = next((x for x in vec if x != 0), 1)
        if lead < 0:
            vec = [-x for x in vec]
        kernel.append(vec)
    kernel.sort()
    return np.array(kernel, dtype=np.int64).reshape(len(kernel), n)


def toric_kernel(imat: InteractionMatrix) -> np.ndarray:
    """Integer kernel basis of the interaction matrix, rows sign-normalized."""
    return integer_kernel(imat.matrix)


@dataclass
class ToricMembership:
    is_member: bool
    residuals: list[float]
    zero_support_flags: list[bool]
    tol: float

    def __bool__(self) -> bool:
        return self.is_member


def check_toric_membership(probs, imat_or_kernel) -> ToricMembership:
    """Check the binomial relations of the kernel basis on a nonnegative vector.

    For each kernel vector split into positive part u and negative part v the
    products prod(s^u) and prod(s^v) must agree to relative tolerance.  Both
    sides vanishing counts as agreement; one-sided vanishing is a maximal
    violation.  Vectors whose comparison involved zero entries are flagged,
    since the basis-level check is a surrogate for the full lattice.
    """
    s = np.asarray(probs, dtype=float)
    if s.min() < 0:
        raise ValueError("entries must be nonnegative")
    kernel = (
        toric_kernel(imat_or_kernel)
        if isinstance(imat_or_kernel, InteractionMatrix)
        else np.asarray(imat_or_kernel, dtype=np.int64)
    )
    residuals = []
    flags = []
    ok = True
    for w in kernel:
        u = np.maximum(w, 0)
        v = np.maximum(-w, 0)
        zu = bool(np.any((s == 0) & (u > 0)))
        zv = bool(np.any((s == 0) & (v > 0)))
        flags.append(zu or zv)
        if zu and zv:
            residuals.append(0.0)
            continue
        if zu != zv:
            residuals.append(1.0)
            ok = False
            continue
        lu = float(np.sum(u * np.log(s, where=u > 0, out=np.zeros_like(s))))
        lv = float(np.sum(v * np.log(s, where=v > 0, out=np.zeros_like(s))))
        res = abs(np.expm1(lu - lv))
        residuals.append(res)
        if res > TORIC_RTOL:
            ok = False
    return ToricMembership(
        is_member=ok, residuals=residuals, zero_support_flags=flags, tol=TORIC_RTOL
    )
