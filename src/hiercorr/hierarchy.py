"""Hierarchical interaction structures and their model subspaces.

A hypergraph is a downward-closed family of subsets of the units 1..N whose
union covers all units.  Each set v contributes the pure interaction space of
exactly-v-local elements; the direct sum over the family is the model
subspace whose Gibbs states form the hierarchical model.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .algebra import ShapeError, SystemShape, tensor, unit_hermitian_basis

# materialization guard: refuse to build dense stacks above this entry count
STACK_GUARD = 2**23


class HypergraphError(ValueError):
    """Family of sets is not a valid interaction structure."""


@dataclass(frozen=True)
class Hypergraph:
    """Downward-closed covering family of subsets of 1..N (the empty set included)."""

    N: int
    sets: frozenset[frozenset[int]]

    def __post_init__(self):
        object.__setattr__(self, "N", int(self.N))
        object.__setattr__(
            self, "sets", frozenset(frozenset(int(i) for i in v) for v in self.sets)
        )

    @property
    def maximal_sets(self) -> list[tuple[int, ...]]:
        """Inclusion-maximal members, sorted for deterministic iteration."""
        out = []
        for v in self.sets:
            if not any(v < w for w in self.sets):
                out.append(tuple(sorted(v)))
        return sorted(out, key=lambda t: (len(t), t))

    @property
    def sorted_sets(self) -> list[tuple[int, ...]]:
        return sorted((tuple(sorted(v)) for v in self.sets), key=lambda t: (len(t), t))

    def __contains__(self, v) -> bool:
        return frozenset(v) in self.sets

    def __le__(self, other: "Hypergraph") -> bool:
        return self.N == other.N and self.sets <= other.sets


def downward_closure(N: int, generators) -> frozenset[frozenset[int]]:
    closed = {frozenset()}
    for g in generators:
        g = frozenset(int(i) for i in g)
        for r in range(len(g) + 1):
            for sub in itertools.combinations(sorted(g), r):
                closed.add(frozenset(sub))
    return frozenset(closed)


def validate_hypergraph(N: int, sets, generators: bool = False) -> Hypergraph:
    """Check (or complete, when generators=True) a family into a Hypergraph.

    Raises HypergraphError when sets exceed 1..N, when the family is not
    downward closed, or when the union does not cover all units.
    """
    N = int(N)
    if N < 1:
        raise HypergraphError(f"N must be >= 1, got {N}")
    fam = [frozenset(int(i) for i in v) for v in sets]
    for v in fam:
        for i in v:
            if not 1 <= i <= N:
                raise HypergraphError(f"unit {i} outside 1..{N} in set {sorted(v)}")
    if generators:
        family = downward_closure(N, fam)
    else:
        family = frozenset(fam) | {frozenset()}
        for v in family:
            for i in sorted(v):
                if v - {i} not in family:
                    raise HypergraphError(
                        f"family is not downward closed: {sorted(v - {i})} is missing"
                    )
    covered = set().union(*family) if family else set()
    if covered != set(range(1, N + 1)):
        missing = sorted(set(range(1, N + 1)) - covered)
        raise HypergraphError(f"units {missing} are not covered by any set")
    return Hypergraph(N, family)


def hypergraph_k(N: int, k: int) -> Hypergraph:
    """All subsets of 1..N with at most k elements."""
    if not 1 <= k <= N:
        raise HypergraphError(f"k must lie in 1..{N}, got {k}")
    fam = set()
    for r in range(k + 1):
        for v in itertools.combinations(range(1, N + 1), r):
            fam.add(frozenset(v))
    return Hypergraph(N, frozenset(fam))


def independence_hypergraph(N: int) -> Hypergraph:
    return hypergraph_k(N, 1)


def covering_hypergraphs(N: int):
    """Yield every covering hypergraph on 1..N, one per antichain of
    generating sets.  Exponential in 2^N; intended for N <= 4."""
    if not 1 <= N <= 5:
        raise HypergraphError(f"enumeration supported for 1 <= N <= 5, got {N}")
    subsets = [frozenset(v) for r in range(1, N + 1)
               for v in itertools.combinations(range(1, N + 1), r)]
    n_sub = len(subsets)
    # comparable[i]: bitmask of every j whose set nests with subset i
    comparable = []
    for i, a in enumerate(subsets):
        m = 0
        for j, b in enumerate(subsets):
            if a <= b or b <= a:
                m |= 1 << j
        comparable.append(m)
    unit_bits = [sum(1 << j for j, b in enumerate(subsets) if i in b)
                 for i in range(1, N + 1)]
    for mask in range(1, 1 << n_sub):
        if any(not mask & ub for ub in unit_bits):
            continue
        chosen = mask
        ok = True
        while chosen:
            low = chosen & -chosen
            i = low.bit_length() - 1
            if mask & comparable[i] != low:
                ok = False
                break
            chosen ^= low
        if ok:
            gens = [subsets[i] for i in range(n_sub) if mask >> i & 1]
            yield Hypergraph(N, downward_closure(N, gens))


def is_independence(hg: Hypergraph) -> bool:
    return all(len(v) <= 1 for v in hg.sets)


def pure_factor_dim(shape: SystemShape, v) -> int:
    """Real dimension of the exactly-v-local interaction space: prod of (unit algebra dim - 1)."""
    out = 1
    for i in set(v):
        shape._check_unit(int(i))
        out *= shape.unit_algebra_dim(int(i)) - 1
    return out


def model_dim(shape: SystemShape, hg: Hypergraph) -> tuple[int, int]:
    """(dim of the model subspace incl. identity, dim of the Gibbs manifold).

    The second number is one less than the first: normalization removes one
    real degree of freedom.
    """
    if hg.N != shape.N:
        raise ShapeError(f"hypergraph is on {hg.N} units, shape has {shape.N}")
    total = sum(pure_factor_dim(shape, v) for v in hg.sets)
    return total, total - 1


@dataclass
class HierarchicalModel:
    """Orthonormal self-adjoint basis of a model subspace, stored by generating pattern.

    Basis element j is the tensor product over units i of
    unit_bases[i][patterns[j][i]]; index 0 is always the normalized identity
    of the unit, so the set of units with non-zero index is the interaction
    set the element belongs to.  Dense matrices are materialized lazily.
    """

    shape: SystemShape
    hypergraph: Hypergraph
    unit_bases: tuple[tuple[np.ndarray, ...], ...]
    patterns: tuple[tuple[int, ...], ...]
    dim_total: int
    dim_model: int
    _stack: np.ndarray | None = field(default=None, repr=False, compare=False)

    def element_matrix(self, j: int) -> np.ndarray:
        pat = self.patterns[j]
        return tensor(*(self.unit_bases[i][pat[i]] for i in range(self.shape.N)))

    def element_support(self, j: int) -> tuple[int, ...]:
        """Units (1-based) on which element j acts non-trivially."""
        return tuple(i + 1 for i, idx in enumerate(self.patterns[j]) if idx != 0)

    @property
    def n_elements(self) -> int:
        return len(self.patterns)

    def basis_matrices(self) -> np.ndarray:
        """Dense stack (m, d, d) of the basis, cached after first call."""
        if self._stack is None:
            self._stack = self._dense_stack()
        return self._stack

    def _dense_stack(self) -> np.ndarray:
        # the Kronecker products of all elements at once, one unit at a time:
        # entry for entry the same products as element_matrix
        d = self.shape.dim
        m = self.n_elements
        if m * d * d > STACK_GUARD:
            raise MemoryError(f"dense basis of {m} x {d} x {d} exceeds the materialization guard")
        pats = np.array(self.patterns)
        out = np.stack(self.unit_bases[0])[pats[:, 0]]
        for i in range(1, self.shape.N):
            u = np.stack(self.unit_bases[i])[pats[:, i]]
            r, n = out.shape[1], u.shape[1]
            out = (out[:, :, None, :, None] * u[:, None, :, None, :]).reshape(m, r * n, r * n)
        return out


def _patterns_for(shape: SystemShape, hg: Hypergraph) -> list[tuple[int, ...]]:
    N = shape.N
    pats = []
    for v in hg.sorted_sets:
        ranges = []
        for i in range(1, N + 1):
            if i in v:
                ranges.append(range(1, shape.unit_algebra_dim(i)))
            else:
                ranges.append(range(0, 1))
        pats.extend(itertools.product(*ranges))
    return pats


def build_model(shape: SystemShape, hg: Hypergraph) -> HierarchicalModel:
    """Assemble the orthonormal basis of the model subspace of a hypergraph."""
    if hg.N != shape.N:
        raise ShapeError(f"hypergraph is on {hg.N} units, shape has {shape.N}")
    bases = tuple(tuple(unit_hermitian_basis(shape, i)) for i in range(1, shape.N + 1))
    pats = _patterns_for(shape, hg)
    total, manifold = model_dim(shape, hg)
    assert len(pats) == total, "pattern count disagrees with the closed form"
    return HierarchicalModel(
        shape=shape,
        hypergraph=hg,
        unit_bases=bases,
        patterns=tuple(pats),
        dim_total=total,
        dim_model=manifold,
    )


def full_model(shape: SystemShape) -> HierarchicalModel:
    """Model of the complete power-set hypergraph: the whole algebra."""
    return build_model(shape, hypergraph_k(shape.N, shape.N))


def numerical_basis_rank(model: HierarchicalModel) -> int:
    """Numerical rank of the constructed basis.

    Small models get a dense SVD over the flattened matrices, built for the
    check and dropped after it unless the model already caches them.  Large
    models use the tensor structure: the Gram matrix of the distinct patterns
    factors through the per-unit Grams, so after certifying those to near
    machine precision it is diagonally dominant and therefore non-singular.
    """
    d = model.shape.dim
    m = model.n_elements
    if m * d * d <= 2**20:
        stack = model._stack if model._stack is not None else model._dense_stack()
        return int(np.linalg.matrix_rank(stack.reshape(m, d * d), tol=1e-8))
    distinct = len(set(model.patterns))
    dev = 0.0
    for basis in model.unit_bases:
        stack = np.stack(basis)
        g = np.einsum("aij,bij->ab", stack, stack.conj()).real
        dev += float(np.max(np.abs(g - np.eye(len(basis)))))
    # Gershgorin: off-diagonal Gram entries are bounded by the summed per-unit
    # deviations, so the Gram of the distinct patterns cannot be singular while
    # their number times dev stays below 1/2; a repeated pattern adds no rank
    if distinct * max(dev, 1e-300) < 0.5:
        return distinct
    raise RuntimeError(
        f"cannot certify rank: per-unit Gram deviation {dev:.2e} too large for m={distinct}"
    )
