"""Hierarchical interaction structures and their model subspaces.

A hypergraph is a downward-closed family of subsets of the units 1..N whose
union covers all units.  Each set v contributes the pure interaction space of
exactly-v-local elements; the direct sum over the family is the model
subspace whose Gibbs states form the hierarchical model.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import ShapeError, SystemShape, tensor, unit_hermitian_basis

# materialization guard: refuse to build dense (m, r, r) stacks above this entry count
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
    generating sets, in increasing order of the antichain's bitmask over the
    nonempty subsets (listed by size, then lexicographically).  A depth-first
    search adds only sets incomparable with those already chosen, so the cost
    follows the number of antichains: 114 covers at N=4, 6894 at N=5."""
    if not 1 <= N <= 5:
        raise HypergraphError(f"enumeration supported for 1 <= N <= 5, got {N}")
    subsets = [frozenset(v) for r in range(1, N + 1)
               for v in itertools.combinations(range(1, N + 1), r)]
    # comparable[i]: bitmask of every j whose set nests with subset i
    comparable = [sum(1 << j for j, b in enumerate(subsets) if a <= b or b <= a)
                  for a in subsets]
    units = set(range(1, N + 1))

    def antichains(below: int, allowed: int):
        # masks of the antichains within `allowed` on bits < below, ascending:
        # the empty one, then by highest bit, each followed by smaller bits
        yield 0
        for top in range(below):
            if allowed >> top & 1:
                for rest in antichains(top, allowed & ~comparable[top]):
                    yield rest | 1 << top

    for mask in antichains(len(subsets), (1 << len(subsets)) - 1):
        gens = [subsets[i] for i in range(len(subsets)) if mask >> i & 1]
        if gens and set().union(*gens) == units:
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
    _plan: "_MomentPlan | None" = field(default=None, init=False, repr=False, compare=False)

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
        return _kron_stack(self.unit_bases, self.patterns)

    def moments(self, x: np.ndarray) -> np.ndarray:
        """Real vector of tr(B_k x), in element order, from the marginals of x
        on the maximal sets (see _MomentPlan); basis_matrices() is not used."""
        d = self.shape.dim
        if np.shape(x) != (d, d):
            raise ShapeError(f"matrix is {np.shape(x)}, the model demands ({d}, {d})")
        return self._moment_plan().moments(x)

    def hamiltonian(self, theta: np.ndarray) -> np.ndarray:
        """sum_k theta_k B_k over the non-identity elements 1..m-1, the order
        of GibbsParameters.theta; basis_matrices() is not used."""
        return self._moment_plan().hamiltonian(theta)

    def compress(self, q: np.ndarray) -> np.ndarray:
        """Stack (m, r, r) of q^H B_k q for a d x r isometry q (see _MomentPlan)."""
        if np.ndim(q) != 2 or len(q) != self.shape.dim:
            raise ShapeError(f"isometry is {np.shape(q)}, the model demands {self.shape.dim} rows")
        return self._moment_plan().compress(np.asarray(q, dtype=complex))

    def _moment_plan(self) -> "_MomentPlan":
        if self._plan is None:
            self._plan = _MomentPlan(self)
        return self._plan


def _kron_stack(bases, patterns) -> np.ndarray:
    """Stack of the Kronecker products prod_i bases[i][pattern[i]], one per pattern.

    All products are formed at once, one unit at a time: entry for entry the
    same products as element_matrix.
    """
    pats = np.array(patterns).reshape(len(patterns), len(bases))
    m = pats.shape[0]
    d = math.prod(b[0].shape[0] for b in bases)
    if m * d * d > STACK_GUARD:
        raise MemoryError(f"dense basis of {m} x {d} x {d} exceeds the materialization guard")
    out = np.stack(bases[0])[pats[:, 0]]
    for i in range(1, len(bases)):
        u = np.stack(bases[i])[pats[:, i]]
        r, n = out.shape[1], u.shape[1]
        out = (out[:, :, None, :, None] * u[:, None, :, None, :]).reshape(m, r * n, r * n)
    return out


class _MomentPlan:
    """tr(B_k x), sum_k theta_k B_k and q^H B_k q through maximal-set marginals.

    An element is the identity outside its support, so on any maximal set A
    containing that support it is L_k (x) I / sqrt(d / d_A), with L_k in the
    local basis of A's units.  Each element is owned by the first such A, so
    it counts once.  The marginal x_A[a, a'] = sum_r x[(a, r), (a', r)] is
    one gather over d d_A flat positions of x, the moments of A's elements
    are Re tr(L_k x_A) / sqrt(d / d_A), and the Hamiltonian adds the local
    sums back along the same positions.  On an isometry q, q^H B_k q is
    sum L_k[a, a'] G_A[(a, a')] / sqrt(d / d_A), G_A[(a, a'), s, t] =
    sum_r conj(q[(a, r), s]) q[(a', r), t] the Gram of q's rows at the same
    positions.  Maximal sets of equal dimension d_A form one group,
    contracted in one matmul against the local bases of every unit signature
    (sizes and kinds) in the group.
    """

    def __init__(self, model: HierarchicalModel):
        self.size = model.n_elements
        shape = model.shape
        sizes, n_units, d = shape.sizes, shape.N, shape.dim
        sets = [[i - 1 for i in a] for a in model.hypergraph.maximal_sets]
        pats = np.array(model.patterns).reshape(model.n_elements, n_units)
        member = np.zeros((len(sets), n_units), dtype=bool)
        for s, a in enumerate(sets):
            member[s, a] = True
        # the first maximal set that leaves no unit of the support outside
        owner = np.argmin(((pats != 0)[:, None, :] & ~member).any(axis=2), axis=1)
        strides = [math.prod(sizes[i + 1:]) for i in range(n_units)]

        def offsets(units):
            # flat offsets of the joint index over units, the first most significant
            off = np.zeros(1, dtype=np.intp)
            for i in units:
                off = (off[:, None] + strides[i] * np.arange(sizes[i])).ravel()
            return off

        sigs = [tuple((sizes[i], shape.kinds[i]) for i in a) for a in sets]
        groups = {}
        for s, a in enumerate(sets):
            groups.setdefault(math.prod(sizes[i] for i in a), []).append(s)
        self.slot = np.empty(model.n_elements, dtype=np.intp)
        self.groups = []  # (positions (g, d_A^2, d / d_A), local bases as reals, first slot)
        positions, sources = [], []
        n_slots = n_vals = 0
        for d_a, members in groups.items():
            signatures = {}  # unit sizes and kinds -> (first local row, radix of the local index)
            stacks = []
            for s in members:
                if sigs[s] not in signatures:
                    bases = [model.unit_bases[i] for i in sets[s]]
                    dims = [len(b) for b in bases]
                    radix = np.array([math.prod(dims[j + 1:]) for j in range(len(dims))])
                    signatures[sigs[s]] = (sum(len(x) for x in stacks), radix)
                    stacks.append(_kron_stack(bases, list(itertools.product(*map(range, dims)))))
            local = np.concatenate(stacks).reshape(-1, d_a * d_a) / math.sqrt(d // d_a)
            n_local = local.shape[0]
            pos = []
            for t, s in enumerate(members):
                a = sets[s]
                oa = offsets(a)
                orest = offsets([i for i in range(n_units) if i not in a])
                rows = oa[:, None, None] + orest  # entry ((a, r), (a', r)) of x
                pos.append((rows * d + oa[None, :, None] + orest).reshape(d_a * d_a, -1))
                first, radix = signatures[sigs[s]]
                own = np.flatnonzero(owner == s)
                self.slot[own] = n_slots + t * n_local + first + pats[own][:, a] @ radix
            pos = np.stack(pos)
            self.groups.append((pos, local.view(np.float64), n_slots))
            positions.append(pos.ravel())
            sources.append(n_vals + np.repeat(np.arange(pos.shape[0] * pos.shape[1]), pos.shape[2]))
            n_slots += len(members) * n_local
            n_vals += pos.shape[0] * pos.shape[1]
        self.n_slots = n_slots
        self.positions = np.concatenate(positions)
        self.sources = np.concatenate(sources)
        self.dim = d

    def moments(self, x: np.ndarray) -> np.ndarray:
        flat = np.ascontiguousarray(x, dtype=complex).reshape(-1)
        # Re tr(L x_A) = Re sum conj(L) * x_A for hermitian L: a real dot
        # product of the (re, im) pairs of the two matrices
        ys = [flat[pos].sum(axis=2).view(np.float64) @ real.T for pos, real, _ in self.groups]
        return np.concatenate([y.reshape(-1) for y in ys])[self.slot]

    def compress(self, q: np.ndarray) -> np.ndarray:
        r = q.shape[1]
        if self.size * r * r > STACK_GUARD:
            raise MemoryError(f"{self.size} x {r} x {r} exceeds the materialization guard")
        out = []
        for pos, real, _ in self.groups:
            g, d_a2, rest = pos.shape
            d_a = math.isqrt(d_a2)
            # rows (a, r) of q on each set, from the positions of the diagonal (a, a)
            qa = q[pos[:, ::d_a + 1] // self.dim].transpose(0, 2, 1, 3).reshape(g, rest, d_a * r)
            gram = (qa.conj().transpose(0, 2, 1) @ qa).reshape(g, d_a, r, d_a, r)
            gram = gram.transpose(0, 1, 3, 2, 4).reshape(g, d_a2, r * r)
            out.append((real.view(complex) @ gram).reshape(-1, r, r))
        return np.concatenate(out)[self.slot]

    def hamiltonian(self, theta: np.ndarray) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.size - 1,):
            raise ValueError("parameter count does not match the model")
        z = np.bincount(self.slot[1:], weights=theta, minlength=self.n_slots)
        vals = [
            (z[first:first + pos.shape[0] * real.shape[0]].reshape(pos.shape[0], -1) @ real)
            .view(complex).reshape(-1)
            for pos, real, first in self.groups
        ]
        v = np.concatenate(vals)[self.sources]
        d2 = self.dim * self.dim
        h = np.empty(d2, dtype=complex)
        h.real = np.bincount(self.positions, weights=v.real, minlength=d2)
        h.imag = np.bincount(self.positions, weights=v.imag, minlength=d2)
        return h.reshape(self.dim, self.dim)


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

    Small models get the spectrum of the m x m Gram matrix of the flattened
    matrices (real, as the basis is hermitian), built for the check and
    dropped after it unless the model already caches them; an eigenvalue
    counts when it exceeds 1e-8 times the largest, i.e. a singular value
    above 1e-4 of the largest.  Large models use the tensor structure: the
    Gram matrix of the distinct patterns factors through the per-unit Grams,
    so after certifying those to near machine precision it is diagonally
    dominant and therefore non-singular.
    """
    d = model.shape.dim
    m = model.n_elements
    if m * d * d <= 2**20:
        stack = model._stack if model._stack is not None else model._dense_stack()
        # tr(B_k B_l) of hermitian matrices is real: the dot product of the
        # (re, im) pairs of the flattened matrices
        flat = np.ascontiguousarray(stack).reshape(m, d * d).view(np.float64)
        w = np.linalg.eigvalsh(flat @ flat.T)
        return int(np.sum(w > 1e-8 * max(float(w[-1]), 1e-300)))
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
