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
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .algebra import (
    STACK_GUARD,
    ShapeError,
    SystemShape,
    _block_rows,
    algebra_mask,
    from_blocks,
    tensor,
    to_blocks,
    unit_hermitian_basis,
)


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
    _stack: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
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
        """Real vector of tr(B_k x), in element order, for a (d, d) matrix x,
        from its block array (algebra.to_blocks) through the moment plan;
        basis_matrices() is not used."""
        d = self.shape.dim
        if np.shape(x) != (d, d):
            raise ShapeError(f"matrix is {np.shape(x)}, the model demands ({d}, {d})")
        return self._moment_plan().moments(to_blocks(np.asarray(x), self.shape))

    def hamiltonian(self, theta: np.ndarray) -> np.ndarray:
        """sum_k theta_k B_k over the non-identity elements 1..m-1, the order
        of GibbsParameters.theta, as a (d, d) matrix; basis_matrices() is not
        used."""
        return from_blocks(self._moment_plan().hamiltonian(theta), self.shape)

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


class _Group(NamedTuple):  # maximal sets of equal dimension d_A and local entry count
    pos: np.ndarray  # (g, n_e, d / d_A): block-array position of local entry e at rest r
    real: np.ndarray  # (n_local, 2 n_e): local bases of the group's signatures, as reals
    first: int  # first slot of the group
    entries: np.ndarray  # (g, n_e): flat local index a d_A + a' of each local entry


class _MomentPlan:
    """tr(B_k x), sum_k theta_k B_k and q^H B_k q through maximal-set marginals.

    States and Hamiltonians are flat block arrays (algebra.block_layout).
    An element is the identity outside its support, so on any maximal set A
    containing that support it is L_k (x) I / sqrt(d / d_A), with L_k in the
    local basis of A's units.  Each element is owned by the first such A, so
    it counts once.  The marginal x_A[a, a'] = sum_r x[(a, r), (a', r)] has
    entries only in the local algebra (a and a' share their classical
    digits), as the L_k do: one gather-sum over the block array for all.
    The moments of A's elements are Re tr(L_k x_A) / sqrt(d / d_A), and the
    Hamiltonian adds the local sums back along the same positions.
    On an isometry q, q^H B_k q is sum L_k[a, a'] G_A[(a, a')] / sqrt(d / d_A),
    G_A[(a, a'), s, t] = sum_r conj(q[(a, r), s]) q[(a', r), t] the Gram of
    q's rows, read at the block rows of A's diagonal entries.  Maximal sets
    of equal dimension and local entry count form one group, contracted in
    one matmul against the local bases of every unit signature (sizes and
    kinds) in the group.  pos, the one index array, holds every group's
    positions in turn (each group's pos is a view of it); its inverse gives
    the cells of iterative proportional fitting on all-classical shapes.
    """

    def __init__(self, model: HierarchicalModel):
        self.size = model.n_elements
        shape = model.shape
        sizes, kinds, n_units, d = shape.sizes, shape.kinds, shape.N, shape.dim
        sets = [[i - 1 for i in a] for a in model.hypergraph.maximal_sets]
        pats = np.array(model.patterns).reshape(model.n_elements, n_units)
        member = np.zeros((len(sets), n_units), dtype=bool)
        for s, a in enumerate(sets):
            member[s, a] = True
        # the first maximal set that leaves no unit of the support outside
        owner = np.argmin(((pats != 0)[:, None, :] & ~member).any(axis=2), axis=1)
        cfg_rows = _block_rows(shape)  # the configuration of each block row
        d_q = cfg_rows.shape[1]
        self.blocks = cfg_rows.shape + (d_q,)
        self.configs = cfg_rows.reshape(-1)
        row = np.argsort(cfg_rows, axis=None)  # the block row of each configuration
        sigs = [tuple((sizes[i], kinds[i]) for i in a) for a in sets]
        # flat local indices a d_A + a' of the entries of A's local algebra
        keeps = [np.flatnonzero(algebra_mask(SystemShape(*zip(*sig)))) for sig in sigs]
        groups = {}
        for s, a in enumerate(sets):
            groups.setdefault((math.prod(sizes[i] for i in a), len(keeps[s])), []).append(s)
        self.slot = np.empty(model.n_elements, dtype=np.intp)
        self.pos = np.empty(sum(len(m) * n * (d // d_a) for (d_a, n), m in groups.items()), np.intp)
        self.groups = []
        n_slots = n_pos = 0
        for (d_a, n_e), members in groups.items():
            signatures = {}  # unit sizes and kinds -> (first local row, radix of the local index)
            stacks = []
            for s in members:
                if sigs[s] not in signatures:
                    bases = [model.unit_bases[i] for i in sets[s]]
                    dims = [len(b) for b in bases]
                    radix = np.array([math.prod(dims[j + 1:]) for j in range(len(dims))])
                    signatures[sigs[s]] = (sum(len(x) for x in stacks), radix)
                    full = _kron_stack(bases, list(itertools.product(*map(range, dims))))
                    stacks.append(full.reshape(len(full), -1)[:, keeps[s]])
            local = np.ascontiguousarray(np.concatenate(stacks) / math.sqrt(d // d_a))
            n_local = local.shape[0]
            size = len(members) * n_e * (d // d_a)
            pos = self.pos[n_pos:n_pos + size].reshape(len(members), n_e, d // d_a)
            for t, s in enumerate(members):
                a = sets[s]
                rest = [i for i in range(n_units) if i not in a]
                # the configuration of local index a at rest r, first units most significant
                cfg = np.arange(d).reshape(sizes).transpose(a + rest).reshape(d_a, -1)
                # entry (x, y) of a block sits at row[x] d_Q + row[y] mod d_Q
                ea, eb = np.divmod(keeps[s], d_a)
                pos[t] = row[cfg[ea]] * d_q + row[cfg[eb]] % d_q
                first, radix = signatures[sigs[s]]
                own = np.flatnonzero(owner == s)
                self.slot[own] = n_slots + t * n_local + first + pats[own][:, a] @ radix
            self.groups.append(_Group(pos, local.view(np.float64), n_slots,
                                      np.stack([keeps[s] for s in members])))
            n_slots += len(members) * n_local
            n_pos += size
        self.n_slots = n_slots

    def _weights(self, theta: np.ndarray) -> np.ndarray:
        """theta spread over the slots of the local elements."""
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.size - 1,):
            raise ValueError("parameter count does not match the model")
        return np.bincount(self.slot[1:], weights=theta, minlength=self.n_slots)

    @cached_property
    def cells(self) -> np.ndarray:
        """All-classical shapes: each maximal set's cell of every configuration, numbered across
        the sets in turn, so np.bincount(cells.ravel(), np.tile(p, len(cells))) are p's marginals."""
        sets = [set_pos for pos, *_ in self.groups for set_pos in pos]
        cells = np.empty((len(sets), len(self.configs)), dtype=np.intp)
        for cell, set_pos, n in zip(cells, sets, np.cumsum([0] + [len(x) for x in sets])):
            cell[:] = np.argsort(set_pos, axis=None) // set_pos.shape[1] + n
        return cells

    def moments(self, x: np.ndarray) -> np.ndarray:
        flat = np.ascontiguousarray(x, dtype=complex).reshape(-1)
        # the marginals' local-algebra entries, one gather-sum per group; then
        # Re tr(L x_A) = Re sum conj(L) * x_A for hermitian L: a real dot
        # product of the (re, im) pairs of the two matrices
        ys = [np.add.reduce(flat[grp.pos], axis=2).view(np.float64) @ grp.real.T for grp in self.groups]
        return np.concatenate([y.reshape(-1) for y in ys])[self.slot]

    def compress(self, q: np.ndarray) -> np.ndarray:
        r = q.shape[1]
        if self.size * r * r > STACK_GUARD:
            raise MemoryError(f"{self.size} x {r} x {r} exceeds the materialization guard")
        out = []
        for grp in self.groups:
            g, _, rest = grp.pos.shape
            d_a = len(self.configs) // rest
            # the diagonal entries a d_A + a, a = 0 .. d_A - 1, of each set
            diag = np.nonzero(grp.entries % (d_a + 1) == 0)[1].reshape(g, d_a)
            rows = self.configs[np.take_along_axis(grp.pos, diag[:, :, None], axis=1) // self.blocks[2]]
            qa = q[rows].transpose(0, 2, 1, 3).reshape(g, rest, d_a * r)
            gram = (qa.conj().transpose(0, 2, 1) @ qa).reshape(g, d_a, r, d_a, r)
            gram = gram.transpose(0, 1, 3, 2, 4).reshape(g, d_a * d_a, r * r)
            gram = np.take_along_axis(gram, grp.entries[:, :, None], axis=1)
            out.append((grp.real.view(complex) @ gram).reshape(-1, r, r))
        return np.concatenate(out)[self.slot]

    def hamiltonian(self, theta: np.ndarray) -> np.ndarray:
        z = self._weights(theta)
        # each group's local sums, repeated over the rest as pos orders them
        v = np.concatenate([
            (z[grp.first:grp.first + len(grp.pos) * len(grp.real)].reshape(len(grp.pos), -1)
             @ grp.real).view(complex).repeat(grp.pos.shape[2])
            for grp in self.groups
        ])
        n = math.prod(self.blocks)
        h = np.empty(n, dtype=complex)
        h.real = np.bincount(self.pos, weights=v.real, minlength=n)
        h.imag = np.bincount(self.pos, weights=v.imag, minlength=n)
        return h.reshape(self.blocks)


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


# unit Gram spectra of read-only bases, by the ordered ids of their arrays;
# each entry holds the arrays, so no id is reused while it lives
_UNIT_SPECTRA: dict[tuple[int, ...], tuple[tuple[np.ndarray, ...], np.ndarray, float, float]] = {}


def _unit_spectrum(basis) -> tuple[np.ndarray, float, float]:
    """The Gram tr(A_k A_l) of a unit basis, its smallest eigenvalue clipped
    at zero and its largest.  A basis whose arrays are all read-only cannot
    change, so its entry is kept; a writable one is computed each time."""
    key = tuple(map(id, basis))
    hit = _UNIT_SPECTRA.get(key)
    if hit is not None:
        return hit[1:]
    u = np.stack(basis).reshape(len(basis), -1)
    # tr(A B) of hermitian A and B is real
    g = (u.conj() @ u.T).real
    w = np.linalg.eigvalsh(g)
    out = g, max(w[0], 0.0), w[-1]
    if not any(a.flags.writeable for a in basis):
        g.setflags(write=False)
        _UNIT_SPECTRA[key] = (tuple(basis), *out)
    return out


def numerical_basis_rank(model: HierarchicalModel) -> int:
    """Numerical rank of the constructed basis: the number of eigenvalues
    of the Gram matrix tr(B_k B_l) above 1e-8 times the largest, i.e.
    singular values above 1e-4 of the largest.

    Element k is the tensor product of unit basis elements at its pattern,
    so the Gram matrix of the distinct patterns is the entrywise product of
    the unit Grams G_i gathered at them: a principal submatrix of the
    Kronecker product of the G_i, whose eigenvalues are the products of
    the unit eigenvalues.  By Cauchy interlacing its every eigenvalue lies
    between prod_i min eig G_i and prod_i max eig G_i; when the first
    exceeds 1e-8 times the second, each distinct pattern counts (a repeated
    pattern adds no rank) without a decomposition larger than a unit Gram.
    Otherwise a unit basis is dependent, and the m x m Gram of the distinct
    patterns is formed from the unit Grams and decomposed, up to
    STACK_GUARD entries.  A unit basis of read-only arrays, as
    unit_hermitian_basis shares them, has its Gram spectrum taken once per
    process (_unit_spectrum), however many units and models share it.
    """
    grams, lows, highs = zip(*map(_unit_spectrum, model.unit_bases))
    low, high = math.prod(lows), math.prod(highs)
    distinct = set(model.patterns)
    m = len(distinct)
    if low > 1e-8 * high:
        return m
    if m * m > STACK_GUARD:
        raise RuntimeError(
            f"cannot certify rank: unit Gram eigenvalues span {low:.2e} to {high:.2e}, "
            f"and the Gram of m={m} exceeds the materialization guard"
        )
    pats = np.array(sorted(distinct)).reshape(m, len(grams))
    gram = np.ones((m, m))
    for g, p in zip(grams, pats.T):
        gram *= g[np.ix_(p, p)]
    w = np.linalg.eigvalsh(gram)
    return int(np.sum(w > 1e-8 * max(float(w[-1]), 1e-300)))
