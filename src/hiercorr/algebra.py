"""Tensor-product matrix algebra for composite classical/quantum systems.

States live in a tensor product of unit algebras, one per subsystem.  A
quantum unit of size n contributes the full matrix algebra M_n, a classical
unit contributes the diagonal subalgebra of M_n, so classical probability
vectors are handled as diagonal density matrices in the same code path.
Units are labeled 1..N throughout.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce

import numpy as np

CLASSICAL = "classical"
QUANTUM = "quantum"

HERMITIAN_ATOL = 1e-12
TRACE_ATOL = 1e-12
# least admissible eigenvalue of a validated density matrix
PSD_ATOL = -1e-10
# relative eigenvalue threshold separating kernel from support
SUPPORT_RTOL = 1e-10
# admissible mass of rho on the kernel of sigma before divergence is infinite
KERNEL_MASS_TOL = 1e-10
# entrywise distance at which hermitize_basis pairs an element with an adjoint
ADJOINT_MATCH_TOL = 1e-9
# materialization guard: refuse to build a dense d x d state matrix, dense
# (m, r, r) stacks, or an m x m Gram matrix, above this entry count
STACK_GUARD = 2**23


class ShapeError(ValueError):
    """Invalid subsystem index, unit size, or mismatched shapes."""


def _normalize_kind(kind: str) -> str:
    k = kind.strip().lower()
    if k in ("c", CLASSICAL):
        return CLASSICAL
    if k in ("q", QUANTUM):
        return QUANTUM
    raise ShapeError(f"unknown unit kind {kind!r}, expected 'classical' or 'quantum'")


@dataclass(frozen=True)
class SystemShape:
    """Sizes and kinds (classical or quantum) of the units of a composite system."""

    sizes: tuple[int, ...]
    kinds: tuple[str, ...]

    def __post_init__(self):
        sizes = tuple(int(n) for n in self.sizes)
        kinds = tuple(_normalize_kind(k) for k in self.kinds)
        if len(sizes) < 1:
            raise ShapeError("a system needs at least one unit")
        if len(sizes) != len(kinds):
            raise ShapeError(f"{len(sizes)} sizes but {len(kinds)} kinds")
        if any(n < 1 for n in sizes):
            raise ShapeError(f"unit sizes must be >= 1, got {sizes}")
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "kinds", kinds)

    @property
    def N(self) -> int:
        return len(self.sizes)

    @property
    def dim(self) -> int:
        """Dimension of the joint Hilbert space / configuration count."""
        out = 1
        for n in self.sizes:
            out *= n
        return out

    def unit_algebra_dim(self, i: int) -> int:
        """Real dimension of the self-adjoint part of unit i's algebra (1-based)."""
        self._check_unit(i)
        n = self.sizes[i - 1]
        return n if self.kinds[i - 1] == CLASSICAL else n * n

    @property
    def algebra_dim(self) -> int:
        out = 1
        for i in range(1, self.N + 1):
            out *= self.unit_algebra_dim(i)
        return out

    # cached: the projection routes branch on these at every step
    @cached_property
    def all_classical(self) -> bool:
        return all(k == CLASSICAL for k in self.kinds)

    @cached_property
    def all_quantum(self) -> bool:
        return all(k == QUANTUM for k in self.kinds)

    def _check_unit(self, i: int) -> None:
        if not 1 <= i <= self.N:
            raise ShapeError(f"unit index {i} outside 1..{self.N}")

    @classmethod
    def bits(cls, N: int) -> "SystemShape":
        return cls((2,) * N, (CLASSICAL,) * N)

    @classmethod
    def qubits(cls, N: int) -> "SystemShape":
        return cls((2,) * N, (QUANTUM,) * N)

    @classmethod
    def classical(cls, sizes) -> "SystemShape":
        sizes = tuple(sizes)
        return cls(sizes, (CLASSICAL,) * len(sizes))

    @classmethod
    def quantum(cls, sizes) -> "SystemShape":
        sizes = tuple(sizes)
        return cls(sizes, (QUANTUM,) * len(sizes))


@lru_cache(maxsize=32)
def algebra_mask(shape: SystemShape) -> np.ndarray:
    """Boolean (d, d) mask of entries an element of the algebra may populate:
    those of block_layout, where the classical digits of row and column
    agree.  Shared and read-only."""
    mask = np.zeros((shape.dim, shape.dim), dtype=bool)
    mask.reshape(-1)[block_layout(shape)] = True
    mask.setflags(write=False)
    return mask


@lru_cache(maxsize=32)
def block_layout(shape: SystemShape) -> np.ndarray:
    """Flat positions (d_C, d_Q, d_Q) of the algebra's entries in the (d, d) matrix.

    The algebra is a direct sum of d_C full d_Q x d_Q matrix algebras, one
    per joint configuration c of the classical units, indexed by the joint
    quantum digits of row and column; joint indices run in unit order, the
    first unit most significant.  An all-quantum shape is one d x d block,
    an all-classical one d blocks of 1 x 1.  Shared and read-only; the
    configuration of each block row is _block_rows(shape).
    """
    order = [i for i, k in enumerate(shape.kinds) if k == CLASSICAL]
    d_c = math.prod(shape.sizes[i] for i in order)
    order += [i for i, k in enumerate(shape.kinds) if k == QUANTUM]
    d = shape.dim
    # rows[c, a]: the configuration with classical digits c and quantum digits a
    rows = np.arange(d).reshape(shape.sizes).transpose(order).reshape(d_c, d // d_c)
    layout = rows[:, :, None] * d + rows[:, None, :]
    layout.setflags(write=False)
    return layout


@lru_cache(maxsize=32)
def _block_rows(shape: SystemShape) -> np.ndarray:
    """(d_C, d_Q): the configuration of each block row of block_layout.
    Shared and read-only."""
    rows = block_layout(shape)[:, :, 0] // shape.dim
    rows.setflags(write=False)
    return rows


def to_blocks(mat: np.ndarray, shape: SystemShape) -> np.ndarray:
    """The block array (d_C, d_Q, d_Q) of a (d, d) matrix: a gather of the
    algebra's entries (block_layout), the conditional expectation onto the
    algebra; a view on an all-quantum shape, whose one block is the matrix."""
    if shape.all_quantum:
        return mat.reshape(1, shape.dim, shape.dim)
    return mat.reshape(-1)[block_layout(shape)]


def from_blocks(x: np.ndarray, shape: SystemShape) -> np.ndarray:
    """The complex (d, d) matrix of a block array: a scatter, with zeros
    outside the algebra; on an all-quantum shape a view when x is complex."""
    d = shape.dim
    if shape.all_quantum:
        return x.reshape(d, d).astype(complex, copy=False)
    out = np.zeros(d * d, dtype=complex)
    out[block_layout(shape)] = x
    return out.reshape(d, d)


def _as_matrix(x) -> np.ndarray:
    mat = getattr(x, "matrix", x)
    return np.asarray(mat, dtype=complex)


def _algebra_element(matrix, shape: SystemShape, what: str) -> np.ndarray:
    """Read-only hermitian complex copy of a (d, d) element of the algebra.

    Raises ShapeError when the matrix has the wrong size, is not hermitian,
    or has weight outside the classical block structure.
    """
    mat = np.array(matrix, dtype=complex)
    d = shape.dim
    if mat.shape != (d, d):
        raise ShapeError(f"{what} matrix is {mat.shape}, shape demands ({d}, {d})")
    adj = mat.conj().T
    herm = np.max(np.abs(mat - adj))
    if herm > HERMITIAN_ATOL:
        raise ShapeError(f"{what} is not hermitian: max deviation {herm:.2e}")
    if not shape.all_quantum:
        off = np.max(np.abs(mat[~algebra_mask(shape)]), initial=0.0)
        if off > HERMITIAN_ATOL:
            raise ShapeError(
                f"{what} has weight {off:.2e} outside the classical block structure"
            )
    mat = 0.5 * (mat + adj)
    mat.setflags(write=False)
    return mat


def _checked_state(x: np.ndarray, hermitized: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """State's checks on a block array (d_C, d_Q, d_Q), in order: hermitian
    (skipped when the caller has hermitized x), unit trace, no eigenvalue
    below PSD_ATOL, the eigenvalues taken block by block (a 1 x 1 block is
    its own).  Returns the hermitized array and its block eigenvalues
    (d_C, d_Q), ascending within each block."""
    if not hermitized:
        adj = x.conj().swapaxes(-1, -2)
        herm = abs(x - adj).max()
        if herm > HERMITIAN_ATOL:
            raise ShapeError(f"state is not hermitian: max deviation {herm:.2e}")
        x = 0.5 * (x + adj)
    d_c, k, _ = x.shape
    tr = float(x.diagonal(0, 1, 2).real.sum())
    if abs(tr - 1.0) > max(TRACE_ATOL, 1e-12 * d_c * k):
        raise ShapeError(f"state trace is {tr!r}, expected 1")
    w = _eigh_blocks(x, vectors=False)
    wmin = w.min()
    if wmin < PSD_ATOL:
        raise ShapeError(f"state has eigenvalue {wmin:.2e} below {PSD_ATOL:.0e}")
    return x, w


@dataclass(frozen=True, init=False)
class State:
    """Density matrix together with its system shape.  Validates on construction.

    The state is stored as its block array (block_layout), read-only; the
    dense matrix is built on first access and cached, and on an all-quantum
    shape it is a view of the one block.  So is the spectrum, which
    validation fills from the eigenvalues its PSD check takes.
    """

    shape: SystemShape
    blocks: np.ndarray

    def __init__(self, shape: SystemShape, matrix):
        x = to_blocks(_algebra_element(matrix, shape, "state"), shape)
        self._store(shape, *_checked_state(x, hermitized=True))

    def _store(self, shape: SystemShape, x: np.ndarray, w: np.ndarray | None = None) -> None:
        """Keep the block array x, read-only; its block eigenvalues w, when
        validation took them, fill the spectrum."""
        if w is not None:
            spectrum = np.sort(w, axis=None)
            spectrum.setflags(write=False)
            self.__dict__["spectrum"] = spectrum
        x.setflags(write=False)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "blocks", x)

    @classmethod
    def _trusted(cls, shape: SystemShape, x: np.ndarray, w: np.ndarray | None = None) -> "State":
        """Wrap a block array that is hermitian, trace-one and PSD by
        construction, without revalidating it; it is made read-only, as the
        public constructor does, and its block eigenvalues w, if taken, fill
        the spectrum.  Internal: the public constructor keeps every check."""
        state = object.__new__(cls)
        state._store(shape, x, w)
        return state

    @classmethod
    def _of_blocks(cls, shape: SystemShape, x: np.ndarray) -> "State":
        """The state of a block array, through the constructor's checks."""
        return cls._trusted(shape, *_checked_state(x))

    @cached_property
    def matrix(self) -> np.ndarray:
        """The dense (d, d) density matrix, zero outside the algebra; read-only.
        Beyond an all-quantum shape, whose matrix is a view of the one block,
        d^2 above STACK_GUARD raises MemoryError."""
        d = self.shape.dim
        if not self.shape.all_quantum and d * d > STACK_GUARD:
            raise MemoryError(f"dense matrix of {d} x {d} exceeds the materialization guard")
        mat = from_blocks(self.blocks, self.shape)
        mat.setflags(write=False)
        return mat

    @cached_property
    def spectrum(self) -> np.ndarray:
        """The eigenvalues of all blocks together, ascending (_spectrum);
        read-only.  Validation fills it, a state made without it takes it on
        first access."""
        w = _spectrum(self.blocks)
        w.setflags(write=False)
        return w

    @property
    def dim(self) -> int:
        return self.shape.dim

    def probabilities(self) -> np.ndarray:
        """Diagonal as a real vector.  Only meaningful for all-classical shapes."""
        if not self.shape.all_classical:
            raise ShapeError("probabilities() requires an all-classical shape")
        return self.blocks[:, 0, 0].real.copy()

    @classmethod
    def from_probabilities(cls, shape: SystemShape, probs) -> "State":
        p = np.asarray(probs, dtype=float)
        if p.shape != (shape.dim,):
            raise ShapeError(f"expected {shape.dim} probabilities, got {p.shape}")
        if p.min() < PSD_ATOL:
            raise ShapeError(f"negative probability {p.min():.2e}")
        # the diagonal of every block: p at the configurations of its rows
        rows = _block_rows(shape)
        i = np.arange(rows.shape[1])
        x = np.zeros(rows.shape + i.shape, dtype=complex)
        x[:, i, i] = p[rows]
        return cls._of_blocks(shape, x)

    @classmethod
    def pure(cls, shape: SystemShape, vector) -> "State":
        v = np.asarray(vector, dtype=complex).reshape(-1)
        if v.shape != (shape.dim,):
            raise ShapeError(f"expected vector of length {shape.dim}, got {v.shape}")
        nrm = np.linalg.norm(v)
        if nrm < 1e-14:
            raise ShapeError("cannot normalize the zero vector")
        v = v / nrm
        # block c of the outer product is v_c v_c^H, v_c the amplitudes at the
        # configurations of block c; the largest entry outside the blocks,
        # which the dense constructor checks, is the product of the two
        # largest per-block max |v|
        vb = v[_block_rows(shape)]
        a = np.sort(abs(vb).max(axis=1))
        off = a[-1] * a[-2] if len(a) > 1 else 0.0
        if off > HERMITIAN_ATOL:
            raise ShapeError(f"state has weight {off:.2e} outside the classical block structure")
        return cls._of_blocks(shape, vb[:, :, None] * vb[:, None, :].conj())


def _factor_state(f: np.ndarray, shape: SystemShape) -> State:
    """The state of a block factor f (d_C, d_Q, r): block c is
    f_c f_c^H / tr.  Gathering the rows of a (d, r) factor M by
    _block_rows(shape) gives the state M M^H / tr restricted to the algebra."""
    x = f @ f.conj().transpose(0, 2, 1)
    return State._of_blocks(shape, x / np.trace(x, axis1=1, axis2=2).real.sum())


@dataclass(frozen=True)
class HermitianObservable:
    """Self-adjoint element of the algebra of a composite system."""

    shape: SystemShape
    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", _algebra_element(self.matrix, self.shape, "observable"))


def tensor(*operators) -> np.ndarray:
    """Kronecker product of matrices, in the given unit order."""
    mats = [np.asarray(_as_matrix(op)) for op in operators]
    if not mats:
        raise ValueError("tensor() needs at least one operator")
    return reduce(np.kron, mats)


@lru_cache(maxsize=256)
def _marginal_plan(shape: SystemShape, keep: tuple[int, ...]):
    """_marginal_blocks' einsum on the units keep: the axes of the block
    array, their labels, the labels kept and the kept quantum dimension.
    A unit's classical or row digit is labeled i, a kept quantum unit's
    column digit n + i; a dropped quantum unit's column digit repeats its
    row's label, so einsum traces the pair, and dropped classical digits
    are summed over."""
    n = shape.N
    classical = tuple(i for i, k in enumerate(shape.kinds) if k == CLASSICAL)
    quantum = tuple(i for i, k in enumerate(shape.kinds) if k == QUANTUM)
    axes = tuple(shape.sizes[i] for i in classical + quantum + quantum)
    labels = classical + quantum + tuple(n + i if i in keep else i for i in quantum)
    out = tuple(i for i in classical + quantum if i in keep)
    out += tuple(n + i for i in quantum if i in keep)
    return axes, labels, out, math.prod(shape.sizes[i] for i in quantum if i in keep)


def _marginal_blocks(x: np.ndarray, shape: SystemShape, keep) -> np.ndarray:
    """The block array of the reduced state on the units keep (0-based,
    ascending) of a block array x, hermitized.  Kept units stay in unit
    order, classical ones first, which is the sub-shape's block_layout;
    1 x 1 blocks come real."""
    axes, labels, out, k = _marginal_plan(shape, tuple(keep))
    y = np.einsum(x.reshape(axes), labels, out).reshape(-1, k, k)
    return y.real if k == 1 else 0.5 * (y + y.conj().transpose(0, 2, 1))


def marginal(state: State, units) -> State:
    """Reduced state on the given units (1-based); the empty set gives the
    trace, one classical unit of size 1."""
    nu = sorted(set(int(i) for i in units))
    sh = state.shape
    for i in nu:
        sh._check_unit(i)
    keep = [i - 1 for i in nu]
    sizes, kinds = tuple(sh.sizes[i] for i in keep), tuple(sh.kinds[i] for i in keep)
    sub = SystemShape(sizes or (1,), kinds or (CLASSICAL,))
    return State._of_blocks(sub, _marginal_blocks(state.blocks, sh, keep))


def spectrum_entropy(w: np.ndarray) -> float:
    """Entropy -sum w log w in nats of a spectrum, eigenvalues clipped to [0, 1]."""
    w = np.clip(w, 0.0, 1.0)
    w = w[w > 0.0]
    if w.size == 0:
        return 0.0
    return float(-np.sum(w * np.log(w)))


def _spectrum(x: np.ndarray) -> np.ndarray:
    """The ascending spectrum of a block array, from the eigenvalues of its blocks."""
    return np.sort(_eigh_blocks(x, vectors=False), axis=None)


def von_neumann_entropy(state) -> float:
    """Entropy -tr(rho log rho) in nats, eigenvalues clipped to [0, 1]; a
    State is taken from its spectrum, a matrix as one block."""
    if isinstance(state, State):
        return spectrum_entropy(state.spectrum)
    return spectrum_entropy(_spectrum(_as_matrix(state)[None]))


def _weights(rho_x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The weight (n, k) of the block array rho_x on each column of the
    block eigenvectors v (n, k, k) of _eigh_blocks, the diagonal of
    v^H rho v block by block; a 1 x 1 block's eigenvector is 1."""
    if v.shape[-1] == 1:
        return rho_x[:, 0].real
    return np.add.reduce(v.conj() * (rho_x @ v), axis=1).real


def relative_entropy(rho, sigma) -> float:
    """Divergence tr rho (log rho - log sigma), +inf if rho charges the kernel of sigma.

    Kernel membership uses the relative eigenvalue threshold SUPPORT_RTOL on
    sigma's spectrum; rho may put at most KERNEL_MASS_TOL of mass there.
    All logarithms are evaluated on the support eigenspaces only.  Two
    States of one shape are taken block by block, other operands as dense
    matrices.
    """
    if isinstance(rho, State) and isinstance(sigma, State) and rho.shape == sigma.shape:
        r, s, rho_w = rho.blocks, sigma.blocks, rho.spectrum
    else:
        r, s = _as_matrix(rho)[None], _as_matrix(sigma)[None]
        rho_w = None
    if r.shape != s.shape:
        raise ShapeError(f"operands have shapes {r.shape[1:]} and {s.shape[1:]}")
    ws, v = _eigh_blocks(s)
    ws, diag = ws.ravel(), _weights(r, v).ravel()
    thr = SUPPORT_RTOL * max(float(ws.max()), 1e-300)
    kernel = ws < thr
    if kernel.any() and float(np.sum(diag[kernel])) > KERNEL_MASS_TOL:
        return float("inf")
    supp = ~kernel
    term2 = float(np.sum(np.clip(diag[supp], 0.0, None) * np.log(ws[supp])))
    val = -spectrum_entropy(_spectrum(r) if rho_w is None else rho_w) - term2
    if -1e-9 < val < 0.0:
        val = 0.0
    return val


def _eigh_blocks(x: np.ndarray, vectors: bool = True):
    """Eigenvalues (n, k), ascending within each block, and with vectors the
    eigenvectors (n, k, k) of a hermitian block array x (n, k, k).  A 1 x 1
    block is its own eigenvalue, with eigenvector 1: no LAPACK call."""
    if x.shape[-1] == 1:
        w = x[:, :, 0].real
        return (w, np.ones_like(x)) if vectors else w
    return np.linalg.eigh(x) if vectors else np.linalg.eigvalsh(x)


def _compose(w: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The block array (u * w) @ u^H of eigenpairs (w, u) of _eigh_blocks;
    a 1 x 1 block is its eigenvalue."""
    if u.shape[-1] == 1:
        return w[:, :, None] * u
    return (u * w[:, None, :]) @ u.conj().transpose(0, 2, 1)


def _lift(w: np.ndarray, u: np.ndarray, shape: SystemShape, floor: float):
    """The eigenvectors of block eigenpairs (w, u) of _eigh_blocks whose
    eigenvalue exceeds floor, by ascending eigenvalue, as the columns of a
    d x r isometry of the shape, and those eigenvalues."""
    flat = w.ravel()
    order = np.argsort(flat, kind="stable")
    keep = order[flat[order] > floor]
    blk, col = np.divmod(keep, w.shape[1])
    q = np.zeros((shape.dim, keep.size), dtype=u.dtype)
    q[_block_rows(shape)[blk].T, np.arange(keep.size)] = u[blk, :, col].T
    return q, flat[keep]


def _gibbs_blocks(h: np.ndarray) -> tuple[np.ndarray, float, np.ndarray, np.ndarray]:
    """exp(h) / tr exp(h) of a hermitian block array h, log tr exp(h), and
    the Gibbs state's eigenpairs (p, u), p summing to one.  Log-sum-exp is
    shifted by the largest eigenvalue, so none overflows."""
    w, u = _eigh_blocks(h)
    lz = _log_sum_exp(w)
    p = np.exp(w - lz)
    return _compose(p, u), lz, p, u


def _log_sum_exp(w: np.ndarray) -> float:
    """log sum exp(w), shifted by the largest entry."""
    s = np.sort(w, axis=None)
    return float(s[-1] + np.log1p(np.exp(s[:-1] - s[-1]).sum()))


def _gibbs_of_zero(n: int, k: int) -> tuple[np.ndarray, float, np.ndarray, np.ndarray]:
    """_gibbs_blocks of the zero block array (n, k, k) in closed form, with
    no eigendecomposition: the maximally mixed state, log(n k) from the same
    log-sum-exp, and eigenpairs (1 / n k, identity).  LAPACK's eigh of a
    zero block returns the identity, so the values are those of the map."""
    w = np.zeros((n, k))
    lz = _log_sum_exp(w)
    p = np.exp(w - lz)
    u = np.broadcast_to(np.eye(k, dtype=complex), (n, k, k)).copy()
    return p[:, :, None] * u, lz, p, u


def gibbs_with_log_partition(a: np.ndarray) -> tuple[np.ndarray, float]:
    """exp(a) / tr exp(a) of a hermitian matrix, and log tr exp(a), from one
    eigendecomposition (see _gibbs_blocks)."""
    pi, lz, _, _ = _gibbs_blocks(a[None])
    return pi[0], lz


def gibbs_map(a):
    """Normalized exponential exp(a) / tr exp(a), symmetrized.

    Accepts a HermitianObservable (returns a State) or a plain hermitian
    ndarray (returns an ndarray).
    """
    observable = isinstance(a, HermitianObservable)
    mat = a.matrix if observable else np.asarray(a, dtype=complex)
    if not observable and np.max(np.abs(mat - mat.conj().T)) > 1e-10:
        raise ValueError("gibbs_map needs a hermitian operand")
    out = gibbs_with_log_partition(mat)[0]
    out = 0.5 * (out + out.conj().T)
    return State(a.shape, out) if observable else out


def matrix_fourier_basis(n: int) -> list[np.ndarray]:
    """Orthonormal basis of the n x n matrices built from Fourier phases and cyclic shifts.

    Element (k, l) carries phase index k and shift l; entry (r, s) is
    exp(i pi (r+s) k / n) / sqrt(n) on the diagonal s = r + l and
    exp(i pi (r+s-n) k / n) / sqrt(n) on the wrapped diagonal s = r + l - n,
    with r, s counted from 1.  Element (0, 0) is the normalized identity.
    """
    if n < 1:
        raise ValueError(f"basis size must be >= 1, got {n}")
    out = []
    rt = 1.0 / np.sqrt(n)
    for k in range(n):
        for l in range(n):
            E = np.zeros((n, n), dtype=complex)
            for r in range(1, n + 1):
                s = r + l
                if 1 <= s <= n:
                    E[r - 1, s - 1] += np.exp(1j * np.pi * (r + s) * k / n)
                s = r + l - n
                if 1 <= s <= n:
                    E[r - 1, s - 1] += np.exp(1j * np.pi * (r + s - n) * k / n)
            out.append(rt * E)
    return out


def hermitize_basis(basis) -> list[np.ndarray]:
    """Turn an adjoint-closed orthonormal matrix basis into a self-adjoint one.

    Fixed points of the adjoint (up to sign) are kept (multiplied by i when
    anti-self-adjoint); the remaining elements are consumed in pairs {E, E*},
    each contributing E + E* and i(E - E*).  Output is renormalized to unit
    Hilbert-Schmidt norm and preserves the input order of first members.
    """
    mats = [np.asarray(m, dtype=complex) for m in basis]
    used = [False] * len(mats)
    out = []
    for i, E in enumerate(mats):
        if used[i]:
            continue
        used[i] = True
        Ead = E.conj().T
        if np.max(np.abs(Ead - E)) < ADJOINT_MATCH_TOL:
            out.append(E.copy())
            continue
        if np.max(np.abs(Ead + E)) < ADJOINT_MATCH_TOL:
            out.append(1j * E)
            continue
        partner = None
        for j in range(i + 1, len(mats)):
            if used[j]:
                continue
            if (
                np.max(np.abs(mats[j] - Ead)) < ADJOINT_MATCH_TOL
                or np.max(np.abs(mats[j] + Ead)) < ADJOINT_MATCH_TOL
            ):
                partner = j
                break
        if partner is None:
            raise ValueError(f"basis element {i} has no adjoint partner in the family")
        used[partner] = True
        out.append(E + Ead)
        out.append(1j * (E - Ead))
    normed = []
    for M in out:
        nrm = float(np.sqrt(abs(np.trace(M @ M.conj().T).real)))
        if nrm < 1e-12:
            raise ValueError("degenerate pair produced a zero element")
        normed.append(M / nrm)
    return normed


def classical_unit_basis(n: int) -> list[np.ndarray]:
    """Orthonormal self-adjoint basis of the diagonal algebra: identity plus cosine contrasts."""
    if n < 1:
        raise ValueError(f"unit size must be >= 1, got {n}")
    vecs = [np.full(n, 1.0 / np.sqrt(n))]
    r = np.arange(n)
    for j in range(1, n):
        vecs.append(np.sqrt(2.0 / n) * np.cos(np.pi * j * (2 * r + 1) / (2 * n)))
    return [np.diag(v).astype(complex) for v in vecs]


def unit_hermitian_basis(shape: SystemShape, i: int) -> list[np.ndarray]:
    """Orthonormal self-adjoint basis of unit i's algebra, identity first.

    The matrices are built once per unit size and kind and shared by every
    caller, so they are read-only.
    """
    shape._check_unit(i)
    return list(_unit_basis(shape.sizes[i - 1], shape.kinds[i - 1]))


@lru_cache(maxsize=None)
def _unit_basis(n: int, kind: str) -> tuple[np.ndarray, ...]:
    basis = classical_unit_basis(n) if kind == CLASSICAL else hermitize_basis(matrix_fourier_basis(n))
    for mat in basis:
        mat.setflags(write=False)
    return tuple(basis)


def expectation_values(mat: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """Real vector of tr(B_k mat) for a stack (m, d, d) of hermitian B_k."""
    return np.real(np.tensordot(stack, mat.T, axes=([1, 2], [0, 1])))


_SQRT2 = math.sqrt(2.0)


def hermitian_realvec(mat: np.ndarray) -> np.ndarray:
    """Isometric real coordinates of a hermitian matrix.

    Diagonal first, then sqrt(2) times the real and imaginary parts of the
    strict upper triangle, so that euclidean dot products of the vectors
    equal Hilbert-Schmidt inner products of the matrices.
    """
    iu = np.triu_indices(mat.shape[-1], k=1)
    diag = np.real(np.diagonal(mat, axis1=-2, axis2=-1))
    upper = mat[..., iu[0], iu[1]]
    return np.concatenate(
        [diag, _SQRT2 * np.real(upper), _SQRT2 * np.imag(upper)], axis=-1
    )


def realvec_hermitian(vec: np.ndarray, n: int) -> np.ndarray:
    """Inverse of hermitian_realvec; a (..., n*n) stack gives a (..., n, n) stack."""
    v = np.asarray(vec, dtype=float)
    if v.shape[-1:] != (n * n,):
        raise ValueError(f"expected length {n * n}, got {v.shape}")
    iu = np.triu_indices(n, k=1)
    k = iu[0].size
    out = np.zeros(v.shape[:-1] + (n, n), dtype=complex)
    out[..., np.arange(n), np.arange(n)] = v[..., :n]
    upper = (v[..., n : n + k] + 1j * v[..., n + k :]) / _SQRT2
    out[..., iu[0], iu[1]] = upper
    out[..., iu[1], iu[0]] = upper.conj()
    return out
