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
from functools import lru_cache, reduce

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

    @property
    def all_classical(self) -> bool:
        return all(k == CLASSICAL for k in self.kinds)

    @property
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
    """Boolean (d, d) mask of entries an element of the algebra may populate.

    Classical units force block-diagonality: an entry survives only where the
    classical components of its row and column multi-index agree.  The mask
    is built once per shape and shared, so it is read-only.
    """
    blocks = []
    for n, kind in zip(shape.sizes, shape.kinds):
        blocks.append(np.eye(n, dtype=bool) if kind == CLASSICAL else np.ones((n, n), dtype=bool))
    mask = reduce(np.kron, blocks)
    mask.setflags(write=False)
    return mask


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


@dataclass(frozen=True)
class State:
    """Density matrix together with its system shape.  Validates on construction."""

    shape: SystemShape
    matrix: np.ndarray

    def __post_init__(self):
        mat = _algebra_element(self.matrix, self.shape, "state")
        tr = np.trace(mat).real
        if abs(tr - 1.0) > max(TRACE_ATOL, 1e-12 * self.shape.dim):
            raise ShapeError(f"state trace is {tr!r}, expected 1")
        wmin = float(np.linalg.eigvalsh(mat)[0])
        if wmin < PSD_ATOL:
            raise ShapeError(f"state has eigenvalue {wmin:.2e} below {PSD_ATOL:.0e}")
        object.__setattr__(self, "matrix", mat)

    @classmethod
    def _trusted(cls, shape: SystemShape, matrix: np.ndarray) -> "State":
        """Wrap a matrix that is hermitian, trace-one, PSD and in the algebra
        by construction, without revalidating it; it is made read-only, as
        the public constructor does.  Internal: the public constructor keeps
        every check."""
        matrix.setflags(write=False)
        state = object.__new__(cls)
        object.__setattr__(state, "shape", shape)
        object.__setattr__(state, "matrix", matrix)
        return state

    @property
    def dim(self) -> int:
        return self.shape.dim

    def probabilities(self) -> np.ndarray:
        """Diagonal as a real vector.  Only meaningful for all-classical shapes."""
        if not self.shape.all_classical:
            raise ShapeError("probabilities() requires an all-classical shape")
        return np.real(np.diag(self.matrix)).copy()

    @classmethod
    def from_probabilities(cls, shape: SystemShape, probs) -> "State":
        p = np.asarray(probs, dtype=float)
        if p.shape != (shape.dim,):
            raise ShapeError(f"expected {shape.dim} probabilities, got {p.shape}")
        if p.min() < PSD_ATOL:
            raise ShapeError(f"negative probability {p.min():.2e}")
        return cls(shape, np.diag(p.astype(complex)))

    @classmethod
    def pure(cls, shape: SystemShape, vector) -> "State":
        v = np.asarray(vector, dtype=complex).reshape(-1)
        if v.shape != (shape.dim,):
            raise ShapeError(f"expected vector of length {shape.dim}, got {v.shape}")
        nrm = np.linalg.norm(v)
        if nrm < 1e-14:
            raise ShapeError("cannot normalize the zero vector")
        v = v / nrm
        return cls(shape, np.outer(v, v.conj()))


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


def _partial_trace(mat: np.ndarray, sizes: tuple[int, ...], keep0: list[int]) -> np.ndarray:
    """Trace out all units not in keep0 (0-based, ascending)."""
    N = len(sizes)
    t = mat.reshape(*sizes, *sizes)
    traced = 0
    for ax in range(N):
        if ax in keep0:
            continue
        a = ax - traced
        t = np.trace(t, axis1=a, axis2=a + (N - traced))
        traced += 1
    dk = 1
    for ax in keep0:
        dk *= sizes[ax]
    return t.reshape(dk, dk)


def marginal(state: State, units) -> State:
    """Reduced state on the given units (1-based); the empty set gives the scalar 1."""
    nu = sorted(set(int(i) for i in units))
    sh = state.shape
    for i in nu:
        sh._check_unit(i)
    if not nu:
        return State(SystemShape((1,), (CLASSICAL,)), np.array([[1.0 + 0j]]))
    keep0 = [i - 1 for i in nu]
    mat = _partial_trace(state.matrix, sh.sizes, keep0)
    sub = SystemShape(
        tuple(sh.sizes[i] for i in keep0),
        tuple(sh.kinds[i] for i in keep0),
    )
    # round off accumulated float dust so the result revalidates cleanly
    mat = 0.5 * (mat + mat.conj().T)
    return State(sub, mat)


def _clipped_eigvalsh(mat: np.ndarray) -> np.ndarray:
    w = np.linalg.eigvalsh(mat)
    return np.clip(w, 0.0, 1.0)


def spectrum_entropy(w: np.ndarray) -> float:
    """Entropy -sum w log w in nats of a spectrum, eigenvalues clipped to [0, 1]."""
    w = np.clip(w, 0.0, 1.0)
    w = w[w > 0.0]
    if w.size == 0:
        return 0.0
    return float(-np.sum(w * np.log(w)))


def von_neumann_entropy(state) -> float:
    """Entropy -tr(rho log rho) in nats, eigenvalues clipped to [0, 1]."""
    return spectrum_entropy(np.linalg.eigvalsh(_as_matrix(state)))


def relative_entropy(rho, sigma) -> float:
    """Divergence tr rho (log rho - log sigma), +inf if rho charges the kernel of sigma.

    Kernel membership uses the relative eigenvalue threshold SUPPORT_RTOL on
    sigma's spectrum; rho may put at most KERNEL_MASS_TOL of mass there.
    All logarithms are evaluated on the support eigenspaces only.
    """
    r = _as_matrix(rho)
    s = _as_matrix(sigma)
    if r.shape != s.shape:
        raise ShapeError(f"operands have shapes {r.shape} and {s.shape}")
    ws, vs = np.linalg.eigh(s)
    thr = SUPPORT_RTOL * max(float(ws.max()), 1e-300)
    kernel = ws < thr
    diag = np.real(np.sum(vs.conj() * (r @ vs), axis=0))  # diagonal of vs^H r vs
    if kernel.any() and float(np.sum(diag[kernel])) > KERNEL_MASS_TOL:
        return float("inf")
    wr = _clipped_eigvalsh(r)
    pos = wr > 0.0
    term1 = float(np.sum(wr[pos] * np.log(wr[pos])))
    supp = ~kernel
    term2 = float(np.sum(np.clip(diag[supp], 0.0, None) * np.log(ws[supp])))
    val = term1 - term2
    if -1e-9 < val < 0.0:
        val = 0.0
    return val


def gibbs_with_log_partition(a: np.ndarray) -> tuple[np.ndarray, float]:
    """exp(a) / tr exp(a) of a hermitian matrix, and log tr exp(a).

    The spectrum is normalized through log-sum-exp shifted by the largest
    eigenvalue, so no eigenvalue overflows; the matrix is rebuilt in one pass
    over the eigenvectors.
    """
    pi, lz, _, _ = _gibbs_eigh(a)
    return pi, lz


def _gibbs_eigh(a: np.ndarray) -> tuple[np.ndarray, float, np.ndarray, np.ndarray]:
    """gibbs_with_log_partition, also returning the eigenpairs (p, u) of the
    Gibbs state: p ascending, summing to one, and pi = (u * p) @ u^H."""
    w, u = np.linalg.eigh(a)
    # eigh sorts ascending: w[-1] is the shift, and its own term is the 1
    lz = float(w[-1] + np.log1p(np.exp(w[:-1] - w[-1]).sum()))
    p = np.exp(w - lz)
    return (u * p) @ u.conj().T, lz, p, u


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
