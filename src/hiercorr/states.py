"""Standard states and seeded random ensembles used in tests and searches."""
from __future__ import annotations

import numpy as np

from .algebra import ShapeError, State, SystemShape, algebra_mask


def ghz_state(n_qubits: int = 3) -> State:
    """Even superposition of the all-zero and all-one basis vectors."""
    shape = SystemShape.qubits(n_qubits)
    v = np.zeros(shape.dim, dtype=complex)
    v[0] = 1.0
    v[-1] = 1.0
    return State.pure(shape, v)


_BELL = {
    1: np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2),
    2: np.array([1, 0, 0, -1], dtype=complex) / np.sqrt(2),
    3: np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2),
    4: np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2),
}


def bell_vector(i: int) -> np.ndarray:
    """The four maximally entangled two-qubit unit vectors, indexed 1..4."""
    if i not in _BELL:
        raise ValueError(f"bell index {i} outside 1..4")
    return _BELL[i].copy()


def bell_state(i: int) -> State:
    return State.pure(SystemShape.qubits(2), bell_vector(i))


def maximally_mixed(shape: SystemShape) -> State:
    d = shape.dim
    return State(shape, np.eye(d, dtype=complex) / d)


def basis_state(shape: SystemShape, config) -> State:
    """Point mass / computational basis projector at the given configuration."""
    idx = config_index(shape, config)
    v = np.zeros(shape.dim, dtype=complex)
    v[idx] = 1.0
    return State.pure(shape, v)


def config_index(shape: SystemShape, config) -> int:
    """Mixed-radix index of a configuration, unit 1 most significant."""
    cfg = tuple(int(c) for c in config)
    if len(cfg) != shape.N:
        raise ShapeError(f"configuration {cfg} has {len(cfg)} symbols, shape has {shape.N} units")
    idx = 0
    for c, n in zip(cfg, shape.sizes):
        if not 0 <= c < n:
            raise ShapeError(f"symbol {c} outside 0..{n - 1}")
        idx = idx * n + c
    return idx


def all_configs(shape: SystemShape) -> list[tuple[int, ...]]:
    """All configurations in mixed-radix order, unit 1 most significant."""
    out = [()]
    for n in shape.sizes:
        out = [c + (s,) for c in out for s in range(n)]
    return out


def uniform_on(shape: SystemShape, configs) -> State:
    """Classical uniform distribution supported on the given configurations."""
    if not shape.all_classical:
        raise ShapeError("uniform_on requires an all-classical shape")
    configs = list(configs)
    if not configs:
        raise ShapeError("support must be non-empty")
    p = np.zeros(shape.dim)
    for c in configs:
        p[config_index(shape, c)] += 1.0
    p /= p.sum()
    return State.from_probabilities(shape, p)


def random_pure(shape: SystemShape, rng: np.random.Generator) -> State:
    """Haar-random pure state; requires an all-quantum shape."""
    if not shape.all_quantum:
        raise ShapeError("random_pure requires an all-quantum shape")
    d = shape.dim
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return State.pure(shape, v)


def random_density(shape: SystemShape, rng: np.random.Generator, rank: int | None = None) -> State:
    """Random density matrix of the requested rank (default: full on the algebra).

    Quantum units get Wishart-style factors; classical and mixed shapes are
    pinched onto the block structure of the algebra, which preserves
    positivity and trace.
    """
    d = shape.dim
    r = d if rank is None else int(rank)
    if not 1 <= r <= d:
        raise ShapeError(f"rank {r} outside 1..{d}")
    if shape.all_classical:
        w = rng.gamma(1.0, size=r)
        p = np.zeros(d)
        pos = rng.permutation(d)[:r]
        p[pos] = w / w.sum()
        return State.from_probabilities(shape, p)
    m = rng.normal(size=(d, r)) + 1j * rng.normal(size=(d, r))
    mat = m @ m.conj().T
    mask = algebra_mask(shape)
    mat = np.where(mask, mat, 0.0)
    mat /= np.trace(mat).real
    return State(shape, 0.5 * (mat + mat.conj().T))
