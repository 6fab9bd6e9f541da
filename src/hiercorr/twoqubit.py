"""Two-qubit states diagonal in the maximally entangled basis.

These states are parametrized either by their four eigenvalues or by the
three correlation coefficients t_i = <sigma_i x sigma_i>; both charts are
kept and cross-validated on construction.  The module provides the
separability test (two equivalent criteria, both evaluated), the mutual
information in closed form, the six extreme points of the separable set
with their explicit product decompositions, and samplers used to verify
the mutual-information bound on the separable region.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .algebra import State, SystemShape
from .states import bell_vector

I2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (SX, SY, SZ)

# rows: eigenvalue signs of sigma_i x sigma_i on the four entangled vectors
SIGN_PATTERNS = np.array(
    [
        [1.0, -1.0, 1.0],
        [-1.0, 1.0, 1.0],
        [1.0, 1.0, -1.0],
        [-1.0, -1.0, -1.0],
    ]
)

TWO_QUBITS = SystemShape.qubits(2)
LOG2 = math.log(2.0)
# a correlation vector is physical when every Bell-line weight
# (1 + signs . t) / 4 is at least -PHYSICAL_ATOL
PHYSICAL_ATOL = 1e-12
# tolerance of the separability band, of a live correlation axis, and of the
# log 2 bound on the separable set
BD_TOL = 1e-9

_EIG_X = {1: np.array([1, 1], dtype=complex) / np.sqrt(2),
          -1: np.array([1, -1], dtype=complex) / np.sqrt(2)}
_EIG_Y = {1: np.array([1, 1j], dtype=complex) / np.sqrt(2),
          -1: np.array([1, -1j], dtype=complex) / np.sqrt(2)}
_EIG_Z = {1: np.array([1, 0], dtype=complex),
          -1: np.array([0, 1], dtype=complex)}
_AXIS_EIG = (_EIG_X, _EIG_Y, _EIG_Z)


@dataclasses.dataclass(frozen=True)
class BellDiagonal:
    """Correlation coefficients, spectrum, and the assembled density matrix."""

    t: np.ndarray
    lam: np.ndarray
    state: State


def _assemble(t: np.ndarray) -> np.ndarray:
    rho = np.eye(4, dtype=complex)
    for ti, sigma in zip(t, PAULIS):
        rho = rho + ti * np.kron(sigma, sigma)
    return rho / 4.0


def is_physical_t(t) -> bool:
    t = np.asarray(t, dtype=float)
    return bool(np.min(1.0 + SIGN_PATTERNS @ t) >= -4.0 * PHYSICAL_ATOL)


def bell_from_t(t) -> BellDiagonal:
    t = np.asarray(t, dtype=float).reshape(3)
    rho = _assemble(t)
    lam = np.array([
        float(np.real(bell_vector(j).conj() @ rho @ bell_vector(j)))
        for j in (1, 2, 3, 4)
    ])
    # the assembled matrix and the sign patterns are independent routes
    predicted = 0.25 * (1.0 + SIGN_PATTERNS @ t)
    assert np.max(np.abs(lam - predicted)) < 1e-12, "charts disagree"
    if lam.min() < -1e-12:
        raise ValueError(f"correlation vector {t.tolist()} is outside the state space")
    lam = np.clip(lam, 0.0, None)
    lam = lam / lam.sum()
    return BellDiagonal(t=t, lam=lam, state=State(TWO_QUBITS, rho))


def bell_from_lambda(lam) -> BellDiagonal:
    lam = np.asarray(lam, dtype=float).reshape(4)
    if lam.min() < -1e-12 or abs(lam.sum() - 1.0) > 1e-10:
        raise ValueError("eigenvalues must form a probability vector")
    lam = np.clip(lam, 0.0, None)
    lam = lam / lam.sum()
    t = SIGN_PATTERNS.T @ lam
    rho = sum(l * np.outer(bell_vector(j), bell_vector(j).conj())
              for j, l in zip((1, 2, 3, 4), lam))
    bd = BellDiagonal(t=t, lam=lam, state=State(TWO_QUBITS, rho))
    assert np.max(np.abs(_assemble(t) - rho)) < 1e-12, "charts disagree"
    return bd


def is_separable(bd: BellDiagonal) -> bool:
    """Separability of a Bell-diagonal state.

    Two equivalent characterizations are evaluated: largest eigenvalue at
    most one half, and the correlation vector inside the unit cross
    polytope.  Disagreement outside the tolerance band is a hard error.
    """
    by_lam = float(bd.lam.max()) <= 0.5 + BD_TOL
    by_t = float(np.abs(bd.t).sum()) <= 1.0 + BD_TOL
    if by_lam != by_t:
        near_lam = abs(bd.lam.max() - 0.5) <= 10 * BD_TOL
        near_t = abs(np.abs(bd.t).sum() - 1.0) <= 10 * BD_TOL
        if not (near_lam or near_t):
            raise RuntimeError(
                f"separability criteria disagree off the boundary: "
                f"lam_max={bd.lam.max()!r}, |t|_1={np.abs(bd.t).sum()!r}"
            )
    return by_lam


def mutual_information_bd(bd: BellDiagonal) -> float:
    """I(rho) = 2 log 2 - H(lams); both marginals are maximally mixed."""
    # 0 log 0 = 0; four terms are summed faster in Python than by numpy
    return 2.0 * LOG2 + sum(x * math.log(x) for x in bd.lam.tolist() if x > 0.0)


_EXTREME_PAIRS = ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))


def separable_extreme_points() -> list[tuple[tuple[int, int], "BellDiagonal"]]:
    """The six edge midpoints of the spectrum simplex that are separable.

    Their correlation vectors are exactly the vertices of the unit cross
    polytope, one for each signed axis.
    """
    out = []
    for i, j in _EXTREME_PAIRS:
        lam = np.zeros(4)
        lam[i - 1] = lam[j - 1] = 0.5
        out.append(((i, j), bell_from_lambda(lam)))
    return out


def extreme_point_product_form(pair: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """Two orthogonal product vectors whose even mixture is the extreme point."""
    if tuple(pair) not in _EXTREME_PAIRS:
        raise ValueError(f"{pair} is not one of the six extreme pairs")
    lam = np.zeros(4)
    lam[pair[0] - 1] = lam[pair[1] - 1] = 0.5
    t = SIGN_PATTERNS.T @ lam
    axis = int(np.argmax(np.abs(t)))
    sign = int(np.sign(t[axis]))
    eig = _AXIS_EIG[axis]
    v1 = np.kron(eig[1], eig[sign])
    v2 = np.kron(eig[-1], eig[-sign])
    return v1, v2


def classical_witness(bd: BellDiagonal):
    """Local bases diagonalizing the state, when at most one axis carries
    correlation; None otherwise."""
    live = np.abs(bd.t) > BD_TOL
    if live.sum() > 1:
        return None
    axis = int(np.argmax(np.abs(bd.t))) if live.any() else 2
    eig = _AXIS_EIG[axis]
    u = np.column_stack([eig[1], eig[-1]])
    return u, u.copy()


def is_classically_correlated_bd(bd: BellDiagonal) -> bool:
    return classical_witness(bd) is not None


def sample_octahedron(rng: np.random.Generator) -> np.ndarray:
    """Uniform draw from the unit cross polytope |t|_1 <= 1."""
    x = rng.dirichlet(np.ones(4))[:3]
    return x * rng.choice([-1.0, 1.0], size=3)


def verify_mutual_information_bound(n_samples: int = 10_000, seed: int = 0) -> dict:
    """Check that on the separable Bell-diagonal set the mutual information
    never exceeds log 2, and that the six extreme points attain it."""
    rng = np.random.default_rng(seed)
    worst = -np.inf
    worst_t = None
    violations = 0
    for _ in range(n_samples):
        bd = bell_from_t(sample_octahedron(rng))
        assert is_separable(bd)
        info = mutual_information_bd(bd)
        if info > worst:
            worst, worst_t = info, bd.t
        if info > LOG2 + BD_TOL:
            violations += 1
    extremes = [mutual_information_bd(bd) for _, bd in separable_extreme_points()]
    extreme_gap = max(abs(v - LOG2) for v in extremes)
    return {
        "n_samples": n_samples,
        "seed": seed,
        "max_mutual_information": float(worst),
        "bound": LOG2,
        "argmax_t": [float(x) for x in worst_t],
        "violations": violations,
        "extreme_point_gap": float(extreme_gap),
        "passed": violations == 0 and extreme_gap < 1e-12,
    }


def correlation_geometry_rows(grid: int = 9) -> list[dict]:
    """Tabulate the tetrahedron/cross-polytope geometry for plotting.

    Rows carry the four spectrum-simplex vertices, the six separable
    extreme points, and a cubic grid of correlation vectors with their
    physicality, separability, and mutual information.
    """
    rows = []
    for j in (1, 2, 3, 4):
        lam = np.zeros(4)
        lam[j - 1] = 1.0
        bd = bell_from_lambda(lam)
        rows.append(_row("entangled-vertex", bd, f"spectrum vertex {j}"))
    for pair, bd in separable_extreme_points():
        rows.append(_row("separable-extreme", bd, f"pair {pair[0]}{pair[1]}"))
    for t1 in np.linspace(-1, 1, grid):
        for t2 in np.linspace(-1, 1, grid):
            for t3 in np.linspace(-1, 1, grid):
                t = np.array([t1, t2, t3])
                if is_physical_t(t):
                    rows.append(_row("grid", bell_from_t(t), ""))
                else:
                    rows.append({
                        "role": "grid", "t1": float(t1), "t2": float(t2),
                        "t3": float(t3), "physical": False, "separable": False,
                        "mutual_information": float("nan"), "note": "",
                    })
    return rows


def _row(role: str, bd: BellDiagonal, note: str) -> dict:
    return {
        "role": role,
        "t1": float(bd.t[0]),
        "t2": float(bd.t[1]),
        "t3": float(bd.t[2]),
        "physical": True,
        "separable": is_separable(bd),
        "mutual_information": mutual_information_bd(bd),
        "note": note,
    }
