"""Two-qubit states diagonal in the maximally entangled basis.

These states are parametrized either by their four eigenvalues or by the
three correlation coefficients t_i = <sigma_i x sigma_i>; both charts are
kept and cross-validated on construction.  The module provides the
separability test (two equivalent criteria, both evaluated), the mutual
information in closed form, the six extreme points of the separable set
with their explicit product decompositions, and samplers used to verify
the mutual-information bound on the separable region.  Many correlation
vectors are checked as array passes of BLOCK vectors, each number rounded
exactly as in the one-vector functions.
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
# sigma_i x sigma_i, the operator whose expectation is t_i
_CORRELATORS = tuple(np.kron(s, s) for s in PAULIS)
# the four entangled vectors as (4, 1, 4) conjugated rows and (4, 4, 1) columns
_BELL_ROWS = np.array([bell_vector(j) for j in (1, 2, 3, 4)]).conj()[:, None, :]
_BELL_COLS = np.array([bell_vector(j) for j in (1, 2, 3, 4)])[:, :, None]

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
# correlation vectors per array pass: a (BLOCK, 4, 4) complex stack is 0.5 MB,
# so a pass over any number of samples keeps a working set of a few MB
BLOCK = 2048

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
    """Density matrices (n, 4, 4) of correlation vectors t of shape (n, 3)."""
    rho = np.eye(4, dtype=complex)
    for ti, corr in zip(t.T, _CORRELATORS):
        rho = rho + ti[:, None, None] * corr
    return rho / 4.0


def _physical(t: np.ndarray) -> np.ndarray:
    return np.min(1.0 + t @ SIGN_PATTERNS.T, axis=1) >= -4.0 * PHYSICAL_ATOL


def is_physical_t(t) -> bool:
    return bool(_physical(np.asarray(t, dtype=float).reshape(1, 3))[0])


def _bell_batch(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Spectra (n, 4) and block arrays (n, 1, 4, 4) of correlation vectors t
    of shape (n, 3); bell_from_t is the case n = 1.  The matrices are
    hermitian with trace one as assembled, and the check of the Bell-line
    weights, which are their eigenvalues, is stricter than PSD_ATOL, so
    they need no further validation."""
    rho = _assemble(t)
    # <b_j|rho|b_j> as one vector-matrix and one vector-vector product per
    # matrix and line, so every sample rounds as a single one does
    lam = ((_BELL_ROWS @ rho[:, None]) @ _BELL_COLS)[:, :, 0, 0].real
    # the assembled matrices and the sign patterns are independent routes
    predicted = 0.25 * (1.0 + t @ SIGN_PATTERNS.T)
    assert np.max(np.abs(lam - predicted)) < 1e-12, "charts disagree"
    outside = lam.min(axis=1) < -1e-12
    if outside.any():
        bad = t[np.argmax(outside)]
        raise ValueError(f"correlation vector {bad.tolist()} is outside the state space")
    lam = np.clip(lam, 0.0, None)
    lam = lam / lam.sum(axis=1, keepdims=True)
    return lam, 0.5 * (rho + rho.conj().swapaxes(-1, -2))[:, None]


def bell_from_t(t) -> BellDiagonal:
    t = np.asarray(t, dtype=float).reshape(3)
    lam, mats = _bell_batch(t[None])
    return BellDiagonal(t=t, lam=lam[0], state=State._trusted(TWO_QUBITS, mats[0]))


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
    assert np.max(np.abs(_assemble(t[None])[0] - rho)) < 1e-12, "charts disagree"
    return bd


def _separable(lam: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Separability of each row of spectra (n, 4) and correlation vectors (n, 3)."""
    lam_max = lam.max(axis=1)
    t_norm = np.abs(t).sum(axis=1)
    by_lam = lam_max <= 0.5 + BD_TOL
    by_t = t_norm <= 1.0 + BD_TOL
    split = (
        (by_lam != by_t)
        & (np.abs(lam_max - 0.5) > 10 * BD_TOL)
        & (np.abs(t_norm - 1.0) > 10 * BD_TOL)
    )
    if split.any():
        i = int(np.argmax(split))
        raise RuntimeError(
            f"separability criteria disagree off the boundary: "
            f"lam_max={lam_max[i]!r}, |t|_1={t_norm[i]!r}"
        )
    return by_lam


def is_separable(bd: BellDiagonal) -> bool:
    """Separability of a Bell-diagonal state.

    Two equivalent characterizations are evaluated: largest eigenvalue at
    most one half, and the correlation vector inside the unit cross
    polytope.  Disagreement outside the tolerance band is a hard error.
    """
    return bool(_separable(bd.lam[None], bd.t[None])[0])


def _mutual_information(lam: np.ndarray) -> np.ndarray:
    """2 log 2 - H(lam) for each row of a (n, 4) stack of spectra."""
    pos = lam > 0.0
    logs = np.zeros_like(lam)
    # libm's log, which numpy's vectorized log can miss by an ulp
    logs[pos] = np.fromiter(map(math.log, lam[pos].tolist()), float, np.count_nonzero(pos))
    terms = lam * logs  # 0 log 0 = 0
    return 2.0 * LOG2 + (terms[:, 0] + terms[:, 1] + terms[:, 2] + terms[:, 3])


def mutual_information_bd(bd: BellDiagonal) -> float:
    """I(rho) = 2 log 2 - H(lams); both marginals are maximally mixed."""
    return float(_mutual_information(bd.lam[None])[0])


_EXTREME_PAIRS = ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))
# their spectra: one half on each line of the pair
_EXTREME_LAMS = np.array([[0.5 * (j in pair) for j in (1, 2, 3, 4)] for pair in _EXTREME_PAIRS])


def separable_extreme_points() -> list[tuple[tuple[int, int], "BellDiagonal"]]:
    """The six edge midpoints of the spectrum simplex that are separable.

    Their correlation vectors are exactly the vertices of the unit cross
    polytope, one for each signed axis.
    """
    return [(pair, bell_from_lambda(lam)) for pair, lam in zip(_EXTREME_PAIRS, _EXTREME_LAMS)]


def extreme_point_product_form(pair: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """Two orthogonal product vectors whose even mixture is the extreme point."""
    if tuple(pair) not in _EXTREME_PAIRS:
        raise ValueError(f"{pair} is not one of the six extreme pairs")
    t = SIGN_PATTERNS.T @ _EXTREME_LAMS[_EXTREME_PAIRS.index(tuple(pair))]
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


def sample_octahedra(rng: np.random.Generator, n: int) -> np.ndarray:
    """n uniform draws (n, 3) from the unit cross polytope |t|_1 <= 1.

    Each draw reads seven doubles of rng.random in order: four Exp(1)
    variates -log1p(-u), normalized by their sum, are a Dirichlet(1, 1, 1, 1)
    point whose first three coordinates are uniform on the corner simplex,
    and u < 1/2 flips the sign of each.  Every draw rounds alone (libm's
    log1p, a left-to-right sum), so any split of n draws into calls gives
    the same rows."""
    u = rng.random((n, 7))
    # e = log1p(-u) is minus the variates, whose ratios it keeps
    e = np.fromiter(map(math.log1p, (-u[:, :4]).ravel().tolist()), float, 4 * n).reshape(n, 4)
    x = e[:, :3] / (e[:, 0] + e[:, 1] + e[:, 2] + e[:, 3])[:, None]
    return np.where(u[:, 4:] < 0.5, -x, x)


def sample_octahedron(rng: np.random.Generator) -> np.ndarray:
    """One uniform draw from the unit cross polytope, sample_octahedra's n = 1."""
    return sample_octahedra(rng, 1)[0]


def verify_mutual_information_bound(n_samples: int = 10_000, seed: int = 0) -> dict:
    """Check that on the separable Bell-diagonal set the mutual information
    never exceeds log 2, and that the six extreme points attain it.

    The samples are drawn and checked BLOCK at a time."""
    if n_samples < 1:
        raise ValueError(f"n_samples must be positive, got {n_samples}")
    rng = np.random.default_rng(seed)
    worst = -np.inf
    worst_t = None
    violations = 0
    for start in range(0, n_samples, BLOCK):
        t = sample_octahedra(rng, min(BLOCK, n_samples - start))
        lam, _ = _bell_batch(t)
        assert _separable(lam, t).all()
        info = _mutual_information(lam)
        i = int(np.argmax(info))  # the first of equal maxima, as a scan keeps
        if info[i] > worst:
            worst, worst_t = info[i], t[i]
        violations += int(np.count_nonzero(info > LOG2 + BD_TOL))
    extremes = _mutual_information(_EXTREME_LAMS)
    extreme_gap = float(np.max(np.abs(extremes - LOG2)))
    return {
        "n_samples": n_samples,
        "seed": seed,
        "max_mutual_information": float(worst),
        "bound": LOG2,
        "argmax_t": [float(x) for x in worst_t],
        "violations": violations,
        "extreme_point_gap": extreme_gap,
        "passed": violations == 0 and extreme_gap < 1e-12,
    }


def correlation_geometry_rows(grid: int = 9) -> list[dict]:
    """Tabulate the tetrahedron/cross-polytope geometry for plotting.

    Rows carry the four spectrum-simplex vertices, the six separable
    extreme points, and a cubic grid of correlation vectors with their
    physicality, separability, and mutual information.
    """
    vertices = [bell_from_lambda(np.eye(4)[j]) for j in range(4)]
    extremes = separable_extreme_points()
    rows = _rows("entangled-vertex", vertices, [f"spectrum vertex {j}" for j in (1, 2, 3, 4)])
    rows += _rows("separable-extreme", [bd for _, bd in extremes],
                  [f"pair {i}{j}" for (i, j), _ in extremes])
    axis = np.linspace(-1, 1, grid)
    points = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    physical = _physical(points)
    inside = []
    for start in range(0, len(points), BLOCK):
        t = points[start:start + BLOCK][physical[start:start + BLOCK]]
        if len(t):
            inside += _table("grid", t, _bell_batch(t)[0], [""] * len(t))
    inside = iter(inside)
    for (t1, t2, t3), phys in zip(points.tolist(), physical.tolist()):
        rows.append(next(inside) if phys else {
            "role": "grid", "t1": t1, "t2": t2, "t3": t3, "physical": False,
            "separable": False, "mutual_information": float("nan"), "note": "",
        })
    return rows


def _rows(role: str, bds: list[BellDiagonal], notes: list[str]) -> list[dict]:
    return _table(role, np.array([bd.t for bd in bds]), np.array([bd.lam for bd in bds]), notes)


def _table(role: str, t: np.ndarray, lam: np.ndarray, notes: list[str]) -> list[dict]:
    separable = _separable(lam, t).tolist()
    info = _mutual_information(lam).tolist()
    return [
        {"role": role, "t1": t1, "t2": t2, "t3": t3, "physical": True,
         "separable": sep, "mutual_information": mi, "note": note}
        for (t1, t2, t3), sep, mi, note in zip(t.tolist(), separable, info, notes)
    ]
