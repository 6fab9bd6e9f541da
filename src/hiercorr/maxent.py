"""Maximum-entropy projection onto hierarchical families.

The projection of a state onto a family is the entropy maximizer among
all states sharing the expectations of every basis element of the family.
Five routes are implemented:

* ``dual``: L-BFGS descent on the dual log Z(theta) - theta . b from the
  maximally mixed state (theta = 0, in closed form, with the exact Newton
  step as its first trial), then on one face peeled from a boundary answer,
* ``newton``: the same descent along the exact Kubo-Mori Newton direction,
* ``ipf``: iterative proportional fitting, classical shapes only,
* ``product`` / ``exact``: closed forms for the independence family and
  for any family containing the full interaction set.

The divergence from the family is reported as the entropy gap between the
projection and the input, which agrees with the relative entropy to the
projection for every family handled here (including boundary cases, where
the projection is a limit of the exponential family).

States and Hamiltonians live in the block layout of algebra.block_layout,
one d_Q x d_Q block per configuration of the classical units, and every
spectral step is one batched eigendecomposition of the blocks (1 x 1 blocks,
all-classical shapes, take none).  Every route hands over its answer as
block eigenpairs, so the post-solve checks diagonalize nothing.
The input's spectrum is State.spectrum, taken when the state was validated.
"""

from __future__ import annotations

import dataclasses
import math
from functools import reduce

import numpy as np

from .algebra import (
    STACK_GUARD,
    ShapeError,
    State,
    SystemShape,
    _block_rows,
    _compose,
    _eigh_blocks,
    _gibbs_blocks,
    _gibbs_of_zero,
    _lift,
    _marginal_blocks,
    _weights,
    hermitian_realvec,
    marginal,
    realvec_hermitian,
    relative_entropy,
    spectrum_entropy,
    von_neumann_entropy,
)
from .hierarchy import (
    HierarchicalModel,
    Hypergraph,
    build_model,
    hypergraph_k,
    is_independence,
)

INTERIOR_TOL = 1e-8
BOUNDARY_TOL = 1e-5
# largest entropy defect |D(rho||pi) - (S(pi) - S(rho))| of a converged
# boundary answer, D taken by the cross-check _relative_entropy_direct
ENTROPY_MATCH_TOL = 1e-6
# relative eigenvalue cut of the face peeled from a boundary answer
PEEL_CUT = 1e-4
# relative eigenvalue cut of a reported support (support_dim) and of the
# interior exit
SUPPORT_CUT = 1e-9
# L-BFGS: correction pairs kept, relative decrease that ends the descent,
# sufficient-decrease constant and trial steps of the backtracking search
LBFGS_MEMORY = 10
LBFGS_FTOL = 1e-18
ARMIJO_C1 = 1e-4
BACKTRACK_STEPS = 20
# iteration caps: IPF sweeps, and the steps of each dual or Newton descent, face solves included
IPF_SWEEPS = 20000
DUAL_STEPS = 2000
TINY = np.finfo(float).tiny  # the smallest normal double

METHODS = ("auto", "exact", "product", "ipf", "dual", "newton")


class ConvergenceError(RuntimeError):
    pass


@dataclasses.dataclass(frozen=True)
class GibbsParameters:
    """Exponential-family coordinates of an interior projection.

    theta holds one real weight per non-identity basis element, in the
    element order of the model it was fitted against; log_partition
    normalizes exp(sum theta_k B_k).
    """

    theta: np.ndarray
    log_partition: float

    def hamiltonian(self, model: HierarchicalModel) -> np.ndarray:
        return model.hamiltonian(self.theta)

    def state(self, model: HierarchicalModel) -> State:
        _, _, p, u = _gibbs_blocks(model._moment_plan().hamiltonian(self.theta))
        return State._of_blocks(model.shape, _clean(p, u)[0])


@dataclasses.dataclass
class ProjectionResult:
    state: State
    divergence: float
    method: str
    converged: bool
    residual: float
    iterations: int
    theta: GibbsParameters | None = None
    diagnostics: dict = dataclasses.field(default_factory=dict)


def _clean(w: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The state of block eigenpairs (w, u), w clipped at zero (a move toward
    the feasible cone) and scaled to sum to one, and those eigenvalues."""
    w = np.maximum(w, 0.0)
    s = w.sum()
    if s <= 0.0:
        raise ConvergenceError("projection collapsed to the zero matrix")
    w = w / s
    x = _compose(w, u)
    return 0.5 * (x + x.conj().transpose(0, 2, 1)), w


def _residual(x: np.ndarray, model: HierarchicalModel, b: np.ndarray) -> float:
    return float(np.abs(model._moment_plan().moments(x) - b).max())


def _support_size(w: np.ndarray) -> int:
    """Eigenvalues of a spectrum above SUPPORT_CUT times the largest."""
    return int(np.count_nonzero(w > SUPPORT_CUT * max(float(w.max()), 1e-300)))


def _relative_entropy_direct(rho_x: np.ndarray, rho_entropy: float, w: np.ndarray,
                             u: np.ndarray) -> float:
    """D(rho||pi) = -S(rho) - tr(rho log pi) from the block eigenpairs (w, u)
    of pi, through rho's weights on pi's eigenvectors (algebra._weights).

    The cross-check of a boundary projection: the divergence is the entropy
    difference S(pi) - S(rho), this is D from the operator log pi, so the
    two agree only when rho lives on pi's support.  Eigenvalues of pi are
    floored at the smallest normal double, so tiny positive ones keep their
    exact logarithm (a fitting limit with an entry of 4e-11 stays finite),
    while mass of rho on pi's kernel weighs about 708 per unit instead of
    making D infinite.
    """
    logs = np.log(np.maximum(w, TINY))
    return max(0.0, -rho_entropy - float(_weights(rho_x, u).ravel() @ logs.ravel()))


# --------------------------------------------------------------- face solve


def _reduce_constraints(dirs: np.ndarray, targets: np.ndarray):
    """Orthonormal directions spanning a (possibly dependent) hermitian
    constraint stack (m, r, r), their targets, and the feasibility defect of
    the affine system, from the economy SVD of the (m, r^2) matrix."""
    m, r, _ = dirs.shape
    vecs = hermitian_realvec(dirs)
    uu, ss, vt = np.linalg.svd(vecs, full_matrices=False)
    rank = int(np.sum(ss > max(ss[0], 1e-300) * 1e-12))
    c = (uu.T @ targets)[:rank] / ss[:rank]
    x_ls = vt[:rank].T @ c
    defect = float(np.max(np.abs(vecs @ x_ls - targets)))
    return realvec_hermitian(vt[:rank], r), c, defect


def _face_solve(red: np.ndarray, c: np.ndarray, tol: float, newton: bool):
    """Minimize log tr exp(sum_k t_k R_k) - t . c over a face's constraints
    red (m, n, k, k) in its block layout; returns the Gibbs state (n, k, k)
    and the steps taken."""
    _, _, tau, _, nit = _dual_minimize(
        lambda t: np.tensordot(t, red, axes=(0, 0)),
        lambda x: np.real(np.tensordot(red, np.swapaxes(x, 1, 2), axes=3)),
        c, red.shape[1:3], tol, red if newton else None,
    )
    return tau, nit


# ---------------------------------------------------------------- dual route


def _lbfgs_direction(g: np.ndarray, pairs) -> np.ndarray:
    """Two-loop recursion: minus the inverse-Hessian estimate applied to g."""
    q = -g
    alphas = []
    for s, y, inv_sy in reversed(pairs):
        a = inv_sy * (s @ q)
        q = q - a * y
        alphas.append(a)
    if pairs:
        s, y, _ = pairs[-1]
        q = q * ((s @ y) / (y @ y))
    else:
        q = q / max(float(np.linalg.norm(g)), 1e-300)  # first step of length 1
    for (s, y, inv_sy), a in zip(pairs, reversed(alphas)):
        q = q + (a - inv_sy * (y @ q)) * s
    return q


def _kubo_mori(s: np.ndarray, p: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The Kubo-Mori metric (Petz 2008) of the Gibbs state with block
    eigenpairs (p, u) on directions s (m, n, k, k) in its block layout:
    M_kl = Re sum conj(S~_k)_ab K_ab S~_l,ab over blocks and a, b, with
    S~_k = U^H S_k U, K_ab = (p_a - p_b) / log(p_a / p_b), K_aa = p_a."""
    # K_ab as p_hi (1 - exp(-x)) / x, x = |log p_a - log p_b|: no cancellation
    lp = np.log(np.maximum(p, TINY))
    x = np.abs(lp[:, :, None] - lp[:, None, :])
    kernel = np.maximum(p[:, :, None], p[:, None, :]) * np.divide(-np.expm1(-x), x, out=np.ones_like(x),
                                                                  where=x > 0)
    # K > 0, so M = Re(C^H C) for C_k = sqrt(K) S~_k: one real c c^T over
    # the (re, im) pairs of the C_k
    c = (u.conj().transpose(0, 2, 1) @ s @ u * np.sqrt(kernel)).view(np.float64).reshape(len(s), -1)
    return c @ c.T


def _dual_minimize(hamiltonian, moments, targets: np.ndarray, blocks, tol: float, directions=None):
    """Minimize log Z(theta) - theta . targets with backtracking, by L-BFGS
    or, given the stack directions (m, n, k, k) of the B_k, by Newton's method.

    hamiltonian(theta) is sum_k theta_k B_k as a block array of blocks =
    (n, k) blocks of k x k, and moments(x) the vector of tr(B_k x) of a block
    array.  The descent starts at theta = 0, the maximally mixed state
    (_gibbs_of_zero, no eigendecomposition).  A Newton step solves
    (M - m m^T) s = -g by least squares, M the Kubo-Mori metric at the Gibbs
    eigenpairs and m the moments.  L-BFGS's first trial is -D g, D = n k:
    where the B_k are orthonormal and g has no component along the identity
    (traceless B_k, or a face whose targets are pinned to trace one), the
    Hessian at theta = 0 acts on g as I / D, so this is the exact Newton
    step.  A failed search, or an overflowed direction, drops the curvature
    pairs and retries along steepest descent.  Stops when the largest
    gradient entry is at most 0.1 tol, when an accepted step lowers the
    objective by at most LBFGS_FTOL relative to its size while that entry
    is at most tol, when no step along steepest descent or Newton's
    direction decreases it, or after DUAL_STEPS steps.  Returns theta,
    log Z, the Gibbs state at theta, its eigenpairs (p, u) and the steps.
    """

    def fg(theta):
        pi, lz, p, u = _gibbs_blocks(hamiltonian(theta))
        return lz - theta @ targets, moments(pi) - targets, pi, lz, (p, u)

    theta = np.zeros(targets.size)
    pi, lz, *eig = _gibbs_of_zero(*blocks)
    f, g = lz, moments(pi) - targets
    dim = blocks[0] * blocks[1]
    gtol = 0.1 * tol
    pairs = []
    nit = 0
    while nit < DUAL_STEPS and float(np.max(np.abs(g), initial=0.0)) > gtol:
        with np.errstate(over="ignore", invalid="ignore"):
            if directions is not None:
                m = g + targets
                p = np.linalg.lstsq(_kubo_mori(directions, *eig) - np.outer(m, m), -g, rcond=None)[0]
            else:
                p = -dim * g if nit == 0 else _lbfgs_direction(g, pairs)
            slope = float(g @ p)
        t = 1.0
        # a direction that overflowed fails the search outright
        for _ in range(BACKTRACK_STEPS if np.isfinite(slope) else 0):
            trial = fg(theta + t * p)
            if trial[0] <= f + ARMIJO_C1 * t * slope:
                break
            t *= 0.5
        else:
            if directions is not None or not pairs:
                break  # not even the steepest or exact direction decreases f: rounding floor
            pairs = []  # forget the curvature estimate and retry
            continue
        nit += 1
        f_new, g_new, pi, lz, eig = trial
        s, y = t * p, g_new - g
        sy = float(s @ y)
        if sy > np.finfo(float).eps * float(y @ y):
            pairs = (pairs + [(s, y, 1.0 / sy)])[-LBFGS_MEMORY:]
        theta = theta + s
        f_old, f, g = f, f_new, g_new
        # a stalled decrease ends the descent only near the route's tol
        if (f_old - f <= LBFGS_FTOL * max(abs(f_old), abs(f), 1.0)
                and float(np.max(np.abs(g), initial=0.0)) <= 10.0 * gtol):
            break
    return theta, lz, pi, eig, nit


def _direction_entries(model: HierarchicalModel) -> int:
    """Entries of _block_directions' stack, (m - 1) n k^2."""
    return (model.n_elements - 1) * math.prod(model._moment_plan().blocks)


def _block_directions(model: HierarchicalModel) -> np.ndarray:
    """The blocks (m - 1, n, k, k) of the non-identity B_k, each the moment
    plan's hamiltonian of a unit parameter vector.  Past STACK_GUARD entries
    it raises MemoryError."""
    plan = model._moment_plan()
    if _direction_entries(model) > STACK_GUARD:
        n, k = plan.blocks[:2]
        raise MemoryError(f"{model.n_elements - 1} x {n} x {k} x {k} block directions "
                          "exceed the materialization guard")
    return np.stack([plan.hamiltonian(e) for e in np.eye(model.n_elements - 1)])


def _dual_solve(model: HierarchicalModel, b: np.ndarray, tol: float, newton: bool):
    """Returns the block eigenpairs of the projection, its iterations, diagnostics and,
    at the interior exit, Gibbs parameters.  The descent runs on the whole space, then, for
    an answer that misses tol or is rank-deficient, on one face: the span of its eigenvectors
    above PEEL_CUT times the largest eigenvalue.  The face answer replaces the last Gibbs
    state when its residual is lower (diagnostics["rounds"] 1, else 0); that boundary answer
    is diagonalized once.  With newton every step takes the exact direction."""
    plan = model._moment_plan()
    # interior descent through the model's local moment maps; element 0 is
    # the identity, fixed by normalization
    theta, lz, pi, (p, u), nit = _dual_minimize(
        plan.hamiltonian, lambda x: plan.moments(x)[1:], b[1:], plan.blocks[:2], tol,
        _block_directions(model) if newton else None,
    )
    resid = _residual(pi, model, b)
    # an iterate with eigenvalues at kernel level is a boundary answer, however
    # small its residual: only full support ends here
    if resid <= tol and _support_size(p) == model.shape.dim:
        return (p, u), nit, {"rounds": 0}, GibbsParameters(theta, lz)

    # boundary regime: the optimum has a kernel and the parameters diverge.  The face
    # (columns of the d x r isometry q) is skipped when it is the whole space, or when
    # its constraints q^H B_k q (model.compress) miss the moments by over 1e-8 max(1, max |b|)
    x, rounds = pi, 0
    q = _lift(p, u, model.shape, PEEL_CUT * float(p.max()))[0]
    if q.shape[1] < model.shape.dim:
        red, c, defect = _reduce_constraints(model.compress(q), b)
        if defect <= 1e-8 * max(1.0, float(np.max(np.abs(b)))):
            # the constraints span the face's identity, along which the slope 1 - tr(x_ls)
            # is a defect a descent would chase forever; moving c onto trace one makes that
            # direction flat.  The face's block layout is r blocks of 1 x 1 when d_Q = 1
            # (q's columns are configurations), else one r x r block
            rows = _block_rows(model.shape)
            v = np.real(np.trace(red, axis1=1, axis2=2))
            red = np.real(np.diagonal(red, axis1=1, axis2=2))[..., None, None] if rows.shape[1] == 1 \
                else red[:, None]
            face, face_its = _face_solve(red, c + v * (1.0 - v @ c) / (v @ v), tol, newton)
            nit += face_its
            qb = q[rows].reshape(*rows.shape, *face.shape[:2])  # q's rows by block, columns by face block
            face = np.einsum("cajb,jbe,cdje->cad", qb, face, qb.conj(), optimize=True)
            if _residual(face, model, b) < resid:
                x, rounds = face, 1
    x = 0.5 * (x + x.conj().transpose(0, 2, 1))
    return _eigh_blocks(x), nit, {"rounds": rounds}, None


# ----------------------------------------------------------------- ipf route


def _ipf_solve(x: np.ndarray, model: HierarchicalModel, tol: float):
    """Fit the marginals of the (d, 1, 1) block array x on each maximal set in turn (the
    moment plan's order) by rescaling each of its cells; the gap is over all marginals per sweep.
    The fit comes back as block eigenpairs, its (d, 1) vector with eigenvectors 1."""
    if not model.shape.all_classical:
        raise ShapeError("iterative proportional fitting needs an all-classical shape")
    cells = model._moment_plan().cells
    rows = list(cells)  # one set's cells each, faster to loop over than the array
    tiled = np.empty(cells.shape)  # x, then q, once per set: the weights of cells.ravel()
    tiled[:] = np.real(x).reshape(-1)
    target = np.bincount(cells.ravel(), tiled.ravel())
    q = np.full(cells.shape[1], 1.0 / cells.shape[1])
    sweeps = 0
    for sweeps in range(1, IPF_SWEEPS + 1):
        for cell in rows:
            mq = np.bincount(cell, weights=q, minlength=target.size)
            # an empty cell has no mass to rescale: the floor only keeps its
            # ratio finite (the ratios of the other sets' cells go unread)
            q = q * (target / np.maximum(mq, TINY))[cell]
        tiled[:] = q
        if float(np.abs(np.bincount(cells.ravel(), tiled.ravel()) - target).max()) <= 0.1 * tol:
            break
    return (q.reshape(-1, 1), np.ones((q.size, 1, 1))), sweeps, {"sweeps": sweeps}, None


def _block_kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Block Kronecker product of block arrays (c, k, l) and (n, j, i):
    block c n + e is a_c (x) b_e."""
    (c, k, l), (n, j, i) = a.shape, b.shape
    return (a[:, None, :, None, :, None] * b[None, :, None, :, None, :]).reshape(c * n, k * j, l * i)


def _product(x: np.ndarray, shape: SystemShape):
    """Block eigenpairs of the product of the unit marginals of the block
    array x: the block Kronecker products of the marginals' eigenpairs in
    unit order, which puts classical digits into the block index and
    quantum ones into the index within a block, as block_layout orders them."""
    def kron(a, b):
        return _block_kron(a[0][..., None], b[0][..., None])[..., 0], _block_kron(a[1], b[1])

    return reduce(kron, (_eigh_blocks(_marginal_blocks(x, shape, [i])) for i in range(shape.N)))


# --------------------------------------------------------------- public API


def maxent_project(
    rho: State,
    model: HierarchicalModel,
    method: str = "auto",
    tol: float = INTERIOR_TOL,
) -> ProjectionResult:
    """Project a state onto a hierarchical family by entropy maximization.

    method "auto" picks a closed form when one exists (full family, or the
    independence family), iterative proportional fitting for classical
    shapes, and otherwise the dual solver, retried once by Newton's method
    when it misses (not past STACK_GUARD, see _block_directions); the
    answer after a retry carries the dual's residual and iterations in
    diagnostics["fallback_from"].  Explicit methods are honored strictly and
    raise when they do not apply; so does a tol that is not finite and
    positive.

    The result is converged when the moment residual is at most tol; when
    the projection is rank-deficient, at most max(tol, BOUNDARY_TOL), with
    the divergence within ENTROPY_MATCH_TOL of the cross-check
    diagnostics["relative_entropy_direct"] (see _relative_entropy_direct)
    and, for a whole-space dual or newton iterate past tol, no eigenvalue
    between SUPPORT_CUT and PEEL_CUT times the largest.
    At the interior exit of dual and newton that value is
    log Z - theta . b - S(rho) from the Gibbs parameters instead, and
    diagnostics["gap"] is its distance from the divergence, the duality gap.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}, expected one of {METHODS}")
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    if rho.shape != model.shape:
        raise ShapeError("state and model live on different shapes")
    hg = model.hypergraph
    full = set(range(1, rho.shape.N + 1)) in hg

    if method == "auto":
        if full:
            method = "exact"
        elif is_independence(hg):
            method = "product"
        elif rho.shape.all_classical:
            method = "ipf"
        else:
            result = _run(rho, model, "dual", tol)
            # the retry's Kubo-Mori directions are an (m - 1, n, k, k) stack
            if result.converged or _direction_entries(model) > STACK_GUARD:
                return result
            fallback = _run(rho, model, "newton", tol)
            # a converged answer wins; between two misses, the lower residual
            out = fallback if fallback.converged or fallback.residual < result.residual else result
            out.diagnostics["fallback_from"] = {"method": "dual", "residual": result.residual,
                                                "iterations": result.iterations}
            return out
    if method == "exact" and not full:
        raise ValueError("method 'exact' needs the full interaction set in the family")
    if method == "product" and not is_independence(hg):
        raise ValueError("method 'product' only applies to the independence family")
    return _run(rho, model, method, tol)


def _run(rho, model, method, tol) -> ProjectionResult:
    if method == "exact":
        # the family holds every moment of rho, so rho is its own projection
        # and the dense basis stack is never needed
        return ProjectionResult(
            state=rho, divergence=0.0, method=method, converged=True, residual=0.0,
            iterations=0,
            diagnostics={"support_dim": _support_size(rho.spectrum), "relative_entropy_direct": 0.0},
        )
    shape = rho.shape
    rho_x = rho.blocks
    b = model._moment_plan().moments(rho_x)
    theta = None
    if method == "product":
        eig, iters, info = _product(rho_x, shape), 0, {}
    elif method == "ipf":
        eig, iters, info, theta = _ipf_solve(rho_x, model, tol)
    else:
        eig, iters, info, theta = _dual_solve(model, b, tol, newton=method == "newton")

    # every route hands over the block eigenpairs of its answer, so nothing
    # here diagonalizes: the eigenvalues are clipped onto the state space
    rho_entropy = spectrum_entropy(rho.spectrum)
    x, w = _clean(*eig)
    if theta is None:
        direct = _relative_entropy_direct(rho_x, rho_entropy, w, eig[1])
    else:
        # log pi = theta . B - log Z at the interior Gibbs answer, so D(rho||pi)
        # needs no eigenvectors of pi, and its distance from S(pi) - S(rho) is
        # the duality gap |theta . (<B>_pi - b)|
        direct = max(0.0, theta.log_partition - float(theta.theta @ b[1:]) - rho_entropy)
    pi = State._trusted(shape, x)
    resid = _residual(x, model, b)
    support = _support_size(w)
    divergence = max(0.0, spectrum_entropy(np.sort(w, axis=None)) - rho_entropy)
    converged = resid <= tol
    if support < shape.dim:
        # the moments pin a boundary answer only loosely: a state far from the
        # projection can sit within BOUNDARY_TOL of them, so it must also meet
        # the identity D(rho||pi) = S(pi) - S(rho) of the projection; a
        # whole-space iterate (rounds 0) past tol must have split its spectrum
        converged = (resid <= max(tol, BOUNDARY_TOL) and abs(direct - divergence) <= ENTROPY_MATCH_TOL
                     and (info.get("rounds") != 0 or resid <= tol
                          or support == np.count_nonzero(w > PEEL_CUT * w.max())))
    diagnostics = {**info, "support_dim": support, "relative_entropy_direct": direct}
    if theta is not None:
        diagnostics["gap"] = abs(direct - divergence)
    return ProjectionResult(
        state=pi,
        divergence=divergence,
        method=method,
        converged=bool(converged),
        residual=resid,
        iterations=iters,
        theta=theta,
        diagnostics=diagnostics,
    )


def divergence_from_model(rho: State, family, **kw) -> ProjectionResult:
    """Project onto a family given as a HierarchicalModel or a Hypergraph."""
    if isinstance(family, HierarchicalModel):
        model = family
    elif isinstance(family, Hypergraph):
        model = build_model(rho.shape, family)
    else:
        raise TypeError("family must be a HierarchicalModel or a Hypergraph")
    return maxent_project(rho, model, **kw)


def k_party_correlation(rho: State, k: int, **kw) -> float:
    """Divergence from the family of interactions among at most k units."""
    n = rho.shape.N
    if not 1 <= k <= n:
        raise ValueError(f"k must lie in 1..{n}, got {k}")
    if k == n:
        return 0.0
    return divergence_from_model(rho, hypergraph_k(n, k), **kw).divergence


def irreducible_correlation(rho: State, k: int, **kw) -> float:
    """Correlation appearing at interaction order k and not below."""
    n = rho.shape.N
    if not 2 <= k <= n:
        raise ValueError(f"k must lie in 2..{n}, got {k}")
    return k_party_correlation(rho, k - 1, **kw) - k_party_correlation(rho, k, **kw)


def correlation_decomposition(rho: State, **kw) -> dict:
    """All orders at once: c_k for k = 1..N and their increments.

    The increments sum to c_1, the total correlation.  "residuals" holds the
    moment residual of each order's projection (0.0 at k = N, which needs
    none) and "converged" whether every projection converged.
    """
    n = rho.shape.N
    runs = [maxent_project(rho, build_model(rho.shape, hypergraph_k(n, k)), **kw) for k in range(1, n)]
    c = [r.divergence for r in runs] + [0.0]
    incr = {k: c[k - 2] - c[k - 1] for k in range(2, n + 1)}
    return {
        "c": c,
        "C": incr,
        "total": c[0],
        "residuals": [r.residual for r in runs] + [0.0],
        "converged": all(r.converged for r in runs),
    }


def multi_information(rho: State) -> float:
    """Closed form sum_i H(rho_i) - H(rho); equals the order-1 correlation."""
    n = rho.shape.N
    h_units = sum(von_neumann_entropy(marginal(rho, (i,))) for i in range(1, n + 1))
    return max(0.0, h_units - von_neumann_entropy(rho))


def chain_step_divergence(rho: State, k: int, **kw) -> float:
    """D(pi_k || pi_{k-1}) along the projection chain, for cross-checking
    the order-k increment in the interior."""
    n = rho.shape.N
    if not 2 <= k <= n:
        raise ValueError(f"k must lie in 2..{n}, got {k}")
    pi_k = (
        rho
        if k == n
        else divergence_from_model(rho, hypergraph_k(n, k), **kw).state
    )
    pi_km1 = divergence_from_model(rho, hypergraph_k(n, k - 1), **kw).state
    return relative_entropy(pi_k, pi_km1)


def pythagorean_residual(rho: State, sigma: State, family, **kw) -> float:
    """|D(rho, sigma) - D(rho, pi) - D(pi, sigma)| for sigma inside the family."""
    res = divergence_from_model(rho, family, **kw)
    pi = res.state
    lhs = relative_entropy(rho, sigma)
    rhs = relative_entropy(rho, pi) + relative_entropy(pi, sigma)
    return abs(lhs - rhs)
