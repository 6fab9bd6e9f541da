"""Maximum-entropy projection onto hierarchical families.

The projection of a state onto a family is the entropy maximizer among
all states sharing the expectations of every basis element of the family.
Four routes are implemented:

* ``dual``: quasi-Newton descent in exponential-family coordinates, with
  support peeling when the optimum sits on the boundary of the state space,
* ``primal``: feasible entropy ascent on the density matrix itself,
  finished by a barrier Newton method on the detected support,
* ``ipf``: iterative proportional fitting, classical shapes only,
* ``product`` / ``exact``: closed forms for the independence family and
  for any family containing the full interaction set.

The divergence from the family is reported as the entropy gap between the
projection and the input, which agrees with the relative entropy to the
projection for every family handled here (including boundary cases, where
the projection is a limit of the exponential family).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .algebra import (
    ShapeError,
    State,
    SystemShape,
    _gibbs_eigh,
    algebra_mask,
    expectation_values,
    gibbs_with_log_partition,
    hermitian_realvec,
    marginal,
    realvec_hermitian,
    relative_entropy,
    spectrum_entropy,
    tensor,
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
THETA_BLOWUP = 1e3
PEEL_SCHEDULE = (1e-4, 1e-6, 1e-8, 1e-10)
SNAP_SCHEDULE = (1e-9, 1e-6, 1e-12, None)
# L-BFGS: correction pairs kept, relative decrease that ends the descent,
# sufficient-decrease constant and trial steps of the backtracking search
LBFGS_MEMORY = 10
LBFGS_FTOL = 1e-18
ARMIJO_C1 = 1e-4
BACKTRACK_STEPS = 20
# iteration caps: IPF sweeps, L-BFGS steps of the dual (each face solve gets
# the same budget again) and entropy-ascent steps of the primal route
IPF_SWEEPS = 20000
DUAL_STEPS = 2000
PRIMAL_STEPS = 400

METHODS = ("auto", "exact", "product", "ipf", "dual", "primal")


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
        pi, _ = gibbs_with_log_partition(self.hamiltonian(model))
        return State(model.shape, _clean(pi, model.shape)[0])


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


def _in_algebra(mat: np.ndarray, shape: SystemShape) -> np.ndarray:
    """Conditional expectation onto the algebra: zero the entries the
    classical units forbid (none on an all-quantum shape)."""
    return mat if shape.all_quantum else np.where(algebra_mask(shape), mat, 0.0)


def _from_spectrum(w: np.ndarray, u: np.ndarray, shape: SystemShape) -> np.ndarray:
    """The density matrix (u * w) @ u^H of a spectrum w >= 0 summing to one,
    kept in the algebra and hermitian."""
    out = _in_algebra((u * w) @ u.conj().T, shape)
    return 0.5 * (out + out.conj().T)


def _clean(mat: np.ndarray, shape: SystemShape) -> tuple[np.ndarray, np.ndarray]:
    """Nearest state in the algebra by conditional expectation and eigenvalue
    clip, both of which can only move the matrix toward the feasible cone.
    Returns the state and its spectrum (ascending, summing to one)."""
    mat = _in_algebra(0.5 * (mat + mat.conj().T), shape)
    w, u = np.linalg.eigh(mat)
    w = np.clip(w, 0.0, None)
    s = w.sum()
    if s <= 0.0:
        raise ConvergenceError("projection collapsed to the zero matrix")
    w = w / s
    return _from_spectrum(w, u, shape), w


def _residual(pi_mat: np.ndarray, model: HierarchicalModel, b: np.ndarray) -> float:
    return float(np.max(np.abs(model.moments(pi_mat) - b)))


def _support_size(w: np.ndarray, rtol: float = 1e-9) -> int:
    """Eigenvalues of an ascending spectrum above rtol times the largest."""
    return int(np.sum(w > rtol * max(float(w[-1]), 1e-300)))


def _relative_entropy_direct(rho_mat: np.ndarray, rho_entropy: float, pi_mat: np.ndarray) -> float:
    """D(rho||pi) = -S(rho) - tr(rho log pi) from an eigh of pi of its own.

    The cross-check of a projection: the divergence is S(pi) - S(rho) from
    the spectrum the solve left, this is D from an independent
    diagonalization of pi.  Eigenvalues of pi are floored at the smallest
    normal double, so tiny positive ones keep their exact logarithm (a
    fitting limit with an entry of 4e-11 stays finite), while mass of rho on
    pi's kernel weighs about 708 per unit instead of making D infinite.
    """
    w, v = np.linalg.eigh(pi_mat)
    r = np.real(np.sum(v.conj() * (rho_mat @ v), axis=0))  # diagonal of v^H rho v
    return max(0.0, -rho_entropy - float(r @ np.log(np.maximum(w, np.finfo(float).tiny))))


def _reduce_constraints(dirs: np.ndarray, targets: np.ndarray):
    """Orthonormalize a (possibly dependent) hermitian constraint stack.

    Returns reduced orthonormal directions, their targets, the free
    directions completing them, and the feasibility defect of the affine
    system on this space.
    """
    m, r, _ = dirs.shape
    vecs = hermitian_realvec(dirs)
    uu, ss, vt = np.linalg.svd(vecs, full_matrices=True)
    rank = int(np.sum(ss > max(ss[0], 1e-300) * 1e-12))
    c = (uu.T @ targets)[:rank] / ss[:rank]
    x_ls = vt[:rank].T @ c
    defect = float(np.max(np.abs(vecs @ x_ls - targets)))
    return realvec_hermitian(vt[:rank], r), c, realvec_hermitian(vt[rank:], r), defect


# ---------------------------------------------------------------- face loop


def _face_loop(w, u, cuts, relative, defect_rtol, solve_face, model, b, tol, best=None):
    """Re-solve a boundary projection on faces cut from the caller's last
    iterate, given by its eigenpairs (w ascending, u).

    Each cut keeps the eigenvectors above it (times the largest eigenvalue
    when relative); None keeps the whole space in the standard basis.  Cuts
    keeping no vector, or as many as a face already tried, are skipped, as
    are faces whose constraints q^H B_k q (model.compress) miss the moments
    by more than defect_rtol.  solve_face(q, red, c, free) returns a solution
    in q's coordinates, or None, and its iterations.  Lifts are checked
    against the full constraints; the lowest residual wins, stopping at tol.

    best, a full-space record (matrix, residual, round, rank, iterations)
    already in hand, marks the full rank as tried.  Returns the best record
    (None if there is none) and the iterations spent on faces.
    """
    d = u.shape[0]
    scale = max(float(w[-1]), 1e-300) if relative else 1.0
    bound = defect_rtol * max(1.0, float(np.max(np.abs(b))))
    tried = {0} if best is None else {0, d}
    total = 0
    for rounds, cut in enumerate(cuts, start=1):
        q = np.eye(d, dtype=complex) if cut is None else u[:, w > cut * scale]
        r = q.shape[1]
        if cut is not None and r in tried:
            continue
        tried.add(r)
        red, c, free, defect = _reduce_constraints(model.compress(q), b)
        if defect > bound:
            continue  # cut too deep, this face cannot carry the moments
        face, nit = solve_face(q, red, c, free)
        total += nit
        if face is None:
            continue
        pi = q @ face @ q.conj().T
        resid = _residual(pi, model, b)
        if best is None or resid < best[1]:
            best = (pi, resid, rounds, r, nit)
        if best[1] <= tol:
            break
    return best, total


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


def _dual_minimize(hamiltonian, moments, targets: np.ndarray, gtol: float, maxiter: int):
    """Minimize log Z(theta) - theta . targets by L-BFGS with backtracking.

    hamiltonian(theta) is sum_k theta_k B_k and moments(x) the vector of
    tr(B_k x), over the directions B_k the targets belong to.  Stops when
    the largest gradient entry is at most gtol, when an accepted step lowers
    the objective by at most LBFGS_FTOL relative to its size, when no step
    along steepest descent decreases it, or after maxiter steps.
    Returns theta, log Z, the Gibbs state at theta, its eigenpairs (p, u)
    and the steps taken.
    """

    def fg(theta):
        pi, lz, p, u = _gibbs_eigh(hamiltonian(theta))
        return lz - theta @ targets, moments(pi) - targets, pi, lz, (p, u)

    theta = np.zeros(targets.size)
    f, g, pi, lz, eig = fg(theta)
    pairs = []
    nit = 0
    while nit < maxiter and float(np.max(np.abs(g), initial=0.0)) > gtol:
        p = _lbfgs_direction(g, pairs)
        slope = float(g @ p)
        t = 1.0
        for _ in range(BACKTRACK_STEPS):
            trial = fg(theta + t * p)
            if trial[0] <= f + ARMIJO_C1 * t * slope:
                break
            t *= 0.5
        else:
            if not pairs:
                break  # not even steepest descent decreases f: rounding floor
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
        if f_old - f <= LBFGS_FTOL * max(abs(f_old), abs(f), 1.0):
            break
    return theta, lz, pi, eig, nit


def _dual_solve(model: HierarchicalModel, b: np.ndarray, tol: float):
    """Returns the projection, its iterations, diagnostics and, at the
    interior exit, its Gibbs parameters; there the projection comes as the
    eigenpairs (p, u) of the last Gibbs state rather than as a matrix."""
    d = model.shape.dim
    # interior descent through the model's local moment maps; element 0 is
    # the identity, fixed by normalization
    theta, lz, pi, (p, u), nit = _dual_minimize(
        model.hamiltonian, lambda x: model.moments(x)[1:], b[1:], 0.1 * tol, DUAL_STEPS
    )
    resid = _residual(pi, model, b)
    info = {"rounds": 0, "support_dim": d, "theta_max": float(np.max(np.abs(theta), initial=0.0))}
    # an iterate with eigenvalues at kernel level is a boundary answer, however
    # small its residual: only full support ends here with parameters
    if resid <= tol and info["theta_max"] <= THETA_BLOWUP and _support_size(p) == d:
        return (p, u), nit, info, GibbsParameters(theta.copy(), lz)

    # boundary regime: the optimum has a kernel and the parameters diverge.
    # Peel off the eigenspace the iterate is abandoning and re-solve on the
    # remaining support.
    def solve_face(q, red, c, free):
        # the face's constraints span its identity, along which log Z - tau.c
        # is linear with slope 1 - tr(x_ls), a defect the descent would chase
        # forever; move c onto trace one so that direction is flat
        v = np.real(np.trace(red, axis1=1, axis2=2))
        c = c + v * (1.0 - v @ c) / (v @ v)
        _, _, tau, _, face_it = _dual_minimize(
            lambda t: np.tensordot(t, red, axes=(0, 0)),
            lambda x: expectation_values(x, red),
            c, 0.1 * tol, DUAL_STEPS,
        )
        return tau, face_it

    best, face_its = _face_loop(
        p, u, PEEL_SCHEDULE, True, 1e-8, solve_face, model, b, tol, best=(pi, resid, 0, d, nit)
    )
    pi, _, rounds, rank, _ = best
    info.update(rounds=rounds, support_dim=rank)
    return pi, nit + face_its, info, None


# -------------------------------------------------------------- primal route


def _max_psd_blend(rho_mat: np.ndarray, q_mat: np.ndarray) -> np.ndarray:
    """Largest s in [0, 1] with (1 - s) rho + s q still PSD."""

    def lam_min(s):
        return float(np.linalg.eigvalsh((1.0 - s) * rho_mat + s * q_mat)[0])

    if lam_min(1.0) >= -1e-14:
        return q_mat.copy()
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if lam_min(mid) >= -1e-14:
            lo = mid
        else:
            hi = mid
    return (1.0 - lo) * rho_mat + lo * q_mat


def _span(model: HierarchicalModel, c: np.ndarray) -> np.ndarray:
    """sum_k c_k B_k over every element; element 0 is the identity / sqrt(d)."""
    h = model.hamiltonian(c[1:])
    h.flat[:: len(h) + 1] += c[0] / np.sqrt(len(h))
    return h


def _affine_psd_repair(mat: np.ndarray, model: HierarchicalModel, b: np.ndarray) -> np.ndarray:
    for _ in range(4):
        mat = mat + _span(model, b - model.moments(mat))
        w, u = np.linalg.eigh(mat)
        if w[0] >= -1e-14:
            return mat
        mat = (u * np.clip(w, 0.0, None)) @ u.conj().T
    return mat + _span(model, b - model.moments(mat))


def _entropy_ascent(tau, model, b, maxiter: int, gtol: float = 1e-9):
    """Projected gradient ascent on entropy over the affine slice of states.

    Serves as support detection for the Newton stage; eigenvalues are
    floored inside the log so the gradient stays finite on the boundary.
    """
    tau = _affine_psd_repair(tau, model, b)
    fails = 0
    it = 0
    for it in range(1, maxiter + 1):
        w, u = np.linalg.eigh(tau)
        g = -(u * np.log(np.clip(w, 1e-13, None))) @ u.conj().T
        gt = g - _span(model, model.moments(g))
        gn = float(np.linalg.norm(gt))
        if gn <= gtol:
            break
        ent = von_neumann_entropy(tau)
        alpha = 1.0 / max(1.0, gn)
        moved = False
        for _ in range(40):
            cand = _affine_psd_repair(tau + alpha * gt, model, b)
            # entropy is blind to clipped negative eigenvalues, so staying
            # essentially inside the cone is part of the acceptance test
            inside = float(np.linalg.eigvalsh(cand)[0]) >= -1e-12
            if inside and von_neumann_entropy(cand) > ent + 1e-14:
                tau, moved = cand, True
                break
            alpha *= 0.5
        if moved:
            fails = 0
        else:
            fails += 1
            if fails >= 2:
                break
    return tau, it


def _log_divided_differences(w: np.ndarray, lw: np.ndarray) -> np.ndarray:
    dw = w[:, None] - w[None, :]
    near = np.abs(dw) < 1e-12 * max(float(w[-1]), 1e-300)
    num = lw[:, None] - lw[None, :]
    dd = np.where(near, 0.0, num) / np.where(near, 1.0, dw)
    mean = 0.5 * (w[:, None] + w[None, :])
    return np.where(near, 1.0 / mean, dd)


def _newton_polish(tau, free, mus, gtol_final: float = 1e-11):
    """Barrier Newton along the free directions; tau stays affine-feasible
    by construction and PD by fraction-to-boundary steps."""
    if free.shape[0] == 0:
        return tau, 0
    total = 0
    for mu in mus:
        gtol = max(gtol_final, 0.1 * mu)
        for _ in range(60):
            total += 1
            w, u = np.linalg.eigh(tau)
            w = np.clip(w, 1e-300, None)
            lw = np.log(w)
            grad_mat = -(u * lw) @ u.conj().T
            if mu > 0.0:
                grad_mat = grad_mat + mu * (u * (1.0 / w)) @ u.conj().T
            g = expectation_values(grad_mat, free)
            if float(np.max(np.abs(g))) <= gtol:
                break
            ft = u.conj().T @ free @ u
            weight = _log_divided_differences(w, lw)
            if mu > 0.0:
                weight = weight + mu / np.outer(w, w)
            h = -np.real(np.einsum("kab,ab,lab->kl", ft.conj(), weight, ft))
            try:
                step = np.linalg.solve(h, -g)
            except np.linalg.LinAlgError:
                step = np.linalg.lstsq(h, -g, rcond=None)[0]
            v = np.tensordot(step, free, axes=(0, 0))
            slope = float(g @ step)
            if slope <= 0.0:
                break
            # largest t with tau + t v > 0, through the whitened pencil
            root = u * np.sqrt(1.0 / w)
            pencil = root.conj().T @ v @ root
            lmin = float(np.linalg.eigvalsh(0.5 * (pencil + pencil.conj().T))[0])
            t = 1.0 if lmin >= -1e-14 else min(1.0, 0.99 / (-lmin))
            phi0 = von_neumann_entropy(tau) + (mu * lw.sum() if mu > 0.0 else 0.0)
            accepted = False
            for _ in range(30):
                cand = tau + t * v
                cand = 0.5 * (cand + cand.conj().T)
                wc = np.linalg.eigvalsh(cand)
                if wc[0] > 0.0:
                    phic = von_neumann_entropy(cand) + (mu * np.log(wc).sum() if mu > 0.0 else 0.0)
                    if phic >= phi0 + 1e-4 * t * slope:
                        tau, accepted = cand, True
                        break
                t *= 0.5
            if not accepted:
                break
    return tau, total


def _primal_solve(rho_mat: np.ndarray, model: HierarchicalModel, b: np.ndarray, tol: float):
    # the euclidean projection of rho onto the model span carries the same
    # moments, so any PSD blend of the two is a feasible starting point
    tau = _max_psd_blend(rho_mat, _span(model, b))
    tau, ascent_iters = _entropy_ascent(tau, model, b, PRIMAL_STEPS)
    info = {"ascent_iters": ascent_iters, "newton_iters": 0, "support_dim": len(rho_mat)}

    def solve_face(qmat, red, c, free):
        r = qmat.shape[1]
        rv = hermitian_realvec(red)

        def affine(mat):  # exact affine projection within the compressed space
            x = hermitian_realvec(mat)
            return realvec_hermitian(x - rv.T @ (rv @ x - c), r)

        # Newton needs a positive definite start: clip and re-project a few times
        tau_c = affine(qmat.conj().T @ tau @ qmat)
        for _ in range(7):
            if float(np.linalg.eigvalsh(tau_c)[0]) > 1e-13:
                return _newton_polish(tau_c, free, (1e-2, 1e-4, 1e-6, 1e-8, 0.0))
            wc, uc = np.linalg.eigh(tau_c)
            tau_c = affine((uc * np.clip(wc, 1e-12, None)) @ uc.conj().T)
        return None, 0

    w, u = np.linalg.eigh(tau)
    best, _ = _face_loop(w, u, SNAP_SCHEDULE, False, 1e-7, solve_face, model, b, tol)
    if best is None:
        # no support candidate admitted an interior start; report the raw
        # ascent iterate rather than failing outright
        return tau, ascent_iters, info, None
    pi, _, _, rank, newton_iters = best
    info.update(newton_iters=newton_iters, support_dim=rank)
    return pi, ascent_iters + newton_iters, info, None


# ----------------------------------------------------------------- ipf route


def _ipf_solve(rho: State, model: HierarchicalModel, tol: float):
    shape = rho.shape
    if not shape.all_classical:
        raise ShapeError("iterative proportional fitting needs an all-classical shape")
    sizes = shape.sizes
    n = shape.N
    p = rho.probabilities().reshape(sizes)
    q = np.full(sizes, 1.0 / shape.dim)
    plans = []
    for a in model.hypergraph.maximal_sets:
        axes = tuple(i - 1 for i in range(1, n + 1) if i not in a)
        plans.append((axes, p.sum(axis=axes, keepdims=True)))
    sweeps = 0
    for sweeps in range(1, IPF_SWEEPS + 1):
        for axes, mp in plans:
            mq = q.sum(axis=axes, keepdims=True)
            safe = np.where(mq > 0.0, mq, 1.0)
            q = q * np.where(mq > 0.0, mp / safe, 0.0)
        gap = max(
            float(np.max(np.abs(q.sum(axis=axes, keepdims=True) - mp)))
            for axes, mp in plans
        )
        if gap <= 0.1 * tol:
            break
    return np.diag(q.reshape(-1).astype(complex)), sweeps, {"sweeps": sweeps}, None


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
    shapes, and otherwise the dual solver with a primal fallback.  Explicit
    methods are honored strictly and raise when they do not apply.  The
    result is converged when the moment residual is at most tol; when the
    projection is rank-deficient, at most max(tol, BOUNDARY_TOL), with the
    divergence within ENTROPY_MATCH_TOL of the cross-check
    diagnostics["relative_entropy_direct"] (see _relative_entropy_direct).
    """
    return _project(rho, model, None, method, tol)


def _project(rho, model, rho_w, method="auto", tol=INTERIOR_TOL):
    """maxent_project, reusing rho's ascending spectrum rho_w when the
    caller has it (None: take it here)."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}, expected one of {METHODS}")
    if rho.shape != model.shape:
        raise ShapeError("state and model live on different shapes")
    hg = model.hypergraph
    full = set(range(1, rho.shape.N + 1)) in hg
    if rho_w is None:
        rho_w = np.linalg.eigvalsh(rho.matrix)

    if method == "auto":
        if full:
            method = "exact"
        elif is_independence(hg):
            method = "product"
        elif rho.shape.all_classical:
            method = "ipf"
        else:
            method = "dual"
            result = _run(rho, rho_w, model, "dual", tol)
            if result.converged:
                return result
            fallback = _run(rho, rho_w, model, "primal", tol)
            # a converged answer wins; between two misses, the lower residual
            return fallback if fallback.converged or fallback.residual < result.residual else result
    if method == "exact" and not full:
        raise ValueError("method 'exact' needs the full interaction set in the family")
    if method == "product" and not is_independence(hg):
        raise ValueError("method 'product' only applies to the independence family")
    return _run(rho, rho_w, model, method, tol)


def _run(rho, rho_w, model, method, tol) -> ProjectionResult:
    if method == "exact":
        # the family holds every moment of rho, so rho is its own projection
        # and the dense basis stack is never needed
        return ProjectionResult(
            state=rho, divergence=0.0, method=method, converged=True, residual=0.0,
            iterations=0,
            diagnostics={"support_dim": _support_size(rho_w), "relative_entropy_direct": 0.0},
        )
    b = model.moments(rho.matrix)
    theta = None
    if method == "product":
        pi_mat = tensor(*[marginal(rho, (i,)).matrix for i in range(1, rho.shape.N + 1)])
        iters, info = 0, {}
    elif method == "ipf":
        pi_mat, iters, info, theta = _ipf_solve(rho, model, tol)
    elif method == "dual":
        pi_mat, iters, info, theta = _dual_solve(model, b, tol)
    else:
        pi_mat, iters, info, theta = _primal_solve(rho.matrix, model, b, tol)

    # one spectral pass: the state and its spectrum come from the route's
    # last eigendecomposition, and one independent eigh of pi checks them
    if isinstance(pi_mat, tuple):  # the dual's interior exit, full rank
        p, u = pi_mat
        w = p / p.sum()
        pi_mat = _from_spectrum(w, u, rho.shape)
    else:
        pi_mat, w = _clean(pi_mat, rho.shape)
    pi = State._trusted(rho.shape, pi_mat)
    resid = _residual(pi.matrix, model, b)
    support = _support_size(w)
    rho_entropy = spectrum_entropy(rho_w)
    divergence = max(0.0, spectrum_entropy(w) - rho_entropy)
    direct = _relative_entropy_direct(rho.matrix, rho_entropy, pi.matrix)
    converged = resid <= tol
    if support < rho.shape.dim:
        # the moments pin a boundary answer only loosely: a state far from the
        # projection can sit within BOUNDARY_TOL of them, so it must also meet
        # the identity D(rho||pi) = S(pi) - S(rho) of the projection
        converged = (resid <= max(tol, BOUNDARY_TOL)
                     and abs(direct - divergence) <= ENTROPY_MATCH_TOL)
    diagnostics = {**info, "support_dim": support, "relative_entropy_direct": direct}
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
    w = np.linalg.eigvalsh(rho.matrix)  # one spectrum of rho for every order
    runs = [_project(rho, build_model(rho.shape, hypergraph_k(n, k)), w, **kw) for k in range(1, n)]
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
    return relative_entropy(pi_k.matrix, pi_km1.matrix)


def pythagorean_residual(rho: State, sigma: State, family, **kw) -> float:
    """|D(rho, sigma) - D(rho, pi) - D(pi, sigma)| for sigma inside the family."""
    res = divergence_from_model(rho, family, **kw)
    pi = res.state
    lhs = relative_entropy(rho.matrix, sigma.matrix)
    rhs = relative_entropy(rho.matrix, pi.matrix) + relative_entropy(pi.matrix, sigma.matrix)
    return abs(lhs - rhs)
