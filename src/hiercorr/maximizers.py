"""Local maximizers of the divergence from a hierarchical family.

Maximizing the divergence over the state space is a non-concave problem;
this module provides seeded multistart local ascent plus the structural
checks that the literature-style certificates need: a bound on the support
of any local maximizer, and the residual of the exponential-form condition
that local maximizers have to satisfy on their support.
"""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np

from .algebra import State, SystemShape, algebra_mask, hermitian_realvec
from .hierarchy import HierarchicalModel, Hypergraph, build_model, model_dim
from .maxent import _support_size, maxent_project

SNAP_EPS = 1e-12
RANK_RTOL = 1e-9


@dataclasses.dataclass(frozen=True)
class SupportBound:
    """Upper bound on the support size (classical) or rank (quantum) of a
    local divergence maximizer.  The mixed-shape case is a conservative
    extension and is marked as unproven."""

    value: int
    argument: str
    proven: bool


def support_bound(shape: SystemShape, hg: Hypergraph) -> SupportBound:
    total, _ = model_dim(shape, hg)
    if shape.all_classical:
        return SupportBound(total, "simplex", True)
    if shape.all_quantum:
        return SupportBound(int(math.isqrt(total)), "rank", True)
    return SupportBound(total, "conservative", False)


def check_exponential_form(rho: State, model: HierarchicalModel) -> float:
    """Distance of log rho (on its support) from the compressed model span.

    Local maximizers are exponential on their support, so this residual is
    a certificate: it vanishes exactly on such states.
    """
    w, u = np.linalg.eigh(rho.matrix)
    keep = w > RANK_RTOL * max(float(w[-1]), 1e-300)
    a = hermitian_realvec(model.compress(u[:, keep])).T
    y = hermitian_realvec(np.diag(np.log(w[keep])))
    coef, *_ = np.linalg.lstsq(a, y, rcond=None)
    return float(np.linalg.norm(a @ coef - y))


@dataclasses.dataclass
class MaximizerRecord:
    value: float
    state: State
    support_dim: int
    exp_residual: float
    hits: int


@dataclasses.dataclass
class SearchReport:
    records: list
    bound: SupportBound
    n_restarts: int
    projection_failures: int
    evaluations: int

    @property
    def best(self) -> MaximizerRecord:
        return self.records[0]

    @property
    def bound_satisfied(self) -> bool:
        return self.best.support_dim <= self.bound.value


class _Objective:
    """Divergence from the family, with bookkeeping for failures."""

    def __init__(self, model: HierarchicalModel):
        self.model = model
        self.failures = 0
        self.evaluations = 0

    def __call__(self, rho: State):
        res = maxent_project(rho, self.model)
        self.evaluations += 1
        if not res.converged:
            self.failures += 1
        return res.divergence, res.state


def _ascend(x, eta: float, state_of, direction, fun: _Objective, max_steps: int):
    """Backtracking ascent from coordinates x, whose state is state_of(x).

    direction(x, rho, pi) gives the size of the ascent direction at rho
    (projection pi) and the trial map eta -> coordinates.  A trial is taken
    when it raises the divergence; eta halves after each miss and grows
    after each hit.  Two steps in a row without a rise end the run.
    """
    rho = state_of(x)
    val, pi = fun(rho)
    stall = 0
    for _ in range(max_steps):
        size, trial = direction(x, rho, pi)
        if size < 1e-12:
            break
        for _ in range(25):
            cand_x = trial(eta)
            cand = state_of(cand_x)
            cval, cpi = fun(cand)
            if cval > val + 1e-14:
                x, rho, val, pi = cand_x, cand, cval, cpi
                eta *= 1.6
                stall = 0
                break
            eta *= 0.5
        else:
            stall += 1
            eta = max(eta, 1e-3)
            if stall >= 2:
                break
    return val, rho


def _mirror_direction(p: np.ndarray, rho: State, pi: State):
    """Mirror ascent on the simplex; multiplicative steps keep zeros fixed
    and the snap removes mass that decays below resolution."""
    live = p > 0.0
    g = np.zeros_like(p)
    qpi = np.clip(np.real(np.diag(pi.matrix)), 1e-300, None)
    g[live] = np.log(p[live]) - np.log(qpi[live])
    g[live] -= g[live].mean()

    def trial(eta):
        logits = np.full_like(p, -np.inf)
        logits[live] = np.log(p[live]) + eta * g[live]
        cand = np.exp(logits - logits[live].max())
        cand /= cand.sum()
        cand[cand < SNAP_EPS] = 0.0
        return cand / cand.sum()

    return np.max(np.abs(g), initial=0.0), trial


def _state_from_factor(m: np.ndarray, shape: SystemShape) -> State:
    """rho = M M*/tr, pinched into the algebra when a unit is classical."""
    rho = m @ m.conj().T
    if not shape.all_quantum:
        rho = np.where(algebra_mask(shape), rho, 0.0)
    rho = rho / np.trace(rho).real
    return State(shape, 0.5 * (rho + rho.conj().T))


def _log_psd(mat: np.ndarray) -> np.ndarray:
    w, u = np.linalg.eigh(mat)
    return (u * np.log(np.clip(w, 1e-13, None))) @ u.conj().T


def _factor_direction(m: np.ndarray, rho: State, pi: State):
    """Ascent on a purification factor: positivity and normalization are
    free and the rank can only drop.  log rho - log pi lies in the algebra,
    so the pinch leaves the gradient (2/t)(log rho - log pi - mean) M as is."""
    t = float(np.real(np.trace(m @ m.conj().T)))
    g = _log_psd(rho.matrix) - _log_psd(pi.matrix)
    mean = float(np.real(np.trace(g @ rho.matrix)))
    grad = (2.0 / t) * (g - mean * np.eye(g.shape[0])) @ m
    gn = float(np.linalg.norm(grad))

    def trial(eta):
        cand = m + (eta / max(1.0, gn)) * grad
        sv = np.linalg.svd(cand, compute_uv=False)
        if sv[0] > 0.0:
            keep = sv > 1e-7 * sv[0]
            if keep.sum() < cand.shape[1]:
                uu, ss, _ = np.linalg.svd(cand, full_matrices=False)
                cand = uu[:, keep] * ss[keep]
        return cand

    return gn, trial


def search_local_maximizers(
    shape: SystemShape,
    family,
    n_restarts: int = 32,
    seed: int = 0,
    max_steps: int = 200,
) -> SearchReport:
    """Multistart local search for divergence maximizers.

    All-classical shapes use mirror ascent on the probability simplex;
    other shapes ascend a purification factor, whose state is pinched into
    the algebra when some unit is classical.  Runs are deduplicated into value
    clusters (1e-6 wide) and reported best first.
    """
    model = family if isinstance(family, HierarchicalModel) else build_model(shape, family)
    if model.shape != shape:
        raise ValueError("family is built on a different shape")
    fun = _Objective(model)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    d = shape.dim

    outcomes = []
    for _ in range(n_restarts):
        if shape.all_classical:
            x, eta, direction = rng.dirichlet(np.ones(d)), 1.0, _mirror_direction
            state_of = functools.partial(State.from_probabilities, shape)
        else:
            x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            eta, direction = 0.5, _factor_direction
            state_of = functools.partial(_state_from_factor, shape=shape)
        outcomes.append(_ascend(x, eta, state_of, direction, fun, max_steps))

    outcomes.sort(key=lambda vs: -vs[0])
    clusters: list[MaximizerRecord] = []
    for val, state in outcomes:
        for rec in clusters:
            if abs(rec.value - val) <= 1e-6:
                rec.hits += 1
                break
        else:
            clusters.append(
                MaximizerRecord(
                    value=val,
                    state=state,
                    support_dim=_support_size(np.linalg.eigvalsh(state.matrix), RANK_RTOL),
                    exp_residual=check_exponential_form(state, model),
                    hits=1,
                )
            )
    return SearchReport(
        records=clusters,
        bound=support_bound(shape, model.hypergraph),
        n_restarts=n_restarts,
        projection_failures=fun.failures,
        evaluations=fun.evaluations,
    )
