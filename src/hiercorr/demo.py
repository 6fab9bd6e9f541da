"""Desk-scale verification suite.

Each check below reproduces one headline fact end to end and returns
``(passed, detail)``.  The CLI ``demo`` command and the acceptance tests both
run this list, so there is a single source of truth for what "working"
means.  Checks are deterministic: every random draw is seeded.
"""

import itertools
import math

import numpy as np
from scipy.optimize import minimize

from .algebra import State, SystemShape, expectation_values, hermitize_basis, matrix_fourier_basis
from .factorization import (
    build_interaction_matrix,
    check_toric_membership,
    cylinder_closure,
    enumerate_feasibility,
    is_k_feasible,
    toric_kernel,
)
from .hierarchy import (
    build_model,
    covering_hypergraphs,
    hypergraph_k,
    independence_hypergraph,
    model_dim,
    numerical_basis_rank,
)
from .maxent import (
    GibbsParameters,
    k_party_correlation,
    correlation_decomposition,
    maxent_project,
    multi_information,
    pythagorean_residual,
)
from .maximizers import search_local_maximizers
from .states import ghz_state, random_density, random_pure, uniform_on
from .twoqubit import (
    classical_witness,
    extreme_point_product_form,
    separable_extreme_points,
    verify_mutual_information_bound,
)

LOG2 = math.log(2.0)


# ---------------------------------------------------------------------------
# 1. two-qubit separable bound


def check_separable_information_bound():
    """Six extreme points attain log 2; sampled separable states stay below it."""
    report = verify_mutual_information_bound(n_samples=10_000, seed=0)
    ok = report["passed"] and report["extreme_point_gap"] <= 1e-9

    # the six maximizers must be even mixtures of orthogonal product vectors
    # and diagonal in some product basis
    worst_product = 0.0
    for pair, bd in separable_extreme_points():
        v1, v2 = extreme_point_product_form(pair)
        mix = 0.5 * (np.outer(v1, v1.conj()) + np.outer(v2, v2.conj()))
        worst_product = max(worst_product, float(np.max(np.abs(mix - bd.state.matrix))))
        witness = classical_witness(bd)
        if witness is None:
            ok = False
            continue
        u, v = witness
        loc = np.kron(u, v)
        off = loc.conj().T @ bd.state.matrix @ loc
        off = off - np.diag(np.diag(off))
        worst_product = max(worst_product, float(np.max(np.abs(off))))
    ok = ok and worst_product <= 1e-12
    detail = (
        f"max sampled I = {report['max_mutual_information']:.9f} vs bound {LOG2:.9f}, "
        f"extreme gap {report['extreme_point_gap']:.1e}, "
        f"product/witness deviation {worst_product:.1e}"
    )
    return ok, detail


# ---------------------------------------------------------------------------
# 2. GHZ correlation ladder


def _pauli_stack_pairwise():
    """Orthonormal hermitian basis of the pairwise family on 3 qubits,
    assembled independently of the model-construction code."""
    s0 = np.eye(2, dtype=complex)
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    paulis = [s0, sx, sy, sz]
    mats = []
    for idx in itertools.product(range(4), repeat=3):
        if sum(1 for i in idx if i != 0) > 2:
            continue
        m = np.kron(np.kron(paulis[idx[0]], paulis[idx[1]]), paulis[idx[2]])
        mats.append(m / math.sqrt(8.0))
    return np.stack(mats)


def _penalty_maxent_entropy(stack, b, weights=(1e3, 1e5, 1e7), seed=7):
    """Brute-force constrained entropy maximization via quadratic penalty.

    Parametrizes tau = W W^dag / tr and runs L-BFGS-B on the 128 real
    coordinates of W, tightening the penalty weight in stages.  Returns the
    entropy at the final iterate and the worst constraint violation.
    """
    d = stack.shape[1]
    rng = np.random.default_rng(seed)
    x = rng.normal(size=2 * d * d)

    def split(vec):
        w = vec[: d * d].reshape(d, d) + 1j * vec[d * d :].reshape(d, d)
        return w

    def fg(vec, weight):
        w_mat = split(vec)
        gram = w_mat @ w_mat.conj().T
        t = float(np.trace(gram).real)
        tau = gram / t
        ev, u = np.linalg.eigh(tau)
        ev = np.clip(ev, 1e-64, None)
        log_tau = (u * np.log(ev)) @ u.conj().T
        r = expectation_values(tau, stack) - b
        f = float(np.sum(ev * np.log(ev))) + weight * float(r @ r)
        a = log_tau + np.eye(d) + 2.0 * weight * np.tensordot(r, stack, axes=(0, 0))
        inner = float(np.real(np.trace(a @ tau)))
        k = (a - inner * np.eye(d)) @ w_mat / t
        grad = np.concatenate([2.0 * k.real.ravel(), 2.0 * k.imag.ravel()])
        return f, grad

    for weight in weights:
        res = minimize(
            fg,
            x,
            args=(weight,),
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": 2000, "maxfun": 10000, "ftol": 1e-16, "gtol": 1e-12},
        )
        x = res.x
    w_mat = split(x)
    gram = w_mat @ w_mat.conj().T
    tau = gram / float(np.trace(gram).real)
    ev = np.clip(np.linalg.eigvalsh(tau), 0.0, 1.0)
    entropy = float(-np.sum(ev[ev > 0] * np.log(ev[ev > 0])))
    violation = float(np.max(np.abs(expectation_values(tau, stack) - b)))
    return entropy, violation


def check_ghz_ladder():
    """Total, pairwise, and intrinsic three-party correlation of the GHZ state."""
    rho = ghz_state(3)
    c1 = multi_information(rho)
    ok = abs(c1 - 3 * LOG2) <= 1e-8

    res2 = maxent_project(rho, build_model(rho.shape, hypergraph_k(3, 2)), method="newton")
    c2 = res2.divergence
    ok = ok and abs(c2 - LOG2) <= 1e-3

    # independent oracle: penalty-method entropy maximization under the same
    # moment constraints, with a hand-built constraint stack
    stack = _pauli_stack_pairwise()
    targets = expectation_values(rho.matrix, stack)
    oracle_entropy, violation = _penalty_maxent_entropy(stack, targets)
    # rho is pure, so the divergence from the family is the projection entropy
    ok = ok and abs(oracle_entropy - c2) <= 1e-3 and violation <= 1e-4

    decomp = correlation_decomposition(rho, method="newton")
    capital = decomp["C"]
    ok = ok and abs(capital[2] - 2 * LOG2) <= 1e-3 and abs(capital[3] - LOG2) <= 1e-3
    ok = ok and abs(sum(capital.values()) - c1) <= 1e-3
    detail = (
        f"c1 = {c1:.9f} (3 log 2 off by {abs(c1 - 3 * LOG2):.1e}), "
        f"c2 = {c2:.6f} vs oracle {oracle_entropy:.6f} (constraint violation {violation:.1e}), "
        f"C2 = {capital[2]:.6f}, C3 = {capital[3]:.6f}, "
        f"increment-sum gap {abs(sum(capital.values()) - c1):.1e}"
    )
    return ok, detail


# ---------------------------------------------------------------------------
# 3. generic pure states have tiny pairwise-model divergence


def check_generic_pure_states():
    """Haar-random pure 3-qubit states sit near the pairwise family; GHZ does not."""
    rng = np.random.default_rng(11)
    shape = SystemShape.qubits(3)
    worst = 0.0
    for _ in range(10):
        rho = random_pure(shape, rng)
        worst = max(worst, k_party_correlation(rho, 2))
    ghz_c2 = LOG2  # established by the ladder check above
    ok = worst <= 1e-2
    detail = f"max c2 over 10 Haar draws = {worst:.2e}, against {ghz_c2:.6f} at the GHZ point"
    return ok, detail


# ---------------------------------------------------------------------------
# 4. divergence from the independence family equals the multi-information


def check_independence_closed_form():
    """Dual-solver divergence from the product family matches the entropy formula."""
    rng = np.random.default_rng(23)
    worst = 0.0
    for shape in (SystemShape.qubits(2), SystemShape.qubits(3)):
        model = build_model(shape, independence_hypergraph(shape.N))
        for _ in range(50):
            rank = int(rng.integers(1, shape.dim + 1))
            rho = random_density(shape, rng, rank=rank)
            res = maxent_project(rho, model, method="dual")
            gap = abs(res.divergence - multi_information(rho))
            worst = max(worst, gap)
    ok = worst <= 1e-6
    detail = f"max |divergence - multi-information| = {worst:.2e} over 100 mixed states"
    return ok, detail


# ---------------------------------------------------------------------------
# 5. projection identity


def check_projection_identity():
    """D(rho, sigma) splits through the projection for sigma inside the family."""
    rng = np.random.default_rng(31)
    combos = [
        (SystemShape.bits(3), 1, 13),
        (SystemShape.bits(3), 2, 13),
        (SystemShape.qubits(2), 1, 12),
        (SystemShape.qubits(2), 2, 12),
    ]
    worst = 0.0
    total = 0
    for shape, k, count in combos:
        model = build_model(shape, hypergraph_k(shape.N, k))
        for _ in range(count):
            rho = random_density(shape, rng)
            theta = 0.5 * rng.normal(size=model.dim_total - 1)
            sigma = GibbsParameters(theta, 0.0).state(model)
            worst = max(worst, pythagorean_residual(rho, sigma, model))
            total += 1
    ok = worst <= 1e-6
    detail = f"max residual = {worst:.2e} over {total} (state, family member) pairs"
    return ok, detail


# ---------------------------------------------------------------------------
# 6. dimension formulas


def check_dimension_formulas():
    """Numerical basis rank equals the closed-form dimension for every model."""
    checked = 0
    for n_units in range(1, 5):
        hgs = list(covering_hypergraphs(n_units))
        for sizes in itertools.product((2, 3), repeat=n_units):
            for kind in ("classical", "quantum"):
                shape = SystemShape(sizes, (kind,) * n_units)
                for hg in hgs:
                    model = build_model(shape, hg)
                    total, _ = model_dim(shape, hg)
                    if numerical_basis_rank(model) != total:
                        return False, (
                            f"rank mismatch at sizes={sizes} kind={kind} "
                            f"generators={hg.maximal_sets}"
                        )
                    checked += 1

    # uniform-size singleton family: N(n-1) classical, N(n^2-1) quantum
    for n_units in range(1, 5):
        for n in (2, 3):
            for kind, per_unit in (("classical", n - 1), ("quantum", n * n - 1)):
                shape = SystemShape((n,) * n_units, (kind,) * n_units)
                total, manifold = model_dim(shape, hypergraph_k(n_units, 1))
                if manifold != n_units * per_unit:
                    return False, f"singleton-family dimension wrong for {kind} n={n}"
                checked += 1
    return True, f"{checked} model dimensions verified exactly"


# ---------------------------------------------------------------------------
# 7. unit matrix basis


def check_unit_basis():
    """Phase-shift basis: orthonormality, adjoint pairing, and the displayed matrices."""
    worst = 0.0
    for n in range(2, 7):
        basis = matrix_fourier_basis(n)
        flat = np.stack(basis).reshape(n * n, -1)
        gram = flat @ flat.conj().T
        worst = max(worst, float(np.max(np.abs(gram - np.eye(n * n)))))
        for k in range(n):
            for l in range(n):
                # adjoints land on the mirrored index; a sign appears only
                # when both indices are live
                sign = (-1.0) ** (n + k + l) if (k > 0 and l > 0) else 1.0
                ka, la = (n - k) % n, (n - l) % n
                target = sign * basis[ka * n + la]
                worst = max(worst, float(np.max(np.abs(basis[k * n + l].conj().T - target))))
        herm = hermitize_basis(basis)
        hflat = np.stack(herm).reshape(n * n, -1)
        hgram = (hflat @ hflat.conj().T).real
        worst = max(worst, float(np.max(np.abs(hgram - np.eye(n * n)))))

    # at n = 2 the hermitized basis must recover the Pauli set up to sign
    rt2 = math.sqrt(2.0)
    paulis = [
        np.eye(2, dtype=complex) / rt2,
        np.array([[0, 1], [1, 0]], dtype=complex) / rt2,
        np.array([[0, -1j], [1j, 0]], dtype=complex) / rt2,
        np.array([[1, 0], [0, -1]], dtype=complex) / rt2,
    ]
    for m in hermitize_basis(matrix_fourier_basis(2)):
        gap = min(
            min(np.max(np.abs(m - p)), np.max(np.abs(m + p))) for p in paulis
        )
        worst = max(worst, float(gap))

    b3 = matrix_fourier_basis(3)
    shift_plus_adjoint = b3[1] + b3[1].conj().T
    want = np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]]) / math.sqrt(3.0)
    worst = max(worst, float(np.max(np.abs(shift_plus_adjoint - want))))
    ok = worst <= 1e-12
    return ok, f"max deviation {worst:.1e} across n = 2..6 plus the displayed matrices"


# ---------------------------------------------------------------------------
# 8. exhaustive feasibility on 3 bits


def check_feasibility_exhaustive():
    """Every support on 3 bits against pairwise feasibility and the fitting limit."""
    shape = SystemShape.bits(3)
    imat = build_interaction_matrix(shape, 2)
    report = enumerate_feasibility(shape, 2, max_size=8)
    ok = report.by_size[1] == (8, 8) and report.by_size[2] == (28, 28)
    ok = ok and report.min_nonfeasible_size == 3

    parity = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    ok = ok and not is_k_feasible(imat, parity)

    # iterative fitting of uniform-on-S must converge onto the closure of S
    model = build_model(shape, hypergraph_k(3, 2))
    configs = imat.configs
    agree = 0
    for r in range(1, 9):
        for sub in itertools.combinations(configs, r):
            closure = cylinder_closure(imat, sub)
            res = maxent_project(uniform_on(shape, sub), model, method="ipf")
            probs = res.state.probabilities()
            limit_support = frozenset(c for c, p in zip(configs, probs) if p > 1e-8)
            if limit_support != closure:
                return False, f"fitting limit support mismatch at {sorted(sub)}"
            agree += 1

    member = check_toric_membership(
        uniform_on(shape, [(0, 0, 0), (1, 1, 1)]).probabilities(), imat
    )
    ok = ok and member.is_member
    detail = (
        f"sizes 1-2 all feasible, parity triple non-feasible, "
        f"{agree}/255 fitting limits match closures, two-point uniform is a member"
    )
    return ok, detail


# ---------------------------------------------------------------------------
# 9. kernel of the pairwise interaction matrix


def check_parity_kernel():
    """Integer kernel on 3 bits is one-dimensional with the alternating sign vector."""
    imat = build_interaction_matrix(SystemShape.bits(3), 2)
    kernel = toric_kernel(imat)
    want = np.array([1, -1, -1, 1, -1, 1, 1, -1], dtype=np.int64)
    ok = kernel.shape[0] == 1 and (
        np.array_equal(kernel[0], want) or np.array_equal(kernel[0], -want)
    )
    return ok, f"kernel rank {kernel.shape[0]}, basis row {kernel[0].tolist()}"


# ---------------------------------------------------------------------------
# 10. maximizer search with support bounds


def check_maximizer_search():
    """Multistart search attains the known maxima inside the support bounds."""
    rep_bits = search_local_maximizers(
        SystemShape.bits(2), hypergraph_k(2, 1), n_restarts=32, seed=0
    )
    ok = abs(rep_bits.best.value - LOG2) <= 1e-6
    ok = ok and rep_bits.best.support_dim == 2 and rep_bits.bound.value == 3

    rep_qubits = search_local_maximizers(
        SystemShape.qubits(2), hypergraph_k(2, 1), n_restarts=32, seed=0
    )
    ok = ok and rep_qubits.best.value >= 2 * LOG2 - 1e-6
    ok = ok and rep_qubits.best.support_dim == 1 and rep_qubits.bound.value == 2

    rep_pair = search_local_maximizers(
        SystemShape.bits(3), hypergraph_k(3, 2), n_restarts=32, seed=0
    )
    ok = ok and all(r.support_dim <= 7 for r in rep_pair.records)
    ok = ok and all(r.exp_residual <= 1e-5 for r in rep_pair.records)
    detail = (
        f"2-bit singleton best {rep_bits.best.value:.6f} on support {rep_bits.best.support_dim}, "
        f"2-qubit singleton best {rep_qubits.best.value:.6f} at rank {rep_qubits.best.support_dim}, "
        f"3-bit pairwise: {len(rep_pair.records)} clusters, "
        f"max support {max(r.support_dim for r in rep_pair.records)}, "
        f"max exponential-form residual {max(r.exp_residual for r in rep_pair.records):.1e}"
    )
    return ok, detail


# ---------------------------------------------------------------------------
# 11. solver agreement


def check_solver_triangle():
    """Dual, fitting, and Newton projections coincide on random 3-bit states."""
    rng = np.random.default_rng(47)
    shape = SystemShape.bits(3)
    models = [build_model(shape, hypergraph_k(3, k)) for k in (1, 2)]
    worst_tv = 0.0
    worst_d = 0.0
    for _ in range(25):
        p = rng.dirichlet(np.ones(8) * 2.0)
        p = np.clip(p, 1e-4, None)
        rho = State.from_probabilities(shape, p / p.sum())
        for model in models:
            results = [maxent_project(rho, model, method=m) for m in ("dual", "ipf", "newton")]
            for a, b in itertools.combinations(results, 2):
                tv = 0.5 * float(
                    np.abs(a.state.probabilities() - b.state.probabilities()).sum()
                )
                worst_tv = max(worst_tv, tv)
                worst_d = max(worst_d, abs(a.divergence - b.divergence))
    ok = worst_tv <= 1e-6 and worst_d <= 1e-6
    detail = f"worst total variation {worst_tv:.2e}, worst divergence gap {worst_d:.2e}"
    return ok, detail


# ---------------------------------------------------------------------------

CRITERIA = [
    ("separable-information-bound", check_separable_information_bound),
    ("ghz-ladder", check_ghz_ladder),
    ("generic-pure-states", check_generic_pure_states),
    ("independence-closed-form", check_independence_closed_form),
    ("projection-identity", check_projection_identity),
    ("dimension-formulas", check_dimension_formulas),
    ("unit-basis", check_unit_basis),
    ("feasibility-exhaustive", check_feasibility_exhaustive),
    ("parity-kernel", check_parity_kernel),
    ("maximizer-search", check_maximizer_search),
    ("solver-triangle", check_solver_triangle),
]


def run_all(names=None) -> list[dict]:
    """Run the verification checks, optionally restricted to the given names."""
    known = {name for name, _ in CRITERIA}
    if names:
        missing = set(names) - known
        if missing:
            raise ValueError(f"unknown check names: {sorted(missing)}")
    out = []
    for name, fn in CRITERIA:
        if names and name not in names:
            continue
        passed, detail = fn()
        out.append({"name": name, "passed": bool(passed), "detail": detail})
    return out
