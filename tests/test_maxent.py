import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from hiercorr import maxent
from hiercorr.algebra import (
    ShapeError,
    State,
    SystemShape,
    _gibbs_blocks,
    _gibbs_of_zero,
    expectation_values,
    gibbs_map,
    hermitian_realvec,
    marginal,
    relative_entropy,
    von_neumann_entropy,
)
from hiercorr.hierarchy import (
    STACK_GUARD,
    _MomentPlan,
    build_model,
    full_model,
    hypergraph_k,
    independence_hypergraph,
)
from hiercorr.maxent import (
    INTERIOR_TOL,
    GibbsParameters,
    _dual_minimize,
    _face_solve,
    _reduce_constraints,
    chain_step_divergence,
    correlation_decomposition,
    divergence_from_model,
    irreducible_correlation,
    k_party_correlation,
    maxent_project,
    multi_information,
    pythagorean_residual,
)
from hiercorr.maximizers import check_exponential_form, search_local_maximizers
from hiercorr.states import ghz_state, random_density, random_pure, uniform_on

LOG2 = math.log(2.0)


def _trace_pinned_face(rng):
    """Seeded constraints on a 4 x 4 face, its identity among them, reduced
    by _reduce_constraints, and targets from a full-rank state moved onto
    trace one as _dual_solve moves them; returns them and the traces v."""
    g = rng.normal(size=(6, 4, 4)) + 1j * rng.normal(size=(6, 4, 4))
    dirs = np.concatenate([g + np.transpose(g.conj(), (0, 2, 1)), np.eye(4)[None]])
    tau = random_density(SystemShape.qubits(2), rng).matrix
    red, c, _ = _reduce_constraints(dirs, np.real(np.einsum("kij,ji->k", dirs, tau)))
    v = np.real(np.trace(red, axis1=1, axis2=2))
    return red, c + v * (1.0 - v @ c) / (v @ v), v


class TestClosedFormRoutes:
    def test_full_model_is_identity_map(self):
        rng = np.random.default_rng(50)
        sh = SystemShape.qubits(2)
        rho = random_density(sh, rng)
        res = maxent_project(rho, full_model(sh))
        assert res.method == "exact"
        assert res.divergence == 0.0
        assert np.allclose(res.state.matrix, rho.matrix, atol=1e-12)

    def test_exact_route_skips_the_basis_stack(self):
        # the full 6-qubit stack (4096 x 64 x 64) is above the materialization guard
        rho = random_density(SystemShape.qubits(6), np.random.default_rng(53))
        model = full_model(rho.shape)
        res = maxent_project(rho, model)
        assert res.method == "exact" and res.converged
        assert res.state is rho
        assert res.divergence == res.residual == 0.0
        assert res.diagnostics == {"support_dim": 64, "relative_entropy_direct": 0.0}
        assert model._stack is None

    def test_product_route_is_exact(self):
        rng = np.random.default_rng(51)
        for sh in (SystemShape.bits(3), SystemShape.qubits(2),
                   SystemShape((2, 3), ("quantum", "classical"))):
            model = build_model(sh, independence_hypergraph(sh.N))
            rho = random_density(sh, rng)
            res = maxent_project(rho, model)
            assert res.method == "product"
            assert res.residual < 1e-12
            for i in range(1, sh.N + 1):
                assert np.allclose(marginal(res.state, (i,)).matrix,
                                   marginal(rho, (i,)).matrix, atol=1e-12)

    def test_dual_agrees_with_product(self):
        rng = np.random.default_rng(52)
        sh = SystemShape.qubits(2)
        model = build_model(sh, hypergraph_k(2, 1))
        for _ in range(5):
            rho = random_density(sh, rng)
            rd = maxent_project(rho, model, method="dual")
            rp = maxent_project(rho, model, method="product")
            assert rd.converged
            assert abs(rd.divergence - rp.divergence) < 1e-7
            assert np.max(np.abs(rd.state.matrix - rp.state.matrix)) < 1e-7


class TestSolverAgreement:
    def test_triangle_on_full_rank_classical(self):
        # dual, Newton, and proportional fitting must land on the same point
        rng = np.random.default_rng(53)
        sh = SystemShape.bits(3)
        model = build_model(sh, hypergraph_k(3, 2))
        for _ in range(8):
            rho = random_density(sh, rng)
            out = {m: maxent_project(rho, model, method=m) for m in ("dual", "ipf", "newton")}
            assert all(r.converged for r in out.values())
            pd = {m: np.real(np.diag(r.state.matrix)) for m, r in out.items()}
            assert 0.5 * np.abs(pd["dual"] - pd["ipf"]).sum() < 1e-6
            assert 0.5 * np.abs(pd["dual"] - pd["newton"]).sum() < 1e-6
            dv = [r.divergence for r in out.values()]
            assert max(dv) - min(dv) < 1e-6

    def test_projection_matches_marginals(self):
        rng = np.random.default_rng(54)
        sh = SystemShape.qubits(2)
        model = build_model(sh, hypergraph_k(2, 1))
        rho = random_density(sh, rng)
        res = maxent_project(rho, model, method="dual")
        for i in (1, 2):
            assert np.allclose(marginal(res.state, (i,)).matrix,
                               marginal(rho, (i,)).matrix, atol=1e-7)

    def test_interior_theta_reproduces_state(self):
        rng = np.random.default_rng(55)
        sh = SystemShape.bits(3)
        model = build_model(sh, hypergraph_k(3, 2))
        rho = random_density(sh, rng)
        res = maxent_project(rho, model, method="dual")
        assert isinstance(res.theta, GibbsParameters)
        rebuilt = res.theta.state(model)
        assert np.max(np.abs(rebuilt.matrix - res.state.matrix)) < 1e-7


class TestDualSolver:
    @pytest.mark.parametrize(
        "shape",
        [
            SystemShape.qubits(4),
            SystemShape.quantum((3, 3, 3)),
            SystemShape((2, 2, 2, 2), ("classical", "quantum", "classical", "quantum")),
        ],
        ids=["q4", "t3", "cqcq-2222"],
    )
    def test_full_rank_states_take_the_interior_exit(self, shape):
        rng = np.random.default_rng(41)
        model = build_model(shape, hypergraph_k(shape.N, 2))
        rho = random_density(shape, rng)
        res = maxent_project(rho, model, method="dual")
        assert res.converged, res.residual
        assert res.diagnostics["rounds"] == 0
        assert res.diagnostics["support_dim"] == shape.dim
        assert isinstance(res.theta, GibbsParameters)
        assert np.max(np.abs(res.theta.state(model).matrix - res.state.matrix)) <= 1e-10
        assert res.iterations <= 50

    @pytest.mark.parametrize("order", ["forward", "reversed"])
    def test_summation_order_does_not_stall_the_descent(self, order, monkeypatch):
        # summing the rest axis of the moment plan one term at a time, equal
        # in exact arithmetic, moves the last bits of every gradient; forward,
        # the objective of rank-2 q4 seed 2 then stops decreasing at max |g|
        # 1.45e-8, above tol, where a stall must not end the descent
        def moments(self, x):
            flat = np.ascontiguousarray(x, dtype=complex).reshape(-1)
            ys = []
            for grp in self.groups:
                terms = np.moveaxis(flat[grp.pos], 2, 0)
                if order == "reversed":
                    terms = terms[::-1]
                total = terms[0].copy()
                for term in terms[1:]:
                    total += term
                ys.append(total.view(np.float64) @ grp.real.T)
            return np.concatenate([y.reshape(-1) for y in ys])[self.slot]

        monkeypatch.setattr(_MomentPlan, "moments", moments)
        rho = random_density(SystemShape.qubits(4), np.random.default_rng(2), rank=2)
        res = maxent_project(rho, build_model(rho.shape, hypergraph_k(4, 2)), method="dual")
        assert res.converged and res.diagnostics["rounds"] == 0
        assert res.diagnostics["support_dim"] == 16
        assert abs(res.divergence - 1.027151307) <= 1e-8

    @pytest.mark.parametrize("blocks", [(1, 2), (1, 8), (1, 27), (1, 128), (4, 4), (8, 1)])
    def test_closed_form_start_is_the_gibbs_map_of_zero(self, blocks):
        n, k = blocks
        want = _gibbs_blocks(np.zeros((n, k, k), dtype=complex))
        got = _gibbs_of_zero(n, k)
        assert got[1] == want[1]
        for a, b in zip(got[::2] + got[3:], want[::2] + want[3:]):
            assert a.dtype == b.dtype and np.array_equal(a, b)

    def test_closed_form_start_takes_the_old_first_trial(self, monkeypatch):
        # the first trial theta from the closed-form start is the one the
        # descent took from the Gibbs map of zero: -D g there
        monkeypatch.setattr(maxent, "DUAL_STEPS", 1)
        shape = SystemShape.qubits(4)
        model = build_model(shape, hypergraph_k(4, 2))
        plan = model._moment_plan()
        b = plan.moments(random_density(shape, np.random.default_rng(48)).blocks)
        trials = []

        def hamiltonian(theta):
            trials.append(theta.copy())
            return plan.hamiltonian(theta)

        _dual_minimize(hamiltonian, lambda x: plan.moments(x)[1:], b[1:], plan.blocks[:2], 1e-8)
        g = plan.moments(_gibbs_blocks(plan.hamiltonian(np.zeros(b.size - 1)))[0])[1:] - b[1:]
        assert np.array_equal(trials[0], -shape.dim * g)

    def test_face_descent_starts_with_the_newton_step(self, monkeypatch):
        # on a face whose targets are pinned to trace one the gradient at
        # theta = 0 has no component along the face identity, so the first
        # L-BFGS trial -r g is the exact Newton step there
        monkeypatch.setattr(maxent, "DUAL_STEPS", 1)
        red, c, v = _trace_pinned_face(np.random.default_rng(67))
        red = red[:, None]
        trials = []

        def hamiltonian(t):
            trials.append(t.copy())
            return np.tensordot(t, red, axes=(0, 0))

        def moments(x):
            return np.real(np.tensordot(red, np.swapaxes(x, 1, 2), axes=3))

        _dual_minimize(hamiltonian, moments, c, (1, 4), 1e-10)
        pi, _, p, u = _gibbs_of_zero(1, 4)
        grad = moments(pi) - c
        assert abs(v @ grad) <= 1e-14
        assert np.array_equal(trials[0], -4 * grad)
        m = moments(pi)
        newton = np.linalg.lstsq(maxent._kubo_mori(red, p, u) - np.outer(m, m), -grad, rcond=None)[0]
        assert np.max(np.abs(trials[0] - newton)) <= 1e-12

    def test_exact_first_step_near_the_maximally_mixed_state(self, monkeypatch):
        # within 1e-3 of I/d the Newton step from theta = 0 is accepted whole
        # and cuts the gradient by far more than 100x
        monkeypatch.setattr(maxent, "DUAL_STEPS", 1)
        shape = SystemShape.qubits(4)
        d = shape.dim
        sigma = random_density(shape, np.random.default_rng(49))
        rho = State(shape, (1 - 1e-3) * np.eye(d) / d + 1e-3 * sigma.matrix)
        model = build_model(shape, hypergraph_k(4, 2))
        plan = model._moment_plan()
        b = plan.moments(rho.blocks)
        trials = []

        def hamiltonian(theta):
            trials.append(theta.copy())
            return plan.hamiltonian(theta)

        theta, _, pi, _, nit = _dual_minimize(hamiltonian, lambda x: plan.moments(x)[1:], b[1:],
                                              plan.blocks[:2], 1e-11)
        assert nit == 1 and len(trials) == 1
        assert np.max(np.abs(theta - d * b[1:])) <= 1e-15
        g0 = np.max(np.abs(b[1:]))
        assert np.max(np.abs(plan.moments(pi)[1:] - b[1:])) <= g0 / 100

    def test_interior_projection_builds_no_stack(self, no_dense_stack):
        shape = SystemShape.qubits(4)
        model = build_model(shape, hypergraph_k(4, 2))
        rho = random_density(shape, np.random.default_rng(42))
        res = maxent_project(rho, model, method="dual")
        assert res.converged and res.diagnostics["rounds"] == 0
        res.theta.state(model)
        assert model._stack is None

    def test_eight_qubits_past_the_stack_guard(self):
        # the pairwise stack would be 277 x 256 x 256 entries, above STACK_GUARD
        shape = SystemShape.qubits(8)
        model = build_model(shape, hypergraph_k(8, 2))
        assert model.n_elements * shape.dim**2 > STACK_GUARD
        rho = random_density(shape, np.random.default_rng(43))
        res = maxent_project(rho, model, method="dual")
        assert res.converged and res.residual <= 1e-8
        assert isinstance(res.theta, GibbsParameters)
        assert np.max(np.abs(res.theta.state(model).matrix - res.state.matrix)) <= 1e-10
        assert model._stack is None

    @pytest.mark.parametrize("method", ["dual", "newton"])
    def test_strong_field_on_many_bits_takes_the_interior_exit(self, method):
        # an element's entries scale as 1 / sqrt(d / d_A), so an ordinary
        # full-support answer on 14 bits needs |theta_k| > 1e3: the Gibbs
        # state with theta_1 = 1100 (p_min / p_max = 3.4e-8) must end at the
        # interior exit, not on a face whose 16384 x 8192 isometry would not fit
        shape = SystemShape.bits(14)
        model = build_model(shape, hypergraph_k(14, 1))
        theta = np.zeros(model.n_elements - 1)
        theta[0] = 1100.0
        rho = GibbsParameters(theta, 0.0).state(model)
        res = maxent_project(rho, model, method=method)
        assert res.converged and res.diagnostics["rounds"] == 0
        assert res.diagnostics["support_dim"] == shape.dim
        assert res.theta is not None and abs(res.theta.theta[0]) > 1e3
        assert res.diagnostics["relative_entropy_direct"] <= 1e-7


class TestBoundaryCases:
    def test_ghz_pairwise_projection(self):
        ghz = ghz_state(3)
        model = build_model(ghz.shape, hypergraph_k(3, 2))
        for method in ("dual", "newton"):
            res = maxent_project(ghz, model, method=method)
            assert res.converged, (method, res.residual)
            assert abs(res.divergence - LOG2) < 1e-6, method
            # projection is the even mixture of the two all-equal basis states
            want = np.zeros((8, 8))
            want[0, 0] = want[7, 7] = 0.5
            assert np.max(np.abs(res.state.matrix - want)) < 1e-5, method
            assert res.diagnostics["support_dim"] == 2

    def test_ipf_on_deterministic_support(self):
        sh = SystemShape.bits(3)
        rho = uniform_on(sh, [(0, 0, 0), (1, 1, 1)])
        model = build_model(sh, hypergraph_k(3, 2))
        res = maxent_project(rho, model, method="ipf")
        assert res.converged
        # this distribution already satisfies the pairwise family closure
        assert res.divergence < 1e-9
        assert np.max(np.abs(res.state.matrix - rho.matrix)) < 1e-9

    def test_auto_retries_newton_when_dual_misses(self):
        # rank-2 state whose pairwise projection the dual misses: its whole
        # descent ends above the interior tolerance on a support that is not
        # rho's, and auto falls back to newton, recording the miss
        sh = SystemShape.qubits(3)
        rho = random_density(sh, np.random.default_rng(1), rank=2)
        model = build_model(sh, hypergraph_k(3, 2))
        dual = maxent_project(rho, model, method="dual")
        assert not dual.converged
        assert INTERIOR_TOL < dual.residual < 1e-3
        res = maxent_project(rho, model)
        assert res.method == "newton"
        assert res.converged
        assert res.residual < 1e-9
        assert res.diagnostics["fallback_from"] == {
            "method": "dual", "residual": dual.residual, "iterations": dual.iterations,
        }

    def test_auto_retries_newton_when_the_dual_state_is_off(self):
        # rank-2 state whose pairwise projection is rho itself: the dual spends
        # its budget on a descent that ends near the moments on a support
        # that misses rho's, and auto must still return rho
        sh = SystemShape.qubits(3)
        rho = random_density(sh, np.random.default_rng(1), rank=2)
        model = build_model(sh, hypergraph_k(3, 2))
        assert not maxent_project(rho, model, method="dual").converged
        res = maxent_project(rho, model)
        assert res.method == "newton"
        assert res.converged
        assert res.divergence < 1e-9
        assert np.max(np.abs(res.state.matrix - rho.matrix)) < 1e-9

    def test_newton_builds_no_stack(self, no_dense_stack):
        # the state above: the newton route compresses its faces, the whole
        # space among them, through the model's moment plan
        sh = SystemShape.qubits(3)
        rho = random_density(sh, np.random.default_rng(1), rank=2)
        model = build_model(sh, hypergraph_k(3, 2))
        res = maxent_project(rho, model, method="newton")
        assert res.converged
        assert res.divergence < 1e-9
        assert np.max(np.abs(res.state.matrix - rho.matrix)) < 1e-9
        assert model._stack is None

    def test_auto_misses_a_state_pinned_by_a_second_reduction(self):
        # rank-2 state whose pairwise projection is rho itself, on a 4-dim
        # exposed face where the compressed constraints pin the state: both
        # routes end unconverged, newton on support 4 with D = 0.1612
        sh = SystemShape.qubits(3)
        rho = random_density(sh, np.random.default_rng(4), rank=2)
        res = maxent_project(rho, build_model(sh, hypergraph_k(3, 2)))
        assert res.method == "newton" and not res.converged
        assert res.diagnostics["support_dim"] == 4
        assert abs(res.divergence - 0.1612) <= 1e-3

    def test_boundary_answer_off_the_projection_is_not_converged(self, monkeypatch):
        # the even-parity diagonal state has every pairwise moment of the
        # maximally mixed state, which is its own projection; a dual route
        # returning it matches the moments exactly and must still miss, and
        # auto must prefer the converged newton answer over its lower residual
        sh = SystemShape.qubits(3)
        rho = State(sh, np.eye(8) / 8)
        even = (np.array([[0.25, 0, 0, 0.25, 0, 0.25, 0.25, 0]]), np.eye(8, dtype=complex)[None])
        model = build_model(sh, hypergraph_k(3, 2))
        solve = maxent._dual_solve
        monkeypatch.setattr(maxent, "_dual_solve", lambda *args, newton: solve(*args, newton=True)
                            if newton else (even, 0, {}, None))
        dual = maxent_project(rho, model, method="dual")
        assert dual.residual < 1e-12
        assert dual.diagnostics["support_dim"] == 4
        assert not dual.converged
        # -S(rho) - tr(rho log pi) = -log 8 + log(4) / 2 - log(TINY) / 2: rho's
        # mass 1/2 on pi's kernel costs 354.2 nats, against D = 0
        assert abs(dual.diagnostics["relative_entropy_direct"] - 352.8) <= 0.1
        res = maxent_project(rho, model)
        assert res.method == "newton"
        assert res.converged
        assert np.max(np.abs(res.state.matrix - rho.matrix)) < 1e-9

    def test_fitting_limit_with_a_tiny_entry_is_converged(self):
        # the pairwise projection of this state puts about 4e-11 on 000, below
        # the support cut, so it counts as a boundary answer; it is exact
        sh = SystemShape.bits(3)
        p = np.array([2e-4, 0.0, 0.0, 0.017, 0.0, 0.0036, 0.0, 0.0])
        p[6] = 1.0 - p.sum()
        rho = State.from_probabilities(sh, p)
        res = maxent_project(rho, build_model(sh, hypergraph_k(3, 2)), method="ipf")
        q = res.state.probabilities()
        assert res.diagnostics["support_dim"] == 7
        assert res.converged
        want = float(np.sum(p[p > 0] * np.log(p[p > 0] / q[p > 0])))
        assert abs(res.divergence - want) < 1e-8

    def test_fitting_limit_cross_check_is_finite(self):
        # the state above: pi's entry of 4e-11 keeps its own logarithm in the
        # cross-check instead of counting as kernel, so D stays finite
        sh = SystemShape.bits(3)
        p = np.array([2e-4, 0.0, 0.0, 0.017, 0.0, 0.0036, 0.0, 0.0])
        p[6] = 1.0 - p.sum()
        rho = State.from_probabilities(sh, p)
        res = maxent_project(rho, build_model(sh, hypergraph_k(3, 2)), method="ipf")
        direct = res.diagnostics["relative_entropy_direct"]
        assert math.isfinite(direct)
        assert abs(direct - res.divergence) <= 1e-8

    def test_dual_peels_onto_two_point_support(self):
        sh = SystemShape.bits(3)
        rho = uniform_on(sh, [(0, 0, 0), (1, 0, 0)])
        model = build_model(sh, hypergraph_k(3, 2))
        res = maxent_project(rho, model, method="dual")
        assert res.converged
        assert res.diagnostics["rounds"] == 1
        assert res.diagnostics["support_dim"] == 2

    def test_parity_triple_is_its_own_projection(self):
        # the pairwise marginals of uniform on {100, 010, 001} force q(000) = 0,
        # so the state already lies in the closure of the pairwise family
        sh = SystemShape.bits(3)
        rho = uniform_on(sh, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        model = build_model(sh, hypergraph_k(3, 2))
        for method in ("dual", "newton"):
            res = maxent_project(rho, model, method=method)
            assert res.converged, method
            assert res.divergence <= 1e-9, method
            assert res.state.matrix[0, 0].real <= 1e-9, method
            assert np.max(np.abs(res.state.matrix - rho.matrix)) < 1e-7, method

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
    def test_dual_ghz_settles_on_two_point_support(self, n, no_dense_stack):
        # the pairwise projection of GHZ_n is the even mixture of |0..0> and
        # |1..1>: support 2 and divergence log 2; the faces are compressed
        # from the moment plan (the GHZ_8 stack, 277 x 256 x 256, is above
        # STACK_GUARD)
        ghz = ghz_state(n)
        res = maxent_project(ghz, build_model(ghz.shape, hypergraph_k(n, 2)), method="dual")
        assert res.converged, res.residual
        assert res.diagnostics["support_dim"] == 2
        assert res.theta is None
        assert abs(res.divergence - LOG2) <= 1e-9
        assert abs(res.divergence - res.diagnostics["relative_entropy_direct"]) <= 1e-9

    def test_ghz_correlation_ladder(self):
        ghz = ghz_state(3)
        assert abs(multi_information(ghz) - 3 * LOG2) < 1e-12
        assert abs(k_party_correlation(ghz, 1) - 3 * LOG2) < 1e-9
        assert abs(k_party_correlation(ghz, 2) - LOG2) < 1e-6
        assert k_party_correlation(ghz, 3) == 0.0
        assert abs(irreducible_correlation(ghz, 2) - 2 * LOG2) < 1e-6
        assert abs(irreducible_correlation(ghz, 3) - LOG2) < 1e-6
        dec = correlation_decomposition(ghz)
        assert abs(sum(dec["C"].values()) - dec["total"]) < 1e-9
        assert dec["converged"]
        assert len(dec["residuals"]) == 3 and dec["residuals"][-1] == 0.0
        assert max(dec["residuals"]) <= 1e-5


class TestNewtonRoute:
    """Newton's method on the dual of the whole space, then on faces peeled
    from its answer."""

    def test_ghz4_projection(self):
        ghz = ghz_state(4)
        res = maxent_project(ghz, build_model(ghz.shape, hypergraph_k(4, 2)), method="newton")
        assert res.converged
        assert res.diagnostics["support_dim"] == 2
        assert abs(res.divergence - LOG2) <= 1e-9

    @pytest.mark.parametrize("name, k", [("q4", 2), ("cqcq-2222", 3)])
    def test_rank_two_states_match_the_dual(self, name, k):
        # projections of rank-2 states, D = 1.027151 and 0.050343, on which
        # the entropy ascent newton replaced ended near D = 0
        shape, seed = {"q4": (SystemShape.qubits(4), 2),
                       "cqcq-2222": (SystemShape((2, 2, 2, 2), ("c", "q", "c", "q")), 300)}[name]
        rho = random_density(shape, np.random.default_rng(seed), rank=2)
        model = build_model(shape, hypergraph_k(shape.N, k))
        res, dual = (maxent_project(rho, model, method=m) for m in ("newton", "dual"))
        assert res.converged and dual.converged
        assert res.diagnostics["support_dim"] == dual.diagnostics["support_dim"]
        assert abs(res.divergence - dual.divergence) <= 1e-6

    def test_auto_does_not_certify_a_pure_answer_for_haar_pure_q5(self):
        # the pairwise projection of this pure state has full rank and
        # D = 0.418224; the state itself (D = 0) must not pass as converged
        rho = random_pure(SystemShape.qubits(5), np.random.default_rng(0))
        res = maxent_project(rho, build_model(rho.shape, hypergraph_k(5, 2)))
        assert not (res.converged and res.divergence < 0.4)

    @pytest.mark.parametrize("method", ["dual", "auto"])
    def test_overflowed_direction_is_not_a_linalg_error(self, method):
        # at tol = 1e-9 the projection (D = 0.418224) is missed, and the miss
        # comes back as an unconverged result
        rho = random_pure(SystemShape.qubits(5), np.random.default_rng(0))
        res = maxent_project(rho, build_model(rho.shape, hypergraph_k(5, 2)), method=method,
                             tol=1e-9)
        assert not res.converged
        assert abs(res.divergence - 0.418224) <= 3e-6

    def test_non_finite_direction_drops_the_pairs(self, monkeypatch):
        # an overflowed L-BFGS direction fails its search outright: the
        # descent forgets its curvature pairs and goes on from steepest
        # descent, passing no NaN to eigh
        direction, held = maxent._lbfgs_direction, []

        def overflowing(g, pairs):
            held.append(len(pairs))
            return np.full_like(g, np.inf) if len(held) == 3 else direction(g, pairs)

        monkeypatch.setattr(maxent, "_lbfgs_direction", overflowing)
        rho = random_density(SystemShape.qubits(3), np.random.default_rng(0))
        res = maxent_project(rho, build_model(rho.shape, hypergraph_k(3, 2)), method="dual")
        assert held[2] > 0 and held[3] == 0
        assert res.converged and res.diagnostics["rounds"] == 0

    def test_dual_miss_solves_no_face(self, monkeypatch):
        # Haar-pure q5 seed 0 at tol = 1e-9: the whole-space dual misses, and
        # its face at PEEL_CUT misses the moments, so no face is solved
        solve, faces = maxent._face_solve, []
        monkeypatch.setattr(maxent, "_face_solve",
                            lambda *args: faces.append(args[0].shape) or solve(*args))
        rho = random_pure(SystemShape.qubits(5), np.random.default_rng(0))
        res = maxent_project(rho, build_model(rho.shape, hypergraph_k(5, 2)), method="dual", tol=1e-9)
        assert not res.converged
        assert faces == [] and res.diagnostics["rounds"] == 0

    def test_whole_space_answer_stands_below_one_cut(self, monkeypatch):
        # Haar-pure q5 seed 3: the whole-space Newton answer (D = 0.7983667)
        # is peeled once, at PEEL_CUT of its largest eigenvalue, and no
        # deeper face replaces it
        lift, floors = maxent._lift, []
        monkeypatch.setattr(maxent, "_lift",
                            lambda w, *args: floors.append((args[-1], float(w.max()))) or lift(w, *args))
        rho = random_pure(SystemShape.qubits(5), np.random.default_rng(3))
        res = maxent_project(rho, build_model(rho.shape, hypergraph_k(5, 2)), method="newton")
        [(floor, top)] = floors
        assert floor == maxent.PEEL_CUT * top
        assert res.diagnostics["rounds"] == 0
        assert abs(res.divergence - 0.7983667) <= 1e-7

    @pytest.mark.parametrize("method", ["dual", "newton", "auto"])
    def test_unsplit_whole_space_answer_is_not_converged(self, method):
        # psi = GHZ_3 + 1e-2 v is its own pairwise projection (D = 0, support
        # 1).  The whole-space iterate misses tol on support 2, its second
        # eigenvalue between SUPPORT_CUT and PEEL_CUT times the largest, and
        # its one-vector face misses the moments: no converged answer
        ghz = np.zeros(8, complex)
        ghz[0] = ghz[-1] = 2**-0.5
        rng = np.random.default_rng(1)
        rho = State.pure(SystemShape.qubits(3), ghz + 1e-2 * (rng.normal(size=8) + 1j * rng.normal(size=8)))
        res = maxent_project(rho, build_model(rho.shape, hypergraph_k(3, 2)), method=method)
        assert res.diagnostics["rounds"] == 0 and res.diagnostics["support_dim"] == 2
        assert res.residual > INTERIOR_TOL and not res.converged

    def test_auto_retries_an_unsplit_dual_answer(self):
        # rank-2 q3 seed 2 is its own pairwise projection (support 2); dual
        # stops on the whole space on support 3, short of tol, and newton
        # finds the projection on its face
        rho = random_density(SystemShape.qubits(3), np.random.default_rng(2), rank=2)
        model = build_model(rho.shape, hypergraph_k(3, 2))
        dual, auto = (maxent_project(rho, model, method=m) for m in ("dual", "auto"))
        assert not dual.converged and dual.diagnostics["support_dim"] == 3
        assert auto.converged and auto.method == "newton" and auto.diagnostics["rounds"] == 1
        assert auto.diagnostics["support_dim"] == 2 and auto.divergence <= 1e-9

    def test_full_rank_target_takes_no_svd(self, monkeypatch):
        # the whole space runs in the model's own coordinates: no (m, d^2)
        # constraint matrix is reduced, and a full-rank answer peels no face
        svd = np.linalg.svd
        shapes = []

        def counting(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting)
        rho = random_density(SystemShape.qubits(5), np.random.default_rng(0))
        res = maxent_project(rho, build_model(rho.shape, hypergraph_k(5, 2)), method="newton")
        assert res.converged and res.diagnostics["rounds"] == 0
        assert shapes == []

    def test_whole_space_past_the_stack_guard_raises(self):
        shape = SystemShape.qubits(8)
        model = build_model(shape, hypergraph_k(8, 2))
        assert model.n_elements * shape.dim**2 > STACK_GUARD
        with pytest.raises(MemoryError):
            maxent_project(random_density(shape, np.random.default_rng(43)), model, method="newton")

    def test_directions_take_only_the_diagonal_blocks(self):
        # b10: the directions are 55 x 1024 x 1 x 1 entries, though the dense
        # stack, 56 x 1024 x 1024, is past STACK_GUARD
        shape = SystemShape.bits(10)
        model = build_model(shape, hypergraph_k(10, 2))
        assert model.n_elements * shape.dim**2 > STACK_GUARD
        rho = random_density(shape, np.random.default_rng(0))
        res, dual = (maxent_project(rho, model, method=m) for m in ("newton", "dual"))
        assert res.converged and dual.converged
        assert res.diagnostics["support_dim"] == shape.dim
        assert abs(res.divergence - dual.divergence) <= 1e-8

    def test_auto_retries_past_the_dense_stack_on_mixed_shapes(self, monkeypatch):
        # nine bits and a qubit: m d^2 = 76 x 1024 x 1024 is past STACK_GUARD,
        # the block directions (75 x 512 x 2 x 2) are not
        shape = SystemShape((2,) * 10, ("c",) * 9 + ("q",))
        model = build_model(shape, hypergraph_k(10, 2))
        assert model.n_elements * shape.dim**2 > STACK_GUARD
        mixed = (np.full((shape.dim // 2, 2), 1.0 / shape.dim),
                 np.broadcast_to(np.eye(2, dtype=complex), (shape.dim // 2, 2, 2)))
        solve = maxent._dual_solve
        monkeypatch.setattr(maxent, "_dual_solve", lambda *args, newton: solve(*args, newton=True)
                            if newton else (mixed, 0, {}, None))
        res = maxent_project(random_density(shape, np.random.default_rng(0)), model)
        assert res.method == "newton" and res.converged
        assert res.diagnostics["fallback_from"]["method"] == "dual"

    def test_auto_skips_the_retry_past_the_stack_guard(self, monkeypatch):
        # a dual miss on q8 comes back as it is: the retry could not run
        shape = SystemShape.qubits(8)
        model = build_model(shape, hypergraph_k(8, 2))
        mixed = (np.full((1, shape.dim), 1.0 / shape.dim), np.eye(shape.dim, dtype=complex)[None])
        monkeypatch.setattr(maxent, "_dual_solve", lambda *args, newton: pytest.fail("newton was run")
                            if newton else (mixed, 0, {}, None))
        res = maxent_project(random_density(shape, np.random.default_rng(43)), model)
        assert res.method == "dual" and not res.converged
        assert "fallback_from" not in res.diagnostics


class TestSpectralPass:
    @pytest.mark.parametrize("method", ["dual", "newton"])
    def test_eigendecomposition_budget(self, method, count_decompositions, monkeypatch):
        # an interior projection diagonalizes each Gibbs iterate away from
        # theta = 0, whose state is closed-form, and nothing more: its
        # D(rho||pi) comes from the Gibbs parameters, and rho's spectrum from
        # its validation
        shape = SystemShape.qubits(5)
        model = build_model(shape, hypergraph_k(5, 2))
        rho = random_density(shape, np.random.default_rng(44))
        calls = count_decompositions()
        zero = []
        gibbs = maxent._gibbs_blocks
        monkeypatch.setattr(maxent, "_gibbs_blocks", lambda h: zero.append(not h.any()) or gibbs(h))
        res = maxent_project(rho, model, method=method)
        assert res.converged and res.diagnostics["rounds"] == 0
        assert calls["gibbs"] >= res.iterations and not any(zero)
        assert calls["eigh"] == calls["gibbs"]
        assert calls["eigvalsh"] == 0
        assert res.diagnostics["gap"] <= INTERIOR_TOL

    def test_eigendecomposition_budget_on_a_face(self, count_decompositions):
        # a peeled dual projection cuts its face from the last Gibbs
        # iterate's eigenpairs; beyond the Gibbs maps it diagonalizes only the
        # face answer, whose eigenpairs serve the clip and the cross-check
        ghz = ghz_state(7)
        model = build_model(ghz.shape, hypergraph_k(7, 2))
        calls = count_decompositions()
        res = maxent_project(ghz, model, method="dual")
        assert res.converged and res.diagnostics["rounds"] == 1
        assert calls["eigh"] == calls["gibbs"] + 1
        assert calls["eigvalsh"] == 0
        assert "gap" not in res.diagnostics

    @pytest.mark.parametrize(
        "name, method",
        [pytest.param(name, method, id=name if method == "dual" else f"{name}-{method}")
         for method in ("dual", "newton") for name in ("q3", "q4", "q5", "q6", "t3", "cqcq-2222")],
    )
    def test_interior_divergence_from_the_gibbs_parameters(self, name, method):
        # D(rho||pi) = log Z - theta . b - S(rho) at the interior exit agrees
        # with the dense relative entropy, and the duality gap with it is
        # below tol
        shape = {"t3": SystemShape.quantum((3, 3, 3)),
                 "cqcq-2222": SystemShape((2, 2, 2, 2), ("c", "q", "c", "q"))}.get(name)
        shape = shape or SystemShape.qubits(int(name[1:]))
        model = build_model(shape, hypergraph_k(shape.N, 2))
        for seed in range(3):
            rho = random_density(shape, np.random.default_rng(seed))
            res = maxent_project(rho, model, method=method)
            assert res.converged and res.theta is not None
            dense = relative_entropy(rho.matrix, res.state.matrix)
            assert abs(res.diagnostics["relative_entropy_direct"] - dense) <= 1e-12
            assert res.diagnostics["gap"] <= INTERIOR_TOL

    @pytest.mark.parametrize("method", ["ipf", "product"])
    def test_other_exits_keep_the_cross_check(self, method, monkeypatch):
        # off the interior exit no gap is reported, and relative_entropy_direct
        # reads rho's weights on the eigenvectors the route hands over: ipf's
        # vector takes no eigendecomposition, product diagonalizes only its
        # unit marginals, never a d x d matrix
        shape = SystemShape.bits(3) if method == "ipf" else SystemShape.qubits(3)
        rho = random_density(shape, np.random.default_rng(47))
        model = build_model(shape, hypergraph_k(3, 1 if method == "product" else 2))
        eigh, shapes = np.linalg.eigh, []
        monkeypatch.setattr(np.linalg, "eigh", lambda a, *args, **kwargs: shapes.append(np.shape(a))
                            or eigh(a, *args, **kwargs))
        res = maxent_project(rho, model, method=method)
        monkeypatch.undo()  # the dense reference below diagonalizes
        assert res.converged and "gap" not in res.diagnostics
        assert shapes == ([] if shape.all_classical else [(1, 2, 2)] * 3)
        assert abs(res.diagnostics["relative_entropy_direct"]
                   - relative_entropy(rho.matrix, res.state.matrix)) <= 1e-9

    def test_ladder_takes_rho_spectrum_once(self, monkeypatch):
        rho = random_density(SystemShape.qubits(4), np.random.default_rng(45))
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counting(mat, *args, **kwargs):
            calls.append(np.shape(mat))
            return eigvalsh(mat, *args, **kwargs)

        # rho's spectrum comes from its validation, and no order takes another
        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        dec = correlation_decomposition(rho)
        assert dec["converged"]
        assert calls == []

    @pytest.mark.parametrize("method", ["exact", "product", "ipf", "dual", "ghz-dual", "newton"])
    def test_outputs_revalidate(self, method):
        rng = np.random.default_rng(46)
        if method == "ghz-dual":
            rho, method = ghz_state(4), "dual"
        elif method == "ipf":
            rho = random_density(SystemShape.bits(3), rng)
        else:
            rho = random_density(SystemShape((2, 2, 2), ("quantum", "classical", "quantum")), rng)
        k = {"exact": 3, "product": 1}.get(method, 2)
        res = maxent_project(rho, build_model(rho.shape, hypergraph_k(rho.shape.N, k)),
                             method=method)
        assert res.converged and res.method == method
        # the mixed-shape dual and newton take the interior exit, the GHZ dual peels
        assert (res.theta is not None) == (method in ("dual", "newton") and rho.shape.N == 3)
        again = State(rho.shape, res.state.matrix)
        assert np.max(np.abs(again.matrix - res.state.matrix)) <= 1e-15
        assert abs(res.divergence - res.diagnostics["relative_entropy_direct"]) <= 1e-8


# (state, k, method) -> (converged, iterations, rounds, support_dim, divergence)
# of the dense classical routes these vector routes replaced; the dual rows
# are those of the descent from its exact first step, each within 1e-8 of
# its state's ipf row
CLASSICAL_ROUTES = {
    ("b3", 3, "exact"): (True, 0, None, 8, 0.0),
    ("b3", 1, "product"): (True, 0, None, 8, 0.29502266411147593),
    ("b3", 2, "ipf"): (True, 16, None, 8, 0.08614289168235123),
    ("b3", 2, "dual"): (True, 13, 0, 8, 0.08614289119154384),
    ("b4", 4, "exact"): (True, 0, None, 16, 0.0),
    ("b4", 1, "product"): (True, 0, None, 16, 0.19297999549776623),
    ("b4", 2, "ipf"): (True, 20, None, 16, 0.04980274358265602),
    ("b4", 2, "dual"): (True, 18, 0, 16, 0.04980274107334637),
    ("two-point", 2, "dual"): (True, 28, 1, 2, 0.0),
    # the interior descent toward this boundary target ends at the rounding
    # floor of its objective, so its step count (46 on the dense route)
    # moves with the last bits of the arithmetic and is not compared
    ("parity-triple", 2, "dual"): (True, None, 1, 3, 0.0),
}


def _classical_state(name):
    if name in ("b3", "b4"):
        n = int(name[1])
        return random_density(SystemShape.bits(n), np.random.default_rng(n))
    support = {"two-point": [(0, 0, 0), (1, 0, 0)],
               "parity-triple": [(1, 0, 0), (0, 1, 0), (0, 0, 1)]}[name]
    return uniform_on(SystemShape.bits(3), support)


class TestClassicalVectors:
    """All-classical projections run on 1 x 1 blocks, with no
    eigendecomposition, and repeat the dense routes they replaced."""

    @pytest.mark.parametrize("case", list(CLASSICAL_ROUTES),
                             ids=[f"{name}-k{k}-{method}" for name, k, method in CLASSICAL_ROUTES])
    def test_routes_take_no_eigendecomposition(self, case, no_eigendecomposition, monkeypatch):
        name, k, method = case
        rho = _classical_state(name)
        model = build_model(rho.shape, hypergraph_k(rho.shape.N, k))
        no_eigendecomposition(0)
        res = maxent_project(rho, model, method=method)
        monkeypatch.undo()  # the dense reference below diagonalizes
        converged, iterations, rounds, support, divergence = CLASSICAL_ROUTES[case]
        assert (res.converged, res.diagnostics.get("rounds"), res.diagnostics["support_dim"]) \
            == (converged, rounds, support)
        if iterations is not None:
            assert res.iterations == iterations
        assert abs(res.divergence - divergence) <= 1e-12
        # dense reference: spectra, relative entropy and the stack's moments
        pi = res.state.matrix
        assert abs(res.divergence - max(0.0, von_neumann_entropy(pi) - von_neumann_entropy(rho))) \
            <= 1e-12
        assert abs(res.diagnostics["relative_entropy_direct"] - relative_entropy(rho.matrix, pi)) \
            <= 1e-12
        stack = model.basis_matrices()
        resid = np.max(np.abs(expectation_values(pi, stack) - expectation_values(rho.matrix, stack)))
        assert abs(res.residual - resid) <= 1e-12
        w = np.linalg.eigvalsh(pi)
        assert res.diagnostics["support_dim"] == np.sum(w > 1e-9 * w[-1])

    @pytest.mark.parametrize("name", ["b3", "b4"])
    def test_dual_rows_meet_the_ipf_rows(self, name):
        dual, ipf = (CLASSICAL_ROUTES[name, 2, method][4] for method in ("dual", "ipf"))
        assert abs(dual - ipf) <= 1e-8

    def test_ladder_takes_no_eigendecomposition(self, no_eigendecomposition, monkeypatch):
        rho = _classical_state("b4")
        no_eigendecomposition(0)
        dec = correlation_decomposition(rho)
        monkeypatch.undo()
        assert dec["converged"]
        assert abs(dec["total"] - multi_information(rho)) <= 1e-12

    def test_twelve_bits_hold_no_dense_matrix(self):
        # one 4096 x 4096 complex matrix is 268 MB; the state, both solves
        # and their checks hold (d, 1, 1) block arrays
        shape = SystemShape.bits(12)
        p = np.random.default_rng(12).dirichlet(np.ones(shape.dim))
        model = build_model(shape, hypergraph_k(12, 2))
        tracemalloc.start()
        try:
            rho = State.from_probabilities(shape, p)
            ipf, dual = (maxent_project(rho, model, method=m) for m in ("ipf", "dual"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        assert ipf.converged and dual.converged
        assert abs(ipf.divergence - dual.divergence) <= 1e-7

    def test_ipf_plan_holds_one_index_array(self):
        # b12 at k=2: 66 pairs x 4 cells x 1024 rest, 2.2 MB of positions and
        # as much again of IPF cells, held by the model after the projection
        shape = SystemShape.bits(12)
        rho = State.from_probabilities(shape, np.random.default_rng(12).dirichlet(np.ones(shape.dim)))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            model = build_model(shape, hypergraph_k(12, 2))
            assert maxent_project(rho, model, method="ipf").converged
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert held <= 5 * 2**20

    def test_plan_is_freed_with_its_model(self):
        shape = SystemShape.bits(4)
        rho = State.from_probabilities(shape, np.random.default_rng(4).dirichlet(np.ones(shape.dim)))
        model = build_model(shape, hypergraph_k(4, 2))
        assert maxent_project(rho, model, method="ipf").converged
        plan, cells = weakref.ref(model._plan), weakref.ref(model._plan.cells)
        del model
        gc.collect()
        assert plan() is None and cells() is None


MIXED_SHAPES = {
    "cqx3": SystemShape((2,) * 6, ("c", "q") * 3),
    "cqc-232": SystemShape((2, 3, 2), ("c", "q", "c")),
    "qcq-322": SystemShape((3, 2, 2), ("q", "c", "q")),
}

# (state, seed, rank) -> Newton steps of the newton route at k = 2, on the
# whole space and on the faces peeled from it; the q3 states end on their
# 2-dim support, seed 3 already on the whole space.  Seed 3 ends at the
# rounding floor of its whole-space descent, so its count moves with the
# arithmetic of the Hessian: 126 when the whole space was one reduced
# d x d face, 113 in the model's own coordinates
NEWTON_STEPS = {
    ("q3", 0, 2): 25, ("q3", 1, 2): 26, ("q3", 2, 2): 27, ("q3", 3, 2): 113,
    ("qcq-222", 46, None): 5, ("qcq-222", 48, 3): 6, ("cqcq-2222", 300, 2): 6,
}


class TestMixedBlocks:
    """Mixed shapes diagonalize their d_Q x d_Q blocks, never a d x d matrix."""

    @pytest.mark.parametrize("method", ["auto", "dual", "product"])
    @pytest.mark.parametrize("name", list(MIXED_SHAPES))
    def test_routes_take_block_eigendecompositions(self, name, method, no_eigendecomposition,
                                                   monkeypatch):
        shape = MIXED_SHAPES[name]
        rho = random_density(shape, np.random.default_rng(47))
        model = build_model(shape, hypergraph_k(shape.N, 1 if method == "product" else 2))
        d_q = math.prod(n for n, kind in zip(shape.sizes, shape.kinds) if kind == "quantum")
        no_eigendecomposition(d_q)
        res = maxent_project(rho, model, method=method)
        monkeypatch.undo()  # the dense reference below diagonalizes
        assert res.converged and res.method == ("dual" if method == "auto" else method)
        assert res.diagnostics["support_dim"] == shape.dim
        pi = res.state.matrix
        assert abs(res.divergence - (von_neumann_entropy(pi) - von_neumann_entropy(rho))) <= 1e-12
        assert abs(res.diagnostics["relative_entropy_direct"] - relative_entropy(rho.matrix, pi)) \
            <= 1e-12
        stack = model.basis_matrices()
        resid = np.max(np.abs(expectation_values(pi, stack) - expectation_values(rho.matrix, stack)))
        assert abs(res.residual - resid) <= 1e-12
        if res.theta is not None:
            assert np.max(np.abs(gibbs_map(res.theta.hamiltonian(model)) - pi)) <= 1e-10

    def test_newton_builds_no_free_direction_basis(self, monkeypatch):
        # a rank-4 cq x 3 state at k = 2: the face holds all 64 dimensions, so
        # a complement of its 70 constraints in the 4096 real coordinates
        # (the full SVD of the constraint matrix) would take minutes
        svd = np.linalg.svd

        def guarded(a, *args, full_matrices=True, **kwargs):
            if full_matrices and np.shape(a)[-1] > 1024:
                raise AssertionError(f"a full SVD of {np.shape(a)} was asked for")
            return svd(a, *args, full_matrices=full_matrices, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", guarded)
        shape = SystemShape((2,) * 6, ("c", "q") * 3)
        rho = random_density(shape, np.random.default_rng(300), rank=4)
        model = build_model(shape, hypergraph_k(6, 2))
        res = maxent_project(rho, model, method="newton")
        dual = maxent_project(rho, model, method="dual")
        assert res.converged and dual.converged
        assert abs(res.divergence - dual.divergence) <= 1e-8
        assert np.max(np.abs(res.state.blocks - dual.state.blocks)) <= 1e-6

    @pytest.mark.parametrize("name, seed, rank", list(NEWTON_STEPS))
    def test_newton_takes_few_steps(self, name, seed, rank):
        shape = {"q3": SystemShape.qubits(3), "qcq-222": SystemShape((2, 2, 2), ("q", "c", "q")),
                 "cqcq-2222": SystemShape((2, 2, 2, 2), ("c", "q", "c", "q"))}[name]
        rho = random_density(shape, np.random.default_rng(seed), rank=rank)
        res = maxent_project(rho, build_model(shape, hypergraph_k(shape.N, 2)), method="newton")
        assert res.converged
        assert res.iterations == NEWTON_STEPS[name, seed, rank]

    @pytest.mark.parametrize("rank, seed", [(None, 46), (3, 48)], ids=["full-rank", "rank-3"])
    def test_newton_builds_no_dense_matrix(self, rank, seed, no_dense_matrix):
        # the whole space runs on the block array, and a face is lifted back
        # onto it without a dense state
        shape = SystemShape((2, 2, 2), ("q", "c", "q"))
        rho = random_density(shape, np.random.default_rng(seed), rank=rank)
        model = build_model(shape, hypergraph_k(3, 2))
        res = maxent_project(rho, model, method="newton")
        dual = maxent_project(rho, model, method="dual")
        assert res.converged and res.residual <= INTERIOR_TOL
        assert dual.converged and abs(res.divergence - dual.divergence) <= 1e-7
        assert np.max(np.abs(res.state.blocks - dual.state.blocks)) <= 1e-6


BLOCK_SHAPES = {
    "b3": SystemShape.bits(3),
    "cqcq-2222": SystemShape((2, 2, 2, 2), ("c", "q", "c", "q")),
    "qcq-232": SystemShape((2, 3, 2), ("q", "c", "q")),
}


class TestStateFunctionsOnBlocks:
    """Marginals, entropies, the ladder and the maximizer certificates read
    state.blocks: no dense matrix, no eigendecomposition beyond d_Q x d_Q."""

    @pytest.mark.parametrize("name", list(BLOCK_SHAPES))
    def test_no_dense_matrix(self, name, no_dense_matrix, no_eigendecomposition, monkeypatch):
        shape = BLOCK_SHAPES[name]
        rng = np.random.default_rng(48)
        rho, sigma = random_density(shape, rng), random_density(shape, rng, rank=2)
        model = build_model(shape, hypergraph_k(shape.N, 1))
        no_eigendecomposition(math.prod(n for n, kind in zip(shape.sizes, shape.kinds)
                                        if kind == "quantum"))
        margs = [marginal(rho, (i,)) for i in range(1, shape.N + 1)]
        entropy = von_neumann_entropy(rho)
        divergences = relative_entropy(rho, sigma), relative_entropy(sigma, rho)
        total = multi_information(rho)
        dec = correlation_decomposition(rho)
        pi = maxent_project(rho, model).state
        form = check_exponential_form(pi, model)
        rep = search_local_maximizers(shape, model, n_restarts=2, seed=5, max_steps=30)
        monkeypatch.undo()  # the dense references below
        assert abs(entropy - von_neumann_entropy(rho.matrix)) <= 1e-13
        assert divergences[0] == relative_entropy(rho.matrix, sigma.matrix) == float("inf")
        assert abs(divergences[1] - relative_entropy(sigma.matrix, rho.matrix)) <= 1e-13
        dense_total = sum(von_neumann_entropy(m.matrix) for m in margs) - von_neumann_entropy(rho.matrix)
        assert abs(total - dense_total) <= 1e-13
        assert dec["converged"] and abs(dec["total"] - total) <= 1e-12
        assert form < 1e-10  # a product state is exponential for the independence family
        # the search's record against the dense spectrum and eigenvectors
        w, u = np.linalg.eigh(rep.best.state.matrix)
        keep = w > 1e-9 * w[-1]
        a = hermitian_realvec(model.compress(u[:, keep])).T
        y = hermitian_realvec(np.diag(np.log(w[keep])))
        assert rep.best.support_dim == keep.sum()
        dense_form = np.linalg.norm(a @ np.linalg.lstsq(a, y)[0] - y)
        # log w of eigenvalues near the support cut (~1e-9) amplifies rounding
        assert abs(rep.best.exp_residual - dense_form) <= 1e-9 * max(1.0, dense_form)


class TestCorrelationQuantities:
    def test_generic_pure_states_have_no_higher_correlation(self):
        rng = np.random.default_rng(56)
        sh = SystemShape.qubits(3)
        for _ in range(3):
            psi = random_pure(sh, rng)
            assert k_party_correlation(psi, 2) < 1e-6

    def test_monotone_in_k(self):
        rng = np.random.default_rng(57)
        sh = SystemShape.bits(3)
        for _ in range(5):
            rho = random_density(sh, rng)
            c = [k_party_correlation(rho, k) for k in (1, 2, 3)]
            assert c[0] >= c[1] - 1e-9 and c[1] >= c[2] - 1e-9
            assert c[2] == 0.0

    def test_multi_information_is_order_one(self):
        rng = np.random.default_rng(58)
        for sh in (SystemShape.bits(3), SystemShape.qubits(2)):
            rho = random_density(sh, rng)
            assert abs(multi_information(rho) - k_party_correlation(rho, 1)) < 1e-8

    def test_chain_step_matches_increment_in_interior(self):
        rng = np.random.default_rng(59)
        sh = SystemShape.bits(3)
        for _ in range(4):
            rho = random_density(sh, rng)
            c2 = irreducible_correlation(rho, 2)
            step = chain_step_divergence(rho, 2)
            assert abs(c2 - step) < 1e-6

    def test_pythagorean_identity(self):
        rng = np.random.default_rng(60)
        sh = SystemShape.qubits(2)
        model = build_model(sh, hypergraph_k(2, 1))
        stack = model.basis_matrices()
        from hiercorr.algebra import State

        for _ in range(4):
            rho = random_density(sh, rng)
            th = rng.normal(scale=0.4, size=stack.shape[0] - 1)
            sigma = State(sh, gibbs_map(np.tensordot(th, stack[1:], axes=(0, 0))))
            assert pythagorean_residual(rho, sigma, model) < 1e-7

    def test_divergence_is_relative_entropy_to_projection(self):
        rng = np.random.default_rng(61)
        sh = SystemShape.bits(3)
        model = build_model(sh, hypergraph_k(3, 2))
        rho = random_density(sh, rng)
        res = maxent_project(rho, model)
        assert abs(res.divergence - relative_entropy(rho.matrix, res.state.matrix)) < 1e-7


class TestValidation:
    def test_method_checks(self):
        rng = np.random.default_rng(62)
        sh = SystemShape.qubits(2)
        rho = random_density(sh, rng)
        m1 = build_model(sh, hypergraph_k(2, 1))
        with pytest.raises(ValueError):
            maxent_project(rho, m1, method="nope")
        with pytest.raises(ValueError):
            maxent_project(rho, m1, method="exact")
        with pytest.raises(ShapeError):
            maxent_project(rho, m1, method="ipf")
        m2 = build_model(sh, hypergraph_k(2, 2))
        with pytest.raises(ValueError):
            maxent_project(rho, m2, method="product")

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
    def test_tol_must_be_finite_and_positive(self, tol):
        rho = random_density(SystemShape.qubits(3), np.random.default_rng(62))
        for model in (build_model(rho.shape, hypergraph_k(3, 2)), full_model(rho.shape)):
            with pytest.raises(ValueError, match="tol must be finite and positive"):
                maxent_project(rho, model, tol=tol)

    @pytest.mark.parametrize("call, error, message", [
        (lambda rho: maxent_project(rho, build_model(SystemShape.qubits(4), hypergraph_k(4, 2))),
         ShapeError, "different shapes"),
        (lambda rho: maxent_project(rho, build_model(SystemShape.bits(3), hypergraph_k(3, 2))),
         ShapeError, "different shapes"),
        (lambda rho: chain_step_divergence(rho, 1), ValueError, r"2\.\.3, got 1"),
        (lambda rho: chain_step_divergence(rho, 4), ValueError, r"2\.\.3, got 4"),
    ], ids=["project-on-more-units", "project-on-bits", "chain-k-below", "chain-k-above"])
    def test_input_guards(self, call, error, message):
        with pytest.raises(error, match=message):
            call(ghz_state(3))

    def test_k_range(self):
        rng = np.random.default_rng(63)
        rho = random_density(SystemShape.bits(2), rng)
        with pytest.raises(ValueError):
            k_party_correlation(rho, 0)
        with pytest.raises(ValueError):
            irreducible_correlation(rho, 1)

    def test_hypergraph_argument(self):
        rng = np.random.default_rng(64)
        sh = SystemShape.bits(2)
        rho = random_density(sh, rng)
        res = divergence_from_model(rho, hypergraph_k(2, 1))
        assert res.method == "product"
        with pytest.raises(TypeError):
            divergence_from_model(rho, "U_1")


class TestReduction:
    def test_dependent_constraints_reduce_cleanly(self):
        rng = np.random.default_rng(65)
        g = rng.normal(size=(3, 4, 4)) + 1j * rng.normal(size=(3, 4, 4))
        base = g + np.transpose(g.conj(), (0, 2, 1))
        dirs = np.concatenate([base, base[:1] + base[1:2]])  # dependent row
        tau = np.eye(4, dtype=complex) / 4
        targets = np.real(np.einsum("kij,ji->k", dirs, tau))
        red, c, defect = _reduce_constraints(dirs, targets)
        assert red.shape[0] == 3
        assert defect < 1e-10
        gram = np.real(np.einsum("kij,lji->kl", red, red))
        assert np.allclose(gram, np.eye(3), atol=1e-10)
        # the reduced directions span the constraints, and carry their targets
        vecs, basis = hermitian_realvec(dirs), hermitian_realvec(red)
        assert np.max(np.abs(vecs @ basis.T @ basis - vecs)) < 1e-10
        assert np.max(np.abs(basis @ hermitian_realvec(tau) - c)) < 1e-10


class TestFaceNewton:
    def test_matches_the_dual_face_solve(self):
        # seeded constraints on a 4 x 4 face, with its identity among them,
        # whose answer is full rank: exact Newton and the dual's L-BFGS face
        # solve must land on the same Gibbs state
        red, c, _ = _trace_pinned_face(np.random.default_rng(66))
        face, steps = _face_solve(red[:, None], c, 1e-10, newton=True)
        pi, _ = _face_solve(red[:, None], c, 1e-10, newton=False)
        assert face.shape == (1, 4, 4)
        assert steps <= 10
        assert np.max(np.abs(face - pi)) <= 1e-9
        assert np.max(np.abs(np.real(np.einsum("kij,ji->k", red, face[0])) - c)) <= 1e-11
        assert np.linalg.eigvalsh(face[0]).min() > 1e-3
