import math

import numpy as np

from hiercorr.algebra import State, SystemShape, algebra_mask, hermitian_realvec
from hiercorr.hierarchy import build_model, hypergraph_k
from hiercorr.maxent import maxent_project
from hiercorr.maximizers import (
    check_exponential_form,
    search_local_maximizers,
    support_bound,
)
from hiercorr.states import random_density, uniform_on

LOG2 = math.log(2.0)


class TestSupportBound:
    def test_classical_simplex_bound(self):
        b = support_bound(SystemShape.bits(3), hypergraph_k(3, 2))
        assert (b.value, b.argument, b.proven) == (7, "simplex", True)
        assert support_bound(SystemShape.bits(2), hypergraph_k(2, 1)).value == 3

    def test_quantum_rank_bound(self):
        b = support_bound(SystemShape.qubits(2), hypergraph_k(2, 1))
        assert (b.value, b.argument, b.proven) == (2, "rank", True)
        # 3 qubits pairwise: 1 + 3*3 + 3*9 = 37, isqrt 6
        b3 = support_bound(SystemShape.qubits(3), hypergraph_k(3, 2))
        assert b3.value == 6

    def test_mixed_is_flagged(self):
        sh = SystemShape((2, 2), ("classical", "quantum"))
        b = support_bound(sh, hypergraph_k(2, 1))
        assert not b.proven and b.argument == "conservative"


class TestExponentialForm:
    def test_parity_state_is_exponential_on_support(self):
        sh = SystemShape.bits(3)
        par = uniform_on(sh, [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)])
        model = build_model(sh, hypergraph_k(3, 2))
        assert check_exponential_form(par, model) < 1e-12

    def test_product_states_for_independence_family(self):
        rng = np.random.default_rng(70)
        sh = SystemShape.bits(2)
        model = build_model(sh, hypergraph_k(2, 1))
        p = rng.dirichlet(np.ones(2))
        q = rng.dirichlet(np.ones(2))
        rho = State.from_probabilities(sh, np.kron(p, q))
        assert check_exponential_form(rho, model) < 1e-12

    def test_correlated_state_is_not(self):
        sh = SystemShape.bits(2)
        model = build_model(sh, hypergraph_k(2, 1))
        rho = State.from_probabilities(sh, np.array([0.4, 0.1, 0.1, 0.4]))
        assert check_exponential_form(rho, model) > 0.05

    def test_projection_of_interior_state_passes(self):
        rng = np.random.default_rng(71)
        sh = SystemShape.bits(3)
        model = build_model(sh, hypergraph_k(3, 2))
        rho = random_density(sh, rng)
        pi = maxent_project(rho, model).state
        assert check_exponential_form(pi, model) < 1e-7

    def test_search_maximizer_certified_without_the_dense_stack(self, no_dense_stack):
        # the residual compresses the model onto the support through the
        # model's moment plan, and agrees with the dense compression
        def dense_residual(rho, model):
            stack = np.stack([model.element_matrix(j) for j in range(model.n_elements)])
            w, u = np.linalg.eigh(rho.matrix)
            keep = w > 1e-9 * w[-1]
            q = u[:, keep]
            a = hermitian_realvec(np.einsum("ia,kij,jb->kab", q.conj(), stack, q)).T
            y = hermitian_realvec(np.diag(np.log(w[keep])))
            return np.linalg.norm(a @ np.linalg.lstsq(a, y, rcond=None)[0] - y)

        bits = SystemShape.bits(3)
        model = build_model(bits, hypergraph_k(3, 2))
        rep = search_local_maximizers(bits, model, n_restarts=2, seed=13)
        assert rep.best.exp_residual < 1e-8
        assert abs(rep.best.exp_residual - dense_residual(rep.best.state, model)) <= 1e-12
        qubits = SystemShape.qubits(2)
        rho = random_density(qubits, np.random.default_rng(72), rank=3)
        model = build_model(qubits, hypergraph_k(2, 1))
        assert check_exponential_form(rho, model) > 0.05
        assert abs(check_exponential_form(rho, model) - dense_residual(rho, model)) <= 1e-12


class TestGradients:
    def test_purification_gradient_matches_finite_differences(self):
        # envelope property: the projection's own variation drops out; with a
        # classical unit the factor's state is pinched into the algebra, and
        # the gradient keeps its form because log rho - log pi lies there
        rng = np.random.default_rng(72)
        for kinds in (("quantum", "quantum"), ("classical", "quantum")):
            sh = SystemShape((2, 2), kinds)
            model = build_model(sh, hypergraph_k(2, 1))
            mask = algebra_mask(sh)

            def state(m):
                rho = np.where(mask, m @ m.conj().T, 0.0)
                rho /= np.trace(rho).real
                return State(sh, 0.5 * (rho + rho.conj().T))

            def value(m):
                return maxent_project(state(m), model).divergence

            m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            t = np.trace(m @ m.conj().T).real
            rho = state(m)
            pi = maxent_project(rho, model).state
            w, u = np.linalg.eigh(rho.matrix)
            lr = (u * np.log(np.clip(w, 1e-13, None))) @ u.conj().T
            wp, up = np.linalg.eigh(pi.matrix)
            lp = (up * np.log(np.clip(wp, 1e-13, None))) @ up.conj().T
            g = lr - lp
            mean = np.real(np.trace(g @ rho.matrix))
            grad = (2.0 / t) * (g - mean * np.eye(4)) @ m

            eps = 1e-6
            for _ in range(3):
                delta = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
                num = (value(m + eps * delta) - value(m - eps * delta)) / (2 * eps)
                ana = float(np.real(np.sum(np.conj(grad) * delta)))
                assert abs(num - ana) < 1e-5 * max(1.0, abs(ana))

    def test_mirror_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(73)
        sh = SystemShape.bits(3)
        model = build_model(sh, hypergraph_k(3, 2))
        p = rng.dirichlet(np.ones(8))

        def value(q):
            return maxent_project(State.from_probabilities(sh, q / q.sum()), model).divergence

        pi = maxent_project(State.from_probabilities(sh, p), model).state
        g = np.log(p) - np.log(np.real(np.diag(pi.matrix)))
        eps = 1e-6
        for _ in range(3):
            v = rng.normal(size=8)
            v -= v.mean()
            num = (value(p + eps * v) - value(p - eps * v)) / (2 * eps)
            assert abs(num - g @ v) < 1e-4 * max(1.0, abs(g @ v))


class TestSearch:
    def test_two_bits_independence(self):
        rep = search_local_maximizers(SystemShape.bits(2), hypergraph_k(2, 1),
                                      n_restarts=8, seed=11)
        assert abs(rep.best.value - LOG2) < 1e-9
        assert rep.best.support_dim == 2
        assert rep.bound_satisfied
        assert rep.projection_failures == 0

    def test_two_qubits_independence(self):
        rep = search_local_maximizers(SystemShape.qubits(2), hypergraph_k(2, 1),
                                      n_restarts=6, seed=12, max_steps=150)
        assert rep.best.value > 2 * LOG2 - 1e-6
        assert rep.best.support_dim == 1
        assert rep.bound_satisfied

    def test_three_bits_pairwise(self):
        rep = search_local_maximizers(SystemShape.bits(3), hypergraph_k(3, 2),
                                      n_restarts=8, seed=13)
        assert abs(rep.best.value - LOG2) < 1e-8
        assert rep.best.support_dim <= 7
        assert rep.best.exp_residual < 1e-8

    def test_clusters_account_for_all_restarts(self):
        rep = search_local_maximizers(SystemShape.bits(2), hypergraph_k(2, 1),
                                      n_restarts=8, seed=14)
        assert sum(r.hits for r in rep.records) == 8
        values = [r.value for r in rep.records]
        assert values == sorted(values, reverse=True)

    def test_seed_reproducibility(self):
        a = search_local_maximizers(SystemShape.bits(2), hypergraph_k(2, 1),
                                    n_restarts=4, seed=15)
        b = search_local_maximizers(SystemShape.bits(2), hypergraph_k(2, 1),
                                    n_restarts=4, seed=15)
        assert a.best.value == b.best.value
        assert np.array_equal(a.best.state.matrix, b.best.state.matrix)


class TestMixedShapeSearch:
    # the purification-factor step pinches its state into the algebra, so
    # shapes with classical and quantum units search like quantum ones
    def test_classical_quantum_independence(self):
        sh = SystemShape((2, 2), ("classical", "quantum"))
        rep = search_local_maximizers(sh, hypergraph_k(2, 1), n_restarts=4, seed=16)
        assert abs(rep.best.value - LOG2) < 1e-6
        assert rep.projection_failures == 0
        assert rep.bound.argument == "conservative"
        assert rep.bound_satisfied
        assert np.all(rep.best.state.matrix[~algebra_mask(sh)] == 0.0)

    def test_quantum_classical_quantum_pairwise(self):
        sh = SystemShape((2, 2, 2), ("quantum", "classical", "quantum"))
        rep = search_local_maximizers(sh, hypergraph_k(3, 2), n_restarts=2, seed=17)
        assert rep.projection_failures == 0
        assert rep.evaluations > 0
        assert all(r.exp_residual <= 1e-5 for r in rep.records)
        assert sum(r.hits for r in rep.records) == 2
