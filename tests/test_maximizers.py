import math

import numpy as np
import pytest

from hiercorr.algebra import State, SystemShape, algebra_mask, hermitian_realvec
from hiercorr.hierarchy import build_model, hypergraph_k
from hiercorr.maxent import maxent_project
from hiercorr.maximizers import (
    RISE_MARGIN,
    _ascend,
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

    @pytest.mark.parametrize("shape, model_shape", [
        (SystemShape.qubits(3), SystemShape.bits(3)),
        (SystemShape.bits(2), SystemShape.bits(3)),
    ], ids=["other-kind", "other-size"])
    def test_model_of_another_shape_is_refused(self, shape, model_shape):
        model = build_model(model_shape, hypergraph_k(3, 2))
        with pytest.raises(ValueError, match="built on a different shape"):
            search_local_maximizers(shape, model, n_restarts=1)

    def test_seed_reproducibility(self):
        a = search_local_maximizers(SystemShape.bits(2), hypergraph_k(2, 1),
                                    n_restarts=4, seed=15)
        b = search_local_maximizers(SystemShape.bits(2), hypergraph_k(2, 1),
                                    n_restarts=4, seed=15)
        assert a.best.value == b.best.value
        assert np.array_equal(a.best.state.matrix, b.best.state.matrix)


class TestAscentFloor:
    def test_no_trial_under_the_rounding_floor(self):
        # a flat maximum at x = 0 whose direction keeps a rounding-size 1e-8:
        # trials stop once eta * size**2 < RISE_MARGIN, and two such rounds
        # end the run long before max_steps
        size = 1e-8
        rounds, tried, values = [], [], []

        def fun(x):
            values.append(-x * x)
            return values[-1], None

        def direction(x, rho, pi):
            rounds.append(x)

            def trial(eta):
                tried.append(eta)
                return x + eta * size

            return size, trial

        val, x = _ascend(0.0, 1e3, lambda x: x, direction, fun, max_steps=200)
        assert (val, x) == (0.0, 0.0)
        assert tried == [1e3, 500.0, 250.0, 125.0]
        assert all(eta * size**2 >= RISE_MARGIN for eta in tried)
        assert 62.5 * size**2 < RISE_MARGIN
        assert len(rounds) == 2
        assert len(values) == 1 + len(tried)

    @pytest.mark.parametrize("shape, k, top, support, seed, evaluations", [
        (SystemShape.bits(2), 1, LOG2, 2, 0, 54),
        (SystemShape.bits(2), 1, LOG2, 2, 1, 44),
        (SystemShape.qubits(2), 1, 2 * LOG2, 1, 0, 67),
        (SystemShape.qubits(2), 1, 2 * LOG2, 1, 1, 68),
        (SystemShape.bits(3), 2, LOG2, 4, 0, 59),
        (SystemShape.bits(3), 2, LOG2, 4, 1, 57),
    ], ids=["b2-0", "b2-1", "q2-0", "q2-1", "b3k2-0", "b3k2-1"])
    def test_certify_searches_reach_the_known_maxima(self, shape, k, top, support, seed,
                                                      evaluations):
        # two restarts, as in the benchmark's certify searches
        rep = search_local_maximizers(shape, hypergraph_k(shape.N, k), n_restarts=2, seed=seed)
        assert rep.evaluations == evaluations
        assert rep.projection_failures == 0
        assert abs(rep.best.value - top) < 1e-12
        assert rep.best.support_dim == support
        assert all(r.exp_residual < 1e-12 for r in rep.records)


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

    def test_block_factor_takes_no_svd_of_d_rows(self, monkeypatch):
        # cq x 3 (d = 64, d_Q = 8): the rank test runs on the factor's blocks,
        # never on a 64-row factor; the dense factor reached the same value
        sh = SystemShape((2,) * 6, ("c", "q") * 3)
        svd = np.linalg.svd

        def blocks_only(a, *args, **kwargs):
            if np.shape(a)[-2] > 8:
                raise AssertionError(f"an svd of {np.shape(a)} was asked for")
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", blocks_only)
        rep = search_local_maximizers(sh, hypergraph_k(6, 1), n_restarts=1, seed=0, max_steps=40)
        assert rep.projection_failures == 0
        assert abs(rep.best.value - 3.4646579435456664) <= 1e-9
