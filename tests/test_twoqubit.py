import math
import warnings

import numpy as np
import pytest
import scipy.optimize
from scipy.special import xlogy

from hiercorr.algebra import marginal, relative_entropy
from hiercorr.maxent import multi_information
from hiercorr.states import bell_state
from hiercorr.twoqubit import (
    bell_from_lambda,
    bell_from_t,
    classical_witness,
    correlation_geometry_rows,
    extreme_point_product_form,
    is_classically_correlated_bd,
    is_physical_t,
    is_separable,
    mutual_information_bd,
    sample_octahedron,
    separable_extreme_points,
    verify_mutual_information_bound,
)

LOG2 = math.log(2.0)


class TestCharts:
    def test_round_trip(self):
        rng = np.random.default_rng(80)
        for _ in range(10):
            lam = rng.dirichlet(np.ones(4))
            bd = bell_from_lambda(lam)
            back = bell_from_t(bd.t)
            assert np.allclose(np.sort(back.lam), np.sort(lam), atol=1e-12)
            assert np.max(np.abs(back.state.matrix - bd.state.matrix)) < 1e-12

    def test_bell_vertices(self):
        for j in (1, 2, 3, 4):
            lam = np.zeros(4)
            lam[j - 1] = 1.0
            bd = bell_from_lambda(lam)
            assert np.max(np.abs(bd.state.matrix - bell_state(j).matrix)) < 1e-12
            assert abs(np.abs(bd.t).sum() - 3.0) < 1e-12

    def test_marginals_are_maximally_mixed(self):
        rng = np.random.default_rng(81)
        bd = bell_from_lambda(rng.dirichlet(np.ones(4)))
        for i in (1, 2):
            assert np.allclose(marginal(bd.state, (i,)).matrix, np.eye(2) / 2, atol=1e-12)

    def test_unphysical_t_rejected(self):
        assert not is_physical_t([1.0, 1.0, 1.0])  # only (1,-1,1)-type corners exist
        with pytest.raises(ValueError):
            bell_from_t([1.0, 1.0, 1.0])
        assert is_physical_t([1.0, -1.0, 1.0])


class TestMutualInformation:
    def test_closed_form_matches_general_machinery(self):
        rng = np.random.default_rng(82)
        for _ in range(5):
            bd = bell_from_lambda(rng.dirichlet(np.ones(4)))
            assert abs(mutual_information_bd(bd) - multi_information(bd.state)) < 1e-9

    def test_equals_min_divergence_over_product_states(self):
        # independent oracle: direct minimization over pairs of Bloch vectors
        rng = np.random.default_rng(83)
        bd = bell_from_lambda(np.array([0.5, 0.25, 0.15, 0.1]))

        def product_state(x):
            out = []
            for k in (0, 1):
                r = x[3 * k : 3 * k + 3]
                r = r / (1.0 + np.linalg.norm(r))  # open unit ball
                m = 0.5 * (np.eye(2, dtype=complex)
                           + r[0] * np.array([[0, 1], [1, 0]])
                           + r[1] * np.array([[0, -1j], [1j, 0]])
                           + r[2] * np.array([[1, 0], [0, -1]]))
                out.append(m)
            return np.kron(out[0], out[1])

        def objective(x):
            return relative_entropy(bd.state.matrix, product_state(x))

        best = np.inf
        for _ in range(4):
            res = scipy.optimize.minimize(objective, rng.normal(scale=0.5, size=6),
                                          method="Nelder-Mead",
                                          options={"xatol": 1e-9, "fatol": 1e-12,
                                                   "maxiter": 4000})
            best = min(best, res.fun)
        assert abs(best - mutual_information_bd(bd)) < 1e-4

    def test_bell_vertex_value(self):
        bd = bell_from_lambda([1.0, 0.0, 0.0, 0.0])
        assert abs(mutual_information_bd(bd) - 2 * LOG2) < 1e-12

    def test_zero_eigenvalues_match_xlogy_form(self):
        for lam in ([1.0, 0.0, 0.0, 0.0], [0.5, 0.5, 0.0, 0.0]):
            bd = bell_from_lambda(lam)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = mutual_information_bd(bd)
            assert got == 2 * LOG2 + xlogy(bd.lam, bd.lam).sum(), lam


class TestSeparability:
    def test_criteria_agree_on_random_states(self):
        rng = np.random.default_rng(84)
        n_sep = 0
        for _ in range(300):
            bd = bell_from_lambda(rng.dirichlet(np.ones(4)))
            flag = is_separable(bd)  # raises if the two criteria split
            n_sep += flag
        assert 0 < n_sep < 300

    def test_extreme_points(self):
        pts = separable_extreme_points()
        assert len(pts) == 6
        ts = sorted(tuple(np.round(bd.t, 12)) for _, bd in pts)
        want = sorted([(1.0, 0.0, 0.0), (-1.0, 0.0, 0.0), (0.0, 1.0, 0.0),
                       (0.0, -1.0, 0.0), (0.0, 0.0, 1.0), (0.0, 0.0, -1.0)])
        assert [tuple(abs(x) + 0.0 for x in t) for t in ts] == [tuple(abs(x) + 0.0 for x in w) for w in want]
        for _, bd in pts:
            assert is_separable(bd)
            assert abs(mutual_information_bd(bd) - LOG2) < 1e-12

    def test_product_decompositions_entrywise(self):
        for pair, bd in separable_extreme_points():
            v1, v2 = extreme_point_product_form(pair)
            mix = 0.5 * (np.outer(v1, v1.conj()) + np.outer(v2, v2.conj()))
            assert np.max(np.abs(mix - bd.state.matrix)) < 1e-12
            # each factor is a genuine product vector
            for v in (v1, v2):
                m = v.reshape(2, 2)
                assert np.linalg.matrix_rank(m, tol=1e-12) == 1

    def test_werner_threshold(self):
        # fully antisymmetric direction: separable exactly up to weight 1/2 on the fourth vector
        for w, flag in ((0.3, True), (0.5, True), (0.7, False)):
            lam = np.full(4, (1 - w) / 3.0)
            lam[3] = w
            assert is_separable(bell_from_lambda(lam)) is flag


class TestClassicalCorrelation:
    def test_single_axis_has_witness(self):
        for axis in range(3):
            t = np.zeros(3)
            t[axis] = 0.7
            bd = bell_from_t(t)
            assert is_classically_correlated_bd(bd)
            u1, u2 = classical_witness(bd)
            rot = np.kron(u1, u2).conj().T @ bd.state.matrix @ np.kron(u1, u2)
            off = rot - np.diag(np.diag(rot))
            assert np.max(np.abs(off)) < 1e-12

    def test_two_axes_has_none(self):
        bd = bell_from_t([0.4, 0.0, 0.5])
        assert not is_classically_correlated_bd(bd)
        assert classical_witness(bd) is None


class TestSampling:
    def test_octahedron_sampler_stays_inside(self):
        rng = np.random.default_rng(85)
        for _ in range(200):
            t = sample_octahedron(rng)
            assert np.abs(t).sum() <= 1.0 + 1e-12
            assert is_physical_t(t)

    def test_bound_verification_report(self):
        rep = verify_mutual_information_bound(n_samples=500, seed=86)
        assert rep["passed"]
        assert rep["violations"] == 0
        assert rep["max_mutual_information"] <= LOG2 + 1e-9
        assert rep["extreme_point_gap"] < 1e-12


class TestGeometryRows:
    def test_row_structure(self):
        rows = correlation_geometry_rows(grid=5)
        assert len(rows) == 4 + 6 + 125
        roles = {r["role"] for r in rows}
        assert roles == {"entangled-vertex", "separable-extreme", "grid"}
        for r in rows:
            if r["physical"]:
                assert r["mutual_information"] <= 2 * LOG2 + 1e-12
            else:
                assert math.isnan(r["mutual_information"])
        vertex_rows = [r for r in rows if r["role"] == "entangled-vertex"]
        assert all(not r["separable"] for r in vertex_rows)
