import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.optimize
from scipy.special import xlogy

from hiercorr.algebra import marginal, relative_entropy
from hiercorr.maxent import multi_information
from hiercorr import twoqubit
from hiercorr.algebra import State
from hiercorr.states import bell_state, bell_vector
from hiercorr.twoqubit import (
    PAULIS,
    bell_from_lambda,
    bell_from_t,
    classical_witness,
    correlation_geometry_rows,
    extreme_point_product_form,
    is_classically_correlated_bd,
    is_physical_t,
    is_separable,
    mutual_information_bd,
    sample_octahedra,
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


def _scalar_bell(t):
    """The single-sample route: kron assembly, one quadratic form per line."""
    rho = np.eye(4, dtype=complex)
    for ti, sigma in zip(t, PAULIS):
        rho = rho + ti * np.kron(sigma, sigma)
    rho = rho / 4.0
    lam = np.array([float(np.real(bell_vector(j).conj() @ rho @ bell_vector(j)))
                    for j in (1, 2, 3, 4)])
    lam = np.clip(lam, 0.0, None)
    return lam / lam.sum(), State(twoqubit.TWO_QUBITS, rho)


def _reference_report(n_samples, seed):
    """verify_mutual_information_bound one sample at a time."""
    rng = np.random.default_rng(seed)
    worst, worst_t, violations = -np.inf, None, 0
    for _ in range(n_samples):
        bd = bell_from_t(sample_octahedron(rng))
        assert is_separable(bd)
        info = mutual_information_bd(bd)
        if info > worst:
            worst, worst_t = info, bd.t
        violations += info > LOG2 + 1e-9
    return float(worst), [float(x) for x in worst_t], violations


def _nan_free(rows):
    return [{k: "nan" if isinstance(v, float) and math.isnan(v) else v for k, v in r.items()}
            for r in rows]


class TestArrayPass:
    def test_draws_read_seven_doubles_each_in_any_split(self):
        n = 3000
        want = []
        rng = np.random.default_rng(0)
        for _ in range(n):  # the stream as documented, one draw at a time in pure Python
            u = rng.random(7).tolist()
            e = [-math.log1p(-x) for x in u[:4]]
            total = e[0] + e[1] + e[2] + e[3]
            want.append([(-1.0 if v < 0.5 else 1.0) * x / total for x, v in zip(e[:3], u[4:])])
        want = np.array(want)
        assert sample_octahedra(np.random.default_rng(0), n).tobytes() == want.tobytes()
        rng = np.random.default_rng(0)
        assert np.array([sample_octahedron(rng) for _ in range(n)]).tobytes() == want.tobytes()
        for chunk in (1, 7, 96, 2048):
            rng = np.random.default_rng(0)
            got = np.concatenate([sample_octahedra(rng, min(chunk, n - start))
                                  for start in range(0, n, chunk)])
            assert got.tobytes() == want.tobytes(), chunk

    def test_draws_are_uniform_on_the_cross_polytope(self):
        # |t|_1 <= r holds a volume fraction r^3: mean |t|_1 = 3/4 and
        # P(|t|_1 <= 1/2) = 1/8; the eight sign octants are equally likely
        t = sample_octahedra(np.random.default_rng(89), 400_000)
        norm = np.abs(t).sum(axis=1)
        octant = (t > 0) @ np.array([1, 2, 4])
        assert np.all(np.abs(np.bincount(octant, minlength=8) / len(t) - 1 / 8) <= 0.003)
        assert abs(norm.mean() - 0.75) <= 0.003
        assert abs(np.mean(norm <= 0.5) - 1 / 8) <= 0.003
        assert norm.max() <= 1.0

    def test_bell_from_t_matches_the_scalar_route_bitwise(self):
        rng = np.random.default_rng(87)
        for _ in range(300):
            t = sample_octahedron(rng) * rng.uniform(1.0, 3.0)
            if not is_physical_t(t):
                continue
            lam, state = _scalar_bell(t)
            bd = bell_from_t(t)
            assert bd.lam.tobytes() == lam.tobytes()
            assert bd.state.matrix.tobytes() == state.matrix.tobytes()
            assert not bd.state.matrix.flags.writeable

    def test_mutual_information_is_the_left_to_right_sum(self):
        # libm's log and a left-to-right sum; numpy's own log differs from
        # libm in the last bit on about one spectrum in two thousand
        lams = np.random.default_rng(88).dirichlet(np.ones(4), size=20_000)
        lams[:100, 0] = 0.0
        want = []
        for lam in lams.tolist():
            acc = 0.0
            for x in lam:
                if x > 0.0:
                    acc += x * math.log(x)
            want.append(2.0 * LOG2 + acc)
        assert twoqubit._mutual_information(lams).tolist() == want

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 86])
    def test_bound_report_matches_per_sample_reference(self, seed, monkeypatch):
        n = 1000  # a multiple of neither block size below
        worst, worst_t, violations = _reference_report(n, seed)
        for block in (twoqubit.BLOCK, 96):
            monkeypatch.setattr(twoqubit, "BLOCK", block)
            rep = verify_mutual_information_bound(n_samples=n, seed=seed)
            assert rep["max_mutual_information"] == worst
            assert rep["argmax_t"] == worst_t
            assert rep["violations"] == violations == 0
            assert rep["n_samples"] == n and rep["passed"] is True

    def test_outside_the_state_space_is_refused(self):
        with pytest.raises(ValueError, match="outside the state space"):
            twoqubit._bell_batch(np.array([[0.1, 0.0, 0.0], [1.0, 1.0, 1.0]]))
        with pytest.raises(ValueError):
            verify_mutual_information_bound(n_samples=0)

    def test_geometry_rows_match_per_point_reference(self):
        for grid in (5, 7):
            rows = correlation_geometry_rows(grid=grid)
            grid_rows = [r for r in rows if r["role"] == "grid"]
            axis = np.linspace(-1, 1, grid)
            want = []
            for t1 in axis:
                for t2 in axis:
                    for t3 in axis:
                        t = np.array([t1, t2, t3])
                        row = {"role": "grid", "t1": float(t1), "t2": float(t2),
                               "t3": float(t3), "physical": False, "separable": False,
                               "mutual_information": float("nan"), "note": ""}
                        if is_physical_t(t):
                            bd = bell_from_t(t)
                            row.update(physical=True, separable=is_separable(bd),
                                       mutual_information=mutual_information_bd(bd))
                        want.append(row)
            assert _nan_free(grid_rows) == _nan_free(want)

    def test_working_set_does_not_grow_with_samples(self):
        # an unblocked pass over 4 * BLOCK + 1 samples holds about 8 MB
        tracemalloc.start()
        try:
            verify_mutual_information_bound(n_samples=4 * twoqubit.BLOCK + 1, seed=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
