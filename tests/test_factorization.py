import itertools
import tracemalloc

import numpy as np
import pytest

from hiercorr import factorization
from hiercorr.algebra import ShapeError, SystemShape
from hiercorr.factorization import (
    GuardExceeded,
    build_interaction_matrix,
    check_toric_membership,
    cylinder_closure,
    enumerate_feasibility,
    integer_kernel,
    is_k_feasible,
    monomial_map,
    toric_kernel,
)
from hiercorr.states import all_configs, uniform_on

BITS3 = SystemShape.bits(3)
MIXED_32 = SystemShape((3, 2), ("c", "c"))
MIXED_232 = SystemShape((2, 3, 2), ("c", "c", "c"))

# the 12 x 8 matrix for three bits with pairwise interactions, rows labeled
# (pair, local configuration), columns in mixed-radix order 000..111
DISPLAYED_ROWS = {
    ((1, 2), (0, 0)): [1, 1, 0, 0, 0, 0, 0, 0],
    ((1, 2), (0, 1)): [0, 0, 1, 1, 0, 0, 0, 0],
    ((1, 2), (1, 0)): [0, 0, 0, 0, 1, 1, 0, 0],
    ((1, 2), (1, 1)): [0, 0, 0, 0, 0, 0, 1, 1],
    ((2, 3), (0, 0)): [1, 0, 0, 0, 1, 0, 0, 0],
    ((2, 3), (0, 1)): [0, 1, 0, 0, 0, 1, 0, 0],
    ((2, 3), (1, 0)): [0, 0, 1, 0, 0, 0, 1, 0],
    ((2, 3), (1, 1)): [0, 0, 0, 1, 0, 0, 0, 1],
    ((1, 3), (0, 0)): [1, 0, 1, 0, 0, 0, 0, 0],
    ((1, 3), (0, 1)): [0, 1, 0, 1, 0, 0, 0, 0],
    ((1, 3), (1, 0)): [0, 0, 0, 0, 1, 0, 1, 0],
    ((1, 3), (1, 1)): [0, 0, 0, 0, 0, 1, 0, 1],
}

BINOMIAL = np.array([1, -1, -1, 1, -1, 1, 1, -1])


class TestInteractionMatrix:
    def test_displayed_matrix_rows(self):
        imat = build_interaction_matrix(BITS3, 2)
        assert imat.matrix.shape == (12, 8)
        assert imat.configs == all_configs(BITS3)
        assert imat.configs[0] == (0, 0, 0) and imat.configs[-1] == (1, 1, 1)
        for (nu, y), want in DISPLAYED_ROWS.items():
            assert np.array_equal(imat.row(nu, y), want), (nu, y)

    def test_column_sums(self):
        for N, k in [(3, 2), (4, 2), (4, 3)]:
            imat = build_interaction_matrix(SystemShape.bits(N), k)
            sums = imat.matrix.sum(axis=0)
            import math

            assert np.all(sums == math.comb(N, k))

    def test_two_bits_k1(self):
        imat = build_interaction_matrix(SystemShape.bits(2), 1)
        assert imat.matrix.shape == (4, 4)
        assert np.array_equal(imat.row({1}, (0,)), [1, 1, 0, 0])
        assert np.array_equal(imat.row({2}, (1,)), [0, 1, 0, 1])

    def test_quantum_shape_rejected(self):
        with pytest.raises(ShapeError):
            build_interaction_matrix(SystemShape.qubits(2), 1)


class TestMonomialMap:
    def test_all_ones(self):
        imat = build_interaction_matrix(BITS3, 2)
        assert np.allclose(monomial_map(imat, np.ones(12)), np.ones(8))

    def test_zero_weight_annihilates(self):
        imat = build_interaction_matrix(BITS3, 2)
        t = np.ones(12)
        t[0] = 0.0  # row ((1,2),(0,0)) touches columns 000 and 001
        img = monomial_map(imat, t)
        assert img[0] == 0.0 and img[1] == 0.0 and np.all(img[2:] == 1.0)

    def test_product_distribution_oracle(self):
        # independence family: the image of per-unit weights is the product measure
        sh = SystemShape.bits(2)
        imat = build_interaction_matrix(sh, 1)
        p1, p2 = np.array([0.3, 0.7]), np.array([0.9, 0.1])
        t = np.array([p1[0], p1[1], p2[0], p2[1]])
        img = monomial_map(imat, t)
        want = np.kron(p1, p2)
        assert np.allclose(img, want, atol=1e-15)

    def test_negative_rejected(self):
        imat = build_interaction_matrix(BITS3, 2)
        with pytest.raises(ValueError):
            monomial_map(imat, -np.ones(12))


class TestFeasibility:
    def test_singletons_and_pairs_feasible(self):
        imat = build_interaction_matrix(BITS3, 2)
        configs = all_configs(BITS3)
        for c in configs:
            assert is_k_feasible(imat, [c])
        for pair in itertools.combinations(configs, 2):
            assert is_k_feasible(imat, pair)

    def test_named_nonfeasible_triple(self):
        imat = build_interaction_matrix(BITS3, 2)
        assert not is_k_feasible(imat, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])

    def test_cylinder_closure(self):
        imat = build_interaction_matrix(BITS3, 2)
        parity = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        assert cylinder_closure(imat, parity) == {(0, 0, 0), *parity}
        feasible = [(0, 0, 0), (1, 1, 0)]
        assert is_k_feasible(imat, feasible)
        assert cylinder_closure(imat, feasible) == frozenset(feasible)
        with pytest.raises(ValueError):
            cylinder_closure(imat, [])
        for bad in [(2, 0, 0)], [(0, 0)]:
            with pytest.raises(ShapeError):
                is_k_feasible(imat, bad)

    def test_full_support_feasible(self):
        imat = build_interaction_matrix(BITS3, 2)
        assert is_k_feasible(imat, all_configs(BITS3))

    def test_enumeration_report(self):
        rep = enumerate_feasibility(BITS3, 2, max_size=8)
        assert rep.small_sets_all_feasible
        assert rep.by_size[1] == (8, 8)
        assert rep.by_size[2] == (28, 28)
        assert rep.min_nonfeasible_size == 3
        mins = {frozenset(fam) for fam in rep.minimal_nonfeasible}
        assert frozenset({(1, 0, 0), (0, 1, 0), (0, 0, 1)}) in mins
        assert frozenset({(0, 1, 1), (1, 0, 1), (1, 1, 0)}) in mins

    def test_guard(self):
        with pytest.raises(GuardExceeded):
            enumerate_feasibility(SystemShape.bits(5), 2, max_size=32)

    def test_guard_refuses_before_building_anything(self, monkeypatch):
        def built(*args):
            raise AssertionError("work began before the guard")

        monkeypatch.setattr(factorization, "build_interaction_matrix", built)
        monkeypatch.setattr(factorization, "all_configs", built)
        tracemalloc.start()
        try:
            with pytest.raises(GuardExceeded):
                enumerate_feasibility(SystemShape.bits(40), 2, max_size=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**16
        # shape and order errors still come first
        with pytest.raises(ShapeError):
            enumerate_feasibility(SystemShape.qubits(40), 2, max_size=2)
        with pytest.raises(ValueError):
            enumerate_feasibility(SystemShape.bits(40), 41, max_size=2)

    def test_working_set_of_a_pass_near_the_guard(self):
        # an unblocked pass over the 41 490 supports holds about 12 MB
        tracemalloc.start()
        try:
            rep = enumerate_feasibility(SystemShape.bits(5), 2, max_size=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.by_size[4] == (35960, 9040)
        assert peak < 4 * 2**20


def _set_closure(imat, support):
    """Cylinder closure from sets of restrictions, one support at a time."""
    subsets = sorted({nu for nu, _ in imat.rows})
    seen = {(nu, tuple(y[i - 1] for i in nu)) for y in support for nu in subsets}
    return frozenset(
        x for x in imat.configs
        if all((nu, tuple(x[i - 1] for i in nu)) in seen for nu in subsets)
    )


def _per_support_report(shape, k, max_size):
    imat = build_interaction_matrix(shape, k)
    by_size, minimal, min_size, small_ok = {}, [], None, True
    for size in range(1, max_size + 1):
        fams = list(itertools.combinations(imat.configs, size))
        bad = [fam for fam in fams if not is_k_feasible(imat, fam)]
        by_size[size] = (len(fams), len(fams) - len(bad))
        if bad:
            small_ok = small_ok and size > k
            if min_size is None:
                min_size, minimal = size, bad
    return by_size, small_ok, min_size, minimal


ENUMERATION_CASES = [
    (BITS3, 2, 8),
    (SystemShape.bits(4), 2, 4),
    (MIXED_32, 1, 6),
    (MIXED_232, 2, 12),
]


class TestArrayEnumeration:
    @pytest.mark.parametrize("shape,k,max_size", ENUMERATION_CASES)
    def test_matches_per_support_classification(self, shape, k, max_size, monkeypatch):
        by_size, small_ok, min_size, minimal = _per_support_report(shape, k, max_size)
        # the default block, and blocks of a few supports that split every size
        for entries in (factorization.BLOCK_ENTRIES, 50):
            monkeypatch.setattr(factorization, "BLOCK_ENTRIES", entries)
            rep = enumerate_feasibility(shape, k, max_size)
            assert rep.by_size == by_size
            assert rep.small_sets_all_feasible is small_ok
            assert rep.min_nonfeasible_size == min_size
            assert rep.minimal_nonfeasible == minimal  # combinations order

    @pytest.mark.parametrize("shape,k", [(BITS3, 2), (BITS3, 1), (MIXED_32, 1), (MIXED_232, 2)])
    def test_closure_matches_set_closure(self, shape, k):
        imat = build_interaction_matrix(shape, k)
        for size in (1, 2, 3, len(imat.configs) - 1):
            for fam in itertools.combinations(imat.configs, size):
                assert cylinder_closure(imat, fam) == _set_closure(imat, fam), fam

    @pytest.mark.parametrize("shape,k", [(BITS3, 1), (BITS3, 2), (BITS3, 3),
                                         (SystemShape.bits(4), 2), (MIXED_32, 1),
                                         (MIXED_32, 2), (MIXED_232, 2)])
    def test_interaction_matrix_entrywise(self, shape, k):
        imat = build_interaction_matrix(shape, k)
        assert imat.matrix.dtype == np.int64
        want = [[int(tuple(x[i - 1] for i in nu) == y) for x in imat.configs]
                for nu, y in imat.rows]
        assert imat.matrix.tolist() == want
        subsets = list(itertools.combinations(range(1, shape.N + 1), k))
        assert sorted({nu for nu, _ in imat.rows}) == subsets


class TestIntegerKernel:
    def test_pairwise_bits_kernel_is_the_binomial(self):
        imat = build_interaction_matrix(BITS3, 2)
        ker = toric_kernel(imat)
        assert ker.shape == (1, 8)
        assert np.array_equal(ker[0], BINOMIAL)
        assert np.all(imat.matrix @ ker.T == 0)

    def test_two_bits_k2_trivial(self):
        imat = build_interaction_matrix(SystemShape.bits(2), 2)
        assert toric_kernel(imat).shape[0] == 0

    def test_random_integer_matrices_against_float_rank(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            m, n = rng.integers(2, 6), rng.integers(2, 7)
            a = rng.integers(-4, 5, size=(m, n))
            ker = integer_kernel(a)
            assert np.all(a @ ker.T == 0)
            expected_nullity = n - np.linalg.matrix_rank(a.astype(float))
            assert ker.shape[0] == expected_nullity
            if ker.shape[0]:
                assert np.linalg.matrix_rank(ker.astype(float)) == ker.shape[0]

    def test_kernel_vectors_primitive(self):
        import math

        imat = build_interaction_matrix(SystemShape.bits(4), 2)
        ker = toric_kernel(imat)
        assert np.all(imat.matrix @ ker.T == 0)
        for row in ker:
            g = 0
            for x in row:
                g = math.gcd(g, abs(int(x)))
            assert g == 1
            lead = next(x for x in row if x != 0)
            assert lead > 0


class TestToricMembership:
    def test_uniform_is_member(self):
        imat = build_interaction_matrix(BITS3, 2)
        res = check_toric_membership(np.full(8, 0.125), imat)
        assert res.is_member and not any(res.zero_support_flags)

    def test_uniform_on_two_antipodal_points(self):
        imat = build_interaction_matrix(BITS3, 2)
        p = uniform_on(BITS3, [(0, 0, 0), (1, 1, 1)]).probabilities()
        res = check_toric_membership(p, imat)
        assert res.is_member
        assert any(res.zero_support_flags)

    def test_skewed_distribution_fails(self):
        imat = build_interaction_matrix(BITS3, 2)
        p = np.arange(1, 9, dtype=float) / 36.0
        # 1*4*6*7 != 2*3*5*8, so the binomial relation is violated
        res = check_toric_membership(p, imat)
        assert not res.is_member

    def test_monomial_images_are_members(self):
        rng = np.random.default_rng(43)
        imat = build_interaction_matrix(BITS3, 2)
        for _ in range(10):
            t = rng.gamma(2.0, size=12)
            img = monomial_map(imat, t)
            img = img / img.sum()
            assert check_toric_membership(img, imat).is_member

    def test_negative_entries_rejected(self):
        imat = build_interaction_matrix(BITS3, 2)
        with pytest.raises(ValueError):
            check_toric_membership(np.array([-1.0] + [1.0] * 7), imat)
