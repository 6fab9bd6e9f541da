import dataclasses
import itertools

import numpy as np
import pytest

from hiercorr import hierarchy
from hiercorr.algebra import (
    ShapeError,
    SystemShape,
    classical_unit_basis,
    expectation_values,
    hermitize_basis,
    matrix_fourier_basis,
)
from hiercorr.hierarchy import (
    HypergraphError,
    build_model,
    downward_closure,
    full_model,
    hypergraph_k,
    independence_hypergraph,
    is_independence,
    model_dim,
    numerical_basis_rank,
    pure_factor_dim,
    validate_hypergraph,
)
from hiercorr.states import random_density


class TestHypergraphValidation:
    def test_independence_structure_valid(self):
        hg = validate_hypergraph(2, [set(), {1}, {2}])
        assert frozenset({1}) in hg.sets and frozenset() in hg.sets

    def test_missing_subset_rejected(self):
        # complete power set on two units is fine
        validate_hypergraph(2, [set(), {1}, {2}, {1, 2}])
        # dropping the singleton {2} breaks downward closure
        with pytest.raises(HypergraphError, match="downward closed"):
            validate_hypergraph(2, [set(), {1}, {1, 2}])

    def test_covering_required(self):
        with pytest.raises(HypergraphError, match="not covered"):
            validate_hypergraph(3, [set(), {1}, {2}])

    def test_out_of_range_unit(self):
        with pytest.raises(HypergraphError, match="outside"):
            validate_hypergraph(2, [set(), {1}, {2}, {3}])

    def test_generators_closure(self):
        hg = validate_hypergraph(3, [{1, 2}, {2, 3}], generators=True)
        want = {
            frozenset(),
            frozenset({1}),
            frozenset({2}),
            frozenset({3}),
            frozenset({1, 2}),
            frozenset({2, 3}),
        }
        assert hg.sets == frozenset(want)
        assert hg.maximal_sets == [(1, 2), (2, 3)]

    def test_downward_closure_helper(self):
        fam = downward_closure(3, [{1, 3}])
        assert frozenset({1}) in fam and frozenset({3}) in fam and frozenset() in fam
        assert frozenset({2}) not in fam


class TestKBodyFamilies:
    def test_sizes(self):
        hg = hypergraph_k(4, 2)
        by_len = {}
        for v in hg.sets:
            by_len[len(v)] = by_len.get(len(v), 0) + 1
        assert by_len == {0: 1, 1: 4, 2: 6}

    def test_independence(self):
        hg = independence_hypergraph(3)
        assert is_independence(hg)
        assert not is_independence(hypergraph_k(3, 2))

    def test_nested_families(self):
        assert hypergraph_k(3, 1) <= hypergraph_k(3, 2) <= hypergraph_k(3, 3)

    def test_bad_k(self):
        with pytest.raises(HypergraphError):
            hypergraph_k(3, 0)
        with pytest.raises(HypergraphError):
            hypergraph_k(3, 4)


class TestDimensions:
    def test_pure_factor_examples(self):
        assert pure_factor_dim(SystemShape.qubits(2), set()) == 1
        assert pure_factor_dim(SystemShape.qubits(2), {1, 2}) == 9
        assert pure_factor_dim(SystemShape.bits(2), {1, 2}) == 1
        assert pure_factor_dim(SystemShape((2, 3), ("classical", "quantum")), {1, 2}) == 8

    def test_model_dim_examples(self):
        # two qubits, independence: 1 + 3 + 3
        assert model_dim(SystemShape.qubits(2), independence_hypergraph(2)) == (7, 6)
        # three qubits, pairwise family: 1 + 3*3 + 3*9
        assert model_dim(SystemShape.qubits(3), hypergraph_k(3, 2)) == (37, 36)
        # three bits, independence
        assert model_dim(SystemShape.bits(3), independence_hypergraph(3)) == (4, 3)

    def test_independence_dims_formula(self):
        for N in (2, 3, 4):
            for n in (2, 3):
                cl = model_dim(SystemShape.classical((n,) * N), independence_hypergraph(N))
                qu = model_dim(SystemShape.quantum((n,) * N), independence_hypergraph(N))
                assert cl[1] == N * (n - 1)
                assert qu[1] == N * (n * n - 1)


def _all_covering_hypergraphs(N):
    """Enumerate every downward-closed covering family on 1..N via maximal antichains."""
    universe = [frozenset(c) for r in range(1, N + 1) for c in itertools.combinations(range(1, N + 1), r)]
    out = []
    for bits in itertools.product([0, 1], repeat=len(universe)):
        chosen = [v for v, b in zip(universe, bits) if b]
        if not chosen:
            continue
        # antichain, and covering
        if any(a < b for a in chosen for b in chosen):
            continue
        if set().union(*chosen) != set(range(1, N + 1)):
            continue
        out.append(validate_hypergraph(N, chosen, generators=True))
    return out


class TestModelBasis:
    def test_identity_first(self):
        model = build_model(SystemShape.qubits(2), independence_hypergraph(2))
        d = model.shape.dim
        assert np.allclose(model.element_matrix(0), np.eye(d) / np.sqrt(d))
        assert model.patterns[0] == (0, 0)

    def test_basis_gram_identity(self):
        model = build_model(SystemShape.qubits(3), hypergraph_k(3, 2))
        stack = model.basis_matrices()
        m = model.n_elements
        g = np.einsum("aij,bij->ab", stack, stack.conj()).real
        assert np.max(np.abs(g - np.eye(m))) < 1e-12

    def test_element_supports(self):
        model = build_model(SystemShape.bits(3), hypergraph_k(3, 2))
        sups = [model.element_support(j) for j in range(model.n_elements)]
        assert sups[0] == ()
        assert set(sups) == {(), (1,), (2,), (3,), (1, 2), (1, 3), (2, 3)}

    def test_rank_matches_dims_small(self):
        for shape, hg in [
            (SystemShape.bits(3), hypergraph_k(3, 2)),
            (SystemShape.qubits(2), independence_hypergraph(2)),
            (SystemShape((2, 3), ("classical", "quantum")), hypergraph_k(2, 2)),
        ]:
            model = build_model(shape, hg)
            assert numerical_basis_rank(model) == model.dim_total

    def test_dense_rank_leaves_no_stack_behind(self):
        model = build_model(SystemShape.quantum((2, 2, 2, 3)), hypergraph_k(4, 2))
        assert numerical_basis_rank(model) == model.dim_total
        assert model._stack is None

    def test_stack_matches_element_matrices(self):
        model = build_model(SystemShape((2, 3, 2), ("c", "q", "c")), hypergraph_k(3, 2))
        stack = model.basis_matrices()
        for j in range(model.n_elements):
            assert np.array_equal(stack[j], model.element_matrix(j))

    def test_rank_certification_large(self):
        # too big to materialize densely: certified through the per-unit Grams
        model = build_model(SystemShape.quantum((3, 3, 3, 3)), hypergraph_k(4, 4))
        assert model.dim_total == 6561
        with pytest.raises(MemoryError):
            model.basis_matrices()
        assert numerical_basis_rank(model) == 6561
        # a repeated element adds no rank, on either branch
        dup = dataclasses.replace(model, patterns=model.patterns + (model.patterns[1],))
        assert numerical_basis_rank(dup) == 6561
        small = build_model(SystemShape.qubits(2), hypergraph_k(2, 1))
        dup = dataclasses.replace(small, patterns=small.patterns + (small.patterns[1],))
        assert numerical_basis_rank(dup) == 7

    def test_equal_units_share_read_only_bases(self):
        a = build_model(SystemShape((2, 3, 2), ("c", "q", "c")), hypergraph_k(3, 2))
        b = build_model(SystemShape((3, 2), ("q", "c")), hypergraph_k(2, 1))
        assert all(x is y for x, y in zip(a.unit_bases[1], b.unit_bases[0]))
        assert all(x is y for x, y in zip(a.unit_bases[0], a.unit_bases[2]))
        assert all(x is y for x, y in zip(a.unit_bases[0], b.unit_bases[1]))
        with pytest.raises(ValueError):
            a.unit_bases[1][1][0, 0] = 0.0

    @pytest.mark.parametrize(
        "shape",
        [SystemShape.qubits(3), SystemShape.quantum((3, 3, 3)),
         SystemShape((2, 3, 2), ("c", "q", "c"))],
        ids=["q3", "t3", "cqc-232"],
    )
    def test_shared_bases_give_the_same_stack(self, shape):
        # against bases built afresh for this model alone
        model = build_model(shape, hypergraph_k(3, 2))
        fresh = tuple(
            tuple(classical_unit_basis(n) if kind == "classical"
                  else hermitize_basis(matrix_fourier_basis(n)))
            for n, kind in zip(shape.sizes, shape.kinds)
        )
        alone = dataclasses.replace(model, unit_bases=fresh)
        assert np.array_equal(model.basis_matrices(), alone.basis_matrices())

    def test_nested_models_share_elements(self):
        shape = SystemShape.qubits(3)
        small = build_model(shape, hypergraph_k(3, 1))
        big = build_model(shape, hypergraph_k(3, 2))
        big_pats = set(big.patterns)
        assert all(p in big_pats for p in small.patterns)
        # numeric nesting: every small element lies in the span of the big stack
        stack = big.basis_matrices()
        for j in range(small.n_elements):
            e = small.element_matrix(j)
            coeff = expectation_values(e, stack)
            recon = np.tensordot(coeff, stack, axes=1)
            assert np.max(np.abs(recon - e)) < 1e-12

    def test_full_model_spans_algebra(self):
        sh = SystemShape((2, 2), ("classical", "quantum"))
        model = full_model(sh)
        assert model.dim_total == sh.algebra_dim == 8
        assert numerical_basis_rank(model) == 8


def _moment_map_cases():
    cases = [(f"q{n}-k{k}", SystemShape.qubits(n), hypergraph_k(n, k))
             for n in (3, 4, 5) for k in range(1, n)]
    cases += [(f"t3-k{k}", SystemShape.quantum((3, 3, 3)), hypergraph_k(3, k)) for k in (1, 2)]
    cqc = SystemShape((2, 3, 2), ("c", "q", "c"))
    cases += [(f"cqc-232-k{k}", cqc, hypergraph_k(3, k)) for k in (1, 2)]
    cqcq = SystemShape((2, 2, 2, 2), ("c", "q", "c", "q"))
    cases += [(f"cqcq-2222-k{k}", cqcq, hypergraph_k(4, k)) for k in (1, 2, 3)]
    # maximal sets of different sizes and overlaps on units of different sizes and kinds
    mixed = SystemShape((3, 2, 2), ("q", "c", "q"))
    cases += [(f"qcq-322-{'-'.join(''.join(map(str, a)) for a in hg.maximal_sets)}", mixed, hg)
              for hg in _all_covering_hypergraphs(3)]
    return cases


class TestMomentMap:
    """The model's moment plan against the dense stack it replaces."""

    # default: moments, Hamiltonian and the compression onto the whole space
    # (q = I); local: the compression onto seeded faces of rank 1 and 3
    @pytest.mark.parametrize("local", [False, True], ids=["default", "local"])
    @pytest.mark.parametrize("shape,hg", [c[1:] for c in _moment_map_cases()],
                             ids=[c[0] for c in _moment_map_cases()])
    def test_matches_dense_stack(self, shape, hg, local):
        rng = np.random.default_rng(7)
        model = build_model(shape, hg)
        stack = build_model(shape, hg).basis_matrices()
        d = shape.dim
        if local:
            faces = [np.linalg.qr(rng.normal(size=(d, r)) + 1j * rng.normal(size=(d, r)))[0]
                     for r in (1, 3)]
        else:
            x = random_density(shape, rng).matrix
            assert np.max(np.abs(model.moments(x) - expectation_values(x, stack))) <= 1e-13
            theta = rng.normal(size=model.n_elements - 1)
            want = np.tensordot(theta, stack[1:], axes=(0, 0))
            assert np.max(np.abs(model.hamiltonian(theta) - want)) <= 1e-13
            faces = [np.eye(d)]
        for q in faces:
            want = np.einsum("ia,kij,jb->kab", q.conj(), stack, q, optimize=True)
            assert np.max(np.abs(model.compress(q) - want)) <= 1e-13
        assert model._stack is None

    def test_compression_guard(self):
        # 8 qubits at k=2 on the whole space: 277 x 256 x 256 entries
        model = build_model(SystemShape.qubits(8), hypergraph_k(8, 2))
        assert model.n_elements * 256**2 > hierarchy.STACK_GUARD
        with pytest.raises(MemoryError, match="materialization guard"):
            model.compress(np.eye(256))
        assert model.compress(np.eye(256)[:, :2]).shape == (model.n_elements, 2, 2)

    @pytest.mark.parametrize("n", [3, 4])
    def test_rejects_wrong_matrix_size(self, n):
        model = build_model(SystemShape.qubits(n), hypergraph_k(n, 2))
        d = model.shape.dim
        for size in (d - 1, d + 1):
            with pytest.raises(ShapeError):
                model.moments(np.eye(size) / size)
        with pytest.raises(ShapeError):
            model.moments(np.ones(d * d) / d)
        for q in (np.eye(d + 1)[:, :2], np.eye(d - 1)[:, :2], np.ones(d)):
            with pytest.raises(ShapeError):
                model.compress(q)

    def test_rejects_wrong_parameter_count(self):
        model = build_model(SystemShape.qubits(4), hypergraph_k(4, 2))
        with pytest.raises(ValueError, match="parameter count"):
            model.hamiltonian(np.zeros(model.n_elements))


class TestExhaustiveDims:
    def test_all_hypergraphs_n_le_3(self):
        for N in (1, 2, 3):
            for hg in _all_covering_hypergraphs(N):
                for kinds in itertools.product(["classical", "quantum"], repeat=N):
                    shape = SystemShape((2,) * N, kinds)
                    model = build_model(shape, hg)
                    want = sum(pure_factor_dim(shape, v) for v in hg.sets)
                    assert model.dim_total == want
                    assert numerical_basis_rank(model) == want


class TestCoveringEnumeration:
    def test_matches_independent_enumerator(self):
        from hiercorr.hierarchy import covering_hypergraphs

        for n in (1, 2, 3):
            lib = {hg.sets for hg in covering_hypergraphs(n)}
            ref = {hg.sets for hg in _all_covering_hypergraphs(n)}
            assert lib == ref

    def test_counts(self):
        from hiercorr.hierarchy import covering_hypergraphs

        assert sum(1 for _ in covering_hypergraphs(4)) == 114
        # antichains of the nonempty subsets of a 5-set that cover it (OEIS A006126)
        assert sum(1 for _ in covering_hypergraphs(5)) == 6894

    def test_order_follows_generator_bitmask(self):
        from hiercorr.hierarchy import covering_hypergraphs

        for n in (3, 4):
            subsets = [frozenset(v) for r in range(1, n + 1)
                       for v in itertools.combinations(range(1, n + 1), r)]
            masks = [sum(1 << subsets.index(frozenset(g)) for g in hg.maximal_sets)
                     for hg in covering_hypergraphs(n)]
            assert masks == sorted(masks)
            assert len(set(masks)) == len(masks)
