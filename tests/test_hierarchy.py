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
    to_blocks,
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
        # a repeated element adds no rank, large model or small
        dup = dataclasses.replace(model, patterns=model.patterns + (model.patterns[1],))
        assert numerical_basis_rank(dup) == 6561
        small = build_model(SystemShape.qubits(2), hypergraph_k(2, 1))
        dup = dataclasses.replace(small, patterns=small.patterns + (small.patterns[1],))
        assert numerical_basis_rank(dup) == 7

    def test_replace_drops_the_cached_stack(self):
        # a model with other unit bases builds its own stack
        model = build_model(SystemShape.qubits(2), hypergraph_k(2, 1))
        model.basis_matrices()
        unit = model.unit_bases[0]
        other = dataclasses.replace(model, unit_bases=((*unit[:3], unit[1]), model.unit_bases[1]))
        assert np.array_equal(other.basis_matrices()[3], other.element_matrix(3))

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

    def test_classical_rank_takes_the_diagonals(self, no_dense_stack):
        # classical, mixed and quantum models certify through their unit
        # Grams, at every k
        for shape in (SystemShape.bits(4), SystemShape.classical((3, 2, 3)),
                      SystemShape((2, 3, 2), ("c", "q", "c")), SystemShape.qubits(3)):
            for k in (1, 2, shape.N):
                model = build_model(shape, hypergraph_k(shape.N, k))
                assert numerical_basis_rank(model) == model.dim_total
        model = build_model(SystemShape.bits(3), hypergraph_k(3, 2))
        dup = dataclasses.replace(model, patterns=model.patterns + (model.patterns[1],))
        assert numerical_basis_rank(dup) == model.dim_total
        # a dependent (still diagonal) unit basis: the rank of the
        # materialized elements drops, and the Gram of the patterns, formed
        # from the unit Grams, sees it
        units = (model.unit_bases[0][:1] * 2,) + model.unit_bases[1:]
        bad = dataclasses.replace(model, unit_bases=units)
        flat = np.stack([bad.element_matrix(j).reshape(-1) for j in range(bad.n_elements)])
        assert numerical_basis_rank(bad) == np.linalg.matrix_rank(flat) < model.dim_total

    def test_dependent_quantum_basis_drops_the_rank(self):
        # the quantum twin of the classical case above: a qubit basis whose
        # element 3 repeats element 1 is not diagonal, and its rank is that
        # of the materialized elements
        model = build_model(SystemShape.qubits(3), hypergraph_k(3, 2))
        unit = model.unit_bases[0]
        bad = dataclasses.replace(model, unit_bases=((unit[0], unit[1], unit[2], unit[1]),)
                                  + model.unit_bases[1:])
        flat = np.stack([bad.element_matrix(j).reshape(-1) for j in range(bad.n_elements)])
        assert numerical_basis_rank(bad) == np.linalg.matrix_rank(flat) < model.dim_total

    @pytest.mark.parametrize("order", [(0, 1, 2, 1), (0, 2, 1, 3)], ids=["repeat", "swap"])
    def test_rearranged_canonical_basis_after_canonical_models(self, order):
        # the unit spectra kept for the canonical arrays belong to their
        # order: the same arrays rearranged are a basis of their own
        models = [build_model(SystemShape.qubits(3), hypergraph_k(3, k)) for k in (1, 2, 3)]
        for model in models:
            assert numerical_basis_rank(model) == model.dim_total
        model = models[1]
        unit = model.unit_bases[0]
        bad = dataclasses.replace(model, unit_bases=(tuple(unit[i] for i in order),)
                                  + model.unit_bases[1:])
        flat = np.stack([bad.element_matrix(j).reshape(-1) for j in range(bad.n_elements)])
        assert numerical_basis_rank(bad) == np.linalg.matrix_rank(flat)

    def test_unit_spectra_are_taken_once(self, count_decompositions, monkeypatch):
        # 228 models on (2, 2, 2, 3), classical and quantum, share four unit
        # bases: one eigvalsh each, however many models certify
        monkeypatch.setattr(hierarchy, "_UNIT_SPECTRA", {})
        calls = count_decompositions()
        for kind in ("classical", "quantum"):
            shape = SystemShape((2, 2, 2, 3), (kind,) * 4)
            for hg in hierarchy.covering_hypergraphs(4):
                assert numerical_basis_rank(build_model(shape, hg)) == model_dim(shape, hg)[0]
        assert calls["eigvalsh"] == 4 and calls["eigh"] == 0

    def test_writable_basis_is_not_kept(self, monkeypatch):
        # a basis that can change under the same ids is computed every time
        monkeypatch.setattr(hierarchy, "_UNIT_SPECTRA", {})
        model = build_model(SystemShape.qubits(3), hypergraph_k(3, 2))
        unit = [a.copy() for a in model.unit_bases[0]]
        mine = dataclasses.replace(model, unit_bases=(tuple(unit),) + model.unit_bases[1:])
        assert numerical_basis_rank(mine) == model.dim_total
        unit[3][:] = unit[1]
        assert numerical_basis_rank(mine) < model.dim_total
        assert all(a is not unit[0] for entry in hierarchy._UNIT_SPECTRA.values() for a in entry[0])

    @pytest.mark.parametrize("sizes", [(2, 2, 2, 3), (3, 3, 3, 3)], ids=["2223", "3333"])
    def test_rank_certified_from_the_unit_grams(self, sizes, no_dense_stack,
                                                no_eigendecomposition):
        # nothing larger than a unit Gram (at most 9 x 9) is decomposed
        no_eigendecomposition(9)
        for kind in ("classical", "quantum"):
            shape = SystemShape(sizes, (kind,) * 4)
            for hg in hierarchy.covering_hypergraphs(4):
                assert numerical_basis_rank(build_model(shape, hg)) == model_dim(shape, hg)[0]

    def test_dependent_basis_too_large_to_decompose_raises(self):
        model = build_model(SystemShape.quantum((3, 3, 3, 3)), hypergraph_k(4, 4))
        unit = model.unit_bases[0]
        bad = dataclasses.replace(model, unit_bases=((unit[0], unit[1], unit[1]) + unit[3:],)
                                  + model.unit_bases[1:])
        with pytest.raises(RuntimeError, match="cannot certify rank"):
            numerical_basis_rank(bad)

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


def _check_against_dense_stack(shape, hg, local, seed):
    """The model's moment plan against the dense stack it replaces: with
    local False the moments and the Hamiltonian, public (dense) and in the
    block layout, and the compression onto the whole space (q = I); with
    local True the compression onto seeded faces of rank 1 and 3."""
    rng = np.random.default_rng(seed)
    model = build_model(shape, hg)
    stack = build_model(shape, hg).basis_matrices()
    plan = model._moment_plan()
    d = shape.dim
    if local:
        faces = [np.linalg.qr(rng.normal(size=(d, r)) + 1j * rng.normal(size=(d, r)))[0]
                 for r in (1, 3)]
    else:
        x = random_density(shape, rng).matrix
        want = expectation_values(x, stack)
        assert np.max(np.abs(model.moments(x) - want)) <= 1e-13
        assert np.max(np.abs(plan.moments(to_blocks(x, shape)) - want)) <= 1e-13
        theta = rng.normal(size=model.n_elements - 1)
        want = np.tensordot(theta, stack[1:], axes=(0, 0))
        assert np.max(np.abs(model.hamiltonian(theta) - want)) <= 1e-13
        assert np.max(np.abs(plan.hamiltonian(theta) - to_blocks(want, shape))) <= 1e-13
        faces = [np.eye(d)]
    for q in faces:
        want = np.einsum("ia,kij,jb->kab", q.conj(), stack, q, optimize=True)
        assert np.max(np.abs(model.compress(q) - want)) <= 1e-13
    assert model._stack is None


class TestMomentMap:
    """The model's moment plan against the dense stack it replaces."""

    @pytest.mark.parametrize("local", [False, True], ids=["default", "local"])
    @pytest.mark.parametrize("shape,hg", [c[1:] for c in _moment_map_cases()],
                             ids=[c[0] for c in _moment_map_cases()])
    def test_matches_dense_stack(self, shape, hg, local):
        _check_against_dense_stack(shape, hg, local, 7)

    def test_one_index_array(self):
        # every group's positions are a view of the plan's one flat array
        for _, shape, hg in _moment_map_cases():
            plan = build_model(shape, hg)._moment_plan()
            assert all(np.shares_memory(grp.pos, plan.pos) for grp in plan.groups)
            assert sum(grp.pos.size for grp in plan.groups) == plan.pos.size

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


def _classical_cases():
    cases = [(f"b{n}-k{k}", SystemShape.bits(n), hypergraph_k(n, k))
             for n in (3, 4) for k in range(1, n + 1)]
    # maximal sets of different sizes on units of different sizes
    mixed = SystemShape.classical((3, 2, 2))
    cases += [(f"c322-{'-'.join(''.join(map(str, a)) for a in hg.maximal_sets)}", mixed, hg)
              for hg in _all_covering_hypergraphs(3)]
    return cases


class TestDiagonalMaps:
    """The moment plan's check on all-classical shapes, whose block layout
    is the diagonal: d blocks of 1 x 1."""

    @pytest.mark.parametrize("shape,hg", [c[1:] for c in _classical_cases()],
                             ids=[c[0] for c in _classical_cases()])
    def test_matches_dense_stack(self, shape, hg):
        for local in (False, True):
            _check_against_dense_stack(shape, hg, local, 8)


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
