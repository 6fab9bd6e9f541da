import itertools
import tracemalloc

import numpy as np
import pytest

from hiercorr.algebra import (
    PSD_ATOL,
    HermitianObservable,
    ShapeError,
    State,
    SystemShape,
    _block_rows,
    _spectrum,
    algebra_mask,
    block_layout,
    classical_unit_basis,
    expectation_values,
    from_blocks,
    gibbs_map,
    gibbs_with_log_partition,
    hermitize_basis,
    marginal,
    matrix_fourier_basis,
    relative_entropy,
    tensor,
    to_blocks,
    unit_hermitian_basis,
    von_neumann_entropy,
)
from hiercorr.states import (
    all_configs,
    basis_state,
    bell_state,
    ghz_state,
    maximally_mixed,
    random_density,
    random_pure,
    uniform_on,
)


def _independent_partial_trace(mat, sizes, keep):
    """Reference partial trace via explicit einsum index strings."""
    N = len(sizes)
    t = mat.reshape(*sizes, *sizes)
    letters = "abcdefghijklmnopqrstuvwx"
    row = list(letters[:N])
    col = [letters[N + i] if i in keep else letters[i] for i in range(N)]
    out = "".join(letters[i] for i in keep) + "".join(letters[N + i] for i in keep)
    t = np.einsum("".join(row + col) + "->" + out, t)
    dk = int(np.prod([sizes[i] for i in keep])) if keep else 1
    return t.reshape(dk, dk)


class TestShapes:
    def test_valid_shape(self):
        sh = SystemShape((2, 3), ("classical", "quantum"))
        assert sh.N == 2 and sh.dim == 6
        assert sh.unit_algebra_dim(1) == 2
        assert sh.unit_algebra_dim(2) == 9
        assert sh.algebra_dim == 18

    def test_kind_shorthand(self):
        sh = SystemShape((2, 2), ("c", "q"))
        assert sh.kinds == ("classical", "quantum")

    def test_bad_shapes(self):
        with pytest.raises(ShapeError):
            SystemShape((), ())
        with pytest.raises(ShapeError):
            SystemShape((0,), ("classical",))
        with pytest.raises(ShapeError):
            SystemShape((2,), ("thermal",))
        with pytest.raises(ShapeError):
            SystemShape((2, 2), ("classical",))


class TestStateValidation:
    def test_rejects_non_hermitian(self):
        m = np.array([[0.5, 0.1], [0.0, 0.5]], dtype=complex)
        for cls in (State, HermitianObservable):
            with pytest.raises(ShapeError, match="not hermitian"):
                cls(SystemShape.qubits(1), m)

    def test_rejects_bad_trace(self):
        with pytest.raises(ShapeError):
            State(SystemShape.qubits(1), np.eye(2, dtype=complex))

    def test_rejects_negative(self):
        m = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(ShapeError):
            State(SystemShape.qubits(1), m)

    def test_rejects_off_block_classical(self):
        m = np.full((2, 2), 0.5, dtype=complex)
        for cls in (State, HermitianObservable):
            with pytest.raises(ShapeError, match="outside the classical block"):
                cls(SystemShape.bits(1), m)
            # the same matrix is a fine qubit state and observable
            cls(SystemShape.qubits(1), m)

    def test_rejects_wrong_size(self):
        for cls in (State, HermitianObservable):
            with pytest.raises(ShapeError, match="shape demands"):
                cls(SystemShape.qubits(2), np.eye(2, dtype=complex) / 2)

    def test_probabilities_roundtrip(self):
        sh = SystemShape.bits(2)
        p = np.array([0.1, 0.2, 0.3, 0.4])
        st = State.from_probabilities(sh, p)
        assert np.allclose(st.probabilities(), p)

    # least diagonal entry, and whether a row (Gershgorin) bound on the dense
    # matrix falls below PSD_ATOL, where it cannot decide without the spectrum
    @pytest.mark.parametrize("low, deferred", [
        (0.0, False), (-5e-11, False), (-9.99e-11, True), (-2e-10, True),
    ])
    def test_classical_bound_keeps_the_spectrum_decision(self, low, deferred, count_decompositions):
        # off-diagonal dust of 1e-13, within the block-structure tolerance:
        # the state keeps its 1 x 1 blocks, whose entries are its eigenvalues,
        # and decides as the dense spectrum does without taking it
        mat = np.full((4, 4), 1e-13) + np.diag(np.array([low, 0.3, 0.3, 0.4 - low]) - 1e-13)
        accept = float(np.linalg.eigvalsh(mat)[0]) >= PSD_ATOL
        diag = np.diag(mat)
        assert (np.min(diag + np.abs(diag) - np.abs(mat).sum(axis=1)) < PSD_ATOL) == deferred
        calls = count_decompositions()
        if accept:
            st = State(SystemShape.bits(2), mat)
            assert np.array_equal(st.matrix, np.diag(diag))  # stored pinched
        else:
            with pytest.raises(ShapeError, match="eigenvalue"):
                State(SystemShape.bits(2), mat)
        assert accept == (low >= -1e-10)
        assert calls["eigvalsh"] == calls["eigh"] == 0

    @pytest.mark.parametrize("shape", [
        SystemShape.qubits(3), SystemShape.quantum((3, 3, 3)), SystemShape.bits(3),
        SystemShape((2, 2, 2, 2), ("c", "q", "c", "q")), SystemShape((2, 3, 2), ("c", "q", "c")),
    ], ids=["q3", "t3", "b3", "cqcq-2222", "cqc-232"])
    def test_matrix_is_the_hermitized_input(self, shape):
        rng = np.random.default_rng(35)
        d = shape.dim
        mask = algebra_mask(shape)
        noise = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        # a state with non-hermitian dust inside the algebra and dust outside
        mat = random_density(shape, rng).matrix + 1e-13 * np.where(mask, noise, noise.real)
        st = State(shape, mat)
        assert np.array_equal(st.matrix, np.where(mask, 0.5 * (mat + mat.conj().T), 0.0))
        assert st.matrix is st.matrix  # built once
        for arr in (st.matrix, st.blocks):
            with pytest.raises(ValueError):
                arr[(0,) * arr.ndim] = 1.0
        # an all-quantum state's matrix is its one block
        assert np.shares_memory(st.matrix, st.blocks) == shape.all_quantum

    def test_large_dense_matrix_is_refused(self):
        # 13 bits: the dense matrix would be 8192 x 8192 complex entries, 1 GB
        st = State.from_probabilities(SystemShape.bits(13), np.full(2**13, 2.0**-13))
        tracemalloc.start()
        try:
            with pytest.raises(MemoryError, match="materialization guard"):
                st.matrix
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_states_validate_on_their_blocks(self, no_eigendecomposition):
        rng = np.random.default_rng(36)
        p = rng.dirichlet(np.ones(16))
        mixed = SystemShape((2, 2, 2, 2), ("c", "q", "c", "q"))
        mat = random_density(mixed, rng).matrix
        no_eigendecomposition(4)  # d_Q: the blocks, not d x d
        State(mixed, mat)
        random_density(mixed, rng, rank=5)
        State.from_probabilities(mixed, p)
        no_eigendecomposition(0)
        bits = SystemShape.bits(4)
        State.from_probabilities(bits, p)
        State(bits, np.diag(p))
        random_density(bits, rng, rank=3)
        q = p + np.eye(16)[1] * (p[0] + 1e-9) - np.eye(16)[0] * (p[0] + 1e-9)
        with pytest.raises(ShapeError, match="eigenvalue -1.00e-09"):
            State(bits, np.diag(q))


    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("rank", [None, 2], ids=["full", "rank2"])
    @pytest.mark.parametrize("shape", [
        SystemShape((2, 2, 2, 2), ("c", "q", "c", "q")),
        SystemShape((2, 3, 2), ("q", "c", "q")),
        SystemShape((2,) * 6, ("c", "q") * 3),
    ], ids=["cqcq-2222", "qcq-232", "cq-x3"])
    def test_random_density_keeps_its_draws(self, shape, rank, seed):
        # seeded inputs of the tests and the benchmark: the dense (d, r)
        # Gaussian factor M, its rows gathered by block, f f^H / tr
        rng = np.random.default_rng(seed)
        d = shape.dim
        r = d if rank is None else rank
        f = (rng.normal(size=(d, r)) + 1j * rng.normal(size=(d, r)))[_block_rows(shape)]
        x = f @ f.conj().transpose(0, 2, 1)
        x = x / np.trace(x, axis1=1, axis2=2).real.sum()
        want = 0.5 * (x + x.conj().transpose(0, 2, 1))
        got = random_density(shape, np.random.default_rng(seed), rank=rank).blocks
        assert got.tobytes() == want.tobytes()


class TestTensor:
    def test_trace_multiplicativity_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            t = tensor(a, b)
            assert t.shape == (6, 6)
            assert abs(np.trace(t) - np.trace(a) * np.trace(b)) < 1e-12

    def test_associativity(self):
        rng = np.random.default_rng(8)
        a, b, c = (rng.normal(size=(2, 2)) for _ in range(3))
        assert np.allclose(tensor(tensor(a, b), c), tensor(a, b, c))

    def test_entrywise_example(self):
        a = np.array([[1, 2], [3, 4]], dtype=complex)
        b = np.eye(2, dtype=complex)
        expect = np.array(
            [[1, 0, 2, 0], [0, 1, 0, 2], [3, 0, 4, 0], [0, 3, 0, 4]], dtype=complex
        )
        assert np.array_equal(tensor(a, b), expect)


class TestMarginal:
    def test_bell_marginals_are_maximally_mixed(self):
        rho = bell_state(1)
        for unit in (1, 2):
            m = marginal(rho, {unit})
            assert np.allclose(m.matrix, np.eye(2) / 2, atol=1e-12)

    def test_product_state_marginal(self):
        rng = np.random.default_rng(3)
        r1 = random_density(SystemShape.qubits(1), rng)
        r2 = random_density(SystemShape.qubits(1), rng)
        joint = State(SystemShape.qubits(2), tensor(r1, r2))
        assert np.allclose(marginal(joint, {2}).matrix, r2.matrix, atol=1e-12)

    def test_ghz_pair_marginal_oracle(self):
        rho = ghz_state(3)
        got = marginal(rho, {1, 2}).matrix
        want = _independent_partial_trace(rho.matrix, (2, 2, 2), [0, 1])
        assert np.allclose(got, want, atol=1e-13)
        # the two-party reduction of the GHZ state is the classically correlated pair
        target = np.zeros((4, 4), dtype=complex)
        target[0, 0] = target[3, 3] = 0.5
        assert np.allclose(got, target, atol=1e-12)
        # every unit subset of seeded states: the marginal is taken on the
        # block array, the oracle traces the dense matrix
        rng = np.random.default_rng(37)
        for shape in (SystemShape.qubits(3), SystemShape.quantum((3, 3, 3)), SystemShape.bits(4),
                      SystemShape((2, 2, 2, 2), ("c", "q", "c", "q")),
                      SystemShape((2, 3, 2), ("q", "c", "q"))):
            rho = random_density(shape, rng)
            for r in range(shape.N + 1):
                for keep in itertools.combinations(range(shape.N), r):
                    m = marginal(rho, [i + 1 for i in keep])
                    want = _independent_partial_trace(rho.matrix, shape.sizes, list(keep))
                    assert np.max(np.abs(m.matrix - want)) <= 1e-14
                    assert m.shape.kinds == (tuple(shape.kinds[i] for i in keep) or ("classical",))

    def test_trace_preserved_and_nesting(self):
        rng = np.random.default_rng(5)
        rho = random_density(SystemShape.quantum((2, 3, 2)), rng)
        m13 = marginal(rho, {1, 3})
        assert abs(np.trace(m13.matrix) - 1) < 1e-12
        # marginal of a marginal equals the marginal of the intersection;
        # unit 3 sits at position 2 of the sub-system (1, 3)
        m3_direct = marginal(rho, {3})
        m3_nested = marginal(m13, {2})
        assert np.allclose(m3_direct.matrix, m3_nested.matrix, atol=1e-12)

    def test_empty_marginal_is_scalar_one(self):
        rho = bell_state(2)
        m = marginal(rho, set())
        assert m.matrix.shape == (1, 1)
        assert abs(m.matrix[0, 0] - 1) < 1e-14

    def test_bad_unit_raises(self):
        with pytest.raises(ShapeError):
            marginal(bell_state(1), {3})


class TestEntropy:
    def test_pure_state_zero(self):
        assert von_neumann_entropy(ghz_state(3)) == pytest.approx(0.0, abs=1e-12)

    def test_uniform_log_d(self):
        for d, sh in ((4, SystemShape.qubits(2)), (8, SystemShape.bits(3))):
            st = maximally_mixed(sh)
            assert von_neumann_entropy(st) == pytest.approx(np.log(d), abs=1e-12)

    @pytest.mark.parametrize("shape", [
        SystemShape.qubits(3), SystemShape.quantum((3, 3, 3)), SystemShape.bits(4),
        SystemShape((2, 2, 2, 2), ("c", "q", "c", "q")), SystemShape((2, 3, 2), ("q", "c", "q")),
    ], ids=["q3", "t3", "b4", "cqcq-2222", "qcq-232"])
    def test_maximally_mixed_matches_the_dense_identity(self, shape):
        d = shape.dim
        dense = State(shape, np.eye(d, dtype=complex) / d)
        got = maximally_mixed(shape)
        assert got.blocks.dtype == dense.blocks.dtype
        assert got.blocks.tobytes() == dense.blocks.tobytes()

    @pytest.mark.parametrize("shape", [SystemShape.bits(n) for n in range(3, 9)]
                             + [SystemShape.classical((3, 2, 2))],
                             ids=[f"b{n}" for n in range(3, 9)] + ["c322"])
    def test_basis_states_match_the_dense_outer_product(self, shape):
        d = shape.dim
        for config in all_configs(shape)[::max(1, d // 16)] + [all_configs(shape)[-1]]:
            got = basis_state(shape, config)
            v = np.zeros(d, dtype=complex)
            v[np.ravel_multi_index(config, shape.sizes)] = 1.0
            dense = State(shape, np.outer(v, v.conj()))
            assert got.blocks.dtype == dense.blocks.dtype
            assert got.blocks.tobytes() == dense.blocks.tobytes()
        # a superposition is not a state of a classical shape, as before
        v = np.zeros(d, dtype=complex)
        v[[0, -1]] = 1.0
        with pytest.raises(ShapeError, match="outside the classical block structure"):
            State.pure(shape, v)

    @pytest.mark.parametrize("shape", [SystemShape.quantum((2, 3)),
                                       SystemShape((2, 3, 2), ("c", "q", "c")),
                                       SystemShape((2,) * 6, ("c", "q") * 3),
                                       SystemShape.qubits(3)],
                             ids=["q23", "cqc-232", "cq-x3", "q3"])
    def test_pure_states_match_the_dense_outer_product(self, shape):
        # block c is v_c v_c^H, with no d x d matrix
        rng = np.random.default_rng(16)
        d = shape.dim
        v = np.zeros(d, dtype=complex)
        rows = algebra_mask(shape)[0]  # the configurations of the first block
        v[rows] = rng.normal(size=rows.sum()) + 1j * rng.normal(size=rows.sum())
        got = State.pure(shape, v)
        u = v / np.linalg.norm(v)  # as State.pure normalizes
        dense = State(shape, np.outer(u, u.conj()))
        assert got.blocks.dtype == dense.blocks.dtype
        assert got.blocks.tobytes() == dense.blocks.tobytes()
        if shape.all_quantum:
            return
        # weight on two blocks is refused with the dense constructor's message
        v[~rows] = 1.0
        u = v / np.linalg.norm(v)
        messages = []
        for make in (lambda: State(shape, np.outer(u, u.conj())), lambda: State.pure(shape, v)):
            with pytest.raises(ShapeError, match="outside the classical block structure") as err:
                make()
            messages.append(str(err.value))
        assert messages[0] == messages[1]

    @pytest.mark.parametrize("shape", [SystemShape.qubits(3), SystemShape.bits(4),
                                       SystemShape((2, 3, 2), ("c", "q", "c"))],
                             ids=["q3", "b4", "cqc-232"])
    def test_spectrum_comes_from_validation(self, shape, count_decompositions):
        rho = random_density(shape, np.random.default_rng(17))
        calls = count_decompositions()
        w = rho.spectrum
        assert calls["eigvalsh"] == 0
        assert w.dtype == _spectrum(rho.blocks).dtype
        assert w.tobytes() == _spectrum(rho.blocks).tobytes()
        assert not w.flags.writeable and rho.spectrum is w
        with pytest.raises(ValueError):
            w[0] = 0.0
        # a state made without validation takes its spectrum on first access
        lazy = State._trusted(shape, rho.blocks)
        assert lazy.spectrum.tobytes() == w.tobytes() and not lazy.spectrum.flags.writeable

    def test_half_half(self):
        m = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
        st = State(SystemShape.qubits(2), m)
        assert von_neumann_entropy(st) == pytest.approx(np.log(2), abs=1e-12)

    def test_concavity_spot(self):
        rng = np.random.default_rng(11)
        sh = SystemShape.qubits(2)
        a = random_density(sh, rng)
        b = random_density(sh, rng)
        mix = State(sh, 0.5 * (a.matrix + b.matrix))
        assert von_neumann_entropy(mix) >= 0.5 * (
            von_neumann_entropy(a) + von_neumann_entropy(b)
        ) - 1e-12


class TestRelativeEntropy:
    def test_zero_iff_equal(self):
        rng = np.random.default_rng(13)
        rho = random_density(SystemShape.qubits(2), rng)
        assert relative_entropy(rho, rho) == pytest.approx(0.0, abs=1e-12)

    def test_pure_vs_uniform(self):
        rho = ghz_state(2)
        sig = maximally_mixed(SystemShape.qubits(2))
        assert relative_entropy(rho, sig) == pytest.approx(np.log(4), abs=1e-12)

    def test_infinite_on_kernel(self):
        sh = SystemShape.qubits(1)
        rho = State(sh, np.diag([1.0, 0.0]).astype(complex))
        sig = State(sh, np.diag([0.0, 1.0]).astype(complex))
        assert relative_entropy(rho, sig) == float("inf")

    def test_nonnegative_random(self):
        rng = np.random.default_rng(17)
        sh = SystemShape.qubits(2)
        for _ in range(25):
            a = random_density(sh, rng)
            b = random_density(sh, rng)
            assert relative_entropy(a, b) >= 0.0

    def test_classical_matches_kl(self):
        rng = np.random.default_rng(19)
        sh = SystemShape.bits(3)
        p = rng.dirichlet(np.ones(8))
        q = rng.dirichlet(np.ones(8))
        a = State.from_probabilities(sh, p)
        b = State.from_probabilities(sh, q)
        kl = float(np.sum(p * (np.log(p) - np.log(q))))
        assert relative_entropy(a, b) == pytest.approx(kl, abs=1e-10)

    def test_finite_when_rho_avoids_the_kernel(self):
        # sigma has a kernel in a rotated basis; rho lives on sigma's support
        rng = np.random.default_rng(23)
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        u, _ = np.linalg.qr(g)
        q = np.array([0.0, 0.2, 0.3, 0.5])
        p = np.array([0.0, 0.0, 0.4, 0.6])
        sh = SystemShape.qubits(2)
        a = State(sh, (u * p) @ u.conj().T)
        b = State(sh, (u * q) @ u.conj().T)
        kl = float(np.sum(p[2:] * np.log(p[2:] / q[2:])))
        assert relative_entropy(a, b) == pytest.approx(kl, abs=1e-12)
        assert relative_entropy(b, a) == float("inf")


    @pytest.mark.parametrize("shape", [
        SystemShape.qubits(3), SystemShape.quantum((3, 3, 3)), SystemShape.bits(4),
        SystemShape((2, 2, 2, 2), ("c", "q", "c", "q")), SystemShape((2, 3, 2), ("q", "c", "q")),
    ], ids=["q3", "t3", "b4", "cqcq-2222", "qcq-232"])
    def test_states_match_their_dense_matrices(self, shape):
        # States go block by block, matrices as one block: the same divergence,
        # +inf where rho charges a kernel of sigma
        rng = np.random.default_rng(38)
        full = [random_density(shape, rng) for _ in range(2)]
        low = [random_density(shape, rng, rank=2) for _ in range(2)]
        infinite = 0
        for a, b in itertools.product(full + low, repeat=2):
            got, want = relative_entropy(a, b), relative_entropy(a.matrix, b.matrix)
            if want == float("inf"):
                infinite += 1
                assert got == want
            else:
                assert abs(got - want) <= 1e-13
        assert infinite == 6  # every pair with a rank-2 sigma but sigma itself


class TestGibbsMap:
    def test_zero_gives_uniform(self):
        out = gibbs_map(np.zeros((4, 4)))
        assert np.allclose(out, np.eye(4) / 4, atol=1e-14)

    def test_scalar_oracle(self):
        # exp(log 3) / (exp(log 3) + exp(0)) = 3/4
        out = gibbs_map(np.diag([np.log(3.0), 0.0]))
        assert np.allclose(out, np.diag([0.75, 0.25]), atol=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(23)
        a = rng.normal(size=(4, 4))
        a = a + a.T
        assert np.allclose(gibbs_map(a), gibbs_map(a + 7.3 * np.eye(4)), atol=1e-12)

    def test_log_recovers_up_to_identity(self):
        rng = np.random.default_rng(29)
        a = rng.normal(size=(3, 3))
        a = a + a.T
        rho = gibbs_map(a)
        w, v = np.linalg.eigh(rho)
        log_rho = (v * np.log(w)) @ v.conj().T
        diff = log_rho - a
        assert np.allclose(diff, np.trace(diff) / 3 * np.eye(3), atol=1e-10)

    def test_log_partition_over_wide_spectra(self):
        # independent oracle for the numpy log-sum-exp: scipy's
        from scipy.special import logsumexp

        rng = np.random.default_rng(31)
        for scale in (1e-4, 1.0, 1e2, 1e4):
            a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
            a = scale * (a + a.conj().T)
            pi, lz = gibbs_with_log_partition(a)
            w = np.linalg.eigh(a)[0]
            assert abs(lz - logsumexp(w)) <= 1e-14 * max(1.0, abs(lz)), scale
            assert np.all(np.isfinite(pi)), scale
            assert abs(np.trace(pi) - 1.0) < 1e-12, scale
        # a spectrum spanning -1e4..1e4 on its diagonal: all mass on the top
        pi, lz = gibbs_with_log_partition(np.diag([-1e4, 0.0, 1e4]))
        assert lz == logsumexp([-1e4, 0.0, 1e4]) == 1e4
        assert np.allclose(pi, np.diag([0.0, 0.0, 1.0]), atol=0.0)

    def test_observable_returns_state(self):
        sh = SystemShape.qubits(1)
        obs = HermitianObservable(sh, np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
        st = gibbs_map(obs)
        assert isinstance(st, State)
        assert st.shape == sh


class TestMatrixFourierBasis:
    def test_n1_scalar(self):
        (e,) = matrix_fourier_basis(1)
        assert np.allclose(e, np.array([[1.0]]))

    def test_first_element_is_normalized_identity(self):
        for n in range(1, 7):
            basis = matrix_fourier_basis(n)
            assert np.allclose(basis[0], np.eye(n) / np.sqrt(n), atol=1e-14)

    def test_gram_identity(self):
        for n in range(1, 7):
            basis = matrix_fourier_basis(n)
            assert len(basis) == n * n
            g = np.array(
                [[np.trace(a.conj().T @ b) for b in basis] for a in basis]
            )
            assert np.max(np.abs(g - np.eye(n * n))) < 1e-12

    def test_adjoint_relations(self):
        for n in range(2, 7):
            basis = matrix_fourier_basis(n)
            E = lambda k, l: basis[k * n + l]
            for k in range(1, n):
                assert np.max(np.abs(E(k, 0).conj().T - E(n - k, 0))) < 1e-12
            for l in range(1, n):
                assert np.max(np.abs(E(0, l).conj().T - E(0, n - l))) < 1e-12
            for k in range(1, n):
                for l in range(1, n):
                    sign = (-1.0) ** (n + k + l)
                    assert (
                        np.max(np.abs(E(k, l).conj().T - sign * E(n - k, n - l)))
                        < 1e-12
                    )

    def test_displayed_shift_plus_adjoint(self):
        basis = matrix_fourier_basis(3)
        got = basis[1] + basis[1].conj().T  # element (k, l) = (0, 1)
        want = np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]]) / np.sqrt(3)
        assert np.max(np.abs(got - want)) < 1e-12


class TestHermitize:
    def test_self_adjoint_family_unchanged(self):
        basis = matrix_fourier_basis(2)
        out = hermitize_basis(basis)
        assert len(out) == 4
        for a, b in zip(out, basis):
            assert np.allclose(a, b, atol=1e-12)

    def test_output_is_orthonormal_self_adjoint(self):
        for n in range(2, 7):
            out = hermitize_basis(matrix_fourier_basis(n))
            assert len(out) == n * n
            for m in out:
                assert np.max(np.abs(m - m.conj().T)) < 1e-12
            g = np.array([[np.trace(a @ b).real for b in out] for a in out])
            assert np.max(np.abs(g - np.eye(n * n))) < 1e-12

    def test_spans_hermitian_space(self):
        out = hermitize_basis(matrix_fourier_basis(2))
        flat = np.array([m.reshape(-1) for m in out])
        assert np.linalg.matrix_rank(flat) == 4

    def test_unpaired_input_raises(self):
        # a lone non-hermitian element has no adjoint partner
        bad = [np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)]
        with pytest.raises(ValueError):
            hermitize_basis(bad)


class TestClassicalUnitBasis:
    def test_orthonormal_diagonal(self):
        for n in (1, 2, 3, 5):
            basis = classical_unit_basis(n)
            assert len(basis) == n
            assert np.allclose(basis[0], np.eye(n) / np.sqrt(n))
            for m in basis:
                assert np.allclose(m, np.diag(np.diag(m)))
            g = np.array([[np.trace(a @ b).real for b in basis] for a in basis])
            assert np.max(np.abs(g - np.eye(n))) < 1e-12

    def test_unit_basis_dispatch(self):
        sh = SystemShape((3, 3), ("classical", "quantum"))
        assert len(unit_hermitian_basis(sh, 1)) == 3
        assert len(unit_hermitian_basis(sh, 2)) == 9


class TestHelpers:
    def test_expectation_values(self):
        rng = np.random.default_rng(31)
        sh = SystemShape.qubits(1)
        rho = random_density(sh, rng)
        stack = np.stack(unit_hermitian_basis(sh, 1))
        got = expectation_values(rho.matrix, stack)
        want = [np.trace(b @ rho.matrix).real for b in stack]
        assert np.allclose(got, want, atol=1e-13)

    def test_algebra_mask(self):
        sh = SystemShape((2, 2), ("classical", "quantum"))
        mask = algebra_mask(sh)
        assert mask.shape == (4, 4)
        # classical unit blocks: row/col agree on the first index
        assert mask[0, 1] and not mask[0, 2] and not mask[1, 3] and mask[2, 3]
        # built once per shape and shared read-only
        assert algebra_mask(SystemShape((2, 2), ("c", "q"))) is mask
        with pytest.raises(ValueError):
            mask[0, 2] = True

    @pytest.mark.parametrize("shape", [
        SystemShape.qubits(3), SystemShape.bits(3), SystemShape.classical((3, 2)),
        SystemShape((2, 3, 2), ("c", "q", "c")), SystemShape((3, 2, 2), ("q", "c", "q")),
        SystemShape((2, 2, 3, 2), ("c", "q", "q", "c")),
    ], ids=["q3", "b3", "c32", "cqc-232", "qcq-322", "cqqc-2232"])
    def test_block_layout(self, shape):
        rng = np.random.default_rng(34)
        d = shape.dim
        mask = algebra_mask(shape)
        mat = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        inside = np.where(mask, mat, 0.0)
        layout = block_layout(shape)
        d_c = int(np.prod([n for n, k in zip(shape.sizes, shape.kinds) if k == "classical"]))
        assert layout.shape == (d_c, d // d_c, d // d_c)
        # every entry of the algebra in exactly one place
        assert np.array_equal(np.sort(layout, axis=None), np.flatnonzero(mask))
        # to_blocks drops exactly the entries outside the mask, and the round
        # trip is exact on the algebra
        blocks = to_blocks(mat, shape)
        assert np.array_equal(from_blocks(blocks, shape), inside)
        assert np.array_equal(to_blocks(inside, shape), blocks)
        # block c: the rows and columns of classical digits c, in the order of
        # the quantum digits
        digits = np.indices(shape.sizes).reshape(shape.N, d)
        classical = [i for i, k in enumerate(shape.kinds) if k == "classical"]
        block_of = np.ravel_multi_index(digits[classical], [shape.sizes[i] for i in classical]) \
            if classical else np.zeros(d, dtype=int)
        for c in range(d_c):
            rows = np.flatnonzero(block_of == c)
            assert np.array_equal(blocks[c], mat[np.ix_(rows, rows)])
        assert block_layout(SystemShape(shape.sizes, shape.kinds)) is layout
        with pytest.raises(ValueError):
            layout[0, 0, 0] = 1

    def test_realvec_isometry(self):
        from hiercorr.algebra import hermitian_realvec, realvec_hermitian

        rng = np.random.default_rng(32)
        for n in (2, 3, 5):
            g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            a, b = g + g.conj().T, (g - g.conj().T) * 1j
            va, vb = hermitian_realvec(a), hermitian_realvec(b)
            assert va.shape == (n * n,)
            assert abs(va @ vb - np.trace(a @ b).real) < 1e-10
            assert np.allclose(realvec_hermitian(va, n), a, atol=1e-12)

    def test_realvec_stacked(self):
        from hiercorr.algebra import hermitian_realvec, realvec_hermitian

        rng = np.random.default_rng(33)
        g = rng.normal(size=(4, 3, 3))
        stack = g + np.transpose(g, (0, 2, 1))
        vecs = hermitian_realvec(stack)
        assert vecs.shape == (4, 9)
        assert np.allclose(vecs[1], hermitian_realvec(stack[1]))
        back = realvec_hermitian(vecs, 3)
        assert np.array_equal(back, np.stack([realvec_hermitian(v, 3) for v in vecs]))
        assert np.allclose(back, stack, atol=1e-12)
        assert realvec_hermitian(vecs[:0], 3).shape == (0, 3, 3)


class TestInputGuards:
    @pytest.mark.parametrize("call, error, message", [
        (lambda: State.from_probabilities(SystemShape.bits(3), np.full(7, 1 / 7)),
         ShapeError, "expected 8 probabilities"),
        (lambda: State.from_probabilities(SystemShape.bits(2), [0.6, 0.6, -0.1, -0.1]),
         ShapeError, "negative probability"),
        (lambda: State.pure(SystemShape.qubits(3), np.ones(7)), ShapeError, "length 8"),
        (lambda: State.pure(SystemShape.qubits(2), np.zeros(4)), ShapeError, "zero vector"),
        (lambda: ghz_state(3).probabilities(), ShapeError, "all-classical"),
        (lambda: State(SystemShape((2, 2), ("c", "q")), np.eye(4) / 4).probabilities(),
         ShapeError, "all-classical"),
        (lambda: relative_entropy(ghz_state(3), ghz_state(4)), ShapeError, "operands have shapes"),
        (lambda: relative_entropy(np.eye(2) / 2, np.eye(4) / 4), ShapeError, "operands have shapes"),
        (lambda: gibbs_map(np.array([[0.0, 1.0], [0.0, 0.0]])), ValueError, "hermitian operand"),
    ], ids=["probabilities-length", "probabilities-negative", "pure-length", "pure-zero",
            "probabilities-of-qubits", "probabilities-of-cq", "relative-entropy-states",
            "relative-entropy-arrays", "gibbs-non-hermitian"])
    def test_algebra(self, call, error, message):
        with pytest.raises(error, match=message):
            call()

    @pytest.mark.parametrize("call, message", [
        (lambda rng: uniform_on(SystemShape.qubits(2), [(0, 0)]), "all-classical"),
        (lambda rng: random_pure(SystemShape.bits(2), rng), "all-quantum"),
        (lambda rng: random_pure(SystemShape((2, 2), ("c", "q")), rng), "all-quantum"),
        (lambda rng: random_density(SystemShape.qubits(2), rng, rank=0), r"rank 0 outside 1\.\.4"),
        (lambda rng: random_density(SystemShape.bits(2), rng, rank=5), r"rank 5 outside 1\.\.4"),
    ], ids=["uniform-on-qubits", "pure-on-bits", "pure-on-cq", "density-rank-0", "density-rank-5"])
    def test_states(self, call, message):
        with pytest.raises(ShapeError, match=message):
            call(np.random.default_rng(0))
