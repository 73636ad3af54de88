import tracemalloc

import numpy as np
import pytest

from helpers import (dense_from_sum, onv_rule_matrix, pauli_product,
                     random_pauli_sum, random_sq_hamiltonian)
from vibriq.exact import (dense_matrix, ground_state_vector, parity_indices,
                          physical_block, physical_indices, physical_spectrum)
from vibriq.mapping import (QubitLayout, SqTerm, map_to_pauli, number_operator)
from vibriq.pauli import PauliSum
from vibriq.qeom import build_eom_operators
from vibriq.simulator import MAX_BYTES, compile_pauli_sum, expectation

from conftest import bench_pes, build_qubit_hamiltonian


def test_dense_single_qubit_cases():
    np.testing.assert_allclose(dense_matrix(PauliSum.from_label("Z")),
                               np.diag([1.0, -1.0]), atol=0)
    projector = PauliSum(1, [("I", 0.5), ("Z", -0.5)])
    np.testing.assert_allclose(dense_matrix(projector), np.diag([0.0, 1.0]),
                               atol=0)


def test_dense_matches_independent_kron_oracle():
    rng = np.random.default_rng(3)
    labels = ["".join(rng.choice(list("IXYZ"), size=3)) for _ in range(6)]
    op = PauliSum(3, [(l, complex(rng.normal(), rng.normal()))
                      for l in labels])
    np.testing.assert_allclose(dense_matrix(op), dense_from_sum(op),
                               atol=1e-14)


def test_dense_block_is_not_bounded_by_the_compiled_table_limit():
    """``dense_matrix`` writes the compiled rows chunk by chunk, so a 19 MB
    block is built even when its whole compiled table, 16 384 masks on
    1 100 states at 20 B an entry, would exceed ``MAX_BYTES``; the
    reference adds the terms one by one."""
    rng = np.random.default_rng(71)
    n = 14
    masks = np.arange(1 << n)
    signs = rng.integers(0, 1 << n, size=masks.size)
    coeffs = rng.normal(size=masks.size) + 1j * rng.normal(size=masks.size)
    op = PauliSum.from_masks(n, {(int(x), int(z)): complex(c)
                                 for x, z, c in zip(masks, signs, coeffs)})
    idx = np.sort(rng.choice(1 << n, size=1100, replace=False))
    assert masks.size * idx.size * 20 + 4 * (idx.size + 1) > MAX_BYTES
    expected = np.zeros((idx.size, idx.size), dtype=complex)
    for x, z, c in zip(masks, signs, coeffs):
        cols = idx ^ x
        pos = np.minimum(np.searchsorted(idx, cols), idx.size - 1)
        (rows,) = np.nonzero(idx[pos] == cols)
        sign = (-1.0) ** (np.bitwise_count(idx[rows] & z) & 1)
        expected[rows, pos[rows]] += (
            c * (-1j) ** (bin(x & z).count("1") % 4) * sign)
    np.testing.assert_allclose(dense_matrix(op, idx), expected,
                               rtol=0, atol=1e-12)


def test_dense_transfer_operator():
    layout = QubitLayout((2,))
    op = map_to_pauli([SqTerm(1.0, ((0, 1, 0),))], layout)
    dense = dense_matrix(op)
    expected = np.zeros((4, 4), dtype=complex)
    expected[2, 1] = 1.0
    np.testing.assert_allclose(dense, expected, atol=1e-14)


def test_projector_enumeration():
    layout = QubitLayout((2, 2))
    # ONVs (0,0), (1,0), (0,1), (1,1): mode 0 varies fastest
    np.testing.assert_array_equal(physical_indices(layout),
                                  [0b0101, 0b0110, 0b1001, 0b1010])


@pytest.mark.parametrize("modals", [(1,), (2, 2), (3, 1), (3, 3, 2),
                                    (4, 2, 3)])
def test_parity_basis_is_every_state_with_odd_register_weights(modals):
    layout = QubitLayout(modals)
    registers = [sum(1 << q for q in layout.register(l))
                 for l in range(layout.num_modes)]
    expected = [j for j in range(1 << layout.num_qubits)
                if all(bin(j & r).count("1") % 2 for r in registers)]
    indices = parity_indices(layout)
    assert indices.dtype == np.int64
    np.testing.assert_array_equal(indices, expected)
    assert indices.size == 2 ** (layout.num_qubits - layout.num_modes)
    assert np.isin(physical_indices(layout), indices).all()


@pytest.mark.parametrize("num_modes,modals", [(2, (3, 3)), (3, (2, 2, 2)),
                                              (2, (4, 4)), (3, (3, 3, 2))])
def test_hamiltonian_and_pool_keep_every_register_parity(num_modes, modals):
    """Every flip mask of the bench Hamiltonians and of the qEOM pool flips
    an even number of each register's bits, so the parity basis is closed:
    its compiled table finds every j ^ mask, and no entry is zeroed for
    leaving the basis."""
    layout, _, h = build_qubit_hamiltonian(bench_pes(num_modes, 0), modals)
    registers = [sum(1 << q for q in layout.register(l))
                 for l in range(layout.num_modes)]
    pool = build_eom_operators(layout)
    for op in (h, *pool.operators, *pool.adjoints):
        for x, _, _ in op.masks():
            assert all(bin(x & r).count("1") % 2 == 0 for r in registers), \
                (op, x)
    indices = parity_indices(layout)
    compiled = compile_pauli_sum(h, indices)
    whole = compile_pauli_sum(h)
    masks = np.unique([x for x, _, _ in h.masks()])
    shape = (indices.size, masks.size)
    np.testing.assert_array_equal(
        indices[compiled.indices.reshape(shape).T], masks[:, None] ^ indices)
    np.testing.assert_array_equal(
        compiled.data.reshape(shape),
        whole.data.reshape(whole.shape[0], masks.size)[indices])


def test_projector_dimension_is_product_of_counts():
    layout = QubitLayout((2, 2, 2, 2))
    assert physical_indices(layout).size == 16
    layout = QubitLayout((3, 4))
    indices = physical_indices(layout)
    assert indices.size == 12
    assert np.all(np.diff(indices) > 0)


def test_dense_block_equals_slice_of_kron_oracle():
    rng = np.random.default_rng(11)
    ops = [random_pauli_sum(rng, n, int(rng.integers(1, 12)))
           for n in (3, 4, 5, 6) for _ in range(3)]
    ops += [PauliSum(4), PauliSum.from_label("IIII", 0.5 - 2j),
            PauliSum(5, [("YYYYY", 1.5j), ("IYIYI", -0.25)])]
    for op in ops:
        full = dense_from_sum(op)
        dim = full.shape[0]
        for size in (1, dim // 3, dim - 1, dim):
            idx = np.sort(rng.choice(dim, size=size, replace=False))
            np.testing.assert_allclose(dense_matrix(op, idx),
                                       full[np.ix_(idx, idx)], rtol=0,
                                       atol=1e-12)


def test_dense_rejects_unsorted_indices():
    with pytest.raises(ValueError, match="ascending"):
        dense_matrix(PauliSum.from_label("III"), np.array([3, 1]))


def test_physical_spectrum_matches_onv_rule_oracle():
    rng = np.random.default_rng(13)
    for counts in ((2, 2), (3, 3), (2, 3, 4), (3, 2, 2)):
        layout = QubitLayout(counts)
        terms = random_sq_hamiltonian(rng, layout)
        expected = np.linalg.eigvalsh(onv_rule_matrix(terms, layout))
        got = physical_spectrum(map_to_pauli(terms, layout), layout)
        np.testing.assert_allclose(got, expected, rtol=1e-10,
                                   atol=1e-10 * np.abs(expected).max())


def _sixteen_qubit_system():
    """(layout, SQ terms, Pauli sum) on (8, 8): random one-mode terms and
    a few two-mode couplings."""
    layout = QubitLayout((8, 8))
    rng = np.random.default_rng(17)
    terms = []
    for mode in range(2):
        sym = rng.normal(size=(8, 8))
        sym = sym + sym.T
        terms += [SqTerm(float(sym[k, h]), ((mode, k, h),))
                  for k in range(8) for h in range(8)]
    for k, h in ((0, 1), (1, 0), (2, 3), (3, 2)):
        terms.append(SqTerm(0.3, ((0, k, h), (1, h, k))))
    return layout, terms, map_to_pauli(terms, layout)


def test_sixteen_qubit_layout_with_64_physical_states():
    layout, terms, h = _sixteen_qubit_system()
    oracle = onv_rule_matrix(terms, layout)
    expected = np.linalg.eigvalsh(oracle)
    np.testing.assert_allclose(physical_spectrum(h, layout), expected,
                               atol=1e-10 * np.abs(expected).max())
    energy, state = ground_state_vector(h, layout)
    assert energy == pytest.approx(expected[0], abs=1e-9)
    vec = state.amplitudes[physical_indices(layout)]
    assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(oracle @ vec, energy * vec, atol=1e-9)


def test_sixteen_qubit_expectation_reads_only_the_nonzero_amplitudes():
    """One expectation on a 64-amplitude state of a 16-qubit register
    builds no table over the 65 536 states (a compiled H would hold
    ~144 MB)."""
    layout, _, h = _sixteen_qubit_system()
    energy, state = ground_state_vector(h, layout)
    assert np.count_nonzero(state.amplitudes) <= 64
    tracemalloc.start()
    try:
        value = expectation(state, h)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert value == pytest.approx(energy, abs=1e-8)
    assert peak < 5 << 20


@pytest.mark.parametrize("system", ["five modes", "(8,8)"])
def test_real_block_spectrum_matches_complex_eigvalsh(system):
    if system == "five modes":  # the benchmark's PES, D = 4^5 = 1 024
        layout, _, h = build_qubit_hamiltonian(bench_pes(5, 0), (4,) * 5)
    else:
        layout, _, h = _sixteen_qubit_system()
    expected = np.linalg.eigvalsh(dense_matrix(h, physical_indices(layout)))
    np.testing.assert_allclose(physical_spectrum(h, layout), expected,
                               rtol=1e-12, atol=0)


def test_dense_matrix_is_real_when_every_term_weight_is():
    real = PauliSum(3, [("XZY", 1j), ("ZZI", -2.0), ("XXI", 0.5)])
    odd_y = real + PauliSum.from_label("YII", 0.25)
    for op, dtype in ((real, np.float64), (odd_y, np.complex128)):
        for idx in (None, np.array([1, 2, 4, 7])):
            block = dense_matrix(op, idx)
            assert block.dtype == dtype
            full = dense_from_sum(op)
            want = full if idx is None else full[np.ix_(idx, idx)]
            np.testing.assert_allclose(block, want, rtol=0, atol=1e-14)


def test_physical_block_is_written_real():
    """The benchmark's 5-mode PES at D = 4^5 = 1 024: the block is built
    float64 in place, with no complex block or real copy beside it."""
    layout, _, h = build_qubit_hamiltonian(bench_pes(5, 0), (4,) * 5)
    dim = 1024
    tracemalloc.start()
    try:
        _, block = physical_block(h, layout)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert block.dtype == np.float64 and block.shape == (dim, dim)
    assert block.flags.c_contiguous
    assert peak < 1.5 * dim * dim * 8


def test_non_hermitian_sums_refused(coupled_system):
    layout, _, h = coupled_system
    # the 0.5i XXII term lies inside the block, i XIII outside it
    inside = PauliSum(4, [("IIII", 1000.0), ("ZIZI", 3.0), ("XXII", 0.5j),
                          ("XXXX", 2.0)])
    outside = h + PauliSum.from_label("XIII", 1j)
    for op in (inside, outside):
        for exact_path in (physical_spectrum, ground_state_vector):
            with pytest.raises(ValueError, match="operator is not Hermitian"):
                exact_path(op, layout)


def test_hermitian_sum_with_an_imaginary_block_refused(coupled_system):
    # X0 Y1 swaps mode 0's two modals with phase -+i
    layout, _, h = coupled_system
    for op in (PauliSum.from_label("XYII", 0.5),
               h + PauliSum.from_label("XYII", 0.5)):
        for exact_path in (physical_spectrum, ground_state_vector):
            with pytest.raises(ValueError,
                               match="physical block has imaginary part"):
                exact_path(op, layout)


def test_ground_state_vector_gauge_is_real_and_positive(coupled_system):
    layout, _, h = coupled_system
    _, state = ground_state_vector(h, layout)
    vec = state.amplitudes[physical_indices(layout)]
    assert not np.any(vec.imag)
    assert vec[np.argmax(np.abs(vec))] > 0


def test_uncoupled_harmonic_spectrum(harmonic_system):
    layout, _, hamiltonian = harmonic_system
    spectrum = physical_spectrum(hamiltonian, layout)
    np.testing.assert_allclose(spectrum, [1250.0, 2250.0, 2750.0, 3750.0],
                               atol=1e-8)


def test_penalty_operator_form_vanishes_on_physical_subspace(coupled_system):
    layout, _, hamiltonian = coupled_system
    mu = 1e5
    penalty = PauliSum(layout.num_qubits)
    identity = PauliSum.from_label("I" * layout.num_qubits)
    for mode in range(layout.num_modes):
        dev = number_operator(layout, mode) - identity
        penalty = penalty + pauli_product(dev, dev)
    augmented = hamiltonian + penalty * mu
    np.testing.assert_allclose(physical_spectrum(augmented, layout),
                               physical_spectrum(hamiltonian, layout),
                               atol=1e-7)


def test_ground_state_vector_is_physical_eigenvector(coupled_system):
    layout, _, hamiltonian = coupled_system
    energy, state = ground_state_vector(hamiltonian, layout)
    assert np.linalg.norm(state.amplitudes) == pytest.approx(1.0, abs=1e-12)
    assert energy == pytest.approx(physical_spectrum(hamiltonian, layout)[0],
                                   abs=1e-10)
    residual = dense_matrix(hamiltonian) @ state.amplitudes \
        - energy * state.amplitudes
    assert np.linalg.norm(residual) < 1e-8
    assert expectation(state, hamiltonian) == pytest.approx(energy, abs=1e-8)


def test_dimension_cap_refuses_before_allocating():
    op = PauliSum.from_label("I" * 13)
    layout = QubitLayout((2,) * 13)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="dense matrix of dimension 8192 "
                                             "needs 537 MB; the limit is 268 MB"):
            dense_matrix(op)
        with pytest.raises(ValueError, match="block of dimension 8192 needs "
                                             "1074 MB; the limit is 268 MB"):
            physical_spectrum(op, layout)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
