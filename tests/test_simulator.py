import itertools
import math
import re
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given

from conftest import bench_pes, build_qubit_hamiltonian
from helpers import (ansatz_program, dense_circuit_unitary,
                     dense_expectations, dense_from_label, dense_from_sum,
                     density_matrix_simulation, givens_rotation,
                     noisy_trajectories, random_pauli_sum,
                     random_sq_hamiltonian)
from strategies import circuits, noise_models, parameters
from vibriq.circuits import (Circuit, Gate, PauliRotation, build_chc,
                             build_uvcc, excitation_list, reference_circuit)
from vibriq.exact import (dense_matrix, parity_indices, physical_block,
                          physical_indices, physical_spectrum)
from vibriq.mapping import QubitLayout, map_to_pauli
from vibriq.pauli import PauliSum
from vibriq.simulator import (MAX_BYTES, AnsatzProgram, NoiseModel,
                              ShotCounts, StateVector, apply_circuit,
                              bitstring, check_bytes, compile_pauli_sum, distribution_fidelity,
                              expectation, expectation_value,
                              expectation_values, noisy_counts,
                              noisy_distribution, run_fidelity_experiment,
                              sample)
from vibriq.vqe import VqeConfig
from vibriq import exact, simulator, vqe


def random_circuit(rng, num_qubits, depth=30):
    gates = []
    n_params = 3
    for _ in range(depth):
        kind = rng.choice(["x", "h", "rx", "ry", "rz", "phase", "cnot"])
        if kind == "cnot":
            q = rng.choice(num_qubits, size=2, replace=False)
            gates.append(Gate("cnot", (int(q[0]), int(q[1]))))
        elif kind in ("rx", "ry", "rz", "phase"):
            q = int(rng.integers(num_qubits))
            if rng.random() < 0.5:
                gates.append(Gate(kind, (q,), float(rng.uniform(-np.pi, np.pi))))
            else:
                gates.append(Gate(kind, (q,), None,
                                  int(rng.integers(n_params)),
                                  float(rng.choice([-1.0, 0.5, 1.0, 2.0]))))
        else:
            gates.append(Gate(kind, (int(rng.integers(num_qubits)),)))
    return Circuit(num_qubits, tuple(gates), n_params)


def test_x_flips_qubit():
    circ = Circuit(1, (Gate("x", (0,)),), 0)
    state = apply_circuit(circ)
    np.testing.assert_allclose(state.amplitudes, [0.0, 1.0], atol=1e-15)


def test_reference_state_sets_register_bits():
    layout = QubitLayout((2, 2))
    state = apply_circuit(reference_circuit(layout))
    expected = np.zeros(16)
    expected[0b0101] = 1.0
    np.testing.assert_allclose(state.amplitudes, expected, atol=1e-15)


def test_random_circuits_match_dense_unitaries():
    rng = np.random.default_rng(31)
    for _ in range(8):
        circ = random_circuit(rng, 4)
        params = rng.uniform(-np.pi, np.pi, 3)
        amps = rng.normal(size=16) + 1j * rng.normal(size=16)
        amps /= np.linalg.norm(amps)
        got = apply_circuit(circ, params, StateVector(4, amps)).amplitudes
        expected = dense_circuit_unitary(circ, params) @ amps
        np.testing.assert_allclose(got, expected, atol=1e-12)


def test_norm_preserved():
    rng = np.random.default_rng(37)
    circ = random_circuit(rng, 3, depth=60)
    state = apply_circuit(circ, rng.uniform(-1, 1, 3))
    assert np.linalg.norm(state.amplitudes) == pytest.approx(1.0, abs=1e-12)


def test_parameter_count_checked():
    circ = Circuit(1, (Gate("rz", (0,), None, 0, 1.0),), 1)
    with pytest.raises(ValueError, match="parameters"):
        apply_circuit(circ, [])


def test_expectation_trivial_cases():
    zero = StateVector.vacuum(1)
    assert expectation(zero, PauliSum.from_label("Z")) == pytest.approx(1.0)
    plus = StateVector(1, np.array([1.0, 1.0]) / math.sqrt(2))
    assert expectation(plus, PauliSum.from_label("X")) == pytest.approx(1.0)
    assert expectation(plus, PauliSum.from_label("I")) == pytest.approx(1.0)


def test_expectation_matches_dense_quadratic_form():
    rng = np.random.default_rng(41)
    for _ in range(10):
        op = random_pauli_sum(rng, 3, 6, hermitian=True)
        amps = rng.normal(size=8) + 1j * rng.normal(size=8)
        amps /= np.linalg.norm(amps)
        state = StateVector(3, amps)
        expected = np.vdot(amps, dense_from_sum(op) @ amps).real
        assert expectation(state, op) == pytest.approx(expected, abs=1e-12)


def test_expectation_value_complex_operator():
    rng = np.random.default_rng(43)
    op = random_pauli_sum(rng, 2, 4)
    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
    amps /= np.linalg.norm(amps)
    got = expectation_value(StateVector(2, amps), op)
    expected = np.vdot(amps, dense_from_sum(op) @ amps)
    assert got == pytest.approx(expected, abs=1e-12)


def _random_state(rng, num_qubits, zeros=0):
    """A normalized complex state with ``zeros`` amplitudes exactly 0."""
    dim = 1 << num_qubits
    amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    amps[rng.choice(amps.size, size=zeros, replace=False)] = 0.0
    return StateVector(num_qubits, amps / np.linalg.norm(amps))


def _assert_matches_compiled_apply(state, sums, got):
    """Each value against vdot(psi, compile_pauli_sum(op) @ psi), to
    1e-12 of the sum's coefficient 1-norm, which bounds |<op>|."""
    amps = state.amplitudes
    assert got.shape == (len(sums),)
    for op, value in zip(sums, got):
        expected = np.vdot(amps, compile_pauli_sum(op) @ amps)
        scale = sum(abs(c) for _, c in op.items())
        assert abs(value - expected) <= 1e-12 * scale


@pytest.mark.parametrize("zeros", [0, 5, 60])
def test_expectation_values_match_the_compiled_sum(zeros):
    """Dense states and states with exact zeros, Hermitian and not."""
    rng = np.random.default_rng(83 + zeros)
    state = _random_state(rng, 6, zeros)
    sums = [random_pauli_sum(rng, 6, n, hermitian=k % 2 == 0)
            for k, n in enumerate((1, 7, 30, 90))]
    _assert_matches_compiled_apply(state, sums,
                                   expectation_values(state, sums))


def test_expectation_values_share_strings_across_sums():
    """A string in several sums is evaluated once and weighted per sum."""
    rng = np.random.default_rng(89)
    state = _random_state(rng, 4, 3)
    base = random_pauli_sum(rng, 4, 20)
    sums = [base, base * 2.0, base.adjoint(), PauliSum(4),
            base + random_pauli_sum(rng, 4, 5), base]
    got = expectation_values(state, sums)
    _assert_matches_compiled_apply(state, sums, got)
    assert got[3] == 0.0
    assert got[5] == got[0]
    assert expectation_values(state, []).shape == (0,)
    assert expectation_values(state, [PauliSum(4)]).tolist() == [0.0]


def test_expectation_values_across_string_chunks(monkeypatch):
    rng = np.random.default_rng(97)
    state = _random_state(rng, 5, 4)
    sums = [random_pauli_sum(rng, 5, n) for n in (40, 3, 60)]
    whole = expectation_values(state, sums)
    # 28 nonzero amplitudes: two strings per chunk
    monkeypatch.setattr(simulator, "_CHUNK_ELEMENTS", 60)
    chunked = expectation_values(state, sums)
    _assert_matches_compiled_apply(state, sums, chunked)
    np.testing.assert_allclose(chunked, whole, rtol=1e-14, atol=0)


def test_expectation_values_check_the_qubit_count():
    sums = [PauliSum.from_label("XX"), PauliSum.from_label("X")]
    with pytest.raises(ValueError, match="qubit count"):
        expectation_values(StateVector.vacuum(2), sums)


def test_expectation_raises_on_non_hermitian():
    state = StateVector(1, np.array([1.0, 1.0]) / math.sqrt(2))
    op = PauliSum.from_label("X", 1.0 + 0.5j)
    with pytest.raises(ValueError, match="Hermitian"):
        expectation(state, op)
    with pytest.raises(ValueError, match="qubit count"):
        expectation(StateVector.vacuum(2), op)


def test_expectation_raises_on_compiled_non_hermitian():
    """A sum whose compiled form has complex diagonals is refused by
    ``expectation``, and the residue it names is the compiled form's."""
    state = StateVector(1, np.array([1.0, 1.0]) / math.sqrt(2))
    op = PauliSum.from_label("X", 1.0 + 0.5j)
    compiled = compile_pauli_sum(op)
    assert compiled.dtype == np.complex128
    amps = state.amplitudes
    value = np.vdot(amps, compiled @ amps)
    assert expectation_value(state, op) == pytest.approx(value, abs=1e-14)
    with pytest.raises(ValueError, match=f"imaginary part {value.imag:.3e}"):
        expectation(state, op)
    with pytest.raises(ValueError, match="qubit count"):
        expectation(StateVector.vacuum(2), op)


def test_check_hermitian_reads_the_last_stored_term():
    """The one imaginary coefficient is the last term stored, and the first
    in label order; a residue within ``IMAG_TOL`` of the largest passes."""
    terms = {(0b001, 0): 2.0, (0b110, 0b010): -1.0, (0, 0): 3.0 + 1e-3j}
    op = PauliSum.from_masks(3, terms)
    assert op.mask_arrays()[2][-1] == 3.0 + 1e-3j
    with pytest.raises(ValueError, match=r"Pauli coefficient has imaginary "
                       r"part 1\.000e-03; operator is not Hermitian"):
        simulator.check_hermitian(op)
    simulator.check_hermitian(
        PauliSum.from_masks(3, {**terms, (0, 0): 3.0 + 1e-10j}))


def test_compiled_sum_matches_per_term_loop_on_non_hermitian_sums():
    rng = np.random.default_rng(47)
    for num_qubits, n_terms in ((1, 3), (3, 12), (5, 40), (6, 90)):
        for _ in range(4):
            op = random_pauli_sum(rng, num_qubits, n_terms)
            dim = 1 << num_qubits
            amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            amps /= np.linalg.norm(amps)
            expected = 0.0j
            for term in op.terms:
                expected += term.coefficient * np.vdot(
                    amps, dense_from_label(term.label) @ amps)
            for got in (expectation_value(StateVector(num_qubits, amps), op),
                        np.vdot(amps, compile_pauli_sum(op) @ amps)):
                assert abs(got - expected) <= 1e-12 * abs(expected)


def test_term_masks_rebuild_dense_matrix_on_non_hermitian_sums():
    rng = np.random.default_rng(53)
    for num_qubits in range(1, 6):
        op = random_pauli_sum(rng, num_qubits, 8, letters="IXYYZ")
        dim = 1 << num_qubits
        mat = np.zeros((dim, dim), dtype=complex)
        for flip, sign, c in op.masks():
            weight = c * (-1j) ** bin(flip & sign).count("1")
            for j in range(dim):
                mat[j, j ^ flip] += weight * (-1) ** bin(j & sign).count("1")
        np.testing.assert_allclose(mat, dense_from_sum(op), atol=1e-12)
        np.testing.assert_allclose(dense_matrix(op), mat, rtol=0, atol=1e-12)


def test_compiled_y_maps_zero_to_i_one():
    compiled = compile_pauli_sum(PauliSum.from_label("Y"))
    np.testing.assert_array_equal(compiled @ np.array([1.0, 0.0]),
                                  [0.0, 1.0j])
    compiled = compile_pauli_sum(PauliSum.from_label("IYZ"))
    basis = np.eye(8)
    np.testing.assert_array_equal(compiled @ basis[0b100],
                                  -1.0j * basis[0b110])


def _tables(compiled):
    """A compiled sum's (masks, states) positions and values: row j of the
    CSR matrix holds one entry per mask, in mask order."""
    dim = compiled.shape[0]
    return (compiled.indices.reshape(dim, -1).T,
            compiled.data.reshape(dim, -1).T)


def test_compiled_sum_groups_terms_by_flip_mask():
    op = PauliSum(3, {"XZI": 1.0, "YII": 0.5, "IZZ": 2.0, "ZII": -1.0,
                      "IXX": 0.25})
    perms, _ = _tables(compile_pauli_sum(op))
    assert perms.shape == (3, 8)  # flips of qubit 0, none, qubits 1 and 2
    # state 0's row holds each mask, ascending
    np.testing.assert_array_equal(perms[:, 0], [0, 0b001, 0b110])
    assert expectation(StateVector.vacuum(2), PauliSum(2)) == 0.0


def test_empty_sum_compiles_to_a_zero_matrix():
    """No masks: every row is empty, and the product is zero."""
    for indices in (None, np.array([1, 2, 3])):
        compiled = compile_pauli_sum(PauliSum(2), indices)
        dim = 4 if indices is None else 3
        assert compiled.shape == (dim, dim) and compiled.nnz == 0
        np.testing.assert_array_equal(compiled.indptr, np.zeros(dim + 1))
        np.testing.assert_array_equal(compiled @ np.ones(dim), np.zeros(dim))


def test_compiled_basis_form_matches_slice_of_kron_oracle():
    rng = np.random.default_rng(59)
    for num_qubits in range(3, 7):
        dim = 1 << num_qubits
        for _ in range(3):
            op = random_pauli_sum(rng, num_qubits, int(rng.integers(1, 24)))
            full = dense_from_sum(op)
            for size in (1, dim // 3, dim - 1, dim):
                idx = np.sort(rng.choice(dim, size=size, replace=False))
                amps = rng.normal(size=size) + 1j * rng.normal(size=size)
                amps /= np.linalg.norm(amps)
                np.testing.assert_allclose(
                    compile_pauli_sum(op, idx) @ amps,
                    full[np.ix_(idx, idx)] @ amps, rtol=0, atol=1e-12)


def test_full_space_tables_sum_terms_in_items_order_bit_for_bit():
    """The tables of the benchmark's seed-0 qEOM Hamiltonian (2 modes, 3
    modals) equal each mask's terms added one by one in ``items`` order."""
    _, _, h = build_qubit_hamiltonian(bench_pes(2, 0), (3, 3))
    dim = 1 << h.num_qubits
    states = np.arange(dim)
    diags: dict[int, np.ndarray] = {}
    for x, z, c in h.masks():
        sign = 1.0 - 2.0 * (np.bitwise_count(states & z) & 1)
        weight = c * (-1j) ** (bin(x & z).count("1") % 4)
        diags[x] = diags.get(x, np.zeros(dim, dtype=complex)) + weight * sign
    masks = sorted(diags)
    perms, values = _tables(compile_pauli_sum(h))
    np.testing.assert_array_equal(perms, np.array(masks)[:, None] ^ states)
    np.testing.assert_array_equal(values, np.array([diags[x] for x in masks]))


def _blocks_of(monkeypatch, op, states):
    """Make the row builder take ``states`` basis states a block: its
    block is ``_COMPILE_CHUNK_ELEMENTS`` over the larger of the distinct
    flip masks and the distinct z masks."""
    x, z = (np.unique([term[k] for term in op.masks()]) for k in (0, 1))
    monkeypatch.setattr(simulator, "_COMPILE_CHUNK_ELEMENTS",
                        states * max(x.size, z.size))


def test_compiled_tables_do_not_depend_on_the_chunk_size(monkeypatch):
    """Each mask's terms add in one product whatever a block of states
    holds, so blocks of 1, 3 and 5 states (5 divides neither 64 nor 16)
    give the bits of one whole block, compiled and dense, on all 2^N
    states and on the parity basis."""
    layout = QubitLayout((3, 3))
    _, _, h = build_qubit_hamiltonian(bench_pes(2, 0), (3, 3))
    for indices in (None, parity_indices(layout)):
        dim = 1 << h.num_qubits if indices is None else indices.size
        _blocks_of(monkeypatch, h, dim)
        whole = compile_pauli_sum(h, indices)
        whole_dense = dense_matrix(h, indices)
        np.testing.assert_array_equal(whole_dense, whole.toarray())
        for states in (1, 3, 5):
            _blocks_of(monkeypatch, h, states)
            compiled = compile_pauli_sum(h, indices)
            for name in ("indptr", "indices", "data"):
                np.testing.assert_array_equal(getattr(compiled, name),
                                              getattr(whole, name))
            np.testing.assert_array_equal(dense_matrix(h, indices),
                                          whole_dense)


def test_compiled_rows_built_in_blocks_match_the_dense_oracle(monkeypatch):
    """Blocks of one and of five states land at their rows' entries, on
    all states and on a subset, compiled and dense."""
    rng = np.random.default_rng(67)
    op = random_pauli_sum(rng, 6, 80)
    assert np.unique([x for x, _, _ in op.masks()]).size > 32
    full = dense_from_sum(op)
    for indices in (np.arange(64), np.sort(rng.choice(64, 40, replace=False))):
        for states in (1, 5):
            _blocks_of(monkeypatch, op, states)
            block = full[np.ix_(indices, indices)]
            np.testing.assert_allclose(
                compile_pauli_sum(op, indices).toarray(), block, rtol=0,
                atol=1e-12)
            np.testing.assert_allclose(dense_matrix(op, indices), block,
                                       rtol=0, atol=1e-12)


def test_compile_holds_one_block_beside_its_output():
    """A 64-mask complex sum on all 2^14 states: the compile's peak is its
    output (21 MB at 20 B an entry) and a few MB of blocks, not a second
    copy of the rows."""
    n = 14
    rng = np.random.default_rng(89)
    labels = ["".join("X" if (k >> q) & 1 else rng.choice(["I", "Z"])
                      for q in range(n)) for k in range(64)]
    op = PauliSum(n, [(label, 1.0 + 0.5j) for label in labels])
    tracemalloc.start()  # scipy.sparse is loaded by conftest
    try:
        compiled = compile_pauli_sum(op)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    output = sum(getattr(compiled, name).nbytes
                 for name in ("data", "indices", "indptr"))
    assert compiled.dtype == np.complex128 and compiled.nnz == 64 << n
    assert output > 21_000_000
    assert peak - output < 4_000_000


def test_compile_refuses_unsorted_indices():
    for indices in ([3, 1], [1, 1, 2]):
        with pytest.raises(ValueError, match="ascending"):
            compile_pauli_sum(PauliSum.from_label("IXI"), np.array(indices))


def test_rows_refuse_masks_wider_than_int64():
    """Both builders refuse a sum on more qubits than an int64 mask holds,
    in ``PauliSum.mask_arrays``' words, before any array is built."""
    op = PauliSum.from_label("X" * 70)
    for build in (compile_pauli_sum, dense_matrix):
        with pytest.raises(ValueError, match="^70 qubits do not fit int64 "
                                             "masks; the limit is 63$"):
            build(op)


def test_compile_refuses_oversized_tables_before_allocating():
    n = 20
    labels = ["".join("X" if (k >> q) & 1 else "I" for q in range(n))
              for k in range(1, 33)]
    op = PauliSum(n, [(label, 1.0) for label in labels])
    subset = np.arange(3 << 18)
    # a Y makes the weights, and so the values, complex: 20 B an entry
    # instead of 12, beside 4 B of row pointer per state
    complex_op = op + PauliSum.from_label("Y" + "I" * (n - 1))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError,
                           match=r"32 flip masks on 20 qubits needs 407 MB"):
            compile_pauli_sum(op)
        with pytest.raises(ValueError,
                           match=r"32 flip masks on 20 qubits needs 306 MB"):
            compile_pauli_sum(op, subset)
        with pytest.raises(ValueError,
                           match=r"32 flip masks on 20 qubits needs 676 MB"):
            compile_pauli_sum(complex_op)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("modals", [(2, 2), (3, 3), (2, 3, 2)])
def test_real_diagonal_tables_match_the_dense_oracle(modals):
    """A mapped Hamiltonian's weights c (-i)^|x & z| are all real, so its
    tables are float64; on all 2^N states and on the parity basis they
    act as the dense matrix on real and on complex states."""
    rng = np.random.default_rng(sum(modals) * 7 + len(modals))
    layout = QubitLayout(modals)
    op = map_to_pauli(random_sq_hamiltonian(rng, layout), layout)
    full = dense_from_sum(op)
    dim = 1 << layout.num_qubits
    for indices in (np.arange(dim), parity_indices(layout)):
        compiled = compile_pauli_sum(op, indices)
        assert compiled.dtype == np.float64
        block = full[np.ix_(indices, indices)]
        real = rng.normal(size=indices.size)
        complex_ = real + 1j * rng.normal(size=indices.size)
        for amps in (real, complex_):
            got = compiled @ amps
            assert got.dtype == amps.dtype
            np.testing.assert_allclose(got, block @ amps, rtol=0,
                                       atol=1e-12 * np.abs(full).max())
    # one imaginary weight keeps the table complex
    assert compile_pauli_sum(op + PauliSum.from_label(
        "XY" + "I" * (layout.num_qubits - 2), 0.5)).dtype \
        == np.complex128


def test_odd_y_rotation_compiles_to_a_givens_step():
    """exp(i a P) with an odd number of Y is a real rotation: the Givens
    step equals the Pauli rotation on the same one-string table, and the
    dense cos I + i sin P, on random complex states."""
    rng = np.random.default_rng(61)
    for num_qubits in range(1, 6):
        for _ in range(4):
            letters = list(rng.choice(list("IXYZ"), size=num_qubits))
            ys = [q for q, l in enumerate(letters) if l == "Y"]
            if len(ys) % 2 == 0:  # make the Y count odd
                q = int(rng.integers(num_qubits))
                letters[q] = "I" if letters[q] == "Y" else "Y"
            pairs = tuple((q, l) for q, l in enumerate(letters) if l != "I")
            label = "".join(letters)
            indices = np.arange(1 << num_qubits)
            scale = float(rng.uniform(-2.0, 2.0))
            step = simulator._program_step(
                num_qubits, indices, PauliRotation(pairs, 0, scale))
            assert isinstance(step, simulator.GivensStep)
            table = compile_pauli_sum(PauliSum.from_label(label))
            rotation = simulator.PauliRotationStep(
                table.indices, table.data, 0, -0.5 * scale)
            for _ in range(3):
                params = rng.uniform(-np.pi, np.pi, 1)
                amps = (rng.normal(size=indices.size)
                        + 1j * rng.normal(size=indices.size))
                angle = -0.5 * scale * params[0]
                dense = (math.cos(angle) * amps + 1j * math.sin(angle)
                         * (dense_from_label(label) @ amps))
                expected = rotation.apply(amps, params, None)
                got = step.apply(amps.copy(), params, np.empty((2, 2)))
                assert np.max(np.abs(got - expected)) <= 1e-12
                assert np.max(np.abs(got - dense)) <= 1e-12


def _rotation_label(block, num_qubits):
    """The string of a Pauli rotation block or an RX, RY or RZ gate."""
    if isinstance(block, PauliRotation):
        letters = dict(block.pairs)
    else:
        letters = {block.qubits[0]: block.kind[1].upper()}
    return "".join(letters.get(q, "I") for q in range(num_qubits))


def _assert_steps_match_one_string_tables(num_qubits, blocks, num_parameters,
                                          indices):
    """Each rotation step of the program equals the step read off its
    string's compiled matrix, one entry a row: its columns and values as a
    Pauli rotation, or with an odd number of Y the pairs where
    Re(i phase) < 0, bit for bit.  The phases and pairs match dtype for
    dtype; the matrix's columns are int32 where a step's are int64."""
    program = AnsatzProgram.compile(num_qubits, blocks, num_parameters,
                                    indices)
    rotations = [b for b in blocks if isinstance(b, PauliRotation)
                 or (b.kind in ("rx", "ry", "rz") and b.param is not None)]
    steps = [s for s in program.steps
             if not isinstance(s, simulator.BitFlipStep)]
    assert len(steps) == len(rotations) > 0
    for block, step in zip(rotations, steps):
        label = _rotation_label(block, num_qubits)
        table = compile_pauli_sum(PauliSum.from_label(label), indices)
        perm, phase = table.indices, table.data
        assert (step.param, step.scale) == (block.param, -0.5 * block.scale)
        if label.count("Y") % 2 == 0:
            assert isinstance(step, simulator.PauliRotationStep), label
            assert step.phase.dtype == phase.dtype, label
            assert np.array_equal(step.perm, perm), label
            assert np.array_equal(step.phase, phase), label
        else:
            assert isinstance(step, simulator.GivensStep), label
            src = np.flatnonzero((1j * phase).real < 0)
            expected = np.stack([src, perm[src]])
            assert step.pairs.dtype == expected.dtype, label
            assert np.array_equal(step.pairs, expected), label


@pytest.mark.parametrize("ansatz,modals,basis", [
    ("chc", (3, 3), "parity"),
    ("chc", (3, 3), "full"),
    ("chc", (2, 3, 2), "parity"),
    ("chc", (2, 3, 2), "full"),
    ("swaprz", (2, 2), "full"),
    ("swaprz", (3, 3, 3), "full"),
    ("ryrz", (2, 2), "full"),
])
def test_ansatz_rotation_steps_match_one_string_tables(ansatz, modals, basis):
    layout = QubitLayout(modals)
    blocks, num_parameters = vqe._ansatz_blocks(
        layout, VqeConfig(ansatz=ansatz, depth=2))
    indices = parity_indices(layout) if basis == "parity" else None
    _assert_steps_match_one_string_tables(layout.num_qubits, blocks,
                                          num_parameters, indices)


@pytest.mark.parametrize("ansatz,modals,basis", [
    ("uvccsd", (2, 3), "physical"),
    ("uvccsd", (2, 2, 2), "physical"),
    ("chc", (3, 3), "parity"),
    ("chc", (2, 3, 2), "parity"),
    ("uvccsd", (2, 3), "full"),
    ("ryrz", (2, 2), "full"),
])
def test_givens_steps_match_a_fresh_rotation_bit_for_bit(ansatz, modals,
                                                         basis):
    """Each Givens step, given a work array of garbage, against one fresh
    2x2 rotation of the gathered pairs, at random angles, on real and (for
    ryrz on the full basis) complex amplitudes."""
    layout = QubitLayout(modals)
    indices = {"physical": physical_indices, "parity": parity_indices,
               "full": lambda _: None}[basis](layout)
    program = ansatz_program(layout, VqeConfig(ansatz=ansatz, depth=2),
                             indices)
    steps = [s for s in program.steps if isinstance(s, simulator.GivensStep)]
    assert steps
    rng = np.random.default_rng(sum(modals) + len(basis))
    dim = program.indices.size
    for step in steps:
        for _ in range(3):
            params = rng.uniform(-np.pi, np.pi, program.num_parameters)
            amps = rng.normal(size=dim)
            if not program.real:
                amps = amps + 1j * rng.normal(size=dim)
            work = np.full((2, 2), np.nan)
            got = step.apply(amps.copy(), params.tolist(), work)
            expected = givens_rotation(amps, step.pairs,
                                       step.scale * params[step.param])
            assert np.array_equal(got, expected)


def test_programs_are_reentrant():
    """A program called twice, and two programs whose calls interleave,
    give the same arrays as each program called alone."""
    layout = QubitLayout((2, 3))
    chc = ansatz_program(layout, VqeConfig(ansatz="chc"),
                         parity_indices(layout))
    uvcc = ansatz_program(layout, VqeConfig(), physical_indices(layout))
    rng = np.random.default_rng(71)
    x, y = (rng.uniform(-1.0, 1.0, p.num_parameters) for p in (chc, uvcc))
    first, alone = chc.amplitudes(x), uvcc.amplitudes(y)
    kept = first.copy()
    assert np.array_equal(chc.amplitudes(x), first)
    for _ in range(2):
        assert np.array_equal(uvcc.amplitudes(y), alone)
        assert np.array_equal(chc.amplitudes(x), first)
    assert np.array_equal(first, kept)  # a later call leaves it alone


def test_gate_rotation_steps_match_one_string_tables():
    """RX, RY and RZ on all 2^N states and on the states with qubit 2
    clear, which flips of qubits 0 and 1 keep."""
    blocks = [Gate(kind, (q,), param=k)
              for k, (kind, q) in enumerate(itertools.product(
                  ("rx", "ry", "rz"), (0, 1)))]
    blocks.append(Gate("rz", (2,), param=len(blocks), scale=0.5))
    for indices in (None, np.array([0, 1, 2, 3, 8, 9, 10, 11])):
        _assert_steps_match_one_string_tables(4, blocks, len(blocks), indices)
    with pytest.raises(ValueError, match="leaves the program's basis"):
        AnsatzProgram.compile(4, [Gate("rx", (2,), param=0)], 1,
                              np.array([0, 1, 2, 3]))


def test_sample_basis_state_and_determinism():
    state = StateVector(3, np.eye(8)[0b101])
    counts = sample(state, 1000, seed=5)
    assert counts.counts == {"101": 1000}
    again = sample(state, 1000, seed=5)
    assert counts.counts == again.counts


def test_sample_uniform_within_five_sigma():
    state = StateVector(1, np.array([1.0, 1.0]) / math.sqrt(2))
    shots = 1_000_000
    counts = sample(state, shots, seed=7).counts
    sigma = math.sqrt(shots * 0.25)
    for key in ("0", "1"):
        assert abs(counts[key] - shots / 2) < 5 * sigma


def test_bitstring_convention():
    # qubit 0 leftmost: index 1 (qubit 0 set) renders as "100"
    assert bitstring(1, 3) == "100"
    assert bitstring(4, 3) == "001"


def test_shotcounts_total_checked():
    with pytest.raises(ValueError):
        ShotCounts({"0": 3}, 5)


def test_statevector_normalization_enforced():
    with pytest.raises(ValueError, match="normalized"):
        StateVector(1, np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match="length"):
        StateVector(2, np.array([1.0, 0.0]))


def test_distribution_fidelity_limits():
    a = ShotCounts({"00": 5000, "11": 5000}, 10000)
    ref = ShotCounts({"00": 10000}, 10000)
    assert distribution_fidelity(a, ref) == pytest.approx(0.5)
    assert distribution_fidelity(a, a) == 1.0
    disjoint = ShotCounts({"01": 10000}, 10000)
    assert distribution_fidelity(ref, disjoint) == 0.0
    assert distribution_fidelity(a, ref) == distribution_fidelity(ref, a)
    with pytest.raises(ValueError):
        distribution_fidelity(ShotCounts({}, 0), ShotCounts({}, 0))


def test_fidelity_is_one_only_for_identical_counts():
    a = ShotCounts({"00": 9999, "11": 1}, 10000)
    ref = ShotCounts({"00": 10000}, 10000)
    assert distribution_fidelity(a, ref) < 1.0


def test_zero_noise_trajectory_equals_exact_application():
    layout = QubitLayout((2, 2))
    circ = build_chc(layout, excitation_list(layout))
    rng = np.random.default_rng(47)
    params = rng.uniform(-0.3, 0.3, circ.num_parameters)
    silent = NoiseModel(0.0, 0.0, 0.0)
    (traj,) = noisy_trajectories(circ, params, silent, [1])
    np.testing.assert_allclose(traj, apply_circuit(circ, params).amplitudes,
                               atol=1e-12)


def test_full_strength_cnot_depolarization_against_channel_oracle():
    """p_cx = 1 on a single CNOT: every trajectory draws one of the 15
    two-qubit Paulis, so <Z_0> averages to -1/15 (7 leave it, 8 flip it)."""
    circ = Circuit(2, (Gate("cnot", (0, 1)),), 0)
    noise = NoiseModel(p_u2=0.0, p_u3=0.0, p_cx=1.0)
    z0 = PauliSum(2, [("ZI", 1.0)])

    rho = density_matrix_simulation(circ, [], noise)
    oracle = np.trace(dense_from_sum(z0) @ rho).real
    assert oracle == pytest.approx(-1.0 / 15.0, abs=1e-12)

    trials = 10_000
    seeds = np.random.SeedSequence(11).spawn(trials)
    values = dense_expectations(noisy_trajectories(circ, [], noise, seeds), z0)
    sigma = np.std(values, ddof=1) / math.sqrt(trials)
    assert abs(np.mean(values) - oracle) < 3 * sigma + 1e-12


def test_trajectory_average_matches_density_matrix_for_chc():
    layout = QubitLayout((2, 2))
    circ = build_chc(layout, excitation_list(layout))
    rng = np.random.default_rng(53)
    params = rng.uniform(-0.2, 0.2, circ.num_parameters)
    noise = NoiseModel()
    rho = density_matrix_simulation(circ, params, noise)

    observable = PauliSum(4, [("ZIII", 1.0), ("IZII", 0.5), ("IIZI", -1.0)])
    oracle = np.trace(dense_from_sum(observable) @ rho).real

    trials = 4000
    seeds = np.random.SeedSequence(13).spawn(trials)
    values = dense_expectations(
        noisy_trajectories(circ, params, noise, seeds), observable)
    sigma = np.std(values, ddof=1) / math.sqrt(trials)
    assert abs(np.mean(values) - oracle) < 3 * sigma


@pytest.mark.parametrize("builder", [build_uvcc, build_chc])
def test_noisy_distribution_matches_density_matrix_oracle(builder):
    layout = QubitLayout((2, 2))
    circ = builder(layout, excitation_list(layout))
    rng = np.random.default_rng(61)
    params = rng.uniform(-0.2, 0.2, circ.num_parameters)
    oracle = np.diag(density_matrix_simulation(circ, params, NoiseModel()))
    np.testing.assert_allclose(noisy_distribution(circ, params, NoiseModel()),
                               oracle.real, rtol=0, atol=1e-12)


def test_noisy_distribution_covers_every_gate_kind():
    rng = np.random.default_rng(79)
    noise = NoiseModel(p_u2=0.05, p_u3=0.1, p_cx=0.2)
    for _ in range(4):
        circ = random_circuit(rng, 3, depth=40)
        params = rng.uniform(-np.pi, np.pi, circ.num_parameters)
        oracle = np.diag(density_matrix_simulation(circ, params, noise)).real
        np.testing.assert_allclose(noisy_distribution(circ, params, noise),
                                   oracle, rtol=0, atol=1e-12)


def test_pauli_components_match_the_density_matrix_oracle():
    """Every component r[P] of the Pauli-transfer tensor, off-diagonal
    Paulis included, against Tr(P rho) of the dense channel, on a random
    3-qubit circuit with every gate kind and noise on every gate."""
    rng = np.random.default_rng(83)
    noise = NoiseModel(p_u2=0.05, p_u3=0.1, p_cx=0.2)
    circ = random_circuit(rng, 3, depth=60)
    assert {g.kind for g in circ.gates} == {"x", "h", "rx", "ry", "rz",
                                            "phase", "cnot"}
    params = rng.uniform(-np.pi, np.pi, circ.num_parameters)
    rho = density_matrix_simulation(circ, params, noise)
    components = simulator._pauli_components(circ, params, noise)
    assert components.shape == (4, 4, 4)
    for index in itertools.product(range(4), repeat=3):
        # axis i is qubit 2 - i; a label has qubit 0 leftmost
        label = "".join("IXYZ"[a] for a in reversed(index))
        expected = np.trace(dense_from_label(label) @ rho)
        assert abs(components[index] - expected) <= 1e-12, label


def test_noisy_distribution_full_strength_cnot():
    circ = Circuit(2, (Gate("cnot", (0, 1)),), 0)
    noise = NoiseModel(p_u2=0.0, p_u3=0.0, p_cx=1.0)
    oracle = np.diag(density_matrix_simulation(circ, [], noise)).real
    np.testing.assert_allclose(noisy_distribution(circ, [], noise), oracle,
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(oracle, [3 / 15, 4 / 15, 4 / 15, 4 / 15],
                               atol=1e-12)


def test_noisy_distribution_without_noise_is_ideal():
    layout = QubitLayout((2, 4))
    circ = build_uvcc(layout, excitation_list(layout))
    rng = np.random.default_rng(67)
    params = rng.uniform(-0.5, 0.5, circ.num_parameters)
    silent = NoiseModel(0.0, 0.0, 0.0)
    np.testing.assert_allclose(noisy_distribution(circ, params, silent),
                               apply_circuit(circ, params).probabilities(),
                               rtol=0, atol=1e-12)


@given(circuits(), parameters(), noise_models)
def test_noisy_distribution_property_matches_the_density_matrix_oracle(
        circ, params, noise):
    oracle = np.diag(density_matrix_simulation(circ, params, noise)).real
    np.testing.assert_allclose(noisy_distribution(circ, params, noise),
                               oracle, rtol=0, atol=1e-12)


@given(circuits(), parameters())
def test_noiseless_distribution_property_is_the_ideal_one(circ, params):
    np.testing.assert_allclose(
        noisy_distribution(circ, params, NoiseModel(0.0, 0.0, 0.0)),
        apply_circuit(circ, params).probabilities(), rtol=0, atol=1e-12)


def test_noisy_counts_follow_oracle_diagonal():
    """Every outcome's count lies within 5 sigma of the channel's
    probability; a bit-order slip in the draw would move whole outcomes."""
    layout = QubitLayout((2, 2))
    circ = build_uvcc(layout, excitation_list(layout))
    rng = np.random.default_rng(71)
    params = rng.uniform(-0.6, 0.6, circ.num_parameters)
    noise = NoiseModel(p_u2=0.01, p_u3=0.02, p_cx=0.05)
    probs = np.diag(density_matrix_simulation(circ, params, noise)).real
    shots = 10_000
    counts = noisy_counts(circ, params, noise, shots, seed=73).counts
    for index, p in enumerate(probs):
        observed = counts.get(bitstring(index, 4), 0)
        sigma = math.sqrt(shots * p * (1.0 - p))
        assert abs(observed - shots * p) <= 5.0 * sigma + 1e-9, index


_LAYOUT_13x2 = QubitLayout((2,) * 13)


@pytest.mark.parametrize("refused, message", [
    pytest.param(lambda: dense_matrix(PauliSum.from_label("I" * 24)),
                 "a dense matrix of dimension 16777216 needs 2251799814 MB",
                 id="dense block"),
    pytest.param(lambda: physical_block(PauliSum.from_label("I" * 26),
                                        _LAYOUT_13x2),
                 "a physical block of dimension 8192 needs 537 MB",
                 id="physical block"),
    pytest.param(lambda: physical_spectrum(PauliSum.from_label("I" * 26),
                                           _LAYOUT_13x2),
                 "diagonalizing a physical block of dimension 8192 needs "
                 "1074 MB", id="spectrum"),
    pytest.param(lambda: compile_pauli_sum(PauliSum.from_label("X" * 25)),
                 "compiling 1 flip masks on 25 qubits needs 537 MB",
                 id="compile"),
    pytest.param(lambda: parity_indices(QubitLayout((5,) * 7)),
                 "a parity basis of 2^28 states needs 2148 MB",
                 id="parity basis"),
    pytest.param(lambda: run_fidelity_experiment((10, 10), trials=1,
                                                 shots=10),
                 "a noisy simulation of 20 qubits (3 Pauli-transfer tensors) "
                 "needs 26388280 MB",
                 id="density matrix"),
    pytest.param(lambda: simulator.embed(25, np.array([0]), np.ones(1)),
                 "a state of 25 qubits needs 537 MB", id="embedded state"),
    pytest.param(lambda: StateVector.vacuum(25),
                 "a state of 25 qubits needs 537 MB", id="vacuum"),
    pytest.param(lambda: vqe.ground_state(
                     PauliSum.from_label("Z" + "I" * 24),
                     QubitLayout((5,) * 5), VqeConfig(ansatz="chc")),
                 "an ansatz program of 180 steps on 1048576 states needs "
                 "3020 MB", id="ansatz program"),
])
def test_every_size_refusal_reads_the_same(refused, message):
    """Each site counts its arrays in bytes and refuses them against the
    one budget, in one wording, within a second and 1 MB."""
    start = time.perf_counter()
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}; the "
                                             "limit is 268 MB$"):
            refused()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert time.perf_counter() - start < 1.0


def test_budget_keeps_the_spectrum_and_noise_boundaries(monkeypatch):
    """A 4096-state spectrum fills the budget exactly and passes, and so
    does an 11-qubit noisy simulation; one state or qubit more is
    refused."""
    class Passed(Exception):
        pass

    def passed(*args):
        raise Passed

    monkeypatch.setattr(exact, "physical_block", passed)
    with pytest.raises(Passed):
        physical_spectrum(PauliSum.from_label("I"), QubitLayout((64, 64)))
    with pytest.raises(ValueError, match="dimension 4097 needs 269 MB"):
        physical_spectrum(PauliSum.from_label("I"), QubitLayout((17, 241)))
    simulator._check_noisy_size(11)
    with pytest.raises(ValueError, match="of 12 qubits .* needs 403 MB"):
        simulator._check_noisy_size(12)
    check_bytes("a full budget", MAX_BYTES)


def test_noisy_distribution_refuses_large_registers_before_allocating():
    layout = QubitLayout((7, 6))
    circ = build_chc(layout, excitation_list(layout))
    assert circ.num_qubits == 13
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"13 qubits .* 1611 MB"):
            noisy_distribution(circ, np.zeros(circ.num_parameters),
                               NoiseModel())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_density_matrix_budget_counts_the_noisy_peak(monkeypatch):
    """At 9 qubits a gate of every kind, each noisy, peaks above three
    Pauli-transfer tensors and within the bytes the budget counted."""
    gates = (Gate("x", (0,)), Gate("h", (8,)), Gate("rx", (3,), 0.4),
             Gate("ry", (5,), -0.7), Gate("rz", (8,), 1.1),
             Gate("phase", (2,), 0.3), Gate("cnot", (0, 8)),
             Gate("cnot", (7, 1)))
    counted = []
    monkeypatch.setattr(simulator, "check_bytes",
                        lambda what, nbytes: counted.append(nbytes))
    tracemalloc.start()
    try:
        noisy_distribution(Circuit(9, gates, 0), [], NoiseModel())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 3 * (8 << 2 * 9) < peak <= counted[0]
    assert len(counted) == 1


def test_noisy_counts_deterministic_and_consistent():
    layout = QubitLayout((2, 2))
    circ = build_uvcc(layout, excitation_list(layout))
    params = np.full(circ.num_parameters, 0.1)
    noise = NoiseModel()
    a = noisy_counts(circ, params, noise, 500, seed=3)
    b = noisy_counts(circ, params, noise, 500, seed=3)
    assert a.counts == b.counts
    assert a.shots == 500


def test_gate_noise_classification():
    noise = NoiseModel()
    assert noise.gate_probability(Gate("cnot", (0, 1)), None) == noise.p_cx
    assert noise.gate_probability(Gate("h", (0,)), None) == noise.p_u2
    assert noise.gate_probability(Gate("phase", (0,), 0.3), 0.3) == noise.p_u2
    assert noise.gate_probability(Gate("rx", (0,), math.pi / 2),
                                  math.pi / 2) == noise.p_u2
    assert noise.gate_probability(Gate("rx", (0,), 0.7), 0.7) == noise.p_u3
    assert noise.gate_probability(Gate("ry", (0,), 0.7), 0.7) == noise.p_u3
    assert noise.gate_probability(Gate("x", (0,)), None) == noise.p_u3


def test_fidelity_experiment_smoke_and_ordering():
    report = run_fidelity_experiment((2, 2), trials=3, shots=2000, seed=21)
    fid = report["fidelity"]
    assert set(fid) == {"uvccsd", "chc"}
    for name in fid:
        assert len(fid[name]["values"]) == 3
        assert all(0.0 <= v <= 1.0 for v in fid[name]["values"])
    assert fid["chc"]["mean"] > fid["uvccsd"]["mean"]


def test_fidelity_experiment_deterministic():
    a = run_fidelity_experiment((2, 2), trials=2, shots=500, seed=9)
    b = run_fidelity_experiment((2, 2), trials=2, shots=500, seed=9)
    assert a == b
