import numpy as np
import pytest
from scipy import linalg

from conftest import build_qubit_hamiltonian
from helpers import (assert_same_terms, dense_from_sum, random_pauli_sum,
                     reference_commutator)
from vibriq import pauli, qeom
from vibriq.exact import (ground_state_vector, physical_indices,
                          physical_spectrum)
from vibriq.pauli import PauliSum, commutator
from vibriq.qeom import (EomOperators, build_eom_operators, compute_matrices,
                         double_commutator, eom_diagnostics,
                         excitation_energies, solve_pseudo_eigenproblem)
from vibriq.simulator import StateVector, expectation_values


def test_double_commutator_of_commuting_operators_vanishes():
    a = PauliSum.from_label("XI")
    h = PauliSum.from_label("IZ")
    b = PauliSum.from_label("XX")  # commutes with both? X0 yes, check via result
    z = double_commutator(a, PauliSum.from_label("II"), [b])[0]
    assert len(z) == 0
    z2 = double_commutator(a, a, [a])[0]
    assert len(z2) == 0


def test_double_commutator_single_qubit_case():
    x = PauliSum.from_label("X")
    z = PauliSum.from_label("Z")
    got = double_commutator(x, z, [x])[0]
    dx, dz = dense_from_sum(x), dense_from_sum(z)

    def comm(a, b):
        return a @ b - b @ a

    expected = 0.5 * (comm(comm(dx, dz), dx) + comm(dx, comm(dz, dx)))
    np.testing.assert_allclose(dense_from_sum(got), expected, atol=1e-12)
    assert got == PauliSum.from_label("Z", -4.0)


def test_double_commutator_matches_dense_on_random_sums():
    rng = np.random.default_rng(61)
    for _ in range(8):
        a = random_pauli_sum(rng, 3, 4)
        h = random_pauli_sum(rng, 3, 4, hermitian=True)
        b = random_pauli_sum(rng, 3, 4)
        da, dh, db = (dense_from_sum(s) for s in (a, h, b))

        def comm(x, y):
            return x @ y - y @ x

        expected = 0.5 * (comm(comm(da, dh), db) + comm(da, comm(dh, db)))
        np.testing.assert_allclose(
            dense_from_sum(double_commutator(a, h, [b])[0]), expected,
            atol=1e-10)


def _comm(x, y):
    return x @ y - y @ x


def test_double_commutator_jacobi_form_matches_literal_definition():
    # Pool pairs, whose [a, b] is short or zero, and random ones.
    from vibriq.mapping import QubitLayout
    rng = np.random.default_rng(71)
    ops = build_eom_operators(QubitLayout((3, 2)), 2)
    pool = [(a, b) for a in ops.adjoints for b in ops.operators + ops.adjoints]
    pairs = pool[::5] + [(random_pauli_sum(rng, 5, 6),
                          random_pauli_sum(rng, 5, 6)) for _ in range(6)]
    h = random_pauli_sum(rng, 5, 30, hermitian=True)
    dh = dense_from_sum(h)
    for a, b in pairs:
        da, db = dense_from_sum(a), dense_from_sum(b)
        literal = 0.5 * (_comm(_comm(da, dh), db) + _comm(da, _comm(dh, db)))
        np.testing.assert_allclose(
            dense_from_sum(double_commutator(a, h, [b])[0]), literal,
            atol=1e-11)


def _single_double_commutator(a, h, b):
    return (commutator(commutator(a, h), b)
            + commutator(h, commutator(a, b)) * 0.5)


def _reference_double_commutator(a, h, b):
    """[[a,h],b] + [h,[a,b]] / 2 from the pair-loop commutator."""
    return (reference_commutator(reference_commutator(a, h), b)
            + reference_commutator(h, reference_commutator(a, b)) * 0.5)


def _double_commutator_rows(coupled_pes):
    """(a, h, bs): pool rows of a (3,3) system, and random sums."""
    layout, _, h = build_qubit_hamiltonian(coupled_pes, (3, 3))
    ops = build_eom_operators(layout)
    rows = [(ops.adjoints[i], h,
             [op for pair in zip(ops.operators[i:], ops.adjoints[i:])
              for op in pair]) for i in (0, 2, ops.size - 1)]
    rng = np.random.default_rng(79)
    rows.append((random_pauli_sum(rng, 4, 6),
                 random_pauli_sum(rng, 4, 12, hermitian=True),
                 [random_pauli_sum(rng, 4, n) for n in (5, 1, 9)]
                 + [PauliSum(4)]))
    return rows


@pytest.mark.parametrize("budget", [None, 1])
def test_double_commutator_row_matches_the_pair_loop_jacobi_form(
        coupled_pes, monkeypatch, budget):
    """Each column's DC equals the per-column Jacobi form term for term,
    also with every column and every row its own pass."""
    if budget is not None:
        monkeypatch.setattr(pauli, "_PAIR_CHUNK", budget)
    for a, h, bs in _double_commutator_rows(coupled_pes):
        got = double_commutator(a, h, bs)
        assert len(got) == len(bs)
        for b, dc in zip(bs, got):
            assert_same_terms(dc, _reference_double_commutator(a, h, b))
            single = _single_double_commutator(a, h, b)
            assert list(dc._terms.items()) == list(single._terms.items())
    assert double_commutator(a, h, []) == []


def _per_entry_matrices(state, h, ops):
    """M, Q, V and W with every entry's sums built on their own from
    single commutators, evaluated one row at a time as
    ``compute_matrices`` does."""
    size = ops.size
    out = {name: np.zeros((size, size), dtype=complex) for name in "mqvw"}
    for i in range(size):
        dag, sums = ops.adjoints[i], []
        for op, op_dag in zip(ops.operators[i:], ops.adjoints[i:]):
            sums += [_single_double_commutator(dag, h, op),
                     _single_double_commutator(dag, h, op_dag),
                     commutator(dag, op), commutator(dag, op_dag)]
        row = expectation_values(state, sums).reshape(-1, 4)
        out["m"][i, i:], out["q"][i, i:] = row[:, 0], -row[:, 1]
        out["v"][i, i:], out["w"][i, i:] = row[:, 2], -row[:, 3]
    lower = np.tril_indices(size, -1)
    out["m"][lower] = out["m"].T[lower].conj()
    out["v"][lower] = out["v"].T[lower].conj()
    out["q"][lower] = out["q"].T[lower]
    out["w"][lower] = -out["w"].T[lower]
    return out


def test_row_matrices_equal_the_per_entry_construction_exactly(coupled_pes):
    """On an exact ground state, a uvccsd VQE state and a leaky chc
    non-eigenstate of a (3,3) system, to the last bit."""
    from vibriq.circuits import build_chc, excitation_list
    from vibriq.simulator import apply_circuit
    from vibriq.vqe import VqeConfig, ground_state
    layout, _, h = build_qubit_hamiltonian(coupled_pes, (3, 3))
    ops = build_eom_operators(layout)
    _, exact_ground = ground_state_vector(h, layout)
    uvcc = ground_state(h, layout, VqeConfig(ansatz="uvccsd", max_evals=300))
    rng = np.random.default_rng(97)
    circuit = build_chc(layout, excitation_list(layout, 2))
    params = rng.uniform(-1.0, 1.0, circuit.num_parameters)
    amps = apply_circuit(circuit, params).amplitudes
    amps = amps + 0.1 * (rng.normal(size=amps.size)
                         + 1j * rng.normal(size=amps.size))
    leaky = StateVector(layout.num_qubits, amps / np.linalg.norm(amps))
    for state in (exact_ground, uvcc.state, leaky):
        mats = compute_matrices(state, h, ops)
        for name, want in _per_entry_matrices(state, h, ops).items():
            assert np.array_equal(getattr(mats, name), want), name


def _dense_eom_matrices(psi, h, operators):
    """M, Q, V, W over the full square from dense commutators."""
    dh = dense_from_sum(h)
    e = [dense_from_sum(op) for op in operators]
    size = len(e)
    out = {name: np.zeros((size, size), dtype=complex) for name in "mqvw"}

    def expect(mat):
        return np.vdot(psi, mat @ psi)

    def dc(x, y):
        return 0.5 * (_comm(_comm(x, dh), y) + _comm(x, _comm(dh, y)))

    for i in range(size):
        dag = e[i].conj().T
        for j in range(size):
            out["m"][i, j] = expect(dc(dag, e[j]))
            out["q"][i, j] = -expect(dc(dag, e[j].conj().T))
            out["v"][i, j] = expect(_comm(dag, e[j]))
            out["w"][i, j] = -expect(_comm(dag, e[j].conj().T))
    return out


def test_matrices_of_a_leaky_non_eigen_state_match_dense_full_square():
    # A random-parameter chc state plus amplitude outside the physical
    # subspace, so no symmetry of an eigenstate helps.  The pool's
    # operators give W = 0; random ones exercise every mirrored entry.
    from vibriq.circuits import build_chc, excitation_list
    from vibriq.mapping import QubitLayout
    from vibriq.simulator import apply_circuit
    layout = QubitLayout((3, 3))
    n = layout.num_qubits
    rng = np.random.default_rng(73)
    circuit = build_chc(layout, excitation_list(layout, 2))
    params = rng.uniform(-1.0, 1.0, circuit.num_parameters)
    amps = apply_circuit(circuit, params).amplitudes
    amps = amps + 0.1 * (rng.normal(size=amps.size)
                         + 1j * rng.normal(size=amps.size))
    psi = amps / np.linalg.norm(amps)
    physical = physical_indices(layout)
    assert np.sum(np.abs(psi[physical]) ** 2) < 0.99
    state = StateVector(n, psi)
    h = random_pauli_sum(rng, n, 60, hermitian=True)

    pool = build_eom_operators(layout, 2)
    randoms = [random_pauli_sum(rng, n, 5) for _ in range(4)]
    custom = EomOperators(pool.excitations[:4], tuple(randoms),
                          tuple(op.adjoint() for op in randoms))
    for ops, mirrored in ((pool, "mqv"), (custom, "mqvw")):
        mats = compute_matrices(state, h, ops)
        expected = _dense_eom_matrices(psi, h, ops.operators)
        for name, want in expected.items():
            lower = want[np.tril_indices(ops.size, -1)]
            assert (np.abs(lower).max() > 1e-3) == (name in mirrored)
            np.testing.assert_allclose(
                getattr(mats, name), want, rtol=0,
                atol=1e-12 * max(1.0, np.abs(want).max()))


def test_double_commutator_adjoint_symmetry():
    rng = np.random.default_rng(67)
    h = random_pauli_sum(rng, 3, 5, hermitian=True)
    a = random_pauli_sum(rng, 3, 3)
    b = random_pauli_sum(rng, 3, 3)
    left = dense_from_sum(double_commutator(a, h, [b])[0])
    right = dense_from_sum(
        double_commutator(b.adjoint(), h, [a.adjoint()])[0])
    np.testing.assert_allclose(left.conj().T, right, atol=1e-10)


def test_eom_operator_adjoints_are_conjugate_transposes():
    from vibriq.mapping import QubitLayout
    ops = build_eom_operators(QubitLayout((2, 2)), 2)
    assert ops.size == 3
    for op, dag in zip(ops.operators, ops.adjoints):
        np.testing.assert_allclose(dense_from_sum(dag),
                                   dense_from_sum(op).conj().T, atol=1e-13)


def test_non_hermitian_hamiltonian_refused(coupled_system):
    # the mirrored triangles of M, Q, V and W hold only for Hermitian H
    layout, _, h = coupled_system
    _, ground = ground_state_vector(h, layout)
    ops = build_eom_operators(layout, 2)
    with pytest.raises(ValueError, match="operator is not Hermitian"):
        compute_matrices(ground, h + PauliSum.from_label("XXII", 0.5j), ops)


def test_harmonic_matrices_and_energies(harmonic_system):
    layout, _, h = harmonic_system
    _, ground = ground_state_vector(h, layout)
    ops = build_eom_operators(layout, 2)
    mats = compute_matrices(ground, h, ops)
    np.testing.assert_allclose(mats.v, np.eye(3), atol=1e-10)
    np.testing.assert_allclose(mats.w, np.zeros((3, 3)), atol=1e-10)
    np.testing.assert_allclose(mats.m, np.diag([1000.0, 1500.0, 2500.0]),
                               atol=1e-8)
    energies = solve_pseudo_eigenproblem(mats)
    np.testing.assert_allclose(energies, [1000.0, 1500.0, 2500.0], atol=1e-8)


def test_matrices_hermitian_for_exact_ground(coupled_system):
    layout, _, h = coupled_system
    _, ground = ground_state_vector(h, layout)
    mats = compute_matrices(ground, h, build_eom_operators(layout, 2))
    np.testing.assert_allclose(mats.m, mats.m.conj().T, atol=1e-10)
    np.testing.assert_allclose(mats.v, mats.v.conj().T, atol=1e-10)


def test_coupled_system_matches_exact_gaps(coupled_system):
    layout, _, h = coupled_system
    _, ground = ground_state_vector(h, layout)
    energies, mats, ops = excitation_energies(ground, h, layout)
    spectrum = physical_spectrum(h, layout)
    np.testing.assert_allclose(energies, spectrum[1:] - spectrum[0],
                               atol=1e-6)
    assert ops.size == 3


def test_spectrum_comes_in_plus_minus_pairs(coupled_system):
    layout, _, h = coupled_system
    _, ground = ground_state_vector(h, layout)
    mats = compute_matrices(ground, h, build_eom_operators(layout, 2))
    a = np.block([[mats.m, mats.q], [np.conj(mats.q), np.conj(mats.m)]])
    b = np.block([[mats.v, mats.w], [-np.conj(mats.w), -np.conj(mats.v)]])
    values = np.sort(linalg.eigvals(a, b).real)
    np.testing.assert_allclose(values, -values[::-1], atol=1e-8)


def test_energies_scale_linearly_with_hamiltonian(coupled_system):
    layout, _, h = coupled_system
    _, ground = ground_state_vector(h, layout)
    base, _, _ = excitation_energies(ground, h, layout)
    scaled, _, _ = excitation_energies(ground, h * 3.0, layout)
    np.testing.assert_allclose(scaled, 3.0 * base, atol=1e-8)


def test_singular_metric_reports_null_dimension(coupled_system):
    layout, _, h = coupled_system
    _, ground = ground_state_vector(h, layout)
    ops = build_eom_operators(layout, 2)
    duplicated = EomOperators(ops.excitations + (ops.excitations[0],),
                              ops.operators + (ops.operators[0],),
                              ops.adjoints + (ops.adjoints[0],))
    mats = compute_matrices(ground, h, duplicated)
    with pytest.raises(ValueError, match="near-null subspace dimension"):
        solve_pseudo_eigenproblem(mats)


def test_threshold_filters_small_eigenvalues(harmonic_system):
    layout, _, h = harmonic_system
    _, ground = ground_state_vector(h, layout)
    mats = compute_matrices(ground, h, build_eom_operators(layout, 2))
    energies = solve_pseudo_eigenproblem(mats, threshold=1200.0)
    np.testing.assert_allclose(energies, [1500.0, 2500.0], atol=1e-8)


def test_negative_threshold_refused(harmonic_system):
    # below -E the negative mirrors would pass as excitation energies
    layout, _, h = harmonic_system
    _, ground = ground_state_vector(h, layout)
    mats = compute_matrices(ground, h, build_eom_operators(layout, 2))
    with pytest.raises(ValueError, match="threshold must be nonnegative"):
        solve_pseudo_eigenproblem(mats, threshold=-1e9)
    np.testing.assert_allclose(solve_pseudo_eigenproblem(mats, threshold=0.0),
                               [1000.0, 1500.0, 2500.0], atol=1e-8)


def test_pipeline_refuses_a_bad_threshold_before_the_pool(harmonic_system,
                                                         monkeypatch):
    """A negative or NaN threshold is refused before any operator is built."""
    layout, _, h = harmonic_system
    _, ground = ground_state_vector(h, layout)

    def pool(*args, **kwargs):
        raise AssertionError("pool built before the threshold was checked")

    monkeypatch.setattr(qeom, "build_eom_operators", pool)
    for threshold in (-1.0, float("nan")):
        with pytest.raises(ValueError, match="threshold must be nonnegative"):
            excitation_energies(ground, h, layout, threshold=threshold)


def test_diagnostics_of_the_harmonic_ground_state(harmonic_system):
    layout, _, h = harmonic_system
    _, ground = ground_state_vector(h, layout)
    mats = compute_matrices(ground, h, build_eom_operators(layout, 2))
    assert eom_diagnostics(mats) == {"metric_condition": pytest.approx(1.0),
                                     "complex_eigenvalues": 0,
                                     "max_imag": 0.0}


def test_diagnostics_count_complex_pairs_of_a_perturbed_state(coupled_system):
    layout, _, h = coupled_system
    _, ground = ground_state_vector(h, layout)
    idx = physical_indices(layout)
    amps = ground.amplitudes.copy()
    amps[idx] += 0.6 * np.random.default_rng(1).normal(size=idx.size)
    state = StateVector(layout.num_qubits, amps / np.linalg.norm(amps))
    mats = compute_matrices(state, h, build_eom_operators(layout, 2))
    diagnostics = eom_diagnostics(mats)

    a = np.block([[mats.m, mats.q], [np.conj(mats.q), np.conj(mats.m)]])
    b = np.block([[mats.v, mats.w], [-np.conj(mats.w), -np.conj(mats.v)]])
    values = linalg.eigvals(a, b)
    imag = np.abs(values.imag)
    complex_count = int(np.sum(imag > 1e-8 * np.abs(values).max()))
    assert complex_count > 0 and complex_count % 2 == 0
    assert diagnostics["complex_eigenvalues"] == complex_count
    assert diagnostics["max_imag"] == pytest.approx(imag.max(), rel=1e-10)
    assert diagnostics["metric_condition"] == pytest.approx(np.linalg.cond(b),
                                                            rel=1e-10)
    assert diagnostics["metric_condition"] > 10
    np.testing.assert_array_equal(
        solve_pseudo_eigenproblem(mats),
        np.sort(values.real[values.real > 1e-6]))
