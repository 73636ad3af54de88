import tracemalloc

import numpy as np
import pytest

from vibriq import vqe
from vibriq.exact import (parity_indices, physical_block, physical_indices,
                          physical_spectrum)
from vibriq.mapping import (QubitLayout, number_operator, occupations,
                            penalty_objective)
from vibriq.pauli import PauliSum
from vibriq.simulator import (AnsatzProgram, StateVector, apply_circuit,
                              compile_pauli_sum, embed, expectation)
from vibriq.vqe import (SIMPLEX_FATOL, VqeConfig, build_ansatz, ground_state,
                        minimize)

from conftest import bench_pes, build_qubit_hamiltonian
from helpers import ansatz_program, quadratic_form, scipy_nelder_mead


def test_quadratic_bowl():
    result = minimize(lambda p: (p[0] - 1.0) ** 2, [0.0],
                      VqeConfig(tol=1e-14))
    assert result.params[0] == pytest.approx(1.0, abs=1e-6)
    assert result.energy == pytest.approx(0.0, abs=1e-12)
    assert result.state is None  # no ansatz basis without ground_state


def test_quadratic_bowl_spsa():
    result = minimize(lambda p: (p[0] - 1.0) ** 2, [0.0],
                      VqeConfig(optimizer="spsa", max_evals=4000))
    assert result.params[0] == pytest.approx(1.0, abs=1e-2)


def test_history_is_accepted_value_sequence():
    result = minimize(lambda p: float(np.sum(p ** 2)), [0.8, -0.6],
                      VqeConfig())
    hist = np.array(result.history)
    assert np.all(np.diff(hist) < 0)
    assert result.energy == hist[-1]
    assert result.evals >= len(hist)


def test_non_finite_objective_aborts_with_diagnostic():
    with pytest.raises(RuntimeError, match="non-finite"):
        minimize(lambda p: float("nan"), [0.1], VqeConfig())


def test_unknown_optimizer_rejected():
    with pytest.raises(ValueError, match="optimizer"):
        minimize(lambda p: 0.0, [0.0], VqeConfig(optimizer="bfgs"))


def test_unknown_optimizer_refused_before_anything_is_compiled(monkeypatch):
    """The configuration refuses the optimizer when it is built, so a chc
    run never compiles H on its parity basis for nothing."""
    def compiled(*args, **kwargs):
        raise AssertionError("H compiled before the optimizer was checked")

    monkeypatch.setattr(vqe, "compile_pauli_sum", compiled)
    with pytest.raises(ValueError, match="^unknown optimizer 'bfgs'$"):
        ground_state(PauliSum.from_label("ZIII"), QubitLayout((2, 2)),
                     VqeConfig(ansatz="chc", optimizer="bfgs"))


def test_empty_start_is_evaluated_once_and_returned():
    for optimizer in ("nelder-mead", "spsa"):
        result = minimize(lambda p: 7.5, [], VqeConfig(optimizer=optimizer))
        assert result.energy == 7.5
        assert result.params.shape == (0,)
        assert result.evals == 1
        assert result.stop_reason == "tolerance"


@pytest.mark.parametrize("ansatz", ["uvccsd", "chc"])
def test_one_modal_per_mode_gives_the_reference_energy(coupled_pes, ansatz):
    """One modal per mode leaves one physical state and no parameters."""
    layout, _, h = build_qubit_hamiltonian(coupled_pes, (1, 1))
    result = ground_state(h, layout, VqeConfig(ansatz=ansatz))
    (reference,) = physical_spectrum(h, layout)
    assert result.params.shape == (0,)
    assert result.evals == 1 and result.converged
    assert result.energy == pytest.approx(reference, rel=1e-12)


def test_uncoupled_start_is_already_optimal(harmonic_pes):
    layout, _, h = build_qubit_hamiltonian(harmonic_pes, (2, 2))
    config = VqeConfig(ansatz="uvccsd", initial_params=(0.0, 0.0, 0.0))
    result = ground_state(h, layout, config)
    assert result.energy == pytest.approx(1250.0, abs=1e-9)
    assert len(result.history) == 1  # no accepted improvement over the start


def test_uvcc_reaches_exact_ground_on_coupled_system(coupled_system):
    layout, _, h = coupled_system
    exact = physical_spectrum(h, layout)[0]
    result = ground_state(h, layout, VqeConfig(ansatz="uvccsd", seed=2))
    assert abs(result.energy - exact) < 1e-6
    # variational bound: never below the physical ground state
    assert result.energy >= exact - 1e-9


def test_uvcc_objective_invariant_under_penalty(coupled_system):
    layout, _, h = coupled_system
    config = VqeConfig(ansatz="uvccsd")
    circuit = build_ansatz(layout, config)
    number_ops = [number_operator(layout, l) for l in range(2)]
    rng = np.random.default_rng(7)
    for _ in range(10):
        params = rng.uniform(-0.5, 0.5, circuit.num_parameters)
        state = apply_circuit(circuit, params)
        bare = expectation(state, h)
        occupations = [expectation(state, op) for op in number_ops]
        penalized = penalty_objective(bare, occupations, 1e5)
        assert abs(penalized - bare) < 1e-9


def test_ryrz_without_penalty_collapses_to_vacuum(coupled_system):
    layout, _, h = coupled_system
    exact = physical_spectrum(h, layout)[0]
    config = VqeConfig(ansatz="ryrz", depth=1, mu=0.0, seed=3,
                       max_evals=30000)
    result = ground_state(h, layout, config)
    assert result.energy < exact - 10.0  # unphysical: below the true ground
    circuit = build_ansatz(layout, config)
    state = apply_circuit(circuit, result.params)
    deviations = [abs(expectation(state, number_operator(layout, l)) - 1.0)
                  for l in range(2)]
    assert max(deviations) > 0.1


def test_ryrz_with_penalty_restores_occupations(coupled_system):
    layout, _, h = coupled_system
    config = VqeConfig(ansatz="ryrz", depth=1, seed=0, max_evals=60000)
    assert config.effective_mu() == 1e5
    result = ground_state(h, layout, config)
    circuit = build_ansatz(layout, config)
    state = apply_circuit(circuit, result.params)
    for mode in range(2):
        occ = expectation(state, number_operator(layout, mode))
        assert abs(occ - 1.0) < 1e-3


def test_ground_state_deterministic_for_fixed_seed(coupled_system):
    layout, _, h = coupled_system
    config = VqeConfig(ansatz="uvccsd", seed=11, max_evals=2000)
    a = ground_state(h, layout, config)
    b = ground_state(h, layout, config)
    assert a.energy == b.energy
    assert np.array_equal(a.params, b.params)
    assert a.history == b.history


def test_config_validation():
    with pytest.raises(ValueError):
        VqeConfig(ansatz="uccsd")
    with pytest.raises(ValueError):
        VqeConfig(tol=0.0)
    assert VqeConfig(ansatz="swaprz").effective_mu() == 1e5
    assert VqeConfig(ansatz="chc").effective_mu() == 0.0
    assert VqeConfig(ansatz="chc", mu=7.0).effective_mu() == 7.0


def test_negative_penalty_weight_rejected():
    for ansatz in ("uvccsd", "ryrz"):
        with pytest.raises(ValueError, match="penalty weight"):
            VqeConfig(ansatz=ansatz, mu=-1.0)
    assert VqeConfig(ansatz="ryrz", mu=0.0).effective_mu() == 0.0


def test_initial_params_shape_checked(coupled_system):
    layout, _, h = coupled_system
    with pytest.raises(ValueError, match="initial"):
        ground_state(h, layout,
                     VqeConfig(ansatz="uvccsd", initial_params=(0.0,)))


def test_result_serialization(coupled_system):
    layout, _, h = coupled_system
    result = ground_state(h, layout,
                          VqeConfig(ansatz="uvccsd", seed=5, max_evals=500))
    data = result.to_dict()
    assert set(data) == {"energy", "params", "history", "evals", "seed",
                         "stop_reason", "converged", "route"}
    assert data["seed"] == 5
    assert data["route"] == "physical"
    assert len(data["params"]) == 3
    assert data["stop_reason"] == result.stop_reason
    assert data["converged"] == result.converged


@pytest.mark.parametrize("ansatz,depth,trotter_steps", [
    ("uvccsd", 1, 1), ("uvccsd", 1, 3), ("chc", 1, 1),
    ("swaprz", 1, 1), ("swaprz", 2, 1), ("ryrz", 1, 1), ("ryrz", 2, 1),
])
@pytest.mark.parametrize("modals", [(2, 2), (2, 4), (3, 3), (3, 3, 2)])
def test_program_state_matches_circuit(modals, ansatz, depth, trotter_steps):
    layout = QubitLayout(modals)
    config = VqeConfig(ansatz=ansatz, depth=depth,
                       trotter_steps=trotter_steps)
    circuit = build_ansatz(layout, config)
    program = ansatz_program(layout, config)
    assert program.num_parameters == circuit.num_parameters
    rng = np.random.default_rng(len(modals) * 100 + sum(modals))
    for _ in range(3):
        params = rng.uniform(-np.pi, np.pi, circuit.num_parameters)
        expected = apply_circuit(circuit, params).amplitudes
        got = program.amplitudes(params)
        assert np.max(np.abs(got - expected)) <= 1e-12


def test_program_checks_parameter_count():
    program = ansatz_program(QubitLayout((2, 2)), VqeConfig())
    with pytest.raises(ValueError, match="parameters"):
        program.amplitudes([0.0])


def test_result_carries_prepared_state(coupled_system):
    layout, _, h = coupled_system
    config = VqeConfig(ansatz="chc", seed=4, max_evals=300)
    result = ground_state(h, layout, config)
    expected = apply_circuit(build_ansatz(layout, config), result.params)
    assert np.max(np.abs(result.state.amplitudes
                         - expected.amplitudes)) <= 1e-12
    assert expectation(result.state, h) == pytest.approx(result.energy,
                                                         abs=1e-9)
    assert "state" not in result.to_dict()
    assert result.route == "parity"


def test_stop_reason_budget_versus_tolerance(coupled_system):
    layout, _, h = coupled_system
    budget = ground_state(h, layout, VqeConfig(seed=1, max_evals=40))
    assert budget.evals == 40
    assert budget.stop_reason == "max_evals"
    assert not budget.converged
    full = ground_state(h, layout, VqeConfig(seed=1))
    assert full.stop_reason == "tolerance"
    assert full.converged
    spsa = minimize(lambda p: float(np.sum(p ** 2)), [0.5, 0.5],
                    VqeConfig(optimizer="spsa", max_evals=41))
    assert spsa.stop_reason == "max_evals"


def test_spsa_evaluates_its_start_once():
    calls = []

    def bowl(p):
        calls.append(np.array(p))
        return float(np.sum(p ** 2))

    result = minimize(bowl, [0.5, 0.5],
                      VqeConfig(optimizer="spsa", max_evals=41))
    assert result.evals == len(calls) == 41
    assert result.stop_reason == "max_evals"
    np.testing.assert_array_equal(calls[0], [0.5, 0.5])
    assert not any(np.array_equal(a, b) for a, b in zip(calls, calls[1:]))
    # the other 40 are the +- pairs of all 20 iterations, the first
    # centred on the start
    pairs = np.array(calls[1:]).reshape(20, 2, 2)
    np.testing.assert_allclose(pairs[0].mean(axis=0), [0.5, 0.5],
                               rtol=0, atol=1e-15)


def test_spsa_with_an_even_budget_ends_on_a_whole_pair():
    """After the start, every evaluation is half of a +- pair that feeds
    an update: 40 evaluations make 19 iterations, not 19 and a lone "+"."""
    calls = []

    def bowl(p):
        calls.append(np.array(p))
        return float((p[0] - 1.0) ** 2 + 3.0 * p[1] ** 2)

    result = minimize(bowl, [0.5, -0.3],
                      VqeConfig(optimizer="spsa", max_evals=40))
    assert result.evals == len(calls) == 39
    assert result.stop_reason == "max_evals"
    pairs = np.array(calls[1:]).reshape(19, 2, 2)
    # each pair is theta +- c_k delta with delta_i = +-1
    half = (pairs[:, 0] - pairs[:, 1]) / 2.0
    np.testing.assert_allclose(np.abs(half[:, 0]), np.abs(half[:, 1]),
                               rtol=1e-12)
    centres = pairs.mean(axis=1)
    np.testing.assert_allclose(centres[0], [0.5, -0.3], rtol=0, atol=1e-15)
    # each pair's update moved theta before the next pair
    assert not any(np.array_equal(c0, c1)
                   for c0, c1 in zip(centres, centres[1:]))


def test_max_evals_must_be_positive():
    with pytest.raises(ValueError, match="max_evals"):
        VqeConfig(max_evals=0)


def test_oversized_register_refused_before_the_ansatz_is_built(monkeypatch):
    """On the full route the Hamiltonian's size check comes before the
    ansatz program's index arrays: 32 flip masks on 20 qubits exceed the
    compiled limit.  (chc on the parity route compiles only 32 x 32 768
    entries here.)"""
    layout = QubitLayout((4,) * 5)
    n = layout.num_qubits
    labels = ["".join("X" if (k >> q) & 1 else "I" for q in range(n))
              for k in range(1, 33)]
    hamiltonian = PauliSum(n, [(label, 1.0) for label in labels])

    def no_program(*args, **kwargs):
        raise AssertionError("ansatz program built before the size check")

    monkeypatch.setattr(AnsatzProgram, "compile", no_program)
    with pytest.raises(ValueError, match="32 flip masks on 20 qubits"):
        vqe.ground_state(hamiltonian, layout, VqeConfig(ansatz="ryrz"))


def test_oversized_parity_basis_refused_before_any_index_array(monkeypatch):
    """chc on (5,)*7 runs on 2^(35 - 7) = 2^28 parity states: the table on
    them is refused before the basis, the table or the program is built,
    and ``parity_indices`` refuses the basis itself."""
    layout = QubitLayout((5,) * 7)
    hamiltonian = PauliSum(layout.num_qubits,
                           [("Z" + "I" * (layout.num_qubits - 1), 1.0)])

    def no_program(*args, **kwargs):
        raise AssertionError("ansatz program built before the size check")

    monkeypatch.setattr(AnsatzProgram, "compile", no_program)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="compiling 1 flip masks on 35 "
                                             "qubits needs 4295 MB"):
            vqe.ground_state(hamiltonian, layout, VqeConfig(ansatz="chc"))
        with pytest.raises(ValueError, match=r"parity basis of 2\^28 states "
                                             "needs 2148 MB"):
            parity_indices(layout)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_oversized_parity_table_refused_before_the_basis_is_built(
        monkeypatch):
    """chc on (5,)*6 runs on 2^24 parity states, a basis inside the limit,
    but 2 flip masks on it are not: the compile's size check comes before
    the 134 MB index array, with the compile's own message."""
    layout = QubitLayout((5,) * 6)
    n = layout.num_qubits
    hamiltonian = PauliSum(n, [("Z" + "I" * (n - 1), 1.0),
                               ("XX" + "I" * (n - 2), 0.5)])

    def no_basis(*args, **kwargs):
        raise AssertionError("parity basis built before the size check")

    monkeypatch.setattr(vqe, "parity_indices", no_basis)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="compiling 2 flip masks on 30 "
                                             "qubits needs 470 MB"):
            vqe.ground_state(hamiltonian, layout, VqeConfig(ansatz="chc"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


def test_oversized_ansatz_program_refused_before_the_basis_is_built(
        monkeypatch):
    """chc on (5,)*5 runs on 2^20 parity states, and a one-mask table on
    them fits, but its 180 rotations at 16 B a state do not: refused after
    H's check and before the 8 MB index array."""
    layout = QubitLayout((5,) * 5)
    n = layout.num_qubits
    hamiltonian = PauliSum(n, [("Z" + "I" * (n - 1), 1.0),
                               ("IZ" + "I" * (n - 2), 0.5)])

    def no_basis(*args, **kwargs):
        raise AssertionError("parity basis built before the size check")

    monkeypatch.setattr(vqe, "parity_indices", no_basis)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="ansatz program of 180 steps on "
                                             "1048576 states needs 3020 MB"):
            vqe.ground_state(hamiltonian, layout, VqeConfig(ansatz="chc"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_oversized_physical_block_refused_before_the_ansatz_is_built(
        monkeypatch):
    """uvccsd on (5,)*6 needs a 15 625-state block: refused by the exact
    path's dimension check before any index array or 2^30 array exists."""
    layout = QubitLayout((5,) * 6)
    hamiltonian = PauliSum(layout.num_qubits,
                           [("Z" + "I" * (layout.num_qubits - 1), 1.0)])

    def no_program(*args, **kwargs):
        raise AssertionError("ansatz program built before the size check")

    monkeypatch.setattr(AnsatzProgram, "compile", no_program)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="physical block of dimension "
                                             "15625 needs 1954 MB"):
            vqe.ground_state(hamiltonian, layout)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_non_hermitian_hamiltonian_refused_on_both_routes():
    layout = QubitLayout((2, 2))
    hamiltonian = PauliSum(4, [("IIII", 1000.0), ("ZIII", 5j)])
    for ansatz in ("uvccsd", "chc"):
        with pytest.raises(ValueError, match="operator is not Hermitian"):
            ground_state(hamiltonian, layout, VqeConfig(ansatz=ansatz))


def test_non_hermitian_part_outside_the_block_refused(coupled_system):
    # i X on qubit 0 flips one bit of mode 0's register, so it has no
    # entry in the physical block; its coefficient still shows it
    layout, _, h = coupled_system
    hamiltonian = h + PauliSum.from_label("XIII", 1j)
    with pytest.raises(ValueError, match="operator is not Hermitian"):
        ground_state(hamiltonian, layout, VqeConfig(ansatz="uvccsd"))


def test_imaginary_physical_block_refused_on_the_physical_route(
        coupled_system):
    # X0 Y1 is Hermitian and swaps mode 0's two modals with phase -+i, so
    # the block is not real; the parity route takes it, as Re<a|H a> is
    # the exact energy of real amplitudes a
    layout, _, h = coupled_system
    hamiltonian = h + PauliSum.from_label("XYII", 0.5)
    with pytest.raises(ValueError, match="physical block has imaginary part"):
        ground_state(hamiltonian, layout, VqeConfig(ansatz="uvccsd"))
    chc = ground_state(hamiltonian, layout,
                       VqeConfig(ansatz="chc", max_evals=60))
    assert chc.route == "parity" and chc.evals == 60
    assert np.isfinite(chc.energy)


@pytest.mark.parametrize("trotter_steps", [1, 3])
@pytest.mark.parametrize("modals", [(2, 2), (2, 4), (3, 3), (3, 3, 2)])
def test_physical_program_matches_full_space(modals, trotter_steps):
    layout = QubitLayout(modals)
    config = VqeConfig(ansatz="uvccsd", trotter_steps=trotter_steps)
    indices = physical_indices(layout)
    full = ansatz_program(layout, config)
    block = ansatz_program(layout, config, indices)
    assert block.real and block.indices.size == np.prod(modals)
    rng = np.random.default_rng(sum(modals) * 10 + trotter_steps)
    for _ in range(3):
        params = rng.uniform(-np.pi, np.pi, full.num_parameters)
        expected = full.amplitudes(params)
        embedded = embed(layout.num_qubits, indices, block.amplitudes(params))
        assert np.max(np.abs(embedded.amplitudes - expected)) <= 1e-12
        assert np.max(np.abs(block.amplitudes(params)
                             - expected[indices])) <= 1e-12


@pytest.mark.parametrize("modals", [(2, 2), (3, 3), (2, 2, 2), (3, 3, 2)])
def test_parity_program_matches_full_space_and_circuit(modals):
    layout = QubitLayout(modals)
    config = VqeConfig(ansatz="chc")
    indices = parity_indices(layout)
    full = ansatz_program(layout, config)
    parity = ansatz_program(layout, config, indices)
    assert parity.real and full.real
    assert parity.indices.size == 2 ** (layout.num_qubits - len(modals))
    circuit = build_ansatz(layout, config)
    rng = np.random.default_rng(sum(modals) * 10 + len(modals))
    for _ in range(3):
        params = rng.uniform(-np.pi, np.pi, full.num_parameters)
        expected = apply_circuit(circuit, params).amplitudes
        got = parity.amplitudes(params)
        embedded = embed(layout.num_qubits, indices, got).amplitudes
        assert np.max(np.abs(embedded - expected)) <= 1e-12
        assert np.max(np.abs(got - full.amplitudes(params)[indices])) \
            <= 1e-12


def test_leaking_ansatz_refused_on_the_physical_basis():
    # a chc single flips its two qubits, which leaves the physical basis
    # whenever the mode's third modal is the occupied one
    layout = QubitLayout((3, 3))
    indices = physical_indices(layout)
    with pytest.raises(ValueError, match="leaves the program's basis"):
        ansatz_program(layout, VqeConfig(ansatz="chc"), indices)


@pytest.mark.parametrize("ansatz,route,num_modes,modals,evals", [
    pytest.param("uvccsd", "physical", 3, 2, 889, id="3-2-889"),
    pytest.param("uvccsd", "physical", 2, 3, 1301, id="2-3-1301"),
    pytest.param("chc", "parity", 2, 3, 1418, id="chc-2-3-1418"),
])
def test_physical_route_matches_full_space_minimization(ansatz, route,
                                                        num_modes, modals,
                                                        evals):
    """The benchmark's seed-0 systems: same evaluations, same energy and
    the same state as Nelder-Mead over the full-space program, for
    uvccsd on the physical route and chc on the parity route."""
    layout, _, h = build_qubit_hamiltonian(bench_pes(num_modes, 0),
                                           (modals,) * num_modes)
    config = VqeConfig(ansatz=ansatz, seed=0)
    program = ansatz_program(layout, config)
    compiled = compile_pauli_sum(h)
    start = np.random.default_rng(config.seed).uniform(
        *vqe.INIT_RANGE, size=program.num_parameters)
    def full_space_energy(params):
        amps = StateVector(layout.num_qubits,
                           program.amplitudes(params)).amplitudes
        return np.vdot(amps, compiled @ amps).real

    reference = minimize(full_space_energy, start, config)
    result = ground_state(h, layout, config)
    assert result.route == route
    assert result.evals == reference.evals == evals
    assert abs(result.energy - reference.energy) \
        <= 1e-10 * abs(reference.energy)
    expected = program.amplitudes(result.params)
    assert np.max(np.abs(result.state.amplitudes - expected)) <= 1e-12


@pytest.mark.parametrize("ansatz,route,modals", [
    pytest.param("swaprz", "full", (2, 2), id="swaprz"),
    pytest.param("ryrz", "full", (2, 2), id="ryrz"),
    pytest.param("chc", "parity", (3, 3), id="chc"),
])
def test_full_route_penalty_matches_number_operators(coupled_pes, ansatz,
                                                     route, modals):
    """The penalty on the full and parity routes against the number
    operators' expectations; chc at (3,3) leaks into weight-3 registers."""
    layout, _, h = build_qubit_hamiltonian(coupled_pes, modals)
    config = VqeConfig(ansatz=ansatz, depth=2, mu=1e5)
    route_taken, objective, program = vqe._objective(h, layout, config)
    assert route_taken == route
    rng = np.random.default_rng(5)
    penalties = []
    for _ in range(5):
        params = rng.uniform(-np.pi, np.pi, program.num_parameters)
        state = embed(layout.num_qubits, program.indices,
                      program.amplitudes(params))
        energy = expectation(state, h)
        expected = penalty_objective(
            energy, [expectation(state, number_operator(layout, l))
                     for l in range(layout.num_modes)], 1e5)
        assert objective(params) == pytest.approx(expected, rel=1e-12)
        penalties.append(expected - energy)
    assert max(penalties) > 1.0


@pytest.mark.parametrize("modals", [(2, 2, 2), (4, 4), (3, 3, 3), (4, 4, 4)])
def test_physical_energy_is_the_quadratic_form_bit_for_bit(modals):
    """The physical route's energy against a^T B a by ``@``, at random
    parameters, on D = 8 to 64 states."""
    layout, _, h = build_qubit_hamiltonian(bench_pes(len(modals), 0), modals)
    route, objective, program = vqe._objective(h, layout, VqeConfig())
    assert route == "physical"
    _, block = physical_block(h, layout)
    rng = np.random.default_rng(len(block))
    for _ in range(20):
        params = rng.uniform(-np.pi, np.pi, program.num_parameters)
        assert objective(params) == quadratic_form(program.amplitudes(params),
                                                   block)


def test_full_route_keeps_a_real_hamiltonian_real():
    """swaprz at (4,4,4): 4096 complex amplitudes against a real CSR H.
    Each energy is scipy's product with the real matrix, bit for bit, and
    one call of the penalized objective peaks below 1 MB, where casting H
    to complex for each product takes 8.4 MB."""
    layout, _, h = build_qubit_hamiltonian(bench_pes(3, 0), (4, 4, 4))
    compiled = compile_pauli_sum(h)
    assert compiled.dtype == np.float64
    rng = np.random.default_rng(444)
    for mu in (None, 0.0):
        route, objective, program = vqe._objective(
            h, layout, VqeConfig(ansatz="swaprz", mu=mu))
        assert route == "full" and not program.real
        params = rng.uniform(-np.pi, np.pi, program.num_parameters)
        value = objective(params)
        tracemalloc.start()
        try:
            assert objective(params) == value
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
    for _ in range(5):  # the last objective has mu = 0: the bare energy
        params = rng.uniform(-np.pi, np.pi, program.num_parameters)
        amps = program.amplitudes(params)
        assert objective(params) == float(np.vdot(amps, compiled @ amps).real)


@pytest.mark.parametrize("modals", [(2, 2), (3, 3)])
def test_physical_route_keeps_its_state_on_the_block(coupled_pes, modals):
    layout, _, h = build_qubit_hamiltonian(coupled_pes, modals)
    result = ground_state(h, layout, VqeConfig(seed=1, max_evals=300))
    assert result.route == "physical"
    np.testing.assert_array_equal(result.indices, physical_indices(layout))
    assert result.amplitudes.shape == (np.prod(modals),)
    np.testing.assert_allclose(
        occupations(layout, result.amplitudes, result.indices), 1.0,
        rtol=0, atol=1e-12)
    state = result.state
    np.testing.assert_array_equal(state.amplitudes[result.indices],
                                  result.amplitudes)
    assert np.linalg.norm(state.amplitudes[result.indices]) == \
        pytest.approx(1.0, abs=1e-12)
    assert expectation(state, h) == pytest.approx(result.energy, rel=1e-12)


def test_penalty_is_zero_on_the_physical_route(coupled_system):
    layout, _, h = coupled_system
    bare = ground_state(h, layout, VqeConfig(seed=3))
    penalized = ground_state(h, layout, VqeConfig(seed=3, mu=1e5))
    assert penalized.energy == bare.energy
    assert penalized.evals == bare.evals
    assert penalized.history == bare.history


# -- the in-library simplex against scipy's driver ----------------------------

class _Cap(Exception):
    pass


def _recorded(fn, cap=20_000):
    """``fn`` recording each point it is given, and raising after ``cap``
    so that a simplex that never converges still ends."""
    points = []

    def f(x):
        if len(points) >= cap:
            raise _Cap
        points.append(np.array(x))
        return float(fn(x))

    return points, f


def _rosenbrock(x):
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2
                        + (1.0 - x[:-1]) ** 2))


_PLATEAU_AT = np.array([0.3, -0.1, 0.2])


def _plateau(x):
    # 0 at the start and 1 anywhere else: every reflection and
    # contraction ties with the worst vertex, so every step shrinks
    return float(np.any(x != _PLATEAU_AT))


def _stairs(x):
    # flat steps: ties between a trial point and a vertex decide
    # expansions and contractions, and contractions that fail on a tie
    # force shrinks
    return float(np.floor(8.0 * np.sum((x - 0.5) ** 2)))


def _quantized_kink(x):
    # whole multiples of the f tolerance, with a slope that puts the final
    # simplex's f spread at exactly one of them: the run stops on the <=
    # edge of the f-test, and a strict < would take further steps
    return SIMPLEX_FATOL * round(0.01 * float(np.sum(np.abs(x - 0.3)))
                                 / SIMPLEX_FATOL)


SIMPLEX_CASES = {
    "rosenbrock-2": (_rosenbrock, [-1.2, 1.0]),
    "rosenbrock-6-adaptive": (_rosenbrock, np.linspace(-0.5, 0.7, 6)),
    "rosenbrock-8-adaptive": (_rosenbrock, np.linspace(0.9, -0.3, 8)),
    "zero-entries": (_rosenbrock, [0.0, 0.3, 0.0, -0.2]),
    "rounded-ties": (lambda x: round(_rosenbrock(x), 1), [0.1, -0.4, 0.3]),
    "stairs-3": (_stairs, [0.1, 0.2, -0.3]),
    "stairs-6-adaptive": (_stairs, [0.1, 0.2, -0.3, 0.4, 0.0, 0.1]),
    "plateau-shrinks": (_plateau, _PLATEAU_AT),
    "quantized-edge": (_quantized_kink, [0.1, 0.2]),
}


@pytest.mark.parametrize("case", SIMPLEX_CASES)
def test_simplex_visits_scipys_points_bit_for_bit(case):
    fn, x0 = SIMPLEX_CASES[case]
    x0 = np.array(x0, dtype=float)
    adaptive = x0.size >= 6
    got, f = _recorded(fn)
    try:
        best = vqe._nelder_mead(f, x0.copy(), adaptive)
    except _Cap:
        best = None
    expected, f_ref = _recorded(fn)
    try:
        reference = scipy_nelder_mead(f_ref, x0.copy(), adaptive,
                                      max_evals=10 ** 9)
    except _Cap:
        reference = None
    assert len(got) == len(expected) > 2 * x0.size
    assert all(np.array_equal(a, b) for a, b in zip(got, expected))
    assert (best is None) == (reference is None)
    if best is not None:
        np.testing.assert_array_equal(best, reference.x)
    values = [fn(p) for p in got]
    if case == "zero-entries":
        # the initial simplex steps a zero entry to 0.00025
        assert got[1][0] == got[3][2] == 0.00025
    if case in ("rounded-ties", "stairs-3", "stairs-6-adaptive"):
        assert len(set(values)) < len(values)
    if case == "plateau-shrinks":
        assert best is None  # shrinks until the cap


def _compare_with_scipy_restarts(monkeypatch, run, max_evals):
    """``run()`` with the in-library simplex and with scipy's driver under
    the restart loop, with ``max_evals`` as scipy's ``maxfev`` and
    ``maxiter``; returns the first result once they agree."""
    result = run()
    with monkeypatch.context() as patch:
        patch.setattr(vqe, "_nelder_mead", lambda f, x0, adaptive:
                      scipy_nelder_mead(f, x0, adaptive, max_evals))
        reference = run()
    assert result.evals == reference.evals
    assert result.history == reference.history
    np.testing.assert_array_equal(result.params, reference.params)
    assert result.stop_reason == reference.stop_reason
    assert result.energy == reference.energy
    return result


@pytest.mark.parametrize("case", ["rosenbrock-2", "rosenbrock-6-adaptive",
                                  "zero-entries", "plateau-shrinks"])
@pytest.mark.parametrize("max_evals", [1, 2, 3, 4, 5, 8, 9, 13, 40, 150,
                                       200_000])
def test_minimize_matches_the_scipy_restart_loop(monkeypatch, case,
                                                 max_evals):
    """The budget runs out inside the initial simplex (at 3 and 4), inside
    a shrink (plateau-shrinks at 8, 9 and 13: the start, 4 vertices, then
    2 + 3 evaluations a step) and mid-run; the tracker, which counts the
    start and every earlier run, always stops before scipy's ``maxfev``
    and ``maxiter`` of ``max_evals`` could."""
    fn, x0 = SIMPLEX_CASES[case]
    config = VqeConfig(max_evals=max_evals)
    result = _compare_with_scipy_restarts(
        monkeypatch, lambda: minimize(fn, x0, config), max_evals)
    if max_evals <= 13:
        assert result.evals == max_evals
        assert result.stop_reason == "max_evals"


@pytest.mark.parametrize("num_modes,modals,evals", [
    pytest.param(2, 4, 4339, id="2-4-4339"),
    pytest.param(3, 3, 5187, id="3-3-5187"),
])
def test_larger_uvccsd_systems_keep_their_evaluation_counts(
        monkeypatch, num_modes, modals, evals):
    """uvccsd on the benchmark's seed-0 PES at (2x4) and (3x3), 16 and 27
    parameters: the in-library simplex repeats scipy's run exactly."""
    layout, _, h = build_qubit_hamiltonian(bench_pes(num_modes, 0),
                                           (modals,) * num_modes)
    config = VqeConfig(seed=0)
    result = _compare_with_scipy_restarts(
        monkeypatch, lambda: ground_state(h, layout, config),
        config.max_evals)
    assert result.evals == evals
    assert result.converged
