import numpy as np
import pytest

from vibriq import vqe
from vibriq.exact import physical_spectrum
from vibriq.mapping import QubitLayout, number_operator, penalty_objective
from vibriq.pauli import PauliSum
from vibriq.simulator import apply_circuit, expectation
from vibriq.vqe import (VqeConfig, ansatz_program, build_ansatz, ground_state,
                        minimize)

from conftest import build_qubit_hamiltonian


def test_quadratic_bowl():
    result = minimize(lambda p: (p[0] - 1.0) ** 2, [0.0],
                      VqeConfig(tol=1e-14))
    assert result.params[0] == pytest.approx(1.0, abs=1e-6)
    assert result.energy == pytest.approx(0.0, abs=1e-12)


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
    with pytest.raises(ValueError):
        VqeConfig(init_range=(0.3, -0.3))
    assert VqeConfig(ansatz="swaprz").effective_mu() == 1e5
    assert VqeConfig(ansatz="chc").effective_mu() == 0.0
    assert VqeConfig(ansatz="chc", mu=7.0).effective_mu() == 7.0


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
                         "stop_reason", "converged"}
    assert data["seed"] == 5
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
        got = program.prepare(params).amplitudes
        assert np.max(np.abs(got - expected)) <= 1e-12


def test_program_checks_parameter_count():
    program = ansatz_program(QubitLayout((2, 2)), VqeConfig())
    with pytest.raises(ValueError, match="parameters"):
        program.prepare([0.0])


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


def test_max_evals_must_be_positive():
    with pytest.raises(ValueError, match="max_evals"):
        VqeConfig(max_evals=0)


def test_oversized_register_refused_before_the_ansatz_is_built(monkeypatch):
    """The Hamiltonian's size check comes before the ansatz program's
    index arrays: 32 flip masks on 20 qubits exceed the compiled limit."""
    layout = QubitLayout((4,) * 5)
    n = layout.num_qubits
    labels = ["".join("X" if (k >> q) & 1 else "I" for q in range(n))
              for k in range(1, 33)]
    hamiltonian = PauliSum(n, [(label, 1.0) for label in labels])

    def no_program(*args, **kwargs):
        raise AssertionError("ansatz program built before the size check")

    monkeypatch.setattr(vqe, "ansatz_program", no_program)
    with pytest.raises(ValueError, match="32 flip masks on 20 qubits"):
        vqe.ground_state(hamiltonian, layout)
