"""Vibrational anharmonic eigenstates via simulated variational quantum
algorithms: n-mode second quantization, direct modal-to-qubit mapping,
cluster and heuristic ansatz circuits, penalty-constrained ground-state
optimization, equation-of-motion excited states, depolarizing noise, and
an exact reference that diagonalizes only the physical (Π N_l) block of
the Hamiltonian."""

__version__ = "0.1.0"

from .pauli import PauliString, PauliSum, commutator, commutators
from .pes import (ModalBasis, ModalOperators, PesExpansion, PesTerm,
                  ho_q_power_matrix, load_pes, modal_operator_matrices,
                  modal_q_power_matrix, one_body_matrix, pes_from_dict,
                  solve_modals)
from .mapping import (QubitLayout, SqTerm, build_sq_hamiltonian, map_to_pauli,
                      number_operator, occupations, penalty_objective)
from .circuits import (Circuit, Excitation, Gate, build_chc, build_heuristic,
                       build_uvcc, count_resources, excitation_list,
                       generator_pauli, reference_circuit)
from .simulator import (AnsatzProgram, NoiseModel, ShotCounts, StateVector,
                        apply_circuit, compile_pauli_sum,
                        distribution_fidelity, expectation, expectation_value,
                        expectation_values, noisy_counts, noisy_distribution,
                        run_fidelity_experiment, sample)
from .vqe import (VqeConfig, VqeResult, ansatz_program, build_ansatz,
                  ground_state, minimize)
from .qeom import (EomMatrices, EomOperators, build_eom_operators,
                   compute_matrices, double_commutator, eom_diagnostics,
                   excitation_energies, solve_pseudo_eigenproblem)
from .exact import (dense_matrix, ground_state_vector, parity_indices,
                    physical_indices, physical_spectrum)
