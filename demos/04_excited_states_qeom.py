"""Vibrational excitation energies from the equation-of-motion approach.

The pseudo-eigenvalue problem is assembled from commutator expectations in
a ground state.  With the exact ground state and the full single+double
pool on 2-modal registers, the excitation energies reproduce exact
diagonalization; with a VQE ground state they inherit its (tiny) error.
"""

import numpy as np

from vibriq import (PesExpansion, PesTerm, QubitLayout, VqeConfig,
                    build_sq_hamiltonian, excitation_energies, ground_state, ground_state_vector,
                    map_to_pauli, modal_operator_matrices, physical_spectrum,
                    solve_modals)

pes = PesExpansion(
    frequencies=(160.0, 240.0),
    terms=(PesTerm(1.45, {0: 4}), PesTerm(-1.32, {1: 3}),
           PesTerm(10.74, {0: 1, 1: 1})),
)
layout = QubitLayout((2, 2))
basis = solve_modals(pes, layout.modal_counts)
hamiltonian = map_to_pauli(
    build_sq_hamiltonian(pes, modal_operator_matrices(basis, pes)), layout)

spectrum = physical_spectrum(hamiltonian, layout)
reference_gaps = spectrum[1:] - spectrum[0]
print("exact transition energies:", np.round(reference_gaps, 6))

# qEOM on the exactly diagonalized ground state.
energy, exact_ground = ground_state_vector(hamiltonian, layout)
energies, matrices, pool = excitation_energies(exact_ground, hamiltonian,
                                               layout)
print(f"\nqEOM, exact ground state (pool of {pool.size}):")
for got, want in zip(energies, reference_gaps):
    print(f"  {got:12.6f}  (error {got - want:+.2e})")

# Same with ansatz-optimized ground states.
for ansatz in ("uvccsd", "chc"):
    config = VqeConfig(ansatz=ansatz, seed=2)
    result = ground_state(hamiltonian, layout, config)
    energies, _, _ = excitation_energies(result.state, hamiltonian, layout)
    errors = energies - reference_gaps
    print(f"\nqEOM, {ansatz} ground state "
          f"(E0 error {result.energy - energy:+.2e}):")
    for got, err in zip(energies, errors):
        print(f"  {got:12.6f}  (error {err:+.2e})")
