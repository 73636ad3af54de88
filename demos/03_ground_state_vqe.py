"""Ground-state optimization with four ansatz families on one system.

The cluster ansatz conserves per-mode occupation and needs no penalty; the
hardware-efficient circuits leak out of the physical subspace, and without
the penalty the generic RY/RZ circuit slides all the way to the vacuum.
The penalty weight of 1e5 pushes it back to within a fraction of a percent
of single occupation.
"""

from vibriq import (PesExpansion, PesTerm, QubitLayout, VqeConfig,
                    build_sq_hamiltonian, expectation, ground_state,
                    map_to_pauli, modal_operator_matrices, occupations,
                    physical_spectrum, solve_modals)

pes = PesExpansion(
    frequencies=(160.0, 240.0),
    terms=(PesTerm(1.45, {0: 4}), PesTerm(-1.32, {1: 3}),
           PesTerm(10.74, {0: 1, 1: 1})),
)
layout = QubitLayout((2, 2))
basis = solve_modals(pes, layout.modal_counts)
terms = build_sq_hamiltonian(pes, modal_operator_matrices(basis, pes))
hamiltonian = map_to_pauli(terms, layout)

exact = physical_spectrum(hamiltonian, layout)[0]
print(f"exact ground energy: {exact:.6f} cm^-1\n")


def report(config: VqeConfig, label: str) -> None:
    result = ground_state(hamiltonian, layout, config)
    occ = occupations(layout, result.amplitudes, result.indices)
    bare = expectation(result.state, hamiltonian)
    print(f"{label:<22} E = {bare:12.6f}  error = {bare - exact:+.2e}  "
          f"<N> = ({occ[0]:.6f}, {occ[1]:.6f})  "
          f"evals = {result.evals} ({result.stop_reason})")


report(VqeConfig(ansatz="uvccsd", seed=1), "uvccsd")
report(VqeConfig(ansatz="chc", seed=1), "chc")
report(VqeConfig(ansatz="swaprz", depth=2, seed=1, max_evals=60000),
       "swaprz d=2, mu=1e5")
report(VqeConfig(ansatz="swaprz", depth=2, seed=1, mu=0.0, max_evals=60000),
       "swaprz d=2, mu=0")
report(VqeConfig(ansatz="ryrz", depth=1, seed=0, max_evals=60000),
       "ryrz d=1, mu=1e5")

# Without the penalty the RY/RZ circuit drains every register: the "energy"
# drops below the physical ground state because the vacuum is not a
# vibrational state at all.
config = VqeConfig(ansatz="ryrz", depth=1, mu=0.0, seed=3, max_evals=30000)
result = ground_state(hamiltonian, layout, config)
occ = occupations(layout, result.amplitudes, result.indices)
print(f"{'ryrz d=1, mu=0':<22} E = {result.energy:12.6f}  "
      f"(below exact by {exact - result.energy:.1f})  "
      f"<N> = ({occ[0]:.2e}, {occ[1]:.2e})  <- vacuum")
