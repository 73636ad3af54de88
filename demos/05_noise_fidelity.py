"""Why the compact circuit wins on noisy hardware.

Random small-angle parameter sets are run through both ansatz circuits
under the exact depolarizing channel (device-average error rates per gate
class), and the noisy counts are drawn shot by shot from its outcome
distribution.  Each noisy count distribution is scored against the ideal
cluster-ansatz reference with the count-overlap fidelity.  The compact
circuit pays a small approximation cost but survives with an order of
magnitude fewer CNOTs, so its distributions stay far closer to the
reference.

Pass --full for the 10-trial x 10000-shot protocol; the default is a
quicker 4 x 2000 run.
"""

import sys

from vibriq import (NoiseModel, QubitLayout, build_chc, build_uvcc,
                    count_resources, excitation_list, run_fidelity_experiment)

full = "--full" in sys.argv
trials, shots = (10, 10000) if full else (4, 2000)
noise = NoiseModel()  # p_u2 = 7e-4, p_u3 = 1.4e-3, p_cx = 2.2e-2
print(f"{trials} trials x {shots} shots, "
      f"rates (u2, u3, cx) = ({noise.p_u2}, {noise.p_u3}, {noise.p_cx})\n")

for counts in [(2, 2), (2, 4), (4, 4)]:
    layout = QubitLayout(counts)
    excitations = excitation_list(layout)
    cx = {"uvccsd": count_resources(build_uvcc(layout, excitations))["cx"],
          "chc": count_resources(build_chc(layout, excitations))["cx"]}
    report = run_fidelity_experiment(counts, trials=trials, shots=shots,
                                     seed=2024, noise=noise)
    print(f"modals {counts} ({layout.num_qubits} qubits):")
    for name in ("uvccsd", "chc"):
        stats = report["fidelity"][name]
        print(f"  {name:<7} {cx[name]:>5} CX   fidelity "
              f"{stats['mean']:.4f} +- {stats['stddev']:.4f}")
    print()
