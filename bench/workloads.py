"""The four benchmark workloads: inputs, command line, set-up and checks.

Each workload writes its inputs from the seed, names the ``vibriq``
command line that runs on them, repeats the command's own set-up through
the same public functions in the same order, and checks a command's JSON
result against the oracles in ``oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracles
from pesgen import make_pes, write_pes

PRIMITIVE_DIM = 40          # the CLI default --primitive-dim
NOISE = (7e-4, 1.4e-3, 2.2e-2)  # the CLI default --p-u2, --p-u3, --p-cx
NOISE_LAYOUT = (2, 4)
NOISE_SHOTS = 10000
NOISE_TRIALS = 1
PARAM_RANGE = 0.2           # noise-fidelity draws parameters in [-0.2, 0.2]
ORACLE_PARAM_DRAWS = 12     # parameter sets behind the expected fidelity
ORACLE_COUNT_DRAWS = 200    # count pairs per parameter set
NOISE_SIGMAS = 5.0
# The optimizer's start point stays fixed while the PES follows the seed:
# a seeded start moves the evaluation count by up to a fifth from seed to
# seed, which would drown a wall-time change in the spread.
VQE_START_SEED = "0"


@dataclass
class Inputs:
    """What one run of a workload needs: files, command line and oracle."""

    argv: list[str]
    out_path: Path
    oracle: object
    pes_path: Path | None = None


@dataclass(frozen=True)
class Workload:
    prepare: Callable[[Path, int], Inputs]
    setup: Callable[[Inputs], None]
    check: Callable[[dict, Inputs], list[str]]


# -- PES workloads -----------------------------------------------------------

def _pes_inputs(workdir: Path, seed: int, modes: int, modals: int,
                command: list[str]) -> Inputs:
    pes_path = workdir / "pes.json"
    out_path = workdir / "result.json"
    write_pes(pes_path, modes, seed)
    eigenvalues = oracles.physical_eigenvalues(make_pes(modes, seed),
                                               [modals] * modes, PRIMITIVE_DIM)
    argv = [command[0], "--pes", str(pes_path), "--modals", str(modals),
            *command[1:], "--out", str(out_path)]
    return Inputs(argv, out_path, eigenvalues, pes_path)


def _hamiltonian_setup(inputs: Inputs, ansatz: str | None) -> None:
    """load_pes -> solve_modals -> modal_operator_matrices ->
    build_sq_hamiltonian -> map_to_pauli [-> build_ansatz], as the CLI does."""
    from vibriq.mapping import QubitLayout, build_sq_hamiltonian, map_to_pauli
    from vibriq.pes import load_pes, modal_operator_matrices, solve_modals
    from vibriq.vqe import VqeConfig, build_ansatz

    pes = load_pes(inputs.pes_path)
    modals = int(inputs.argv[inputs.argv.index("--modals") + 1])
    layout = QubitLayout((modals,) * pes.num_modes)
    basis = solve_modals(pes, layout.modal_counts, dim=PRIMITIVE_DIM)
    operators = modal_operator_matrices(basis, pes)
    terms = build_sq_hamiltonian(pes, operators,
                                 n_body=max(2, pes.max_coupling_order()))
    map_to_pauli(terms, layout)
    if ansatz is not None:
        build_ansatz(layout, VqeConfig(ansatz=ansatz))


def _check_ground(energy: float, inputs: Inputs, problems: list[str]) -> None:
    exact = float(inputs.oracle[0])
    if not abs(energy - exact) <= 1e-6:
        problems.append(f"ground energy {energy!r} is not within 1e-6 of "
                        f"the oracle's {exact!r}")


def _check_vqe(payload: dict, inputs: Inputs) -> list[str]:
    result = payload["result"]
    problems: list[str] = []
    _check_ground(result["energy"], inputs, problems)
    occupations = result["occupations"]
    if len(occupations) != 3 or any(not abs(n - 1.0) <= 1e-6
                                    for n in occupations):
        problems.append(f"mode occupations {occupations} are not all 1")
    return problems


def _check_qeom(payload: dict, inputs: Inputs) -> list[str]:
    result = payload["result"]
    problems: list[str] = []
    _check_ground(result["ground_energy"], inputs, problems)
    energies = np.asarray(result["energies"], dtype=float)
    gaps = inputs.oracle[1:] - inputs.oracle[0]
    if result["pool_size"] != 8 or energies.shape != gaps.shape:
        problems.append(f"{energies.size} qEOM energies from a pool of "
                        f"{result['pool_size']}; expected 8 and 8")
    elif not np.max(np.abs(energies - gaps)) <= 1e-4:
        problems.append(f"qEOM energies {energies.tolist()} differ from the "
                        f"oracle gaps {gaps.tolist()} by more than 1e-4")
    return problems


def _check_exact(payload: dict, inputs: Inputs) -> list[str]:
    values = np.asarray(payload["result"]["eigenvalues"], dtype=float)
    ref = inputs.oracle
    if values.shape != ref.shape:
        return [f"{values.size} eigenvalues, expected {ref.size}"]
    worst = float(np.max(np.abs(values - ref) / np.abs(ref)))
    if not worst <= 1e-8:
        return [f"eigenvalues differ from the oracle by {worst:.3e} relative"]
    return []


# -- noise workload ----------------------------------------------------------

def _noise_circuits():
    from vibriq.circuits import build_chc, build_uvcc, excitation_list
    from vibriq.mapping import QubitLayout

    layout = QubitLayout(NOISE_LAYOUT)
    excitations = excitation_list(layout, 2)
    return layout, {"uvccsd": build_uvcc(layout, excitations),
                    "chc": build_chc(layout, excitations)}


def expected_fidelities(seed: int) -> dict[str, tuple[float, float]]:
    """Mean and spread of one trial's fidelity, per ansatz, from the channel.

    Parameters are drawn from the command's range; for each set the exact
    ideal (uvccsd) and noisy distributions give many independent count
    pairs at the command's shot count.  The spread therefore holds both the
    parameter dependence and the shot noise.
    """
    layout, circuits = _noise_circuits()
    n = layout.num_qubits
    rng = np.random.default_rng([seed, 0x0F1DE])
    samples: dict[str, list[np.ndarray]] = {name: [] for name in circuits}
    for _ in range(ORACLE_PARAM_DRAWS):
        params = rng.uniform(-PARAM_RANGE, PARAM_RANGE,
                             size=circuits["uvccsd"].num_parameters)
        ideal = oracles.outcome_distribution(circuits["uvccsd"].gates, n, params)
        for name, circuit in circuits.items():
            noisy = oracles.outcome_distribution(circuit.gates, n, params, NOISE)
            samples[name].append(oracles.sampled_fidelity(
                noisy, ideal, NOISE_SHOTS, rng, ORACLE_COUNT_DRAWS))
    return {name: (float(np.mean(v)), float(np.std(v, ddof=1)))
            for name, v in samples.items()}


def _noise_inputs(workdir: Path, seed: int) -> Inputs:
    out_path = workdir / "result.json"
    argv = ["noise-fidelity", "--modals", ",".join(map(str, NOISE_LAYOUT)),
            "--shots", str(NOISE_SHOTS), "--trials", str(NOISE_TRIALS),
            "--seed", str(seed), "--out", str(out_path)]
    return Inputs(argv, out_path, expected_fidelities(seed))


def _noise_setup(inputs: Inputs) -> None:
    """The command's set-up: the uvccsd and chc ansatz builds."""
    _noise_circuits()


def _check_noise(payload: dict, inputs: Inputs) -> list[str]:
    fidelity = payload["result"]["fidelity"]
    problems: list[str] = []
    for name, (mean, spread) in inputs.oracle.items():
        values = fidelity[name]["values"]
        if len(values) != NOISE_TRIALS:
            problems.append(f"{name}: {len(values)} trials, "
                            f"expected {NOISE_TRIALS}")
            continue
        # one trial: the oracle's spread, widened by its own mean's error
        tol = NOISE_SIGMAS * spread * np.sqrt(1.0 + 1.0 / ORACLE_PARAM_DRAWS)
        for v in values:
            if not abs(v - mean) <= tol:
                problems.append(f"{name} fidelity {v:.4f} is outside the "
                                f"oracle's {mean:.4f} +- {tol:.4f}")
        trial_mean = fidelity[name]["mean"]
        mean_tol = NOISE_SIGMAS * spread * np.sqrt(
            1.0 / NOISE_TRIALS + 1.0 / ORACLE_PARAM_DRAWS)
        if not abs(trial_mean - mean) <= mean_tol:
            problems.append(f"{name} mean fidelity {trial_mean:.4f} is "
                            f"outside {mean:.4f} +- {mean_tol:.4f}")
    if not fidelity["chc"]["mean"] > fidelity["uvccsd"]["mean"]:
        problems.append("chc mean fidelity does not exceed uvccsd's")
    return problems


WORKLOADS = {
    "vqe-uvcc": Workload(
        lambda d, s: _pes_inputs(d, s, 3, 2, ["vqe", "--ansatz", "uvccsd",
                                              "--seed", VQE_START_SEED]),
        lambda i: _hamiltonian_setup(i, "uvccsd"),
        _check_vqe),
    "qeom-chc": Workload(
        lambda d, s: _pes_inputs(d, s, 2, 3, ["qeom", "--ansatz", "chc",
                                              "--seed", VQE_START_SEED]),
        lambda i: _hamiltonian_setup(i, "chc"),
        _check_qeom),
    "noise-2x4": Workload(_noise_inputs, _noise_setup, _check_noise),
    "exact-5mode": Workload(
        lambda d, s: _pes_inputs(d, s, 5, 2, ["exact"]),
        lambda i: _hamiltonian_setup(i, None),
        _check_exact),
}
