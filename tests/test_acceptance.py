"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria complete.
"""

import json
import time
from contextlib import contextmanager

import numpy as np
from scipy.linalg import expm

from helpers import (dense_from_sum, density_matrix_simulation,
                     onv_rule_matrix, physical_onvs, random_sq_hamiltonian,
                     save_pes)
from vibriq.circuits import (build_chc, build_heuristic, build_uvcc,
                             count_resources, excitation_list,
                             generator_pauli, reference_circuit)
from vibriq.cli import main as cli_main
from vibriq.exact import ground_state_vector, physical_spectrum
from vibriq.mapping import (QubitLayout, map_to_pauli, number_operator,
                            penalty_objective)
from vibriq.qeom import excitation_energies
from vibriq.simulator import (NoiseModel, StateVector, apply_circuit,
                              expectation, noisy_distribution,
                              run_fidelity_experiment)
from vibriq.vqe import VqeConfig, build_ansatz, ground_state

TABLE1 = [
    (4, 2, 304, 44, 10), (4, 4, 2640, 348, 66), (4, 6, 7280, 940, 170),
    (4, 8, 14224, 1820, 322), (4, 10, 23472, 2988, 522),
    (6, 2, 744, 102, 21), (6, 4, 6552, 846, 153), (6, 6, 18120, 2310, 405),
    (6, 8, 35448, 4494, 777), (6, 10, 58536, 7398, 1269),
    (9, 2, 1764, 234, 45), (9, 4, 15660, 1998, 351), (9, 6, 43380, 5490, 945),
    (9, 8, 84924, 10710, 1827), (9, 10, 140292, 17658, 2997),
]


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {description}", flush=True)
        raise
    print(f"ACCEPTANCE {number}: PASS - {description}", flush=True)


def test_criterion_01_resource_table_exact():
    with criterion(1, "all 15 resource-table rows exact in < 1 s"):
        start = time.perf_counter()
        for modes, modals, cx_uvcc, cx_chc, params in TABLE1:
            layout = QubitLayout((modals,) * modes)
            exc = excitation_list(layout)
            uvcc = count_resources(build_uvcc(layout, exc))
            chc = count_resources(build_chc(layout, exc))
            assert uvcc["cx"] == cx_uvcc, (modes, modals)
            assert chc["cx"] == cx_chc, (modes, modals)
            assert uvcc["params"] == chc["params"] == params, (modes, modals)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.2f} s"


def test_criterion_02_two_mode_gate_counts():
    with criterion(2, "2x2 UVCC 56 CX / 3 params; SwapRZ depth 1-3 counts"):
        layout = QubitLayout((2, 2))
        uvcc = count_resources(build_uvcc(layout, excitation_list(layout)))
        assert (uvcc["cx"], uvcc["params"]) == (56, 3)
        for depth, cx, params in [(1, 24, 14), (2, 48, 24), (3, 72, 34)]:
            res = count_resources(build_heuristic("swaprz", 4, depth))
            assert (res["cx"], res["params"]) == (cx, params), depth


def test_criterion_03_ninety_qubits():
    with criterion(3, "15 modes x 6 modals occupies 90 qubits"):
        layout = QubitLayout((6,) * 15)
        res = count_resources(reference_circuit(layout))
        assert res["qubits"] == 90


def test_criterion_04_chc_reproduces_cluster_exponentials():
    with criterion(4, "CHC blocks match exact cluster exponentials "
                      "(fidelity >= 1 - 1e-10, incl. theta = pi/4)"):
        rng = np.random.default_rng(404)
        for counts in [(2, 2), (2, 3), (2, 2, 2)]:
            layout = QubitLayout(counts)
            n = layout.num_qubits
            ref = np.zeros(1 << n, dtype=complex)
            ref[sum(1 << off for off in layout.offsets)] = 1.0
            for exc in excitation_list(layout):
                circ = build_chc(layout, [exc])
                gen = dense_from_sum(generator_pauli(exc, layout))
                angles = list(rng.uniform(-np.pi, np.pi, 20)) + [np.pi / 4]
                for theta in angles:
                    state = apply_circuit(circ, [theta]).amplitudes
                    target = expm(theta * gen) @ ref
                    fidelity = abs(np.vdot(target, state)) ** 2
                    assert fidelity >= 1.0 - 1e-10, (counts, exc, theta)


def test_criterion_05_boson_mapping_oracle_equivalence():
    with criterion(5, "mapped Hamiltonians equal ONV-rule matrices on the "
                      "physical subspace (1e-12)"):
        rng = np.random.default_rng(505)
        layouts = [(2, 2), (3, 2), (2, 2, 2), (4, 4), (3, 3, 2),
                   (2, 2, 2, 2)]
        for counts in layouts:
            layout = QubitLayout(counts)
            assert layout.num_qubits <= 8
            for _ in range(3):
                terms = random_sq_hamiltonian(rng, layout)
                dense = dense_from_sum(map_to_pauli(terms, layout))
                idx = [sum(1 << (layout.offsets[l] + k)
                           for l, k in enumerate(onv))
                       for onv in physical_onvs(layout)]
                restricted = dense[np.ix_(idx, idx)]
                oracle = onv_rule_matrix(terms, layout)
                assert np.max(np.abs(restricted - oracle)) < 1e-12, counts


def test_criterion_06_vqe_property_suite(coupled_system):
    with criterion(6, "VQE: UVCCSD within 1e-6 of exact ground; RYRZ needs "
                      "the penalty to stay physical"):
        layout, _, h = coupled_system
        exact = physical_spectrum(h, layout)[0]

        uvcc = ground_state(h, layout, VqeConfig(ansatz="uvccsd", seed=2))
        assert abs(uvcc.energy - exact) < 1e-6

        free = VqeConfig(ansatz="ryrz", depth=1, mu=0.0, seed=3,
                         max_evals=30000)
        unconstrained = ground_state(h, layout, free)
        assert unconstrained.energy < exact - 10.0
        state = apply_circuit(build_ansatz(layout, free), unconstrained.params)
        devs = [abs(expectation(state, number_operator(layout, l)) - 1.0)
                for l in range(2)]
        assert max(devs) > 0.1

        penalized = VqeConfig(ansatz="ryrz", depth=1, seed=0,
                              max_evals=60000)
        assert penalized.effective_mu() == 1e5
        result = ground_state(h, layout, penalized)
        state = apply_circuit(build_ansatz(layout, penalized), result.params)
        for mode in range(2):
            occ = expectation(state, number_operator(layout, mode))
            assert abs(occ - 1.0) < 1e-3, (mode, occ)


def test_criterion_07_qeom_property_suite(harmonic_system, coupled_system):
    with criterion(7, "qEOM: harmonic energies exact, coupled gaps to 1e-6, "
                      "+-E pairing to 1e-8"):
        layout, _, h = harmonic_system
        _, ground = ground_state_vector(h, layout)
        energies, _, _ = excitation_energies(ground, h, layout)
        np.testing.assert_allclose(energies, [1000.0, 1500.0, 2500.0],
                                   atol=1e-8)

        layout, _, h = coupled_system
        _, ground = ground_state_vector(h, layout)
        energies, mats, _ = excitation_energies(ground, h, layout)
        spectrum = physical_spectrum(h, layout)
        np.testing.assert_allclose(energies, spectrum[1:] - spectrum[0],
                                   atol=1e-6)

        from scipy import linalg
        a = np.block([[mats.m, mats.q], [np.conj(mats.q), np.conj(mats.m)]])
        b = np.block([[mats.v, mats.w], [-np.conj(mats.w), -np.conj(mats.v)]])
        values = np.sort(linalg.eigvals(a, b).real)
        np.testing.assert_allclose(values, -values[::-1], atol=1e-8)


def test_criterion_08_penalty_arithmetic(coupled_system):
    with criterion(8, "vacuum objective exceeds the bare energy by exactly "
                      "2e5 at mu = 1e5"):
        layout, _, h = coupled_system
        vacuum = StateVector.vacuum(layout.num_qubits)
        bare = expectation(vacuum, h)
        occupations = [expectation(vacuum, number_operator(layout, l))
                       for l in range(2)]
        assert occupations == [0.0, 0.0]
        penalized = penalty_objective(bare, occupations, 1e5)
        assert penalized - bare == 2e5


def test_criterion_09_noise_fidelity_ordering():
    with criterion(9, "noisy CHC beats noisy UVCC for (2,2) and (2,4); "
                      "outcome probabilities equal the density-matrix "
                      "channel's"):
        for counts in [(2, 2), (2, 4)]:
            report = run_fidelity_experiment(counts, trials=10, shots=10000,
                                             seed=2024)
            fid = report["fidelity"]
            assert fid["chc"]["mean"] > fid["uvccsd"]["mean"], counts

        # 4-qubit density-matrix oracle: its diagonal, and through it the
        # diagonal observable N_0 + N_1, exactly
        layout = QubitLayout((2, 2))
        circ = build_chc(layout, excitation_list(layout))
        rng = np.random.default_rng(909)
        params = rng.uniform(-0.2, 0.2, circ.num_parameters)
        noise = NoiseModel()
        rho = density_matrix_simulation(circ, params, noise)
        probs = noisy_distribution(circ, params, noise)
        np.testing.assert_allclose(probs, np.diag(rho).real, rtol=0,
                                   atol=1e-12)
        observable = dense_from_sum(number_operator(layout, 0)
                                    + number_operator(layout, 1))
        oracle = np.trace(observable @ rho).real
        assert abs(probs @ np.diag(observable).real - oracle) <= 1e-12


def test_criterion_10_determinism(tmp_path, coupled_pes):
    with criterion(10, "identical seeds reproduce byte-identical result "
                       "files"):
        pes_path = tmp_path / "pes.json"
        save_pes(coupled_pes, pes_path)
        runs = {
            "exact.json": ["exact", "--pes", str(pes_path), "--modals", "2"],
            "resources.json": ["resources", "--modes", "4", "--modals", "6",
                               "--ansatz", "chc"],
            "vqe.json": ["vqe", "--pes", str(pes_path), "--modals", "2",
                         "--seed", "7", "--max-evals", "400"],
            "nf.json": ["noise-fidelity", "--modals", "2,2", "--trials", "2",
                        "--shots", "300", "--seed", "5"],
        }
        for name, argv in runs.items():
            out = tmp_path / name
            assert cli_main(argv + ["--out", str(out)]) == 0
            first = out.read_bytes()
            assert cli_main(argv + ["--out", str(out)]) == 0
            assert out.read_bytes() == first, name
            json.loads(first.decode())  # parses as JSON
