import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import expm

from helpers import dense_from_sum, reference_uvcc_gates
from strategies import layouts
from vibriq.circuits import (build_chc, build_heuristic, build_uvcc,
                             count_resources, excitation_list, generator_pauli,
                             reference_circuit)
from vibriq.mapping import QubitLayout, number_operator
from vibriq.simulator import StateVector, apply_circuit, expectation
from vibriq.vqe import VqeConfig, build_ansatz

TABLE1 = [
    # (modes, modals, cx_uvcc, cx_chc, parameters)
    (4, 2, 304, 44, 10), (4, 4, 2640, 348, 66), (4, 6, 7280, 940, 170),
    (4, 8, 14224, 1820, 322), (4, 10, 23472, 2988, 522),
    (6, 2, 744, 102, 21), (6, 4, 6552, 846, 153), (6, 6, 18120, 2310, 405),
    (6, 8, 35448, 4494, 777), (6, 10, 58536, 7398, 1269),
    (9, 2, 1764, 234, 45), (9, 4, 15660, 1998, 351), (9, 6, 43380, 5490, 945),
    (9, 8, 84924, 10710, 1827), (9, 10, 140292, 17658, 2997),
]


def reference_index(layout: QubitLayout) -> int:
    return sum(1 << off for off in layout.offsets)


def test_excitation_counts():
    assert len(excitation_list(QubitLayout((2, 2, 2, 2)))) == 10
    assert len(excitation_list(QubitLayout((2, 2)))) == 3
    assert len(excitation_list(QubitLayout((10,) * 6))) == 1269


def test_excitation_order_and_qubits():
    layout = QubitLayout((2, 3))
    exc = excitation_list(layout)
    singles = [e for e in exc if e.order == 1]
    doubles = [e for e in exc if e.order == 2]
    assert [(e.modes, e.virtuals) for e in singles] == \
        [((0,), (1,)), ((1,), (1,)), ((1,), (2,))]
    assert [(e.modes, e.virtuals) for e in doubles] == \
        [((0, 1), (1, 1)), ((0, 1), (1, 2))]
    assert doubles[1].occupied_qubits == (0, 2)
    assert doubles[1].virtual_qubits == (1, 4)


def test_reference_circuit_prepares_one_bit_per_register():
    layout = QubitLayout((2, 2))
    circ = reference_circuit(layout)
    assert [g.qubits[0] for g in circ.gates] == [0, 2]
    state = apply_circuit(circ)
    expected = np.zeros(16)
    expected[reference_index(layout)] = 1.0
    np.testing.assert_allclose(state.amplitudes, expected, atol=1e-14)
    for mode in range(2):
        assert expectation(state, number_operator(layout, mode)) == \
            pytest.approx(1.0, abs=1e-12)


def test_reference_circuit_one_x_per_mode():
    layout = QubitLayout((3, 4, 2, 5))
    circ = reference_circuit(layout)
    assert len(circ.gates) == 4
    assert all(g.kind == "x" for g in circ.gates)


@pytest.mark.parametrize("modes,modals,cx_uvcc,cx_chc,params", TABLE1)
def test_resource_table_rows_exact(modes, modals, cx_uvcc, cx_chc, params):
    layout = QubitLayout((modals,) * modes)
    exc = excitation_list(layout)
    singles = sum(1 for e in exc if e.order == 1)
    doubles = sum(1 for e in exc if e.order == 2)
    assert 4 * singles + 48 * doubles == cx_uvcc
    assert 2 * singles + 6 * doubles == cx_chc
    uvcc = count_resources(build_uvcc(layout, exc))
    chc = count_resources(build_chc(layout, exc))
    assert uvcc["cx"] == cx_uvcc
    assert chc["cx"] == cx_chc
    assert uvcc["params"] == chc["params"] == params


def test_two_mode_uvcc_gate_sentence():
    layout = QubitLayout((2, 2))
    res = count_resources(build_uvcc(layout, excitation_list(layout)))
    assert res == {"cx": 56, "params": 3, "qubits": 4}


@pytest.mark.parametrize("depth,cx,params", [(1, 24, 14), (2, 48, 24),
                                             (3, 72, 34)])
def test_swaprz_depth_counts(depth, cx, params):
    res = count_resources(build_heuristic("swaprz", 4, depth))
    assert res["cx"] == cx
    assert res["params"] == params


def test_ryrz_counts():
    for n, d in [(4, 1), (4, 3), (6, 2)]:
        res = count_resources(build_heuristic("ryrz", n, d))
        assert res["params"] == 2 * n * (d + 1)
        assert res["cx"] == d * n * (n - 1) // 2


def test_discussion_qubit_count():
    layout = QubitLayout((6,) * 15)
    circ = reference_circuit(layout)
    assert count_resources(circ)["qubits"] == 90


@pytest.mark.parametrize("builder", [build_uvcc, build_chc])
def test_zero_parameters_act_as_identity_on_reference(builder):
    layout = QubitLayout((2, 3))
    circ = builder(layout, excitation_list(layout))
    state = apply_circuit(circ, np.zeros(circ.num_parameters))
    expected = np.zeros(1 << layout.num_qubits, dtype=complex)
    expected[reference_index(layout)] = 1.0
    fidelity = abs(np.vdot(expected, state.amplitudes)) ** 2
    assert fidelity == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("counts", [(2, 2), (3, 2), (2, 4)])
def test_uvcc_single_excitation_blocks_match_exponential(counts):
    """Each per-excitation block equals expm of its mapped generator."""
    layout = QubitLayout(counts)
    ref = np.zeros(1 << layout.num_qubits, dtype=complex)
    ref[reference_index(layout)] = 1.0
    rng = np.random.default_rng(5)
    for exc in excitation_list(layout):
        theta = float(rng.uniform(-1.5, 1.5))
        circ = build_uvcc(layout, [exc])
        state = apply_circuit(circ, [theta]).amplitudes
        gen = dense_from_sum(generator_pauli(exc, layout))
        expected = expm(theta * gen) @ ref
        np.testing.assert_allclose(state, expected, atol=1e-12)


def test_uvcc_conserves_per_mode_occupation():
    layout = QubitLayout((2, 3))
    circ = build_uvcc(layout, excitation_list(layout))
    rng = np.random.default_rng(9)
    for _ in range(5):
        params = rng.uniform(-1.0, 1.0, circ.num_parameters)
        state = apply_circuit(circ, params)
        for mode in range(2):
            occ = expectation(state, number_operator(layout, mode))
            assert occ == pytest.approx(1.0, abs=1e-10)


def test_uvcc_trotter_steps_repeat_blocks():
    layout = QubitLayout((2, 2))
    exc = excitation_list(layout)
    one = count_resources(build_uvcc(layout, exc, trotter_steps=1))
    two = count_resources(build_uvcc(layout, exc, trotter_steps=2))
    assert two["cx"] == 2 * one["cx"]
    assert two["params"] == one["params"]
    # single-excitation circuits are exact at any step count
    circ1 = build_uvcc(layout, exc[:1], trotter_steps=1)
    circ3 = build_uvcc(layout, exc[:1], trotter_steps=3)
    s1 = apply_circuit(circ1, [0.7]).amplitudes
    s3 = apply_circuit(circ3, [0.7]).amplitudes
    np.testing.assert_allclose(s1, s3, atol=1e-12)


def test_chc_matches_exact_exponential_on_reference():
    """Acceptance-style contract at 20 random angles plus pi/4."""
    layout = QubitLayout((2, 3))
    n = layout.num_qubits
    ref = np.zeros(1 << n, dtype=complex)
    ref[reference_index(layout)] = 1.0
    rng = np.random.default_rng(11)
    for exc in excitation_list(layout):
        circ = build_chc(layout, [exc])
        gen = dense_from_sum(generator_pauli(exc, layout))
        angles = list(rng.uniform(-np.pi, np.pi, 20)) + [np.pi / 4]
        for theta in angles:
            state = apply_circuit(circ, [theta]).amplitudes
            expected = expm(theta * gen) @ ref
            fid = abs(np.vdot(expected, state)) ** 2
            assert fid >= 1.0 - 1e-10


def test_chc_quarter_pi_amplitudes():
    layout = QubitLayout((2, 2))
    exc = excitation_list(layout)[0]
    circ = build_chc(layout, [exc])
    state = apply_circuit(circ, [np.pi / 4]).amplitudes
    ref_idx = reference_index(layout)
    exc_idx = ref_idx ^ 0b0011  # modal swap in the first register
    assert abs(state[ref_idx]) == pytest.approx(np.sqrt(2) / 2, abs=1e-12)
    assert abs(state[exc_idx]) == pytest.approx(np.sqrt(2) / 2, abs=1e-12)


def test_swaprz_conserves_total_occupation():
    layout = QubitLayout((2, 2))
    circ = build_ansatz(layout, VqeConfig(ansatz="swaprz", depth=2))
    total = number_operator(layout, 0) + number_operator(layout, 1)
    rng = np.random.default_rng(13)
    for _ in range(5):
        params = rng.uniform(-2.0, 2.0, circ.num_parameters)
        state = apply_circuit(circ, params)
        assert expectation(state, total) == pytest.approx(2.0, abs=1e-10)


@pytest.mark.parametrize("builder_args", [
    ("uvccsd", None), ("chc", None), ("swaprz", 2), ("ryrz", 2)])
def test_circuits_are_unitary(builder_args):
    kind, depth = builder_args
    layout = QubitLayout((2, 2))
    if kind == "uvccsd":
        circ = build_uvcc(layout, excitation_list(layout))
    elif kind == "chc":
        circ = build_chc(layout, excitation_list(layout))
    else:
        circ = build_heuristic(kind, 4, depth)
    rng = np.random.default_rng(17)
    params = rng.uniform(-1.0, 1.0, circ.num_parameters)
    amps = rng.normal(size=16) + 1j * rng.normal(size=16)
    amps /= np.linalg.norm(amps)
    out = apply_circuit(circ, params, StateVector(4, amps))
    assert np.linalg.norm(out.amplitudes) == pytest.approx(1.0, abs=1e-12)


def test_build_heuristic_rejects_bad_input():
    with pytest.raises(ValueError):
        build_heuristic("swaprz", 4, 0)
    with pytest.raises(ValueError):
        build_heuristic("magic", 4, 1)


@given(layouts, st.integers(1, 3))
def test_uvcc_lowering_property_matches_the_gadget_oracle(layout,
                                                          trotter_steps):
    """The cluster ansatz equals one Pauli gadget per generator string,
    gate for gate, and both ansatzes cost the published CNOTs: 4 per single
    and 48 per double and Trotter step for uvcc, 2 and 6 for chc."""
    excitations = excitation_list(layout, 2)
    circuit = build_uvcc(layout, excitations, trotter_steps)
    assert list(circuit.gates) == reference_uvcc_gates(layout, excitations,
                                                       trotter_steps)
    singles = sum(1 for e in excitations if e.order == 1)
    doubles = len(excitations) - singles
    assert count_resources(circuit)["cx"] == \
        trotter_steps * (4 * singles + 48 * doubles)
    assert count_resources(build_chc(layout, excitations))["cx"] == \
        2 * singles + 6 * doubles
