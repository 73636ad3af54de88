"""Tests of the benchmark's oracles, input generator and metric lists.

    python3 -m pytest bench
"""

from __future__ import annotations

import json
from itertools import product
from pathlib import Path

import numpy as np
import pytest

import oracles
import run
import tracing
from pesgen import make_pes
from workloads import WORKLOADS


def test_harmonic_pes_gives_sum_of_oscillator_levels():
    freqs = [1210.0, 1730.0, 2480.0]
    pes = {"frequencies": freqs, "terms": [], "v0": 0.0}
    counts = (3, 2, 4)
    expected = sorted(sum(w * (n + 0.5) for w, n in zip(freqs, levels))
                      for levels in product(*(range(c) for c in counts)))
    got = oracles.physical_eigenvalues(pes, counts)
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-9)
    shifted = oracles.physical_eigenvalues({**pes, "v0": 500.0}, counts)
    np.testing.assert_allclose(shifted, np.add(expected, 500.0), rtol=0,
                               atol=1e-9)


def test_position_powers_match_closed_forms():
    dim = 12
    n = np.arange(dim)
    q2 = oracles.ho_position_power(2, dim)
    q4 = oracles.ho_position_power(4, dim)
    np.testing.assert_allclose(np.diag(q2), n + 0.5, atol=1e-12)
    np.testing.assert_allclose(np.diag(q4), (6 * n**2 + 6 * n + 3) / 4.0,
                               atol=1e-11)
    q3 = oracles.ho_position_power(3, dim)
    np.testing.assert_allclose(np.diag(q3, 1),
                               3.0 * np.sqrt((n[1:]) / 2.0) ** 3,
                               atol=1e-11)


def test_full_modal_basis_reproduces_primitive_product_spectrum():
    """With every primitive kept as a modal, the modal transform is a
    change of basis, so the spectrum equals the primitive product's."""
    dim = 9
    pes = make_pes(2, 5)
    full = oracles.physical_eigenvalues(pes, (dim, dim), dim)
    eye = np.eye(dim)
    h = np.zeros((dim * dim, dim * dim))
    for mode, w in enumerate(pes["frequencies"]):
        one = np.diag(w * (np.arange(dim) + 0.5))
        factors = [eye, eye]
        factors[mode] = one
        h += np.kron(*factors)
    for term in pes["terms"]:
        powers = {int(m): p for m, p in term["powers"].items()}
        factors = [oracles.ho_position_power(powers[m], dim) if m in powers
                   else eye for m in range(2)]
        h += term["coeff"] * np.kron(*factors)
    np.testing.assert_allclose(full, np.linalg.eigvalsh(h), rtol=1e-11)


def test_twirl_identity_matches_explicit_pauli_sum():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    rho = (a @ a.conj().T).reshape((2,) * 8)
    for qubits in [(0,), (3,), (1, 2), (3, 0)]:
        np.testing.assert_allclose(oracles.traced_twirl(rho, qubits, 4),
                                   oracles.pauli_twirl(rho, qubits, 4),
                                   atol=1e-10)


class _Gate:
    def __init__(self, kind, qubits, angle=None, param=None, scale=1.0):
        self.kind, self.qubits, self.angle = kind, qubits, angle
        self.param, self.scale = param, scale


def test_noise_free_distribution_of_small_circuits():
    bell = [_Gate("h", (0,)), _Gate("cnot", (0, 1))]
    np.testing.assert_allclose(oracles.outcome_distribution(bell, 2, ()),
                               [0.5, 0, 0, 0.5], atol=1e-14)
    flipped = [_Gate("x", (0,)), _Gate("cnot", (0, 2))]
    expected = np.zeros(8)
    expected[0b101] = 1.0
    np.testing.assert_allclose(oracles.outcome_distribution(flipped, 3, ()),
                               expected, atol=1e-14)
    theta = 0.37
    rot = [_Gate("ry", (1,), param=0, scale=2.0)]
    np.testing.assert_allclose(
        oracles.outcome_distribution(rot, 2, (theta,)),
        [np.cos(theta) ** 2, 0, np.sin(theta) ** 2, 0], atol=1e-14)


def test_full_depolarization_gives_maximally_mixed_qubit():
    """p = 3/4 on one qubit is the completely depolarizing channel."""
    gates = [_Gate("x", (1,))]
    probs = oracles.outcome_distribution(gates, 2, (), noise=(0, 0.75, 0))
    np.testing.assert_allclose(probs, [0.5, 0, 0.5, 0], atol=1e-14)


def test_cnot_error_spreads_over_fifteen_paulis():
    """One CNOT on |00> at rate p: each non-identity Pauli with p/15.  X
    or Y flips a qubit, I or Z leaves it, so 3 of the 15 keep |00> and 4
    lead to each other outcome."""
    p = 0.3
    probs = oracles.outcome_distribution([_Gate("cnot", (0, 1))], 2, (),
                                         noise=(0, 0, p))
    np.testing.assert_allclose(probs[0], 1 - p + p * 3 / 15, atol=1e-14)
    np.testing.assert_allclose(probs[1:], [p * 4 / 15] * 3, atol=1e-14)


def test_sampled_fidelity_of_equal_distributions_approaches_one():
    rng = np.random.default_rng(1)
    p = np.array([0.7, 0.2, 0.1])
    f = oracles.sampled_fidelity(p, p, 10**6, rng, 20)
    assert np.all(f > 0.998) and np.all(f <= 1.0)


def test_generator_is_seeded_and_has_the_documented_make_up():
    a, b, c = make_pes(3, 4), make_pes(3, 4), make_pes(3, 5)
    assert a == b and a != c
    assert a["v0"] == 0.0 and len(a["frequencies"]) == 3
    one_mode = sorted(tuple(sorted(t["powers"].values())) for t in a["terms"]
                      if len(t["powers"]) == 1)
    pairs = sorted(tuple(t["powers"].values()) for t in a["terms"]
                   if len(t["powers"]) == 2)
    assert one_mode == [(3,), (3,), (3,), (4,), (4,), (4,)]
    assert pairs == sorted([(1, 1), (2, 2), (1, 3)] * 3)


def test_metric_lists_match_benchmark_json():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] \
        == list(run.PER_LAYER)
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("modes", [1, 2, 5])
def test_generated_pes_is_bounded_in_the_primitive_basis(modes):
    """Every one-body problem has a positive, ascending low spectrum."""
    pes = make_pes(modes, 0)
    for coefficients, energies in oracles.modal_bases(pes, [4] * modes):
        assert energies[0] > 0 and np.all(np.diff(energies) > 0)
        assert coefficients.shape == (40, 4)


def _span(span_id, parent, name, start, end, **counts):
    return {"rep": "r", "id": span_id, "parent": parent, "name": name,
            "start": start, "end": end, **counts}


def test_self_time_excludes_child_spans():
    spans = [_span(0, None, "cli.main", 0.0, 10.0),
             _span(1, 0, "vqe.ground_state", 1.0, 4.0, evals=4, accepted=1),
             _span(2, 1, "simulator.apply_circuit", 2.0, 3.0),
             _span(3, 0, "mapping.map_to_pauli", 5.0, 6.0, terms=7)]
    assert tracing.self_times(spans) == {0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0}
    m = tracing.layer_metrics(spans, "cli.main")
    assert m["cli.self_s"] == 6.0 and m["vqe.self_s"] == 2.0
    assert m["vqe.ground_state_s"] == 3.0 and m["vqe.eval_s"] == 0.75
    assert m["mapping.pauli_terms"] == 7 and m["qeom.pool_size"] is None
    names = {name for name, _ in run.PER_LAYER}
    assert set(m) | {"trace.overhead_ratio"} == names
