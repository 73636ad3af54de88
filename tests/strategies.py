"""Hypothesis strategies for the property tests.

Every draw is small enough for the dense oracles in ``helpers.py``.
"""

from __future__ import annotations

import math

from hypothesis import strategies as st

from vibriq.circuits import Circuit, Gate
from vibriq.mapping import QubitLayout
from vibriq.simulator import NoiseModel

# 1-5 modes of 1-5 modals each
layouts = st.builds(QubitLayout, st.lists(st.integers(1, 5), min_size=1,
                                          max_size=5).map(tuple))

GATE_KINDS = ("x", "h", "rx", "ry", "rz", "phase", "cnot")
NUM_PARAMETERS = 2

# RX(+-pi/2) is the one rotation in the U2 noise class
angles = st.one_of(st.sampled_from([math.pi / 2.0, -math.pi / 2.0]),
                   st.floats(-math.pi, math.pi))


@st.composite
def gates(draw, num_qubits: int, kind: str) -> Gate:
    """One gate of ``kind``; a rotation has a fixed angle or a scaled
    parameter."""
    if kind == "cnot":
        return Gate(kind, tuple(draw(st.permutations(range(num_qubits)))[:2]))
    qubit = draw(st.integers(0, num_qubits - 1))
    if kind in ("x", "h"):
        return Gate(kind, (qubit,))
    if draw(st.booleans()):
        return Gate(kind, (qubit,), draw(angles))
    return Gate(kind, (qubit,), None,
                draw(st.integers(0, NUM_PARAMETERS - 1)),
                draw(st.sampled_from([-1.0, 0.5, 1.0, 2.0])))


@st.composite
def circuits(draw, max_qubits: int = 4, max_extra_gates: int = 8) -> Circuit:
    """A circuit on 1 to ``max_qubits`` qubits with every gate kind (but
    CNOT on one qubit) at least once, in random order."""
    num_qubits = draw(st.integers(1, max_qubits))
    kinds = GATE_KINDS if num_qubits > 1 else GATE_KINDS[:-1]
    extra = draw(st.lists(st.sampled_from(kinds), max_size=max_extra_gates))
    drawn = [draw(gates(num_qubits, kind)) for kind in (*kinds, *extra)]
    return Circuit(num_qubits, tuple(draw(st.permutations(drawn))),
                   NUM_PARAMETERS)


def parameters(num: int = NUM_PARAMETERS):
    return st.lists(st.floats(-math.pi, math.pi), min_size=num, max_size=num)


# each gate class's probability: none, any, or full depolarization
probabilities = st.one_of(st.just(0.0), st.floats(0.0, 1.0), st.just(1.0))
noise_models = st.builds(NoiseModel, probabilities, probabilities,
                         probabilities)
