"""Parametrized ansatz circuits and exact resource counting.

Gate angles are either constants or ``scale * theta[param]``.  Every
excitation exponential is compiled with the standard Pauli-gadget recipe:
basis changes (H for X, RX(+-pi/2) for Y), a CNOT ladder onto the last
involved qubit, one RZ, and the mirror image.  A two-qubit string costs
2 CNOTs and a four-qubit string 6, which reproduces the published per-
excitation budgets: 4 CNOTs per single and 48 per double for the cluster
ansatz, 2 and 6 for its compact heuristic approximation.

Each ansatz is described once as a list of blocks (gates, Pauli
rotations, cluster excitations).  The blocks are lowered to a gate-level
``Circuit`` here, the source of truth for resource counts and noise, and
compiled by the simulator into the vectorized steps of an
``AnsatzProgram`` for the noise-free objective.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, NamedTuple, Sequence

from .mapping import QubitLayout, SqTerm, map_to_pauli
from .pauli import PauliSum


class Gate(NamedTuple):
    """One gate; ``angle`` for constants, ``(param, scale)`` for bound angles."""

    kind: str
    qubits: tuple[int, ...]
    angle: float | None = None
    param: int | None = None
    scale: float = 1.0

    def resolved_angle(self, params: Sequence[float]) -> float | None:
        if self.param is not None:
            return self.scale * float(params[self.param])
        return self.angle


@dataclass(frozen=True)
class Circuit:
    num_qubits: int
    gates: tuple[Gate, ...]
    num_parameters: int


# -- excitations -------------------------------------------------------------

class Excitation(NamedTuple):
    """Promotion out of the occupied (index 0) modal of one or two modes."""

    order: int
    modes: tuple[int, ...]
    virtuals: tuple[int, ...]
    occupied_qubits: tuple[int, ...]
    virtual_qubits: tuple[int, ...]


def excitation_list(layout: QubitLayout, max_order: int = 2) -> list[Excitation]:
    """All singles and (for max_order 2) doubles, modes and virtuals ascending."""
    if not 1 <= max_order <= 2:
        raise ValueError("excitation order must be 1 or 2")
    out = []
    counts = layout.modal_counts
    offs = layout.offsets
    for l in range(layout.num_modes):
        for v in range(1, counts[l]):
            out.append(Excitation(1, (l,), (v,), (offs[l],), (offs[l] + v,)))
    if max_order >= 2:
        for l in range(layout.num_modes):
            for m in range(l + 1, layout.num_modes):
                for vl in range(1, counts[l]):
                    for vm in range(1, counts[m]):
                        out.append(Excitation(2, (l, m), (vl, vm),
                                              (offs[l], offs[m]),
                                              (offs[l] + vl, offs[m] + vm)))
    return out


def excitation_sq_terms(exc: Excitation) -> list[SqTerm]:
    """The bare promotion operator of one excitation (coefficient 1)."""
    return [SqTerm(1.0, tuple((mode, virt, 0)
                              for mode, virt in zip(exc.modes, exc.virtuals)))]


def generator_pauli(exc: Excitation, layout: QubitLayout) -> PauliSum:
    """Anti-Hermitian generator T - T+ of one excitation as a Pauli sum."""
    t = map_to_pauli(excitation_sq_terms(exc), layout)
    return t - t.adjoint()


@lru_cache(maxsize=None)
def _generator_pattern(order: int) -> tuple[tuple[str, float], ...]:
    """Pauli letters (per role qubit) and imaginary weights of a generator.

    Computed once on a canonical layout; the letters are indexed by role,
    (occ, virt) for singles and (occ_l, virt_l, occ_m, virt_m) for doubles,
    which matches ascending qubit order for every real excitation.
    """
    layout = QubitLayout((2,) * order)
    exc = excitation_list(layout, order)[-1]
    pattern = []
    for term in generator_pauli(exc, layout).terms:
        if abs(term.coefficient.real) > 1e-14:
            raise AssertionError("generator coefficients must be imaginary")
        pattern.append((term.label, term.coefficient.imag))
    return tuple(pattern)


@lru_cache(maxsize=None)
def _uvcc_program(order: int) -> tuple[operator.itemgetter,
                                       tuple[tuple[int, float], ...]]:
    """Gate program of one cluster-excitation block on canonical roles.

    Returns ``(pick, rotations)``: ``pick`` selects the block's gates, in
    order, from the role bank (see ``_gate_bank``) followed by one RZ per
    ``rotations`` entry (role, scale).  Compiled once per order from the
    generic gadget emission, then stamped per excitation.
    """
    k = 2 * order
    gates: list[Gate] = []
    for letters, gamma in _generator_pattern(order):
        pairs = [(q, letter) for q, letter in enumerate(letters)
                 if letter != "I"]
        _append_pauli_gadget(gates, pairs, 0, -2.0 * gamma)
    slots = []
    rotations = []
    for g in gates:
        q = g.qubits[0]
        if g.kind == "h":
            slots.append(q)
        elif g.kind == "rx":
            slots.append((1 if g.angle > 0 else 2) * k + q)
        elif g.kind == "cnot":
            slots.append(3 * k + q)
        else:
            slots.append(4 * k - 1 + len(rotations))
            rotations.append((q, g.scale))
    return operator.itemgetter(*slots), tuple(rotations)


# -- gate emission -----------------------------------------------------------

_HALF_PI = math.pi / 2.0


@lru_cache(maxsize=None)
def _fixed_gate(kind: str, qubits: tuple[int, ...],
                angle: float | None = None) -> Gate:
    """A gate without a parameter, built once and shared between circuits."""
    return Gate(kind, qubits, angle)


def _append_pauli_gadget(gates: list[Gate], pairs: Sequence[tuple[int, str]],
                         param: int, scale: float) -> None:
    """exp(-i * (scale * theta[param]) / 2 * P) for P on the given qubits."""
    pairs = sorted(pairs)
    into: list[Gate] = []
    out: list[Gate] = []
    for q, letter in pairs:
        if letter == "X":
            into.append(_fixed_gate("h", (q,)))
            out.append(into[-1])
        elif letter == "Y":
            into.append(_fixed_gate("rx", (q,), _HALF_PI))
            out.append(_fixed_gate("rx", (q,), -_HALF_PI))
        elif letter != "Z":
            raise ValueError(f"cannot exponentiate letter {letter!r}")
    qubits = [q for q, _ in pairs]
    ladder = [_fixed_gate("cnot", pair) for pair in zip(qubits, qubits[1:])]
    gates += into
    gates += ladder
    gates.append(Gate("rz", (qubits[-1],), None, param, scale))
    gates += reversed(ladder)
    gates += reversed(out)


def reference_circuit(layout: QubitLayout) -> Circuit:
    """One X per mode register, occupying modal 0 of every mode."""
    gates = tuple(Gate("x", (off,)) for off in layout.offsets)
    return Circuit(layout.num_qubits, gates, 0)


# -- ansatz blocks -----------------------------------------------------------

class PauliRotation(NamedTuple):
    """exp(-i * (scale * theta[param]) / 2 * P), P the letters on ``pairs``."""

    pairs: tuple[tuple[int, str], ...]
    param: int
    scale: float


class ExcitationRotation(NamedTuple):
    """exp(scale * theta[param] * (T - T+)) of one cluster excitation T."""

    excitation: Excitation
    param: int
    scale: float


Block = Gate | PauliRotation | ExcitationRotation


def uvcc_blocks(layout: QubitLayout, excitations: Sequence[Excitation],
                trotter_steps: int = 1) -> list[Block]:
    """Reference state followed by Trotterized cluster exponentials."""
    if trotter_steps < 1:
        raise ValueError("trotter_steps must be >= 1")
    inv = 1.0 / trotter_steps
    blocks = list(reference_circuit(layout).gates)
    for _ in range(trotter_steps):
        blocks.extend(ExcitationRotation(exc, index, inv)
                      for index, exc in enumerate(excitations))
    return blocks


def chc_blocks(layout: QubitLayout,
               excitations: Sequence[Excitation]) -> list[Block]:
    """Reference state followed by one compact rotation per excitation."""
    blocks = list(reference_circuit(layout).gates)
    for index, exc in enumerate(excitations):
        involved = sorted(exc.occupied_qubits + exc.virtual_qubits)
        pairs = ((involved[0], "Y"),) + tuple((q, "X") for q in involved[1:])
        blocks.append(PauliRotation(pairs, index, -2.0))
    return blocks


def heuristic_blocks(kind: str, num_qubits: int,
                     depth: int) -> tuple[list[Block], int]:
    """Hardware-efficient blocks and their parameter count."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if num_qubits < 1:
        raise ValueError("num_qubits must be >= 1")
    pairs = [(i, j) for i in range(num_qubits) for j in range(i + 1, num_qubits)]
    blocks: list[Block] = []
    param = 0

    def rotation_layer(kinds: tuple[str, ...]) -> None:
        nonlocal param
        for q in range(num_qubits):
            for k in kinds:
                blocks.append(Gate(k, (q,), param=param))
                param += 1

    if kind == "swaprz":
        for _ in range(depth):
            rotation_layer(("rz",))
            for i, j in pairs:
                blocks.append(PauliRotation(((i, "X"), (j, "X")), param, -2.0))
                blocks.append(PauliRotation(((i, "Y"), (j, "Y")), param, -2.0))
                param += 1
        rotation_layer(("rz",))
    elif kind == "ryrz":
        for _ in range(depth):
            rotation_layer(("ry", "rz"))
            blocks.extend(Gate("cnot", (i, j)) for i, j in pairs)
        rotation_layer(("ry", "rz"))
    else:
        raise ValueError(f"unknown heuristic kind {kind!r}")
    return blocks, param


def _role_qubits(exc: Excitation) -> tuple[int, ...]:
    if exc.order == 1:
        return (exc.occupied_qubits[0], exc.virtual_qubits[0])
    return (exc.occupied_qubits[0], exc.virtual_qubits[0],
            exc.occupied_qubits[1], exc.virtual_qubits[1])


@lru_cache(maxsize=4096)
def _gate_bank(roles: tuple[int, ...]) -> tuple[Gate, ...]:
    """H, RX(+pi/2) and RX(-pi/2) per role, then the role-ladder CNOTs."""
    return (tuple(_fixed_gate("h", (q,)) for q in roles)
            + tuple(_fixed_gate("rx", (q,), _HALF_PI) for q in roles)
            + tuple(_fixed_gate("rx", (q,), -_HALF_PI) for q in roles)
            + tuple(_fixed_gate("cnot", pair)
                    for pair in zip(roles, roles[1:])))


def _append_excitation(gates: list[Gate], block: ExcitationRotation) -> None:
    """Stamp the canonical cluster-excitation program onto its qubits."""
    exc = block.excitation
    roles = _role_qubits(exc)
    pick, rotations = _uvcc_program(exc.order)
    bank = _gate_bank(roles) + tuple(
        Gate("rz", (roles[role],), None, block.param, scale * block.scale)
        for role, scale in rotations)
    gates.extend(pick(bank))


def circuit_from_blocks(num_qubits: int, blocks: Iterable[Block],
                        num_parameters: int) -> Circuit:
    """Lower ansatz blocks to gates."""
    gates: list[Gate] = []
    for block in blocks:
        if isinstance(block, ExcitationRotation):
            _append_excitation(gates, block)
        elif isinstance(block, PauliRotation):
            _append_pauli_gadget(gates, block.pairs, block.param, block.scale)
        else:
            gates.append(block)
    return Circuit(num_qubits, tuple(gates), num_parameters)


def build_uvcc(layout: QubitLayout, excitations: Sequence[Excitation],
               trotter_steps: int = 1) -> Circuit:
    """Reference state followed by Trotterized cluster exponentials.

    Each excitation contributes one shared parameter; its generator's
    Pauli strings mutually commute, so a single step is exact per
    excitation and only the ordering between excitations is approximate.
    """
    return circuit_from_blocks(layout.num_qubits,
                               uvcc_blocks(layout, excitations, trotter_steps),
                               len(excitations))


def build_chc(layout: QubitLayout, excitations: Sequence[Excitation]) -> Circuit:
    """Compact blocks, one per excitation, applied sequentially.

    A single becomes exp(i theta Y_occ X_virt) and a double
    exp(i theta Y X X X) with the Y on the lowest involved qubit; on the
    reference state both act exactly like the corresponding cluster
    exponential, with the excited amplitude growing as +sin(theta).
    """
    return circuit_from_blocks(layout.num_qubits,
                               chc_blocks(layout, excitations),
                               len(excitations))


def build_heuristic(kind: str, num_qubits: int, depth: int) -> Circuit:
    """Hardware-efficient blocks; pair entanglers for swaprz, CNOTs for ryrz.

    swaprz: depth+1 per-qubit RZ layers interleaved with depth entangler
    blocks, each applying exp(i theta (X_i X_j + Y_i Y_j)) to every pair
    i < j (4 CNOTs, one shared parameter per pair).  ryrz: depth+1 layers
    of per-qubit RY and RZ with all-pairs CNOT blocks in between.
    """
    blocks, num_parameters = heuristic_blocks(kind, num_qubits, depth)
    return circuit_from_blocks(num_qubits, blocks, num_parameters)


def count_resources(circuit: Circuit) -> dict[str, int]:
    """Exact CNOT, parameter and qubit counts by traversal."""
    cx = sum(1 for g in circuit.gates if g.kind == "cnot")
    return {"cx": cx, "params": circuit.num_parameters,
            "qubits": circuit.num_qubits}
