"""Exact statevector simulation, sampling, and depolarizing noise.

Two noise-free paths lead to a state.  ``apply_circuit`` runs a
gate-level ``Circuit`` gate by gate; it serves the noise model and is the
reference in tests.  An ``AnsatzProgram`` runs the same ansatz as a few
vectorized steps (basis permutations, Pauli rotations, one Givens
rotation per cluster excitation) and is what the VQE objective uses.  It
is compiled on a set of basis states: all 2^N, or a subset every step
maps to itself, such as the physical states a uvccsd ansatz never
leaves, where its amplitudes are real.  The reference-state X gates fold
into the program's start state.  Pauli sums are evaluated through
``CompiledPauliSum``, which groups the terms by the qubits they flip;
``check_hermitian`` is the one Hermiticity check a Hamiltonian gets.

Basis convention: bit q of a basis index is the value of qubit q, and
bitstrings render qubit 0 as the leftmost character.  The noise model is
depolarization: after each gate, with the gate-class probability, one
uniformly random non-identity Pauli acts on the gate's qubits (15 choices
for a CNOT).  ``noisy_counts`` draws multinomial shots from the diagonal
of the density matrix evolved through that exact channel (4^N amplitudes,
so at most ``MAX_DENSITY_QUBITS``).  The channel's Monte-Carlo
unraveling, one pure state per run, lives in ``tests/helpers.py`` as a
test oracle, built on dense matrices apart from these kernels.

Gate classes follow the published rates: H, RX(+-pi/2) and PHASE are
U2-like, every other single-qubit rotation (including X) is U3-like, and
CNOT has its own rate.  Seeds are split with ``numpy`` SeedSequences, so
a fixed master seed fixes every derived stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, Sequence

import numpy as np
from scipy import sparse

from .circuits import (Block, Circuit, Excitation, ExcitationRotation, Gate,
                       PauliRotation, build_chc, build_uvcc, excitation_list)
from .mapping import QubitLayout
from .pauli import PauliSum

NORM_TOL = 1e-10

# Largest relative imaginary part of a coefficient, block entry or <op>.
IMAG_TOL = 1e-10

# Largest register the noisy path simulates: its density matrix holds 4^N
# complex amplitudes, 268 MB at 12 qubits.
MAX_DENSITY_QUBITS = 12

# Largest masks x 2^N table a compiled Pauli sum holds: an int64
# permutation plus a complex diagonal per entry, 403 MB at the limit.
MAX_COMPILED_ELEMENTS = 1 << 24


def check_hermitian(op: PauliSum) -> None:
    """Raise ``ValueError`` unless ``op`` is Hermitian: its strings are
    Hermitian and independent, so every coefficient must be real, to
    ``IMAG_TOL`` of the largest."""
    coeffs = np.array([c for _, _, c in op.masks()], dtype=complex)
    residue = float(np.max(np.abs(coeffs.imag), initial=0.0))
    if residue > IMAG_TOL * max(1.0, np.max(np.abs(coeffs), initial=0.0)):
        raise ValueError(f"Pauli coefficient has imaginary part "
                         f"{residue:.3e}; operator is not Hermitian")


def _check_norm(amps: np.ndarray) -> None:
    norm_sq = float(np.vdot(amps, amps).real)
    if abs(norm_sq - 1.0) > NORM_TOL:
        raise ValueError(f"state is not normalized: |psi|^2 = {norm_sq}")


@dataclass(frozen=True)
class StateVector:
    """2^N complex amplitudes; bit q of the index is qubit q's value."""

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        if amps.shape != (1 << self.num_qubits,):
            raise ValueError("amplitude length must be 2^num_qubits")
        _check_norm(amps)
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def vacuum(cls, num_qubits: int) -> "StateVector":
        amps = np.zeros(1 << num_qubits, dtype=np.complex128)
        amps[0] = 1.0
        return cls(num_qubits, amps)

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


def embed(num_qubits: int, indices: np.ndarray,
          amplitudes: np.ndarray) -> StateVector:
    """The state with ``amplitudes`` on the basis states ``indices``, in the
    full 2^N space (taken as is when ``indices`` are all 2^N)."""
    if len(indices) == 1 << num_qubits:
        return StateVector(num_qubits, amplitudes)
    amps = np.zeros(1 << num_qubits, dtype=np.complex128)
    amps[indices] = amplitudes
    return StateVector(num_qubits, amps)


def bitstring(index: int, num_qubits: int) -> str:
    """Render a basis index with qubit 0 leftmost."""
    return "".join("1" if (index >> q) & 1 else "0" for q in range(num_qubits))


# -- gate application --------------------------------------------------------

_FIXED_MATRICES = {
    "x": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128),
    "h": np.array([[1.0, 1.0], [1.0, -1.0]], dtype=np.complex128) / math.sqrt(2.0),
}


def _gate_matrix(kind: str, angle: float | None) -> np.ndarray:
    """The 2x2 matrix of a single-qubit gate."""
    if kind in _FIXED_MATRICES:
        return _FIXED_MATRICES[kind]
    if kind == "phase":
        return np.array([[1.0, 0.0], [0.0, np.exp(1j * angle)]],
                        dtype=np.complex128)
    if kind not in ("rx", "ry", "rz"):
        raise ValueError(f"unknown gate kind {kind!r}")
    c, s = math.cos(angle / 2.0), math.sin(angle / 2.0)
    if kind == "rx":
        return np.array([[c, -1j * s], [-1j * s, c]], dtype=np.complex128)
    if kind == "ry":
        return np.array([[c, -s], [s, c]], dtype=np.complex128)
    return np.array([[c - 1j * s, 0.0], [0.0, c + 1j * s]],
                    dtype=np.complex128)


def _apply_1q_matrix(amps: np.ndarray, mat: np.ndarray,
                     qubit: int) -> np.ndarray:
    """Apply a 2x2 matrix to one qubit; works on any (..., 2^N) stack.

    Each output slice (qubit at 0, at 1) is a sum of two scaled input slices.
    """
    view = amps.reshape(amps.shape[:-1] + (-1, 2, 1 << qubit))
    a0, a1 = view[..., 0, :], view[..., 1, :]
    out = np.empty(view.shape, dtype=np.complex128)
    for row in (0, 1):
        o = out[..., row, :]
        np.multiply(a0, mat[row, 0], out=o)
        o += mat[row, 1] * a1
    return out.reshape(amps.shape)


@lru_cache(maxsize=4096)
def _cnot_permutation(num_qubits: int, control: int, target: int) -> np.ndarray:
    idx = np.arange(1 << num_qubits)
    return idx ^ (((idx >> control) & 1) << target)


def _apply_gate(amps: np.ndarray, gate: Gate, angle: float | None,
                num_qubits: int) -> np.ndarray:
    if gate.kind == "cnot":
        perm = _cnot_permutation(num_qubits, gate.qubits[0], gate.qubits[1])
        return amps[..., perm]
    return _apply_1q_matrix(amps, _gate_matrix(gate.kind, angle),
                            gate.qubits[0])


def _conjugate_by_gate(rho: np.ndarray, gate: Gate, angle: float | None,
                       num_qubits: int) -> np.ndarray:
    """U rho U^+: U on the row index (qubit q + N of the flattened rho),
    its complex conjugate on the column index."""
    if gate.kind == "cnot":
        perm = _cnot_permutation(num_qubits, gate.qubits[0], gate.qubits[1])
        return rho[perm[:, None], perm]
    mat = _gate_matrix(gate.kind, angle)
    q = gate.qubits[0]
    rows = _apply_1q_matrix(rho.reshape(-1), mat, q + num_qubits)
    return _apply_1q_matrix(rows.reshape(rho.shape), mat.conj(), q)


def _run_circuit(amps: np.ndarray, circuit: Circuit,
                 params: Sequence[float]) -> np.ndarray:
    n = circuit.num_qubits
    for gate in circuit.gates:
        amps = _apply_gate(amps, gate, gate.resolved_angle(params), n)
    return amps


def apply_circuit(circuit: Circuit, params: Sequence[float] = (),
                  state: StateVector | None = None) -> StateVector:
    """Exact gate-by-gate action; starts from the vacuum when no state given."""
    params = np.asarray(params, dtype=float)
    if params.shape != (circuit.num_parameters,):
        raise ValueError(f"expected {circuit.num_parameters} parameters, "
                         f"got {params.shape}")
    if state is None:
        state = StateVector.vacuum(circuit.num_qubits)
    elif state.num_qubits != circuit.num_qubits:
        raise ValueError("state and circuit disagree on the qubit count")
    amps = _run_circuit(state.amplitudes.copy(), circuit, params)
    return StateVector(circuit.num_qubits, amps)


# -- Pauli expectation values -------------------------------------------------

# Largest (rows x 2^N) temporary built at once when compiling or applying
# a Pauli sum, so that memory stays bounded for long sums on many qubits.
_CHUNK_ELEMENTS = 1 << 20

# (-i)^n_Y, indexed by n_Y mod 4.
_MINUS_I_POWERS = np.array([1.0, -1.0j, -1.0, 1.0j])


@dataclass(frozen=True)
class CompiledPauliSum:
    """A Pauli sum grouped by X-flip mask, on an ascending set of states.

    (op psi)[j] = sum over masks g of diags[g, j] * psi[perms[g, j]].

    All terms that flip the same qubits share one permutation, and their
    phases and signs add into one complex diagonal, so applying the sum
    costs one gather and one multiply per distinct mask, however many
    terms the mask holds.
    """

    num_qubits: int
    perms: np.ndarray   # (masks, states) positions of state j ^ mask
    diags: np.ndarray   # (masks, states) summed diagonals, 0 off the states

    @property
    def num_masks(self) -> int:
        return self.perms.shape[0]

    def apply(self, amps: np.ndarray) -> np.ndarray:
        """op|psi> for the amplitude vector ``amps``."""
        out = np.zeros(self.perms.shape[1], dtype=np.complex128)
        block = max(1, _CHUNK_ELEMENTS // max(out.size, 1))
        for lo in range(0, self.num_masks, block):
            sl = slice(lo, lo + block)
            out += np.sum(self.diags[sl] * amps[self.perms[sl]], axis=0)
        return out


def _basis(num_qubits: int, indices) -> np.ndarray:
    """``indices`` as int64, all 2^N states for ``None``."""
    if indices is None:
        return np.arange(1 << num_qubits, dtype=np.int64)
    indices = np.asarray(indices, dtype=np.int64)
    if np.any(np.diff(indices) <= 0):
        raise ValueError("basis indices must be strictly ascending")
    return indices


def _lookup(indices: np.ndarray, states: np.ndarray):
    """Positions of ``states`` in the ascending ``indices``, and which exist."""
    pos = np.minimum(np.searchsorted(indices, states), indices.size - 1)
    return pos, indices[pos] == states


def _term_groups(op: PauliSum):
    """The distinct flip masks and, per term sorted by mask (each mask in
    ``items`` order), its mask's number, z and weight c (-i)^|x & z|."""
    terms = op.masks()
    flips = np.array([x for x, _, _ in terms], dtype=np.int64)
    order = np.argsort(flips, kind="stable")
    flips = flips[order]
    signs = np.array([z for _, z, _ in terms], dtype=np.int64)[order]
    weights = (np.array([c for _, _, c in terms], dtype=np.complex128)[order]
               * _MINUS_I_POWERS[np.bitwise_count(flips & signs) % 4])
    return (*np.unique(flips, return_inverse=True), signs, weights)


def _mask_chunks(groups, indices: np.ndarray, full: bool):
    """Yield ``compile_pauli_sum``'s rows one chunk of masks at a time, as
    (slice of masks, perms, diags); ``full`` says ``indices`` is all 2^N.
    Every chunk is written into the same two arrays: read it before the next.
    """
    masks, group, signs, weights = groups
    block = max(1, _CHUNK_ELEMENTS // max(indices.size, 1))
    size = (min(block, masks.size), indices.size)
    all_perms, all_diags = np.empty(size, np.int64), np.empty(size, complex)
    for g0 in range(0, masks.size, block):
        sl = slice(g0, min(g0 + block, masks.size))
        perms, diags = all_perms[:sl.stop - g0], all_diags[:sl.stop - g0]
        diags[:] = 0.0
        t0, t1 = np.searchsorted(group, [sl.start, sl.stop])
        for lo in range(t0, t1, block):
            ts = slice(lo, min(lo + block, t1))
            table = 1.0 - 2.0 * (np.bitwise_count(signs[ts, None] & indices) & 1)
            # a sparse row per mask these terms hold and an entry per term,
            # so each mask's terms add one by one, in order
            first, rows = group[lo] - g0, group[ts] - group[lo]
            shape = (rows[-1] + 1, rows.size)
            csr = (np.arange(rows.size),
                   np.searchsorted(rows, np.arange(shape[0] + 1)))
            part = diags[first:first + shape[0]]
            part.real += sparse.csr_array((weights[ts].real, *csr), shape) @ table
            part.imag += sparse.csr_array((weights[ts].imag, *csr), shape) @ table
        del table  # not held while the caller reads the chunk
        np.bitwise_xor(indices, masks[sl, None], out=perms)
        if not full:  # on all 2^N states, a state is its own position
            perms[:], found = _lookup(indices, perms)
            diags[~found] = 0.0
        yield sl, perms, diags


def compile_pauli_sum(op: PauliSum | CompiledPauliSum,
                      indices: np.ndarray | None = None) -> CompiledPauliSum:
    """The mask-grouped form of ``op`` on the ascending basis states
    ``indices`` (all 2^N when ``None``).  A compiled operator passes
    through, and only with ``indices`` left ``None``.

    A term c P(x, z) sends state j to j ^ x with phase c (-i)^|x & z|
    (-1)^|j & z|.  Raises ``ValueError`` before allocating tables above
    ``MAX_COMPILED_ELEMENTS`` entries.
    """
    if isinstance(op, CompiledPauliSum):
        if indices is not None:
            raise ValueError("a compiled operator keeps its own basis")
        return op
    n, groups = op.num_qubits, _term_groups(op)
    num_masks = groups[0].size
    dim = 1 << n if indices is None else len(indices)
    if num_masks * dim > MAX_COMPILED_ELEMENTS:
        raise ValueError(
            f"compiling {num_masks} flip masks on {n} qubits needs "
            f"{num_masks * dim * 24 / 1e6:.0f} MB; the limit is "
            f"{MAX_COMPILED_ELEMENTS} mask-by-state entries")
    basis = _basis(n, indices)
    perms = np.empty((num_masks, dim), dtype=np.int64)
    diags = np.empty((num_masks, dim), dtype=np.complex128)
    for sl, *chunk in _mask_chunks(groups, basis, indices is None):
        perms[sl], diags[sl] = chunk
    return CompiledPauliSum(n, perms, diags)


def expectation_value(state: StateVector,
                      op: PauliSum | CompiledPauliSum) -> complex:
    """<psi|op|psi> for an arbitrary (possibly non-Hermitian) Pauli sum.

    A plain ``PauliSum`` is compiled on every call; compile it once with
    ``compile_pauli_sum`` when it is evaluated repeatedly.
    """
    if state.num_qubits != op.num_qubits:
        raise ValueError("state and operator disagree on the qubit count")
    amps = state.amplitudes
    return complex(np.vdot(amps, compile_pauli_sum(op).apply(amps)))


def expectation(state: StateVector, op: PauliSum | CompiledPauliSum) -> float:
    """Real expectation value of a Hermitian Pauli sum.

    A non-negligible imaginary residue signals a non-Hermitian operator
    and raises instead of being silently discarded.
    """
    value = expectation_value(state, op)
    scale = max(1.0, abs(value))
    if abs(value.imag) > IMAG_TOL * scale:
        raise ValueError(
            f"expectation has imaginary part {value.imag:.3e}; operator is "
            "not Hermitian")
    return float(value.real)


# -- ansatz programs -----------------------------------------------------------

def _flip_states(states, gate: Gate):
    """The basis states an X or CNOT gate sends ``states`` to."""
    if gate.kind == "x":
        return states ^ (1 << gate.qubits[0])
    control, target = gate.qubits
    return states ^ (((states >> control) & 1) << target)


def _positions(indices: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Where each of ``states`` sits in the ascending basis ``indices``.

    Raises ``ValueError`` when one is missing: the step that produced
    ``states`` maps the program's basis outside itself.
    """
    pos, found = _lookup(indices, states)
    if not found.all():
        raise ValueError("an ansatz step leaves the program's basis states")
    return pos


@dataclass(frozen=True)
class BitFlipStep:
    """A run of X and CNOT gates, composed into one basis permutation."""

    perm: np.ndarray

    @classmethod
    def from_gates(cls, indices: np.ndarray,
                   gates: Sequence[Gate]) -> "BitFlipStep":
        # each state takes the amplitude of its preimage, and every gate
        # is its own inverse
        source = indices
        for gate in reversed(gates):
            source = _flip_states(source, gate)
        return cls(_positions(indices, source))

    def apply(self, amps: np.ndarray, params: np.ndarray) -> np.ndarray:
        return amps[self.perm]


@dataclass(frozen=True)
class PauliRotationStep:
    """exp(i * scale * theta[param] * P) = cos * psi + i sin * P psi."""

    perm: np.ndarray
    phase: np.ndarray
    param: int
    scale: float

    @classmethod
    def from_pairs(cls, num_qubits: int, indices: np.ndarray,
                   pairs: Sequence[tuple[int, str]], param: int,
                   scale: float) -> "PauliRotationStep":
        letters = dict(pairs)
        table = compile_pauli_sum(PauliSum.from_label(
            "".join(letters.get(q, "I") for q in range(num_qubits))), indices)
        if not np.all(table.diags):  # zero only where the string leaves
            raise ValueError("an ansatz step leaves the program's basis states")
        return cls(table.perms[0], table.diags[0], param, scale)

    def apply(self, amps: np.ndarray, params: np.ndarray) -> np.ndarray:
        angle = self.scale * params[self.param]
        return (math.cos(angle) * amps
                + (1j * math.sin(angle)) * (self.phase * amps[self.perm]))


@dataclass(frozen=True)
class GivensStep:
    """exp(scale * theta[param] * (T - T+)) for one cluster excitation.

    T maps every basis state with the occupied modals on and the virtual
    ones off (src) to the state with those bits swapped (dst) and
    annihilates the rest, so the exponential is a real rotation within
    each (src, dst) pair; the single and double excitation gates of
    Arrazola et al., Quantum 6, 742 (2022).  ``pairs`` holds the
    positions of src (row 0) and dst (row 1) in the program's basis; one
    gather and one 2x2 rotation update them in place, on the array
    ``AnsatzProgram`` owns.
    """

    pairs: np.ndarray
    param: int
    scale: float

    @classmethod
    def from_excitation(cls, indices: np.ndarray, exc: Excitation,
                        param: int, scale: float) -> "GivensStep":
        occ = sum(1 << q for q in exc.occupied_qubits)
        virt = sum(1 << q for q in exc.virtual_qubits)
        src = np.flatnonzero(((indices & occ) == occ) & ((indices & virt) == 0))
        dst = _positions(indices, indices[src] ^ occ ^ virt)
        return cls(np.stack([src, dst]), param, scale)

    def apply(self, amps: np.ndarray, params: np.ndarray) -> np.ndarray:
        angle = self.scale * params[self.param]
        c, s = math.cos(angle), math.sin(angle)
        amps[self.pairs] = np.array([[c, -s], [s, c]]).dot(amps[self.pairs])
        return amps


def _program_step(num_qubits: int, indices: np.ndarray, block):
    """One program step: a list of X and CNOT gates, or one block."""
    if isinstance(block, list):
        return BitFlipStep.from_gates(indices, block)
    if isinstance(block, ExcitationRotation):
        return GivensStep.from_excitation(indices, block.excitation,
                                          block.param, block.scale)
    if isinstance(block, PauliRotation):
        return PauliRotationStep.from_pairs(num_qubits, indices, block.pairs,
                                            block.param, -0.5 * block.scale)
    if block.kind in ("rx", "ry", "rz") and block.param is not None:
        return PauliRotationStep.from_pairs(
            num_qubits, indices, [(block.qubits[0], block.kind[1].upper())],
            block.param, -0.5 * block.scale)
    raise ValueError(f"no program step for block {block}")


@dataclass(frozen=True)
class AnsatzProgram:
    """Noise-free state preparation as a short list of vectorized steps.

    The amplitudes live on ``indices``, ascending basis states that every
    step maps among themselves: all 2^N, or the Π N_l physical states for
    an ansatz that keeps one occupied modal per mode.  The leading run of
    X and CNOT gates is folded into ``start``, the position of the basis
    state it makes from the vacuum.  A program of Givens rotations and
    basis permutations alone has ``real`` amplitudes.

    Compiled from the same blocks as the ansatz ``Circuit`` and indexed by
    the same parameters; the circuit stays the reference for resource
    counts, noise and tests.
    """

    num_qubits: int
    num_parameters: int
    indices: np.ndarray
    start: int
    steps: tuple
    real: bool

    @classmethod
    def compile(cls, num_qubits: int, blocks: Sequence[Block],
                num_parameters: int,
                indices: np.ndarray | None = None) -> "AnsatzProgram":
        """``None`` for ``indices`` means the full space; a step that maps
        a state of ``indices`` outside them raises ``ValueError``."""
        indices = _basis(num_qubits, indices)
        runs: list = []
        for block in blocks:
            if isinstance(block, Gate) and block.kind in ("x", "cnot"):
                if not runs or not isinstance(runs[-1], list):
                    runs.append([])
                runs[-1].append(block)
            else:
                runs.append(block)
        state = 0
        if runs and isinstance(runs[0], list):
            for gate in runs.pop(0):
                state = _flip_states(state, gate)
        start = int(_positions(indices, np.array([state]))[0])
        steps = tuple(_program_step(num_qubits, indices, run) for run in runs)
        real = not any(isinstance(s, PauliRotationStep) for s in steps)
        return cls(num_qubits, num_parameters, indices, start, steps, real)

    def amplitudes(self, params: Sequence[float]) -> np.ndarray:
        """The ansatz state at ``params`` on ``indices``, norm checked."""
        params = np.asarray(params, dtype=float)
        if params.shape != (self.num_parameters,):
            raise ValueError(f"expected {self.num_parameters} parameters, "
                             f"got {params.shape}")
        amps = np.zeros(self.indices.size,
                        dtype=np.float64 if self.real else np.complex128)
        amps[self.start] = 1.0
        for step in self.steps:
            amps = step.apply(amps, params)
        _check_norm(amps)
        return amps


# -- sampling ------------------------------------------------------------------

@dataclass(frozen=True)
class ShotCounts:
    """Counts per bitstring (qubit 0 leftmost); values sum to ``shots``."""

    counts: Mapping[str, int]
    shots: int

    def __post_init__(self):
        object.__setattr__(self, "counts", dict(self.counts))
        if sum(self.counts.values()) != self.shots:
            raise ValueError("counts must sum to the declared shot total")


def _draw_counts(probs: np.ndarray, num_qubits: int, shots: int,
                 seed) -> ShotCounts:
    """Multinomial draw of ``shots`` outcomes from basis probabilities."""
    rng = np.random.default_rng(seed)
    probs = np.clip(probs, 0.0, None)  # rounding can leave -1e-17 entries
    draws = rng.multinomial(shots, probs / probs.sum())
    counts = {bitstring(i, num_qubits): int(c)
              for i, c in enumerate(draws) if c > 0}
    return ShotCounts(counts, shots)


def sample(state: StateVector, shots: int, seed=None) -> ShotCounts:
    """Multinomial draw from |amplitude|^2; deterministic for a fixed seed."""
    if shots < 1:
        raise ValueError("shots must be positive")
    return _draw_counts(state.probabilities(), state.num_qubits, shots, seed)


def distribution_fidelity(a: ShotCounts, ref: ShotCounts) -> float:
    """1 - sum|C_a - C_ref| / sum(C_a + C_ref), in [0, 1]."""
    denom = a.shots + ref.shots
    if denom == 0:
        raise ValueError("both count sets are empty")
    keys = set(a.counts) | set(ref.counts)
    l1 = sum(abs(a.counts.get(k, 0) - ref.counts.get(k, 0)) for k in keys)
    return 1.0 - l1 / denom


# -- depolarizing noise -------------------------------------------------------

@dataclass(frozen=True)
class NoiseModel:
    """Per-gate-class depolarizing probabilities (published device averages)."""

    p_u2: float = 7e-4
    p_u3: float = 1.4e-3
    p_cx: float = 2.2e-2

    def __post_init__(self):
        for p in (self.p_u2, self.p_u3, self.p_cx):
            if not 0.0 <= p <= 1.0:
                raise ValueError("probabilities must be in [0, 1]")

    def gate_probability(self, gate: Gate, angle: float | None) -> float:
        if gate.kind == "cnot":
            return self.p_cx
        if gate.kind in ("h", "phase"):
            return self.p_u2
        if gate.kind == "rx" and angle is not None \
                and abs(abs(angle) - math.pi / 2.0) < 1e-12:
            return self.p_u2
        return self.p_u3


def _depolarize(rho: np.ndarray, qubits: tuple[int, ...], num_qubits: int,
                p: float) -> None:
    """Mix p / (4^k - 1) of every non-identity P rho P on ``qubits`` into rho.

    The sum of P rho P over all 4^k Paulis P on k qubits is
    2^k Tr_k(rho) (x) I_k, nonzero only on the 2^k blocks whose row and
    column agree on ``qubits``.  With P = I counted in that sum, the
    channel is (1 - p - share) rho + share 2^k Tr_k(rho) (x) I_k, so the
    second term is added to those blocks alone.  ``rho`` is C-contiguous
    and changed in place through views of it.
    """
    share = p / ((1 << (2 * len(qubits))) - 1)
    # rows and columns each split into (rest, bit, rest, bit, ..., rest)
    # with the gate's qubits, highest first, as the bit axes
    order = sorted(qubits, reverse=True)
    shape, above = [], num_qubits
    for q in order:
        shape += [1 << (above - q - 1), 2]
        above = q
    shape.append(1 << above)
    view = rho.reshape(shape * 2)
    blocks = []
    for bits in range(1 << len(qubits)):
        index = [slice(None)] * len(shape)
        for j, q in enumerate(qubits):
            index[2 * order.index(q) + 1] = (bits >> j) & 1
        blocks.append(view[tuple(index * 2)])
    # the partial trace, one qubit at a time in gate order: each pass adds
    # the pairs of blocks that differ in that qubit's bit
    traced = blocks
    while len(traced) > 1:
        traced = [traced[i] + traced[i + 1] for i in range(0, len(traced), 2)]
    traced = traced[0]
    traced *= share * len(blocks)
    rho *= 1.0 - p - share
    for block in blocks:
        block += traced


def noisy_distribution(circuit: Circuit, params: Sequence[float],
                       noise: NoiseModel) -> np.ndarray:
    """Outcome probabilities diag(rho) of the exact depolarizing channel.

    Each gate maps rho to U rho U^+; a noisy one on k qubits then mixes
    in p / (4^k - 1) of every non-identity Pauli conjugation P rho P.
    """
    n = circuit.num_qubits
    if n > MAX_DENSITY_QUBITS:
        raise ValueError(
            f"noisy simulation of {n} qubits needs a {16 * 4 ** n / 1e6:.0f} MB "
            f"density matrix; the limit is {MAX_DENSITY_QUBITS} qubits")
    params = np.asarray(params, dtype=float)
    if params.shape != (circuit.num_parameters,):
        raise ValueError(f"expected {circuit.num_parameters} parameters")
    rho = np.zeros((1 << n, 1 << n), dtype=np.complex128)
    rho[0, 0] = 1.0
    for gate in circuit.gates:
        angle = gate.resolved_angle(params)
        rho = _conjugate_by_gate(rho, gate, angle, n)
        p = noise.gate_probability(gate, angle)
        if p > 0.0:
            _depolarize(rho, gate.qubits, n, p)
    return np.diagonal(rho).real.copy()


def noisy_counts(circuit: Circuit, params: Sequence[float], noise: NoiseModel,
                 shots: int, seed=None) -> ShotCounts:
    """Measurement counts, each shot a fresh noisy run measured once."""
    if shots < 1:
        raise ValueError("shots must be positive")
    return _draw_counts(noisy_distribution(circuit, params, noise),
                        circuit.num_qubits, shots, seed)


# -- distribution-fidelity experiment -----------------------------------------

FIDELITY_PARAM_RANGE = 0.2


def run_fidelity_experiment(modal_counts: Sequence[int], trials: int = 10,
                            shots: int = 10000, seed: int = 0,
                            noise: NoiseModel | None = None) -> dict:
    """Noisy-circuit fidelities against the ideal cluster-ansatz reference.

    Per trial: draw one parameter set uniformly from
    [-FIDELITY_PARAM_RANGE, FIDELITY_PARAM_RANGE],
    sample the noise-free reference distribution, then the noisy
    distribution of each ansatz, and score the count-overlap fidelity.
    Fidelity is computed per trial and averaged afterwards.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    noise = noise or NoiseModel()
    layout = QubitLayout(tuple(modal_counts))
    excitations = excitation_list(layout, 2)
    circuits = {"uvccsd": build_uvcc(layout, excitations),
                "chc": build_chc(layout, excitations)}
    n_params = len(excitations)
    per_trial = []
    for child in np.random.SeedSequence(seed).spawn(trials):
        s_params, s_ref, s_uvcc, s_chc = child.spawn(4)
        rng = np.random.default_rng(s_params)
        params = rng.uniform(-FIDELITY_PARAM_RANGE, FIDELITY_PARAM_RANGE,
                             size=n_params)
        ideal = apply_circuit(circuits["uvccsd"], params)
        ref = sample(ideal, shots, seed=s_ref)
        noisy_seeds = {"uvccsd": s_uvcc, "chc": s_chc}
        per_trial.append({name: distribution_fidelity(
                              noisy_counts(circ, params, noise, shots,
                                           seed=noisy_seeds[name]), ref)
                          for name, circ in circuits.items()})

    report: dict = {
        "trials": trials,
        "shots": shots,
        "seed": seed,
        "modal_counts": list(modal_counts),
        "noise": {"p_u2": noise.p_u2, "p_u3": noise.p_u3, "p_cx": noise.p_cx},
        "param_range": FIDELITY_PARAM_RANGE,
        "fidelity": {},
    }
    for name in circuits:
        values = [t[name] for t in per_trial]
        report["fidelity"][name] = {
            "values": values,
            "mean": float(np.mean(values)),
            "stddev": float(np.std(values, ddof=1)) if trials > 1 else 0.0,
        }
    return report
