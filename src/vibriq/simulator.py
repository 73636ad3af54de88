"""Exact statevector simulation, sampling, and depolarizing noise.

Two noise-free paths lead to a state.  ``apply_circuit`` runs a
gate-level ``Circuit`` gate by gate; it gives the noise-fidelity
experiment its ideal reference and is the reference in tests.  An
``AnsatzProgram`` runs the same ansatz as a few vectorized steps (basis
permutations, Pauli rotations, one real Givens rotation per cluster
excitation or per Pauli string with an odd number of Y) and is what the
VQE objective uses.  It is compiled on a set of
basis states: all 2^N, or a subset every step maps to itself, such as
the physical states a uvccsd ansatz never leaves or the per-register
odd-parity states a chc ansatz never leaves; both programs have real
amplitudes.  The reference-state X gates fold into the program's start
state.  A Pauli rotation step is built from its string's bit masks.  A
Hamiltonian applied again and again is compiled once into a scipy CSR
matrix with one entry per distinct flip mask in each row.  A one-shot
expectation compiles nothing: ``expectation_values`` evaluates each
distinct string of a batch of plain sums once, on the state's nonzero
amplitudes only.  ``check_hermitian`` is the one Hermiticity check a
Hamiltonian gets, and ``check_bytes`` the one size check: an array that
grows with the register is counted against ``MAX_BYTES`` before it exists.

Basis convention: bit q of a basis index is the value of qubit q, and
bitstrings render qubit 0 as the leftmost character.  The noise model is
depolarization: after each gate, with the gate-class probability, one
uniformly random non-identity Pauli acts on the gate's qubits (15 choices
for a CNOT).  ``noisy_counts`` draws multinomial shots from the diagonal
of the density matrix evolved through that exact channel.  The density
matrix is held as its real Pauli components Tr(P rho), a (4,)*N tensor
on which a gate is its real Pauli-transfer matrix (Greenbaum,
arXiv:1509.02921) and the channel one scale factor on the components
that are not the identity on the gate's qubits.  The channel's
Monte-Carlo unraveling, one pure state per run, and the dense density
matrix live in ``tests/helpers.py`` as test oracles.

Gate classes follow the published rates: H, RX(+-pi/2) and PHASE are
U2-like, every other single-qubit rotation (including X) is U3-like, and
CNOT has its own rate.  Seeds are split with ``numpy`` SeedSequences, so
a fixed master seed fixes every derived stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby
from typing import Mapping, Sequence

import numpy as np

from .circuits import (Block, Circuit, Excitation, ExcitationRotation, Gate,
                       PauliRotation, build_chc, build_uvcc, excitation_list)
from .mapping import QubitLayout
from .pauli import PauliSum, _sorted_mask_arrays, _stack, unique_strings

NORM_TOL = 1e-10

# Largest relative imaginary part of a coefficient, block entry or <op>.
IMAG_TOL = 1e-10

# The library's one memory budget: the arrays a call would hold at once,
# counted in bytes before any of them is allocated.
MAX_BYTES = 1 << 28


def check_bytes(what: str, nbytes: int) -> None:
    """Raise ``ValueError`` if ``what`` needs more than ``MAX_BYTES``; the
    message rounds the need up and the limit down."""
    if nbytes > MAX_BYTES:
        raise ValueError(f"{what} needs {-(-nbytes // 10**6)} MB; the limit "
                         f"is {MAX_BYTES // 10**6} MB")


def check_hermitian(op: PauliSum) -> None:
    """Raise ``ValueError`` unless ``op`` is Hermitian: its strings are
    Hermitian and independent, so every coefficient must be real, to
    ``IMAG_TOL`` of the largest."""
    coeffs = op.mask_arrays()[2]
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
        return embed(num_qubits, np.zeros(1, dtype=np.int64), np.ones(1))

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


def embed(num_qubits: int, indices: np.ndarray,
          amplitudes: np.ndarray) -> StateVector:
    """The state with ``amplitudes`` on the basis states ``indices``, in the
    full 2^N space (taken as is when ``indices`` are all 2^N)."""
    check_bytes(f"a state of {num_qubits} qubits", 16 << num_qubits)
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
    "cnot": np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0],
                      [0.0, 0.0, 0.0, 1.0], [0.0, 0.0, 1.0, 0.0]],
                     dtype=np.complex128),
}


def _gate_matrix(kind: str, angle: float | None) -> np.ndarray:
    """The matrix of a gate on its qubits: 2x2, or 4x4 for a CNOT, whose
    index has the control as its high bit."""
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


def _apply_cnot(amps: np.ndarray, control: int, target: int) -> np.ndarray:
    """Apply a CNOT to a vector of 2^N amplitudes: a copy whose two
    control-1 slices, target at 0 and at 1, are swapped."""
    view = amps.reshape(-1, 2, 1 << (abs(control - target) - 1), 2,
                        1 << min(control, target))
    # (higher qubit's bit, lower qubit's bit) of each slice
    bits = [(1, t) if control > target else (t, 1) for t in (0, 1)]
    t0, t1 = [(slice(None), hi, slice(None), lo) for hi, lo in bits]
    out = view.copy()
    out[t0], out[t1] = view[t1], view[t0]
    return out.reshape(amps.shape)


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
    amps = state.amplitudes  # each gate writes a new array
    for gate in circuit.gates:
        if gate.kind == "cnot":
            amps = _apply_cnot(amps, *gate.qubits)
        else:
            mat = _gate_matrix(gate.kind, gate.resolved_angle(params))
            amps = _apply_1q_matrix(amps, mat, gate.qubits[0])
    return StateVector(circuit.num_qubits, amps)


# -- Pauli expectation values -------------------------------------------------

# Largest (strings x states) temporary ``expectation_values`` builds at once.
_CHUNK_ELEMENTS = 1 << 20

# The same for the rows ``_pauli_rows`` builds: a block of basis states
# holds several tables (sign rows, products, positions, values), so it is
# kept small, to a few MB beside a dense block and within cache.
_COMPILE_CHUNK_ELEMENTS = 1 << 16

# (-i)^n_Y, indexed by n_Y mod 4.
_MINUS_I_POWERS = np.array([1.0, -1.0j, -1.0, 1.0j])


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


def _sign_rows(z, states: np.ndarray) -> np.ndarray:
    """(-1)^|j & z| for each state j: one row per z of an (n, 1) ``z``."""
    return 1.0 - 2.0 * (np.bitwise_count(z & states) & 1)


def _pauli_rows(op: PauliSum, indices):
    """``op``'s rows on the ascending basis states ``indices`` (all 2^N
    for ``None``) as (masks, states, dtype, blocks), float64 when every
    term weight c (-i)^|x & z| is real.  A block (rows, cols, vals) holds,
    for the states of the slice ``rows`` and each flip mask, ascending, the
    position of state ^ mask and the mask's terms summed in ``items``
    order, zero where the flip leaves the basis.  Every block is written
    into the same arrays, so read it before the next; nothing over the
    states is built, and ``indices`` is not checked, before the first
    block is read."""
    flips, signs, weights = _sorted_mask_arrays(op)
    order = np.argsort(flips, kind="stable")
    flips, signs = flips[order], signs[order]
    weights = (weights[order]
               * _MINUS_I_POWERS[np.bitwise_count(flips & signs) % 4])
    real = not weights.imag.any()
    masks, counts = np.unique(flips, return_counts=True)
    signs, column = np.unique(signs, return_inverse=True)
    dim = 1 << op.num_qubits if indices is None else len(indices)
    dtype = np.float64 if real else np.complex128

    def blocks(indices):
        from scipy import sparse  # a sum's rows are its one use

        if indices is not None:  # checked after the caller's size check
            indices = _basis(op.num_qubits, indices)
        # a product row per mask and an entry per term, in the column of
        # its z's sign row, so each mask's terms add one by one, in order
        csr = (column, np.concatenate(([0], np.cumsum(counts))))
        shape = (masks.size, signs.size)
        re, im = (sparse.csr_array((w, *csr), shape)
                  for w in (weights.real, weights.imag))
        step = max(1, _COMPILE_CHUNK_ELEMENTS // max(*shape, 1))
        # the blocks share these arrays, laid out (masks, states) because
        # the lookups run faster mask by mask
        size = (masks.size, min(step, dim))
        all_cols, all_vals = np.empty(size, np.int64), np.empty(size, dtype)
        for lo in range(0, dim, step):
            rows = slice(lo, min(lo + step, dim))
            states = (np.arange(lo, rows.stop) if indices is None
                      else indices[rows])
            cols, vals = all_cols[:, :states.size], all_vals[:, :states.size]
            table = _sign_rows(signs[:, None], states)
            vals[:] = 0.0
            vals.real += re @ table
            if not real:
                vals.imag += im @ table
            del table  # not held while the caller reads the block
            np.bitwise_xor(masks[:, None], states, out=cols)
            if indices is not None:  # on all 2^N states, j is its position
                cols[:], found = _lookup(indices, cols)
                vals[~found] = 0.0
            yield rows, cols.T, vals.T

    return masks.size, dim, dtype, blocks(indices)


def _check_table_bytes(num_qubits: int, num_masks: int, dim: int, dtype):
    """``compile_pauli_sum``'s size check, on its mask count and dtype."""
    # an int32 column and a value per entry, an int32 row pointer per state
    check_bytes(f"compiling {num_masks} flip masks on {num_qubits} qubits",
                num_masks * dim * (4 + np.dtype(dtype).itemsize)
                + 4 * (dim + 1))


def check_compiled_size(op: PauliSum, dim: int) -> None:
    """Raise ``ValueError`` if ``compile_pauli_sum`` of ``op`` on ``dim``
    basis states would exceed ``MAX_BYTES``; needs only the terms, so it
    can run before the basis exists."""
    x, z, c = op.mask_arrays()
    real = not (c * _MINUS_I_POWERS[np.bitwise_count(x & z) % 4]).imag.any()
    _check_table_bytes(op.num_qubits, np.unique(x).size, dim,
                       np.float64 if real else np.complex128)


def compile_pauli_sum(op: PauliSum, indices: np.ndarray | None = None
                      ) -> "scipy.sparse.csr_array":
    """``op``'s matrix on the ascending basis states ``indices`` (all 2^N
    when ``None``), as a CSR array.

    A term c P(x, z) sends state j to j ^ x with phase c (-i)^|x & z|
    (-1)^|j & z|.  Row j holds, per flip mask in ascending order, the
    position of j ^ mask and the mask's terms summed, zero where j ^ mask
    leaves the basis, so ``@`` adds each row in mask order.  The values are
    float64 when every c (-i)^|x & z| is real.  Refused, before allocating,
    above ``MAX_BYTES``."""
    num_masks, dim, dtype, blocks = _pauli_rows(op, indices)
    _check_table_bytes(op.num_qubits, num_masks, dim, dtype)
    from scipy import sparse
    # int32 indices, which scipy takes without a copy
    columns, values = (np.empty((dim, num_masks), t) for t in (np.int32, dtype))
    for rows, cols, vals in blocks:
        columns[rows], values[rows] = cols, vals
    indptr = np.arange(dim + 1, dtype=np.int32) * num_masks
    return sparse.csr_array((values.ravel(), columns.ravel(), indptr),
                            shape=(dim, dim))


def expectation_values(state: StateVector,
                       sums: Sequence[PauliSum]) -> np.ndarray:
    """<psi|S|psi> for each plain Pauli sum S, possibly non-Hermitian.

    Each distinct string of the batch is evaluated once, on the state's
    nonzero amplitudes only, a chunk of strings at a time:
    <psi|P(x, z)|psi> = (-i)^|x & z| sum over j in supp psi of
    conj(psi[j]) (-1)^|j & z| psi[j ^ x].  The values go back to their
    sums weighted by the coefficients, so no table over 2^N is built.
    """
    if any(op.num_qubits != state.num_qubits for op in sums):
        raise ValueError("state and operator disagree on the qubit count")
    if not sums:
        return np.zeros(0, dtype=np.complex128)
    owner, x, z, coeffs = _stack(sums)
    ids, first = unique_strings(x, z)
    x, z = x[first], z[first]
    amps = state.amplitudes
    support = np.flatnonzero(amps)
    bra = amps[support].conj()
    values = np.empty(x.size, dtype=np.complex128)
    block = max(1, _CHUNK_ELEMENTS // support.size)
    for lo in range(0, x.size, block):
        sl = slice(lo, lo + block)
        ket = amps[support ^ x[sl, None]]
        odd = (np.bitwise_count(support & z[sl, None]) & 1).astype(bool)
        np.negative(ket, out=ket, where=odd)
        values[sl] = ket @ bra
    values *= _MINUS_I_POWERS[np.bitwise_count(x & z) % 4]
    terms = values[ids] * coeffs
    return (np.bincount(owner, terms.real, len(sums))
            + 1j * np.bincount(owner, terms.imag, len(sums)))


def expectation_value(state: StateVector, op: PauliSum) -> complex:
    """<psi|op|psi> for any Pauli sum, by ``expectation_values``."""
    return complex(expectation_values(state, [op])[0])


def expectation(state: StateVector, op: PauliSum) -> float:
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

    def apply(self, amps: np.ndarray, params: Sequence[float],
              work: np.ndarray) -> np.ndarray:
        return amps[self.perm]


@dataclass(frozen=True)
class PauliRotationStep:
    """exp(i * scale * theta[param] * P) = cos * psi + i sin * P psi."""

    perm: np.ndarray
    phase: np.ndarray
    param: int
    scale: float

    def apply(self, amps: np.ndarray, params: Sequence[float],
              work: np.ndarray) -> np.ndarray:
        angle = self.scale * params[self.param]
        return (math.cos(angle) * amps
                + (1j * math.sin(angle)) * (self.phase * amps[self.perm]))


@dataclass(frozen=True)
class GivensStep:
    """exp(scale * theta[param] * (T - T+)) for a T that maps each basis
    state of a set (src) to one partner (dst) with coefficient 1.

    The exponential is a real rotation within each (src, dst) pair.  T is
    a cluster excitation, which takes the states with the occupied modals
    on and the virtual ones off to those with the bits swapped (the single
    and double excitation gates of Arrazola et al., Quantum 6, 742
    (2022)), or the real half of a Pauli string with an odd number of Y:
    then i P = T - T+.  ``pairs`` holds the positions of src (row 0) and
    dst (row 1) in the program's basis; one gather and one 2x2 rotation
    update them in place, on the array ``AnsatzProgram`` owns.  The
    rotation is written into the caller's 2x2 work array and applied by
    ``dot``: an elementwise c*a - s*b rounds differently where BLAS fuses
    the multiply and add.
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

    def apply(self, amps: np.ndarray, params: Sequence[float],
              work: np.ndarray) -> np.ndarray:
        angle = self.scale * params[self.param]
        c, s = math.cos(angle), math.sin(angle)
        work[0, 0], work[0, 1], work[1, 0], work[1, 1] = c, -s, s, c
        amps[self.pairs] = work.dot(amps[self.pairs])
        return amps


def _rotation_step(num_qubits: int, indices: np.ndarray,
                   pairs: Sequence[tuple[int, str]], param: int, scale: float):
    """exp(i * scale * theta[param] * P) for the string P on ``pairs``.

    P(x, z) sends state j to j ^ x with phase (-i)^|x & z| (-1)^|j & z|.
    With an odd number of Y that phase is +-i and i P is real: a Givens
    rotation whose src is each state where Re(i phase) = -1.
    """
    x = z = 0
    for qubit, letter in pairs:
        x |= (letter in "XY") << qubit
        z |= (letter in "YZ") << qubit
    num_y = (x & z).bit_count()
    perm = indices ^ x  # on all 2^N states, a state is its own position
    if indices.size < 1 << num_qubits:
        perm = _positions(indices, perm)
    weight, signs = _MINUS_I_POWERS[num_y % 4], _sign_rows(z, indices)
    if num_y % 2 == 0:
        return PauliRotationStep(perm, weight.real * signs, param, scale)
    src = np.flatnonzero((1j * weight).real * signs < 0)
    return GivensStep(np.stack([src, perm[src]]), param, scale)


def _program_step(num_qubits: int, indices: np.ndarray, block):
    """One program step: a list of X and CNOT gates, or one block."""
    if isinstance(block, list):
        return BitFlipStep.from_gates(indices, block)
    if isinstance(block, ExcitationRotation):
        return GivensStep.from_excitation(indices, block.excitation,
                                          block.param, block.scale)
    if isinstance(block, PauliRotation):
        return _rotation_step(num_qubits, indices, block.pairs, block.param,
                              -0.5 * block.scale)
    if block.kind in ("rx", "ry", "rz") and block.param is not None:
        return _rotation_step(
            num_qubits, indices, [(block.qubits[0], block.kind[1].upper())],
            block.param, -0.5 * block.scale)
    raise ValueError(f"no program step for block {block}")


def _step_runs(blocks: Sequence[Block]) -> list:
    """The leading run of X and CNOT gates (maybe empty), then one entry
    per program step: a block, or a later run of those gates."""
    runs: list = []
    for flips, group in groupby(blocks, lambda block: isinstance(block, Gate)
                                and block.kind in ("x", "cnot")):
        runs.extend([list(group)] if flips else group)
    return runs if runs and isinstance(runs[0], list) else [[], *runs]


def check_program_size(blocks: Sequence[Block], dim: int) -> None:
    """Raise ``ValueError`` if a program of ``blocks`` on ``dim`` states
    exceeds ``MAX_BYTES`` at 16 B a state per step (a permutation, a phase)."""
    steps = len(_step_runs(blocks)) - 1
    check_bytes(f"an ansatz program of {steps} steps on {dim} states",
                16 * dim * steps)


@dataclass(frozen=True)
class AnsatzProgram:
    """Noise-free state preparation as a short list of vectorized steps.

    The amplitudes live on ``indices``, ascending basis states that every
    step maps among themselves: all 2^N, the Π N_l physical states for an
    ansatz that keeps one occupied modal per mode, or the 2^(N-M)
    per-register odd-parity states for one whose every step flips an even
    number of each register's bits.  The leading run of X and CNOT gates
    is folded into ``start``, the position of the basis state it makes
    from the vacuum.  A program of Givens rotations (cluster excitations
    and odd-Y Pauli rotations) and basis permutations alone has ``real``
    amplitudes.

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
        state, runs = 0, _step_runs(blocks)
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
        angles = params.tolist()  # Python floats for the steps' scalar math
        work = np.empty((2, 2))  # each Givens step's rotation, in turn
        for step in self.steps:
            amps = step.apply(amps, angles, work)
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


# I, X, Y and Z, then the 16 two-qubit products, first qubit slowest
_PAULIS = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]],
                    [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
_PAULI_BASES = {2: _PAULIS, 4: np.einsum("aij,bkl->abikjl", _PAULIS,
                                         _PAULIS).reshape(16, 4, 4)}


def _transfer_matrix(kind: str, angle: float | None, p: float) -> np.ndarray:
    """R_ab = Tr(P_a U P_b U^+) / 2^k of a gate on k qubits, then its
    depolarization: mixing in p / (4^k - 1) of every non-identity P rho P
    scales the non-identity rows by 1 - p 4^k / (4^k - 1)."""
    u = _gate_matrix(kind, angle)
    basis = _PAULI_BASES[len(u)]
    r = np.einsum("aij,bji->ab", basis, u @ basis @ u.conj().T).real / len(u)
    r[1:] *= 1.0 - p * len(r) / (len(r) - 1)
    return r


def _apply_on_axes(mat: np.ndarray, tensor: np.ndarray, axes) -> np.ndarray:
    """``mat``, shaped (out axes, in axes), on the ``axes`` of ``tensor``."""
    k = len(axes)
    out = np.tensordot(mat, tensor, axes=(range(k, 2 * k), axes))
    return np.moveaxis(out, range(k), axes)


def _check_noisy_size(num_qubits: int) -> None:
    # a gate step holds three tensors, the state, the copy ``tensordot``
    # makes of it with the gate's axes first and the product, and 64 kB
    # for the transfer matrix and the step's small objects
    check_bytes(f"a noisy simulation of {num_qubits} qubits "
                "(3 Pauli-transfer tensors)",
                (24 << 2 * num_qubits) + (1 << 16))


def _pauli_components(circuit: Circuit, params: Sequence[float],
                      noise: NoiseModel) -> np.ndarray:
    """r[P] = Tr(P rho) of the final rho of the exact depolarizing channel,
    a real (4,)*N tensor whose axis i is qubit N - 1 - i, indexed I, X, Y, Z:
    each gate applies its transfer matrix to its qubits' axes."""
    n = circuit.num_qubits
    _check_noisy_size(n)
    params = np.asarray(params, dtype=float)
    if params.shape != (circuit.num_parameters,):
        raise ValueError(f"expected {circuit.num_parameters} parameters")
    r = np.zeros((4,) * n)
    r[(slice(None, None, 3),) * n] = 1.0  # |0><0| is the mean of {I, Z}^N
    for gate in circuit.gates:
        angle = gate.resolved_angle(params)
        mat = _transfer_matrix(gate.kind, angle,
                               noise.gate_probability(gate, angle))
        k = len(gate.qubits)
        r = _apply_on_axes(mat.reshape((4,) * 2 * k), r,
                           [n - 1 - q for q in gate.qubits])
    return r


def noisy_distribution(circuit: Circuit, params: Sequence[float],
                       noise: NoiseModel) -> np.ndarray:
    """Outcome probabilities diag(rho) of the exact depolarizing channel:
    the Walsh-Hadamard transform of the {I, Z}^N components, over 2^N."""
    n = circuit.num_qubits
    z = _pauli_components(circuit, params, noise)[(slice(None, None, 3),) * n]
    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]])
    for axis in range(n):
        z = _apply_on_axes(hadamard, z, [axis])
    return z.reshape(-1) / (1 << n)


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
    _check_noisy_size(layout.num_qubits)
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
