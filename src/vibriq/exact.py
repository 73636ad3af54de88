"""Exact reference: the Hamiltonian's physical block and its spectrum.

The physical subspace is the Π N_l direct-product (VCI) modal basis: the
basis states with one set bit per mode register, in ascending index order
(mode 0 varying fastest).  Only that block is built, from the Pauli sum
compiled on those states; the 2^N × 2^N operator is never formed.
The block is real symmetric for a Hamiltonian mapped from real n-mode SQ
terms (Christiansen, PCCP 9, 2942 (2007)); ``physical_block`` refuses any
other block, so the spectrum and the ground state come from real LAPACK.
``parity_indices`` gives the larger basis, odd weight in every register,
that the chc VQE runs on.  Sizes are refused against ``MAX_BYTES``
first: a block at D^2 entries, twice that with LAPACK's copy of it.
"""

from __future__ import annotations

import math

import numpy as np

from .mapping import QubitLayout
from .pauli import PauliSum
from . import simulator
from .simulator import (IMAG_TOL, StateVector, check_bytes, check_hermitian,
                        embed)


def dense_matrix(op: PauliSum, indices: np.ndarray | None = None) -> np.ndarray:
    """Block of ``op``'s matrix on the ascending basis states ``indices``.

    ``None`` means all 2^N states (qubit 0 = least significant bit).  It
    equals ``compile_pauli_sum(op, indices).toarray()``, in the compiled
    dtype, but is written one block of basis states at a time, so no
    table is held whole.  Refused above ``MAX_BYTES`` before anything is
    built.
    """
    _, dim, dtype, blocks = simulator._pauli_rows(op, indices)
    check_bytes(f"a dense matrix of dimension {dim}",
                dim * dim * np.dtype(dtype).itemsize)
    out = np.zeros((dim, dim), dtype=dtype)
    for rows, cols, vals in blocks:
        # distinct masks never share an entry, and a flip that leaves the
        # basis has a zero value there
        row, mask = np.nonzero(vals)
        out[row + rows.start, cols[row, mask]] = vals[row, mask]
    return out


def _register_product(layout: QubitLayout, patterns) -> np.ndarray:
    """The basis states, ascending, whose bits in each mode register form
    one of ``patterns(n)``, the register's ascending n-bit values."""
    indices = np.zeros(1, dtype=np.int64)
    for offset, n in zip(layout.offsets, layout.modal_counts):
        local = np.left_shift(patterns(n), offset)
        indices = (local[:, None] + indices).ravel()
    return indices


def physical_indices(layout: QubitLayout) -> np.ndarray:
    """The physical basis states, ascending: one set bit per mode register."""
    return _register_product(
        layout, lambda n: np.left_shift(1, np.arange(n, dtype=np.int64)))


def parity_indices(layout: QubitLayout) -> np.ndarray:
    """The states with an odd number of set bits in every mode register,
    ascending: Π 2^(N_l - 1) = 2^(N - M) of them.

    Every transfer operator flips 0 or 2 bits of one register, so a
    mapped Hamiltonian keeps this set, and so does a chc ansatz from the
    reference state.  Refused above ``MAX_BYTES``, 8 B a state, before it
    is built.
    """
    size_log2 = layout.num_qubits - layout.num_modes
    check_bytes(f"a parity basis of 2^{size_log2} states", 8 << size_log2)

    def odd(n):
        values = np.arange(1 << n, dtype=np.int64)
        return values[np.bitwise_count(values) & 1 == 1]

    return _register_product(layout, odd)


def physical_block(h: PauliSum, layout: QubitLayout
                   ) -> tuple[np.ndarray, np.ndarray]:
    """The physical basis and ``h``'s real symmetric matrix on it.

    Refuses a block above ``MAX_BYTES`` before building anything, a
    non-Hermitian ``h``, and an imaginary block, which only strings with
    an odd number of Y give: c P(x, z) enters as c (-i)^|x & z| (-1)^|j & z|.
    """
    dim = math.prod(layout.modal_counts)
    check_bytes(f"a physical block of dimension {dim}", 8 * dim * dim)
    if h.num_qubits != layout.num_qubits:
        raise ValueError("operator and layout disagree on the qubit count")
    check_hermitian(h)
    indices = physical_indices(layout)
    block = dense_matrix(h, indices)
    if block.dtype == np.float64:
        return indices, block
    # reductions over views: no D x D temporary
    residue = max(block.imag.max(), -block.imag.min())
    if residue > IMAG_TOL * max(1.0, block.real.max(), -block.real.min()):
        raise ValueError(f"physical block has imaginary part {residue:.3e}; "
                         "a Hamiltonian mapped from real SQ terms has none")
    return indices, np.ascontiguousarray(block.real)


def _lapack_block(h: PauliSum, layout: QubitLayout):
    """``physical_block`` with room for LAPACK's D x D copy of the block."""
    dim = math.prod(layout.modal_counts)
    check_bytes(f"diagonalizing a physical block of dimension {dim}",
                16 * dim * dim)
    return physical_block(h, layout)


def physical_spectrum(h: PauliSum, layout: QubitLayout) -> np.ndarray:
    """Ascending eigenvalues of the Hamiltonian within the physical subspace."""
    return np.linalg.eigvalsh(_lapack_block(h, layout)[1])


def ground_state_vector(h: PauliSum, layout: QubitLayout
                        ) -> tuple[float, StateVector]:
    """Lowest physical eigenpair, embedded back into the full qubit space."""
    indices, sub = _lapack_block(h, layout)
    vals, vecs = np.linalg.eigh(sub)
    vec = vecs[:, 0]
    # deterministic gauge: largest-magnitude component positive
    vec = vec * np.sign(vec[np.argmax(np.abs(vec))])
    return float(vals[0]), embed(layout.num_qubits, indices, vec)
