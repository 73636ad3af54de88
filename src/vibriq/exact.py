"""Exact reference: the Hamiltonian's physical block and its spectrum.

The physical subspace is the Π N_l direct-product (VCI) modal basis: the
basis states with one set bit per mode register, in ascending index order
(mode 0 varying fastest).  Only that block is built, from the Pauli sum
compiled on those states; the 2^N × 2^N operator is never formed.
"""

from __future__ import annotations

import numpy as np

from .mapping import QubitLayout
from .pauli import PauliSum
from .simulator import StateVector, _basis, _mask_chunks, _term_groups, embed

# Largest dimension of a matrix built here: 268 MB of complex entries.
MAX_DENSE_DIM = 4096


def _check_dimension(dim: int) -> None:
    if dim > MAX_DENSE_DIM:
        raise ValueError(
            f"dense matrix of dimension {dim} needs {16 * dim * dim / 1e6:.0f} "
            f"MB; the limit is dimension {MAX_DENSE_DIM}")


def dense_matrix(op: PauliSum, indices: np.ndarray | None = None) -> np.ndarray:
    """Block of ``op``'s matrix on the ascending basis states ``indices``.

    ``None`` means all 2^N states (qubit 0 = least significant bit).  Row j
    holds ``compile_pauli_sum(op, indices)``'s diags[g, j] at perms[g, j],
    written one mask at a time, so no table is held whole.
    """
    n = op.num_qubits
    _check_dimension(1 << n if indices is None else len(indices))
    basis = _basis(n, indices)
    out = np.zeros((basis.size, basis.size), dtype=np.complex128)
    for _, perms, diags in _mask_chunks(_term_groups(op), basis,
                                        indices is None):
        # distinct masks never share an entry, and a flip that leaves the
        # basis has a zero diagonal there
        for perm, diag in zip(perms, diags):
            nonzero = np.flatnonzero(diag)
            out[nonzero, perm[nonzero]] = diag[nonzero]
    return out


def physical_indices(layout: QubitLayout) -> np.ndarray:
    """The physical basis states, ascending: one set bit per mode register."""
    indices = np.zeros(1, dtype=np.int64)
    for offset, n in zip(layout.offsets, layout.modal_counts):
        bits = np.left_shift(1, np.arange(offset, offset + n, dtype=np.int64))
        indices = (bits[:, None] + indices).ravel()
    return indices


def physical_block(h: PauliSum, layout: QubitLayout
                   ) -> tuple[np.ndarray, np.ndarray]:
    """The physical basis and ``h``'s matrix on it.

    Refuses a block above ``MAX_DENSE_DIM`` before building anything.
    """
    _check_dimension(int(np.prod(layout.modal_counts)))
    if h.num_qubits != layout.num_qubits:
        raise ValueError("operator and layout disagree on the qubit count")
    indices = physical_indices(layout)
    return indices, dense_matrix(h, indices)


def physical_spectrum(h: PauliSum, layout: QubitLayout) -> np.ndarray:
    """Ascending eigenvalues of the Hamiltonian within the physical subspace."""
    return np.linalg.eigvalsh(physical_block(h, layout)[1])


def ground_state_vector(h: PauliSum, layout: QubitLayout
                        ) -> tuple[float, StateVector]:
    """Lowest physical eigenpair, embedded back into the full qubit space."""
    indices, sub = physical_block(h, layout)
    vals, vecs = np.linalg.eigh(sub)
    vec = vecs[:, 0]
    # deterministic gauge: largest-magnitude component real and positive
    k = int(np.argmax(np.abs(vec)))
    vec = vec * (np.abs(vec[k]) / vec[k])
    return float(vals[0]), embed(layout.num_qubits, indices, vec)
