"""Excited states from the equation-of-motion pseudo-eigenvalue problem.

The operator pool reuses the ansatz excitation set (orders 1 and 2).
Matrix elements are expectations of commutators and symmetrized double
commutators in the supplied ground state, evaluated exactly from the
statevector; the resulting block problem is solved classically and its
positive branch returned.  ``eom_diagnostics`` reports how far to trust
that solve: the metric's conditioning and the complex eigenvalues whose
imaginary parts the real branch drops, which signal a reference state
that is not an exact eigenstate (Ollitrault et al., arXiv:1910.12890).

The Pauli algebra is kept small three ways.  A commutator multiplies only
the anticommuting string pairs (``pauli.commutator``).  The double
commutator DC(A,H,B) takes its Jacobi form [[A,H],B] + [H,[A,B]] / 2,
and [A,B] between pool operators is short or zero.  Only the upper
triangle of M, Q, V and W is evaluated: for Hermitian H, M and V are
Hermitian, Q symmetric and W antisymmetric in any state, since
DC(A,H,B)^+ = DC(B^+,H,A^+) and DC is symmetric in A and B.  So
``compute_matrices`` first checks H Hermitian, as VQE and the exact path do.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import linalg

from .circuits import Excitation, excitation_list, excitation_sq_terms
from .mapping import QubitLayout, map_to_pauli
from .pauli import PauliSum, commutator
from .simulator import StateVector, check_hermitian, expectation_value

METRIC_SINGULARITY_RTOL = 1e-10
# An eigenvalue counts as complex when |Im E| exceeds this times max |E|.
COMPLEX_EIGENVALUE_RTOL = 1e-8


def double_commutator(a: PauliSum, h: PauliSum, b: PauliSum) -> PauliSum:
    """Symmetrized double commutator ([[a,h],b] + [a,[h,b]]) / 2.

    By the Jacobi identity [a,[h,b]] = [[a,h],b] + [h,[a,b]], so this is
    [[a,h],b] + [h,[a,b]] / 2: one commutator with h fewer, and [a,b]
    between pool operators is short or zero.  Reduces to [[a,h],b]
    whenever [a,b] commutes with h.
    """
    return (commutator(commutator(a, h), b)
            + commutator(h, commutator(a, b)) * 0.5)


@dataclass(frozen=True)
class EomOperators:
    """Excitation operators (and adjoints) of the pool, as Pauli sums."""

    excitations: tuple[Excitation, ...]
    operators: tuple[PauliSum, ...]
    adjoints: tuple[PauliSum, ...]

    @property
    def size(self) -> int:
        return len(self.operators)


def build_eom_operators(layout: QubitLayout, max_order: int = 2) -> EomOperators:
    excitations = tuple(excitation_list(layout, max_order))
    operators = tuple(map_to_pauli(excitation_sq_terms(exc), layout)
                      for exc in excitations)
    adjoints = tuple(op.adjoint() for op in operators)
    return EomOperators(excitations, operators, adjoints)


@dataclass(frozen=True)
class EomMatrices:
    m: np.ndarray
    q: np.ndarray
    v: np.ndarray
    w: np.ndarray

    @property
    def size(self) -> int:
        return self.m.shape[0]


def compute_matrices(ground: StateVector, h: PauliSum,
                     ops: EomOperators) -> EomMatrices:
    """Commutator expectations in the (approximate) ground state."""
    if ground.num_qubits != h.num_qubits:
        raise ValueError("state and Hamiltonian disagree on the qubit count")
    check_hermitian(h)
    size = ops.size
    m = np.zeros((size, size), dtype=np.complex128)
    q = np.zeros((size, size), dtype=np.complex128)
    v = np.zeros((size, size), dtype=np.complex128)
    w = np.zeros((size, size), dtype=np.complex128)
    for i in range(size):
        dag = ops.adjoints[i]
        for j in range(i, size):
            op = ops.operators[j]
            op_dag = ops.adjoints[j]
            m[i, j] = expectation_value(ground, double_commutator(dag, h, op))
            q[i, j] = -expectation_value(ground, double_commutator(dag, h, op_dag))
            v[i, j] = expectation_value(ground, commutator(dag, op))
            w[i, j] = -expectation_value(ground, commutator(dag, op_dag))
    # The lower triangle from the upper: M and V are Hermitian, Q is
    # symmetric and W antisymmetric in any state.
    lower = np.tril_indices(size, -1)
    m[lower] = m.T[lower].conj()
    v[lower] = v.T[lower].conj()
    q[lower] = q.T[lower]
    w[lower] = -w.T[lower]
    return EomMatrices(m, q, v, w)


def _solve_pencil(matrices: EomMatrices) -> tuple[np.ndarray, dict]:
    """Finite eigenvalues of the block pencil and their diagnostics."""
    m, q, v, w = matrices.m, matrices.q, matrices.v, matrices.w
    a = np.block([[m, q], [np.conj(q), np.conj(m)]])
    b = np.block([[v, w], [-np.conj(w), -np.conj(v)]])
    singular_values = np.linalg.svd(b, compute_uv=False)
    cutoff = singular_values.max() * METRIC_SINGULARITY_RTOL \
        if singular_values.size else 0.0
    null_dim = int(np.sum(singular_values <= cutoff))
    if null_dim > 0:
        raise ValueError(
            f"metric block is singular: near-null subspace dimension "
            f"{null_dim} of {b.shape[0]}")
    values = linalg.eigvals(a, b)
    values = values[np.isfinite(values)]
    imag = np.abs(values.imag)
    limit = COMPLEX_EIGENVALUE_RTOL * np.abs(values).max(initial=0.0)
    condition = (singular_values.max() / singular_values.min()
                 if singular_values.size else 1.0)
    return values, {"metric_condition": float(condition),
                    "complex_eigenvalues": int(np.sum(imag > limit)),
                    "max_imag": float(imag.max(initial=0.0))}


def solve_pseudo_eigenproblem(matrices: EomMatrices,
                              threshold: float = 1e-6) -> np.ndarray:
    """Positive excitation energies of the block generalized problem.

    Eigenvalues come in +-E pairs; the negative mirrors and anything with
    |E| below the threshold are discarded, the rest returned ascending
    with multiplicity.  Only real parts are kept: ``eom_diagnostics``
    counts the eigenvalues whose imaginary parts this drops.
    """
    if threshold < 0:
        raise ValueError("threshold must be nonnegative")
    values, _ = _solve_pencil(matrices)
    return np.sort(values.real[values.real > threshold])


def eom_diagnostics(matrices: EomMatrices) -> dict:
    """How trustworthy the pencil's solve is.

    ``metric_condition`` is the metric block's sigma_max / sigma_min,
    ``complex_eigenvalues`` the number of eigenvalues with |Im E| above
    ``COMPLEX_EIGENVALUE_RTOL`` max |E|, and ``max_imag`` the largest
    |Im E|.  Raises like ``solve_pseudo_eigenproblem`` on a singular
    metric.
    """
    return _solve_pencil(matrices)[1]


def excitation_energies(ground: StateVector, h: PauliSum, layout: QubitLayout,
                        max_order: int = 2,
                        threshold: float = 1e-6) -> tuple[np.ndarray, EomMatrices,
                                                          EomOperators]:
    """End-to-end pipeline: pool, matrices, solved positive energies."""
    ops = build_eom_operators(layout, max_order)
    matrices = compute_matrices(ground, h, ops)
    energies = solve_pseudo_eigenproblem(matrices, threshold)
    return energies, matrices, ops
