"""Correctness oracles for the benchmark, written with numpy and scipy only.

Nothing here calls ``vibriq.mapping``, ``pauli``, ``exact`` or
``simulator``.  Two independent references are provided:

* the physical Hamiltonian as a direct product of per-mode modal spaces,
  built straight from the PES file: harmonic-oscillator Q matrices, a
  one-body diagonalization per mode, and every coupling term as the
  Kronecker product of its modal Q^p matrices;
* the depolarizing channel on a density matrix, which gives the exact
  ideal and noisy outcome distributions of a gate list.

Circuits are read as plain gate lists (kind, qubits, angle or parameter
binding); the gate matrices and the noise classes are defined here.
"""

from __future__ import annotations

import math
from functools import reduce

import numpy as np
from scipy import linalg

# -- vibrational Hamiltonian -------------------------------------------------


def ho_position(dim: int) -> np.ndarray:
    """Q = (a + a+)/sqrt(2) in the harmonic number basis, dim x dim."""
    off = np.sqrt(np.arange(1, dim) / 2.0)
    return np.diag(off, 1) + np.diag(off, -1)


def ho_position_power(power: int, dim: int) -> np.ndarray:
    """Exact dim x dim block of Q^power (Q is banded, so pad by ``power``)."""
    q = ho_position(dim + power)
    out = np.eye(dim + power)
    for _ in range(power):
        out = out @ q
    return out[:dim, :dim]


def _terms(pes: dict) -> list[tuple[float, dict[int, int]]]:
    return [(float(t["coeff"]), {int(m): int(p) for m, p in t["powers"].items()})
            for t in pes.get("terms", ())]


def modal_bases(pes: dict, modal_counts, dim: int = 40):
    """Per-mode (coefficients dim x N_l, energies N_l) of the one-body problem."""
    out = []
    for mode, (w, n_l) in enumerate(zip(pes["frequencies"], modal_counts)):
        h = np.diag(float(w) * (np.arange(dim) + 0.5))
        for coeff, powers in _terms(pes):
            if list(powers) == [mode]:
                h = h + coeff * ho_position_power(powers[mode], dim)
        vals, vecs = linalg.eigh(h)
        out.append((vecs[:, :n_l], vals[:n_l]))
    return out


def physical_hamiltonian(pes: dict, modal_counts, dim: int = 40) -> np.ndarray:
    """Direct-product Hamiltonian over the modal basis, mode 0 outermost.

    The one-body part is diagonal (the modal energies); each coupling term
    is coeff * kron over modes of C_l^T Q^p C_l (identity on other modes);
    ``v0`` shifts the whole spectrum.
    """
    bases = modal_bases(pes, modal_counts, dim)
    counts = list(modal_counts)
    size = int(np.prod(counts))
    h = float(pes.get("v0", 0.0)) * np.eye(size)

    def embed(factors: dict[int, np.ndarray]) -> np.ndarray:
        mats = [factors.get(l, np.eye(n)) for l, n in enumerate(counts)]
        return reduce(np.kron, mats)

    for mode, (_, energies) in enumerate(bases):
        h += embed({mode: np.diag(energies)})
    for coeff, powers in _terms(pes):
        if len(powers) < 2:
            continue
        factors = {}
        for mode, p in powers.items():
            c = bases[mode][0]
            factors[mode] = c.T @ ho_position_power(p, dim) @ c
        h += coeff * embed(factors)
    return 0.5 * (h + h.T)


def physical_eigenvalues(pes: dict, modal_counts, dim: int = 40) -> np.ndarray:
    return linalg.eigvalsh(physical_hamiltonian(pes, modal_counts, dim))


# -- depolarizing channel on a density matrix --------------------------------

_I2 = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_PAULIS = (_I2, _X, _Y, _Z)
_H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0)
_CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
                 dtype=complex)  # control = first tensor factor


def gate_matrix(kind: str, angle: float | None) -> np.ndarray:
    if kind == "x":
        return _X
    if kind == "h":
        return _H
    if kind == "cnot":
        return _CNOT
    if kind == "phase":
        return np.diag([1.0, np.exp(1j * angle)])
    generator = {"rx": _X, "ry": _Y, "rz": _Z}[kind]
    return linalg.expm(-0.5j * angle * generator)


def gate_error_probability(kind: str, angle: float | None,
                           p_u2: float, p_u3: float, p_cx: float) -> float:
    """H, PHASE and RX(+-pi/2) at the U2 rate, CNOT at its own, the rest U3."""
    if kind == "cnot":
        return p_cx
    if kind in ("h", "phase"):
        return p_u2
    if kind == "rx" and abs(abs(angle) - math.pi / 2.0) < 1e-12:
        return p_u2
    return p_u3


def _apply_local(rho: np.ndarray, mat: np.ndarray, qubits, n: int) -> np.ndarray:
    """mat rho mat^dagger with mat acting on ``qubits`` (first = high factor).

    rho has 2n axes; qubit q (bit q of the index) is row axis n-1-q and
    column axis 2n-1-q.
    """
    k = len(qubits)
    tensor = mat.reshape((2,) * (2 * k))
    rows = [n - 1 - q for q in qubits]
    cols = [2 * n - 1 - q for q in qubits]
    out = np.tensordot(tensor, rho, axes=(list(range(k, 2 * k)), rows))
    out = np.moveaxis(out, list(range(k)), rows)
    out = np.tensordot(out, tensor.conj(), axes=(cols, list(range(k, 2 * k))))
    return np.moveaxis(out, list(range(2 * n - k, 2 * n)), cols)


def pauli_twirl(rho: np.ndarray, qubits, n: int) -> np.ndarray:
    """Sum over all 4^k Paulis P on ``qubits`` of P rho P, term by term."""
    k = len(qubits)
    total = np.zeros_like(rho)
    for combo in np.ndindex(*(4,) * k):
        pauli = reduce(np.kron, [_PAULIS[c] for c in combo])
        total = total + _apply_local(rho, pauli, qubits, n)
    return total


def traced_twirl(rho: np.ndarray, qubits, n: int) -> np.ndarray:
    """The same sum from the identity sum_P P rho P = 2^k Tr_k(rho) (x) I."""
    k = len(qubits)
    rows = [n - 1 - q for q in qubits]
    cols = [2 * n - 1 - q for q in qubits]
    moved = np.moveaxis(rho, rows + cols, list(range(2 * k)))
    block = moved.reshape((1 << k, 1 << k) + moved.shape[2 * k:])
    reduced = np.trace(block, axis1=0, axis2=1)
    full = np.einsum("ij,...->ij...", np.eye(1 << k), reduced)
    full = full.reshape((2,) * (2 * k) + moved.shape[2 * k:])
    return (1 << k) * np.moveaxis(full, list(range(2 * k)), rows + cols)


def _depolarize(rho: np.ndarray, p: float, qubits, n: int) -> np.ndarray:
    """(1 - p) rho + p/(4^k - 1) sum over non-identity Paulis P rho P."""
    others = traced_twirl(rho, qubits, n) - rho
    return (1.0 - p) * rho + (p / ((1 << (2 * len(qubits))) - 1)) * others


def _angle(gate, params) -> float | None:
    if gate.param is not None:
        return gate.scale * float(params[gate.param])
    return gate.angle


def outcome_distribution(gates, num_qubits: int, params,
                         noise: tuple[float, float, float] | None = None
                         ) -> np.ndarray:
    """diag(rho) after the gate list from |0...0>, with optional channel.

    ``noise`` is (p_u2, p_u3, p_cx); None gives the noise-free circuit.
    Entry j is the probability of the basis index whose bit q is qubit q.
    """
    n = num_qubits
    dim = 1 << n
    rho = np.zeros((dim, dim), dtype=complex)
    rho[0, 0] = 1.0
    rho = rho.reshape((2,) * (2 * n))
    for gate in gates:
        angle = _angle(gate, params)
        rho = _apply_local(rho, gate_matrix(gate.kind, angle), gate.qubits, n)
        if noise is not None:
            p = gate_error_probability(gate.kind, angle, *noise)
            if p > 0.0:
                rho = _depolarize(rho, p, gate.qubits, n)
    probs = np.real(np.diagonal(rho.reshape(dim, dim)))
    return np.clip(probs, 0.0, None) / probs.sum()


def sampled_fidelity(p_noisy: np.ndarray, p_ideal: np.ndarray, shots: int,
                     rng: np.random.Generator, draws: int) -> np.ndarray:
    """1 - sum|a - r| / (2 shots) for ``draws`` independent count pairs."""
    a = rng.multinomial(shots, p_noisy, size=draws)
    r = rng.multinomial(shots, p_ideal, size=draws)
    return 1.0 - np.abs(a - r).sum(axis=1) / (2.0 * shots)
