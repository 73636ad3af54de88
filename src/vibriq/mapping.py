"""n-mode second quantization and the direct modal-to-qubit mapping.

One qubit per modal, mode registers concatenated in mode order, modal 0
(lowest energy) first within each register.  Qubit value 1 means the modal
is occupied; the reference configuration occupies modal 0 of every mode.
Creation is (X - iY)/2 and annihilation (X + iY)/2, so |k><h| on qubits
(c, a) of one register maps to (first letter on c, second on a)

    k != h:  XX/4 + i XY/4 - i YX/4 + YY/4      k == h:  I/2 - Z/2

A term's factors act on disjoint qubits, where strings multiply with no
phase, P(xa, za) P(xb, zb) = P(xa | xb, za | zb): each term is the
Cartesian product of its factors' tables, built on the masks.
"""

from __future__ import annotations

from dataclasses import dataclass
import functools
import itertools
from typing import Iterable, Sequence

import numpy as np

from .pauli import DROP_TOL, PauliSum
from .pes import ModalOperators, PesExpansion


@dataclass(frozen=True)
class QubitLayout:
    """Assignment of one qubit per modal, grouped into mode registers."""

    modal_counts: tuple[int, ...]

    def __post_init__(self):
        counts = tuple(int(n) for n in self.modal_counts)
        object.__setattr__(self, "modal_counts", counts)
        if not counts or any(n < 1 for n in counts):
            raise ValueError("every mode needs at least one modal")
        object.__setattr__(self, "_offsets",
                           tuple(itertools.accumulate(counts[:-1], initial=0)))
        object.__setattr__(self, "_num_qubits", sum(counts))

    @property
    def num_modes(self) -> int:
        return len(self.modal_counts)

    @property
    def offsets(self) -> tuple[int, ...]:
        return self._offsets

    @property
    def num_qubits(self) -> int:
        return self._num_qubits

    def qubit_index(self, mode: int, modal: int) -> int:
        if not 0 <= mode < self.num_modes:
            raise ValueError(f"mode {mode} out of range")
        if not 0 <= modal < self.modal_counts[mode]:
            raise ValueError(f"modal {modal} out of range for mode {mode}")
        return self.offsets[mode] + modal

    def register(self, mode: int) -> range:
        off = self.offsets[mode]
        return range(off, off + self.modal_counts[mode])


@dataclass(frozen=True)
class SqTerm:
    """coefficient * prod over factors (mode, create-modal, annihilate-modal).

    At most one factor per mode, modes strictly increasing.
    """

    coefficient: float
    factors: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        factors = tuple((int(l), int(k), int(h)) for l, k, h in self.factors)
        object.__setattr__(self, "factors", factors)
        modes = [l for l, _, _ in factors]
        if modes != sorted(set(modes)):
            raise ValueError("factor modes must be distinct and increasing")

    @property
    def order(self) -> int:
        return len(self.factors)


def build_sq_hamiltonian(pes: PesExpansion, operators: ModalOperators,
                         n_body: int = 2) -> list[SqTerm]:
    """Expand the Hamiltonian into transfer-operator products.

    The PES constant ``v0`` is the identity term (no factors); the
    one-body block carries the full T + V^(l) modal matrices; every
    coupling term contributes the tensor product of its per-mode coordinate
    matrices, one outer product per PES term, whose entries run in the
    row-major order of the factor keys.  The result is Hermitian as a whole
    because the underlying matrices are symmetric.
    """
    if n_body < 1:
        raise ValueError("n_body must be >= 1")
    counts = operators.modal_counts
    if len(counts) != pes.num_modes:
        raise ValueError("operators and PES disagree on the number of modes")
    over = [t for t in pes.coupling_terms() if t.order > n_body]
    if over:
        raise ValueError(
            f"PES contains a {over[0].order}-mode coupling term but the "
            f"truncation order is {n_body}")
    factor_keys = [[(m, k, h) for k in range(n) for h in range(n)]
                   for m, n in enumerate(counts)]
    merged: dict[tuple[tuple[int, int, int], ...], float] = {}

    def accumulate(keys, values):
        for factors, coeff in zip(keys, values):
            if abs(coeff) > DROP_TOL:
                merged[factors] = merged.get(factors, 0.0) + coeff

    accumulate([()], [float(pes.v0)])
    for mode in range(pes.num_modes):
        accumulate(((key,) for key in factor_keys[mode]),
                   operators.one_body[mode].ravel().tolist())

    key_grids: dict[tuple[int, ...], list] = {}
    for term in pes.coupling_terms():
        modes = term.modes
        keys = key_grids.get(modes)
        if keys is None:
            keys = key_grids[modes] = list(
                itertools.product(*(factor_keys[m] for m in modes)))
        weights = functools.reduce(
            np.multiply.outer,
            [operators.q_powers[m][term.powers[m]].ravel() for m in modes])
        accumulate(keys, (term.coefficient * weights).ravel().tolist())

    return [SqTerm(c, f) for f, c in merged.items() if abs(c) > DROP_TOL]


def _factor_terms(layout: QubitLayout, mode: int, k: int, h: int):
    """(x, z, coefficient) per string of |k><h| on ``mode``."""
    qc, qa = (1 << layout.qubit_index(mode, m) for m in (k, h))
    if qc == qa:
        return ((0, 0, 0.5), (0, qc, -0.5))
    x = qc | qa
    return ((x, 0, 0.25), (x, qa, 0.25j), (x, qc, -0.25j), (x, x, 0.25))


def map_to_pauli(terms: Iterable[SqTerm], layout: QubitLayout) -> PauliSum:
    """Direct mapping of transfer-operator products to a Pauli sum.

    Each distinct (mode, k, h) factor's table is built once per call.
    Factors scale magnitudes exactly (by 1/2 or 1/4), so one DROP_TOL test
    per product is one per partial product; a cancelled string re-enters.
    """
    total: dict[tuple[int, int], complex] = {}
    tables: dict[tuple[int, int, int], tuple] = {}
    for term in terms:
        partial = [(0, 0, complex(term.coefficient))]
        for factor in term.factors:
            table = tables.get(factor)
            if table is None:
                table = tables[factor] = _factor_terms(layout, *factor)
            partial = [(x | fx, z | fz, c * fc)
                       for x, z, c in partial for fx, fz, fc in table]
        for x, z, c in partial:
            if abs(c) > DROP_TOL:
                key = x, z
                # 0.0 + c turns a first -0.0 part into +0.0
                value = total.get(key, 0.0) + c
                if abs(value) > DROP_TOL:
                    total[key] = value
                else:
                    total.pop(key, None)
    return PauliSum.from_masks(layout.num_qubits, total)


def number_operator(layout: QubitLayout, mode: int) -> PauliSum:
    """Total occupation of one mode register: sum_k (I - Z_k)/2."""
    terms = {(0, 0): complex(0.5 * layout.modal_counts[mode])}
    terms.update(((0, 1 << q), -0.5 + 0j) for q in layout.register(mode))
    return PauliSum.from_masks(layout.num_qubits, terms)


def occupations(layout: QubitLayout, amplitudes: np.ndarray,
                indices: np.ndarray) -> np.ndarray:
    """<N_l> per mode of the state with ``amplitudes`` on the basis states
    ``indices``: sum_j |a_j|^2 popcount(indices_j & register mask of l).

    N_l is diagonal, so no operator is built; on the physical basis every
    value is the state's squared norm.
    """
    weights = np.abs(amplitudes) ** 2
    masks = [((1 << n) - 1) << offset
             for offset, n in zip(layout.offsets, layout.modal_counts)]
    return np.array([weights @ np.bitwise_count(indices & m) for m in masks])


def penalty_objective(h_expectation: float,
                      number_expectations: Sequence[float],
                      mu: float) -> float:
    """<H> + mu * sum_l (<N_l> - 1)^2, the cost-function form of the penalty.

    The squared deviation is taken on expectation values, not operators,
    which differs on superpositions of occupation sectors.
    """
    if mu < 0:
        raise ValueError("penalty weight must be nonnegative")
    return float(h_expectation) + mu * sum((float(n) - 1.0) ** 2
                                           for n in number_expectations)

