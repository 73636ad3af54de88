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

    At most one factor per mode, modes strictly increasing; the factors
    are made ints and checked whenever a term is made by calling
    ``SqTerm``.  ``build_sq_hamiltonian`` makes its terms valid by
    construction (int factors, increasing modes, a float coefficient) and
    skips that check.
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

    Contributions of magnitude <= DROP_TOL are skipped, those to one
    factor key summed in PES term order, and sums <= DROP_TOL dropped; the
    terms come in the order their keys first took a contribution.  Only
    coupling terms on the same modes share keys, so each such group is
    summed as one array, one masked add per PES term.
    """
    if n_body < 1:
        raise ValueError("n_body must be >= 1")
    counts = operators.modal_counts
    if len(counts) != pes.num_modes:
        raise ValueError("operators and PES disagree on the number of modes")
    if pes.max_coupling_order() > n_body:
        raise ValueError(
            f"PES contains a {pes.max_coupling_order()}-mode coupling term "
            f"but the truncation order is {n_body}")
    factor_keys = [[(m, k, h) for k in range(n) for h in range(n)]
                   for m, n in enumerate(counts)]
    found = [((), float(pes.v0))]
    for mode in range(pes.num_modes):
        found += zip(((key,) for key in factor_keys[mode]),
                     operators.one_body[mode].ravel().tolist())

    coupling = pes.coupling_terms()
    groups: dict[tuple[int, ...], list] = {}
    for index, term in enumerate(coupling):
        weights = functools.reduce(
            np.multiply.outer,
            [operators.q_powers[m][term.powers[m]].ravel() for m in term.modes])
        groups.setdefault(term.modes, []).append(
            (index, (term.coefficient * weights).ravel()))
    keys, firsts, sums = [], [], []
    for modes, members in groups.items():
        keys += itertools.product(*(factor_keys[m] for m in modes))
        indices, weights = zip(*members)
        kept = np.abs(weights) > DROP_TOL
        total = np.zeros(kept.shape[1])
        for row, mask in zip(weights, kept):
            np.add(total, row, out=total, where=mask)
        # the term whose contribution is the first a key takes
        firsts.append(np.array(indices)[kept.argmax(axis=0)])
        sums.append(total)
    if sums:
        total = np.concatenate(sums)
        kept = np.flatnonzero(total)
        # by the term that added first; stable, so each term's keys keep
        # their row-major order
        kept = kept[np.argsort(np.concatenate(firsts)[kept], kind="stable")]
        found += zip(map(keys.__getitem__, kept.tolist()),
                     total[kept].tolist())

    # valid by construction, so the terms are made without __post_init__
    new, assign = object.__new__, object.__setattr__
    terms = []
    for factors, coeff in found:
        if abs(coeff) > DROP_TOL:
            term = new(SqTerm)
            assign(term, "coefficient", coeff)
            assign(term, "factors", factors)
            terms.append(term)
    return terms


def _factor_table(layout: QubitLayout, mode: int, k: int, h: int):
    """The strings of |k><h| on ``mode``: their common magnitude and a
    (key, coefficient) pair per string, key = x << N | z."""
    qc, qa = (1 << layout.qubit_index(mode, m) for m in (k, h))
    if qc == qa:
        return 0.5, ((0, 0.5), (qc, -0.5))
    x = (qc | qa) << layout.num_qubits
    return 0.25, ((x, 0.25), (x | qa, 0.25j), (x | qc, -0.25j),
                  (x | qc | qa, 0.25))


_IDENTITY = ((0, 1.0),)


def map_to_pauli(terms: Iterable[SqTerm], layout: QubitLayout) -> PauliSum:
    """Direct mapping of transfer-operator products to a Pauli sum.

    A term's factors act on disjoint qubits, so each string of the product
    is the bitwise or of one string per factor, keyed by the one int
    x << N | z while the sum is built.  Each distinct (mode, k, h) factor's
    table is built once per call.  Every string of a factor has magnitude
    1/2 or 1/4, a power of two, so all strings of a term have the same
    magnitude, exactly: one DROP_TOL test per term is one per string.
    Strings are added in order into one running sum, one dict update per
    string; a string whose sum falls to DROP_TOL leaves the sum, and
    re-enters at the end if a later term brings it back.
    """
    n = layout.num_qubits
    total: dict[int, complex] = {}
    get = total.get
    tables: dict[tuple[int, int, int], tuple] = {}
    for term in terms:
        coefficient = complex(term.coefficient)
        magnitude = abs(coefficient)
        strings = ((0, coefficient),)
        entries = None
        for factor in term.factors:
            if entries is not None:  # all factors but the last are folded in
                strings = [(key | fk, c * fc)
                           for key, c in strings for fk, fc in entries]
            table = tables.get(factor)
            if table is None:
                table = tables[factor] = _factor_table(layout, *factor)
            scale, entries = table
            magnitude *= scale
        if not magnitude > DROP_TOL:  # a NaN term is skipped too
            continue
        for key, c in strings:
            for fk, fc in entries or _IDENTITY:
                string = key | fk
                # 0.0 + c turns a first -0.0 part into +0.0
                value = get(string, 0.0) + c * fc
                if abs(value) > DROP_TOL:
                    total[string] = value
                else:
                    total.pop(string, None)
    z_mask = (1 << n) - 1
    return PauliSum.from_masks(
        n, {(key >> n, key & z_mask): c for key, c in total.items()})


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

