"""Polynomial n-body potential in dimensionless normal coordinates.

Energies and expansion coefficients are in cm^-1 throughout.  The
coordinate of mode ``l`` is Q = (a+ + a)/sqrt(2), so the harmonic one-body
spectrum is w_l (k + 1/2) with no extra mass factors.  The kinetic
operator is implied by the harmonic frequencies and never entered
explicitly, which keeps 1/2 w^2 Q^2 from being counted twice.
"""

from __future__ import annotations

import functools
import json
import operator
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

DEFAULT_PRIMITIVE_DIM = 40
DEFAULT_MAX_DEGREE = 4


@dataclass(frozen=True)
class PesTerm:
    """One polynomial term: coefficient * prod_l Q_l^powers[l].

    The coefficient is stored as a Python float, so a numpy scalar of any
    precision gives the same float64 products as its ``float``.
    """

    coefficient: float
    powers: Mapping[int, int]

    def __post_init__(self):
        object.__setattr__(self, "coefficient", float(self.coefficient))
        if not self.powers:
            raise ValueError("a PES term must touch at least one mode")
        for mode, p in self.powers.items():
            if mode < 0 or p < 1:
                raise ValueError(f"invalid power Q_{mode}^{p}")
        object.__setattr__(self, "powers", dict(self.powers))

    @property
    def modes(self) -> tuple[int, ...]:
        return tuple(sorted(self.powers))

    @property
    def order(self) -> int:
        """Coupling order: number of distinct modes in the term."""
        return len(self.powers)

    @property
    def degree(self) -> int:
        return sum(self.powers.values())


@dataclass(frozen=True)
class PesExpansion:
    """Harmonic frequencies plus anharmonic polynomial corrections."""

    frequencies: tuple[float, ...]
    terms: tuple[PesTerm, ...] = ()
    v0: float = 0.0
    max_degree: int = DEFAULT_MAX_DEGREE

    def __post_init__(self):
        object.__setattr__(self, "frequencies", tuple(float(w) for w in self.frequencies))
        object.__setattr__(self, "terms", tuple(self.terms))
        if not self.frequencies:
            raise ValueError("at least one mode required")
        if any(w <= 0 for w in self.frequencies):
            raise ValueError("harmonic frequencies must be positive")
        for t in self.terms:
            if max(t.powers) >= self.num_modes:
                raise ValueError(f"term touches mode {max(t.powers)} "
                                 f"but only {self.num_modes} modes declared")
            if t.degree > self.max_degree:
                raise ValueError(f"term degree {t.degree} exceeds maximum "
                                 f"{self.max_degree}")

    @property
    def num_modes(self) -> int:
        return len(self.frequencies)

    def one_mode_terms(self, mode: int) -> list[PesTerm]:
        return [t for t in self.terms if t.modes == (mode,)]

    def coupling_terms(self) -> list[PesTerm]:
        return [t for t in self.terms if t.order >= 2]

    def max_coupling_order(self) -> int:
        orders = [t.order for t in self.terms]
        return max(orders, default=1)


def ho_q_power_matrix(power: int, dim: int) -> np.ndarray:
    """Matrix of Q^power in the harmonic-oscillator number basis.

    Q = (a+ + a)/sqrt(2) is banded, so taking the matrix power at an
    enlarged dimension and truncating gives the exact dim x dim block.
    Each (power, dim) is built once per process and the same read-only
    array is returned on every later call: a caller that writes into it
    gets ``ValueError`` and must copy first.
    """
    power, dim = operator.index(power), operator.index(dim)
    if power < 1 or dim < 1:
        raise ValueError("power and dim must be >= 1")
    return _ho_q_power_matrix(power, dim)


@functools.cache
def _ho_q_power_matrix(power: int, dim: int) -> np.ndarray:
    big = dim + power
    root = np.sqrt(np.arange(1, big) / 2.0)
    q1 = np.diag(root, 1) + np.diag(root, -1)
    qp = np.linalg.matrix_power(q1, power)[:dim, :dim]
    q = 0.5 * (qp + qp.T)  # exactly symmetric against fp residue
    q.flags.writeable = False
    return q


def one_body_matrix(pes: PesExpansion, mode: int,
                    dim: int = DEFAULT_PRIMITIVE_DIM) -> np.ndarray:
    """T(Q_l) + V^(l)(Q_l) in the primitive harmonic basis."""
    if not 0 <= mode < pes.num_modes:
        raise ValueError(f"mode {mode} out of range")
    h = np.diag(pes.frequencies[mode] * (np.arange(dim) + 0.5))
    for term in pes.one_mode_terms(mode):
        h = h + term.coefficient * ho_q_power_matrix(term.powers[mode], dim)
    return h


@dataclass(frozen=True)
class ModalBasis:
    """Per-mode modal coefficients (primitive dim x N_l) and energies."""

    coefficients: tuple[np.ndarray, ...]
    energies: tuple[np.ndarray, ...]

    @property
    def num_modes(self) -> int:
        return len(self.coefficients)

    @property
    def modal_counts(self) -> tuple[int, ...]:
        return tuple(c.shape[1] for c in self.coefficients)

    @property
    def primitive_dim(self) -> int:
        return self.coefficients[0].shape[0]


def _fix_sign(vec: np.ndarray) -> np.ndarray:
    k = int(np.argmax(np.abs(vec)))
    return -vec if vec[k] < 0 else vec


def solve_modals(pes: PesExpansion, modal_counts: Sequence[int],
                 dim: int = DEFAULT_PRIMITIVE_DIM) -> ModalBasis:
    """Diagonalize each one-body Hamiltonian and keep the lowest modals.

    Eigenvectors get a deterministic sign (largest-magnitude component
    positive); energies come out ascending from the symmetric eigensolver.
    """
    if len(modal_counts) != pes.num_modes:
        raise ValueError("one modal count per mode required")
    coeffs = []
    energies = []
    for mode, n_l in enumerate(modal_counts):
        if not 1 <= n_l <= dim:
            raise ValueError(f"modal count {n_l} outside [1, {dim}]")
        try:
            vals, vecs = np.linalg.eigh(one_body_matrix(pes, mode, dim))
        except np.linalg.LinAlgError as exc:
            raise RuntimeError(f"eigensolver failed for mode {mode}") from exc
        kept = np.column_stack([_fix_sign(vecs[:, k]) for k in range(n_l)])
        coeffs.append(kept)
        energies.append(vals[:n_l].copy())
    return ModalBasis(tuple(coeffs), tuple(energies))


def modal_q_power_matrix(basis: ModalBasis, mode: int, power: int) -> np.ndarray:
    """Q^power of one mode congruence-transformed into its modal basis."""
    c = basis.coefficients[mode]
    q = ho_q_power_matrix(power, c.shape[0])
    m = c.T @ q @ c
    return 0.5 * (m + m.T)


@dataclass(frozen=True)
class ModalOperators:
    """Modal-basis matrices feeding the second-quantized Hamiltonian.

    ``one_body[l]`` is T + V^(l) (diagonal = modal energies); ``q_powers[l]``
    maps each coordinate power appearing in a coupling term to its modal
    matrix.
    """

    one_body: tuple[np.ndarray, ...]
    q_powers: tuple[dict[int, np.ndarray], ...]

    @property
    def modal_counts(self) -> tuple[int, ...]:
        return tuple(m.shape[0] for m in self.one_body)


def modal_operator_matrices(basis: ModalBasis, pes: PesExpansion) -> ModalOperators:
    if basis.num_modes != pes.num_modes:
        raise ValueError("basis and PES disagree on the number of modes")
    one_body = []
    for mode in range(pes.num_modes):
        c = basis.coefficients[mode]
        h = c.T @ one_body_matrix(pes, mode, basis.primitive_dim) @ c
        one_body.append(0.5 * (h + h.T))
    needed: list[set[int]] = [set() for _ in range(pes.num_modes)]
    for term in pes.coupling_terms():
        for mode, p in term.powers.items():
            needed[mode].add(p)
    q_powers = tuple(
        {p: modal_q_power_matrix(basis, mode, p) for p in sorted(powers)}
        for mode, powers in enumerate(needed))
    return ModalOperators(tuple(one_body), q_powers)


# -- PES JSON interchange --------------------------------------------------

# The keys of a PES file and of each of its terms; the first is required.
_PES_KEYS = ("frequencies", "num_modes", "units", "v0", "terms")
_TERM_KEYS = ("coeff", "powers")


def _check_keys(data: Mapping, accepted, required, where: str) -> None:
    """Refuse a key of ``data`` not ``accepted`` or a missing ``required``."""
    for problem, keys in (("unknown", [k for k in data if k not in accepted]),
                          ("missing", [k for k in required if k not in data])):
        if keys:
            raise ValueError(f"{problem} key {keys[0]!r} in {where}; the "
                             f"accepted keys are {', '.join(accepted)}")


def pes_from_dict(data: Mapping) -> PesExpansion:
    """The PES of the JSON form; refuses unknown and missing keys."""
    _check_keys(data, _PES_KEYS, _PES_KEYS[:1], "the PES")
    for k, t in enumerate(data.get("terms", ())):
        if t.keys() != set(_TERM_KEYS):  # a term needs both keys, no other
            _check_keys(t, _TERM_KEYS, _TERM_KEYS, f"PES term {k}")
    units = data.get("units", "cm-1")
    if units != "cm-1":
        raise ValueError(f"unsupported units {units!r}; expected 'cm-1'")
    freqs = tuple(float(w) for w in data["frequencies"])
    if "num_modes" in data and int(data["num_modes"]) != len(freqs):
        raise ValueError("num_modes does not match the frequency list")
    terms = tuple(
        PesTerm(float(t["coeff"]), {int(m): int(p) for m, p in t["powers"].items()})
        for t in data.get("terms", ()))
    degree = max([t.degree for t in terms], default=0)
    return PesExpansion(freqs, terms, v0=float(data.get("v0", 0.0)),
                        max_degree=max(DEFAULT_MAX_DEGREE, degree))


def load_pes(path) -> PesExpansion:
    with open(path, "r", encoding="utf-8") as fh:
        return pes_from_dict(json.load(fh))

