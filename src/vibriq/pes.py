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
import math
import operator
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

DEFAULT_PRIMITIVE_DIM = 40
DEFAULT_MAX_DEGREE = 4


@dataclass(frozen=True)
class PesTerm:
    """One polynomial term: coefficient * prod_l Q_l^powers[l].

    The coefficient is stored as a Python float, so a numpy scalar of any
    precision gives the same float64 products as its ``float``; it must be
    finite.  The sorted modes are taken once, on first use.
    """

    coefficient: float
    powers: Mapping[int, int]

    def __post_init__(self):
        object.__setattr__(self, "coefficient", float(self.coefficient))
        if not math.isfinite(self.coefficient):
            raise ValueError(f"coefficient {self.coefficient!r} is not finite")
        if not self.powers:
            raise ValueError("a PES term must touch at least one mode")
        for mode, p in self.powers.items():
            if mode < 0 or p < 1:
                raise ValueError(f"invalid power Q_{mode}^{p}")
        object.__setattr__(self, "powers", dict(self.powers))

    @functools.cached_property
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
    """Harmonic frequencies plus anharmonic polynomial corrections.

    The terms are indexed once, when the expansion is made: the one-mode
    terms of each mode and the coupling terms, each in the order of
    ``terms``.
    """

    frequencies: tuple[float, ...]
    terms: tuple[PesTerm, ...] = ()
    v0: float = 0.0
    max_degree: int = DEFAULT_MAX_DEGREE

    def __post_init__(self):
        object.__setattr__(self, "frequencies", tuple(float(w) for w in self.frequencies))
        object.__setattr__(self, "terms", tuple(self.terms))
        if not self.frequencies:
            raise ValueError("at least one mode required")
        if not all(0.0 < w < math.inf for w in self.frequencies):
            raise ValueError("harmonic frequencies must be positive and finite")
        if not math.isfinite(self.v0):
            raise ValueError(f"v0 {self.v0!r} is not finite")
        num_modes, max_degree = len(self.frequencies), self.max_degree
        one_mode: dict[int, list[PesTerm]] = {}
        coupling = []
        max_order = 1
        for k, t in enumerate(self.terms):
            top = max(t.powers)
            if top >= num_modes:
                raise ValueError(f"term {k} touches mode {top} but only "
                                 f"{num_modes} modes declared")
            if t.degree > max_degree:
                raise ValueError(f"term {k} has degree {t.degree}, above "
                                 f"the maximum {max_degree}")
            order = len(t.powers)
            if order == 1:
                one_mode.setdefault(top, []).append(t)
            else:
                coupling.append(t)
                max_order = max(max_order, order)
        object.__setattr__(self, "_one_mode",
                           {m: tuple(ts) for m, ts in one_mode.items()})
        object.__setattr__(self, "_coupling", tuple(coupling))
        object.__setattr__(self, "_max_order", max_order)

    @property
    def num_modes(self) -> int:
        return len(self.frequencies)

    def one_mode_terms(self, mode: int) -> list[PesTerm]:
        return list(self._one_mode.get(mode, ()))

    def coupling_terms(self) -> list[PesTerm]:
        return list(self._coupling)

    def max_coupling_order(self) -> int:
        return self._max_order


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
    """Per-mode modal coefficients (primitive dim x N_l) and energies.

    ``solve_modals`` also records the PES it solved (``pes``) and each
    mode's one-body matrix T + V^(l) projected on its kept modals and
    symmetrized, read-only (``one_body``), which ``modal_operator_matrices``
    takes for that same PES object instead of building and projecting it
    again.  A basis made by hand leaves both ``None``.
    """

    coefficients: tuple[np.ndarray, ...]
    energies: tuple[np.ndarray, ...]
    pes: PesExpansion | None = field(default=None, repr=False, compare=False)
    one_body: tuple[np.ndarray, ...] | None = field(default=None, repr=False,
                                                     compare=False)

    @property
    def num_modes(self) -> int:
        return len(self.coefficients)

    @property
    def modal_counts(self) -> tuple[int, ...]:
        return tuple(c.shape[1] for c in self.coefficients)

    @property
    def primitive_dim(self) -> int:
        return self.coefficients[0].shape[0]


def _project(c: np.ndarray, h: np.ndarray) -> np.ndarray:
    """c^T h c, symmetrized as 0.5 (M + M^T) against fp residue."""
    m = c.T @ h @ c
    return 0.5 * (m + m.T)


def solve_modals(pes: PesExpansion, modal_counts: Sequence[int],
                 dim: int = DEFAULT_PRIMITIVE_DIM) -> ModalBasis:
    """Diagonalize each one-body Hamiltonian and keep the lowest modals.

    Eigenvectors get a deterministic sign (largest-magnitude component
    positive); energies come out ascending from the symmetric eigensolver.
    Each mode's one-body matrix is built once: the basis keeps its
    projection on the kept modals for ``modal_operator_matrices``.
    """
    if len(modal_counts) != pes.num_modes:
        raise ValueError("one modal count per mode required")
    coeffs = []
    energies = []
    one_body = []
    for mode, n_l in enumerate(modal_counts):
        if not 1 <= n_l <= dim:
            raise ValueError(f"modal count {n_l} outside [1, {dim}]")
        h = one_body_matrix(pes, mode, dim)
        try:
            vals, vecs = np.linalg.eigh(h)
        except np.linalg.LinAlgError as exc:
            raise RuntimeError(f"eigensolver failed for mode {mode}") from exc
        vecs = vecs[:, :n_l]
        top = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(n_l)]
        # C order, so that the projections below multiply as they always have
        kept = np.ascontiguousarray(vecs * np.where(top < 0, -1.0, 1.0))
        projected = _project(kept, h)
        projected.flags.writeable = False
        coeffs.append(kept)
        energies.append(vals[:n_l].copy())
        one_body.append(projected)
    return ModalBasis(tuple(coeffs), tuple(energies), pes, tuple(one_body))


def modal_q_power_matrix(basis: ModalBasis, mode: int, power: int) -> np.ndarray:
    """Q^power of one mode congruence-transformed into its modal basis."""
    c = basis.coefficients[mode]
    return _project(c, ho_q_power_matrix(power, c.shape[0]))


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
    """The one-body and coupling coordinate matrices of ``pes`` in the
    modals of ``basis``.  The one-body matrices are the basis's own
    (shared, read-only) when ``solve_modals`` made it from this ``pes``
    object, and are built and projected here otherwise."""
    if basis.num_modes != pes.num_modes:
        raise ValueError("basis and PES disagree on the number of modes")
    one_body = basis.one_body
    if basis.pes is not pes or one_body is None:
        one_body = tuple(
            _project(c, one_body_matrix(pes, mode, basis.primitive_dim))
            for mode, c in enumerate(basis.coefficients))
    needed: list[set[int]] = [set() for _ in range(pes.num_modes)]
    for term in pes.coupling_terms():
        for mode, p in term.powers.items():
            needed[mode].add(p)
    q_powers = tuple(
        {p: modal_q_power_matrix(basis, mode, p) for p in sorted(powers)}
        for mode, powers in enumerate(needed))
    return ModalOperators(one_body, q_powers)


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


def _finite(value) -> bool:
    """Whether ``value`` is a finite JSON number: an int or a float, not a
    boolean, NaN or infinity."""
    return type(value) in (int, float) and math.isfinite(value)


def _term_from_dict(t: Mapping, k: int) -> PesTerm:
    """PES term ``k`` of the JSON form; every refusal names ``k``."""
    coeff = t["coeff"]
    if not _finite(coeff):
        raise ValueError(f"the coeff of PES term {k} is {coeff!r}, not a "
                         f"finite number")
    powers: dict[int, int] = {}
    for m, p in t["powers"].items():
        if type(p) is not int:  # 2.5 is not Q^2, nor true Q^1
            raise ValueError(f"the power {p!r} of mode {m!r} in PES term "
                             f"{k} is not an integer")
        try:
            powers[int(m)] = p
        except ValueError:
            raise ValueError(f"mode {m!r} of PES term {k} is not an "
                             f"integer") from None
    if len(powers) < len(t["powers"]):
        raise ValueError(f"a mode appears twice in PES term {k}")
    try:
        return PesTerm(coeff, powers)
    except ValueError as exc:
        raise ValueError(f"PES term {k}: {exc}") from None


def pes_from_dict(data: Mapping) -> PesExpansion:
    """The PES of the JSON form.  Refuses unknown and missing keys, a
    number that is not finite, a power or mode count that is not an
    integer, and a mode given twice in one term."""
    _check_keys(data, _PES_KEYS, _PES_KEYS[:1], "the PES")
    for k, t in enumerate(data.get("terms", ())):
        if t.keys() != set(_TERM_KEYS):  # a term needs both keys, no other
            _check_keys(t, _TERM_KEYS, _TERM_KEYS, f"PES term {k}")
    units = data.get("units", "cm-1")
    if units != "cm-1":
        raise ValueError(f"unsupported units {units!r}; expected 'cm-1'")
    freqs = tuple(data["frequencies"])
    for l, w in enumerate(freqs):
        if not _finite(w):
            raise ValueError(f"frequency {l} is {w!r}, not a finite number")
    v0 = data.get("v0", 0.0)
    if not _finite(v0):
        raise ValueError(f"v0 is {v0!r}, not a finite number")
    if "num_modes" in data:
        if type(data["num_modes"]) is not int:
            raise ValueError(f"num_modes {data['num_modes']!r} is not an "
                             f"integer")
        if data["num_modes"] != len(freqs):
            raise ValueError("num_modes does not match the frequency list")
    terms = tuple(_term_from_dict(t, k)
                  for k, t in enumerate(data.get("terms", ())))
    degree = max([t.degree for t in terms], default=0)
    return PesExpansion(freqs, terms, v0=float(v0),
                        max_degree=max(DEFAULT_MAX_DEGREE, degree))


def load_pes(path) -> PesExpansion:
    with open(path, "r", encoding="utf-8") as fh:
        return pes_from_dict(json.load(fh))

