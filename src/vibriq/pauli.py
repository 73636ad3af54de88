"""Exact algebra on complex-weighted sums of Pauli strings.

A term is a label over ``IXYZ`` (qubit 0 = leftmost letter) with a complex
coefficient.  Sums keep at most one term per label and drop coefficients
below a tolerance, so after simplification structural equality doubles as
operator equality.  All operations return new objects; nothing is mutated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

DROP_TOL = 1e-12

_LETTERS = frozenset("IXYZ")

# Single-qubit products: (a, b) -> (phase, a*b).
_MUL = {
    ("I", "I"): (1.0, "I"), ("I", "X"): (1.0, "X"),
    ("I", "Y"): (1.0, "Y"), ("I", "Z"): (1.0, "Z"),
    ("X", "I"): (1.0, "X"), ("X", "X"): (1.0, "I"),
    ("X", "Y"): (1.0j, "Z"), ("X", "Z"): (-1.0j, "Y"),
    ("Y", "I"): (1.0, "Y"), ("Y", "X"): (-1.0j, "Z"),
    ("Y", "Y"): (1.0, "I"), ("Y", "Z"): (1.0j, "X"),
    ("Z", "I"): (1.0, "Z"), ("Z", "X"): (1.0j, "Y"),
    ("Z", "Y"): (-1.0j, "X"), ("Z", "Z"): (1.0, "I"),
}


def _mul_labels(a: str, b: str) -> tuple[complex, str]:
    phase = 1.0 + 0.0j
    letters = []
    for la, lb in zip(a, b):
        p, r = _MUL[la, lb]
        phase *= p
        letters.append(r)
    return phase, "".join(letters)


@dataclass(frozen=True)
class PauliString:
    """One Pauli label with its coefficient."""

    label: str
    coefficient: complex

    def __post_init__(self):
        if not set(self.label) <= _LETTERS:
            raise ValueError(f"invalid Pauli label {self.label!r}")

    @property
    def num_qubits(self) -> int:
        return len(self.label)


class PauliSum:
    """Simplified sum of Pauli strings on a fixed qubit count.

    Terms are held per label; the public ``terms`` view is sorted
    lexicographically by label so equal operators compare equal.
    """

    __slots__ = ("_num_qubits", "_coeffs")

    def __init__(self, num_qubits: int,
                 coeffs: Mapping[str, complex] | Iterable[tuple[str, complex]] = (),
                 tol: float = DROP_TOL):
        if num_qubits < 1:
            raise ValueError("num_qubits must be positive")
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        merged: dict[str, complex] = {}
        for label, c in items:
            if len(label) != num_qubits or not set(label) <= _LETTERS:
                raise ValueError(
                    f"label {label!r} invalid for {num_qubits} qubits")
            merged[label] = merged.get(label, 0.0) + complex(c)
        self._num_qubits = num_qubits
        self._coeffs = {l: c for l, c in merged.items() if abs(c) > tol}

    # -- constructors -------------------------------------------------

    @classmethod
    def from_label(cls, label: str, coefficient: complex = 1.0) -> "PauliSum":
        return cls(len(label), [(label, coefficient)])

    @classmethod
    def identity(cls, num_qubits: int, coefficient: complex = 1.0) -> "PauliSum":
        return cls(num_qubits, [("I" * num_qubits, coefficient)])

    @classmethod
    def zero(cls, num_qubits: int) -> "PauliSum":
        return cls(num_qubits)

    # -- views ---------------------------------------------------------

    @property
    def num_qubits(self) -> int:
        return self._num_qubits

    @property
    def terms(self) -> tuple[PauliString, ...]:
        return tuple(PauliString(l, self._coeffs[l])
                     for l in sorted(self._coeffs))

    def items(self) -> list[tuple[str, complex]]:
        """(label, coefficient) pairs, sorted by label like ``terms``."""
        return sorted(self._coeffs.items())

    def coefficient(self, label: str) -> complex:
        return self._coeffs.get(label, 0.0 + 0.0j)

    def __len__(self) -> int:
        return len(self._coeffs)

    def __iter__(self) -> Iterator[PauliString]:
        return iter(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PauliSum):
            return NotImplemented
        return (self._num_qubits == other._num_qubits
                and self._coeffs == other._coeffs)

    def __hash__(self):
        return hash((self._num_qubits, tuple(sorted(self._coeffs.items(),
                                                    key=lambda kv: kv[0]))))

    def __repr__(self) -> str:
        if not self._coeffs:
            return f"PauliSum({self._num_qubits}, 0)"
        parts = [f"({self._coeffs[l]:.6g})*{l}" for l in sorted(self._coeffs)]
        return "PauliSum(" + " + ".join(parts) + ")"

    # -- algebra -------------------------------------------------------

    def _check_compatible(self, other: "PauliSum") -> None:
        if self._num_qubits != other._num_qubits:
            raise ValueError(
                f"qubit-count mismatch: {self._num_qubits} vs {other._num_qubits}")

    def add(self, other: "PauliSum", tol: float = DROP_TOL) -> "PauliSum":
        """Merged sum with equal labels combined and |c| <= tol dropped."""
        self._check_compatible(other)
        out = dict(self._coeffs)
        for label, c in other._coeffs.items():
            out[label] = out.get(label, 0.0) + c
        return PauliSum(self._num_qubits, out, tol=tol)

    def __add__(self, other: "PauliSum") -> "PauliSum":
        return self.add(other)

    def __sub__(self, other: "PauliSum") -> "PauliSum":
        return self.add(-other)

    def __neg__(self) -> "PauliSum":
        return PauliSum(self._num_qubits,
                        {l: -c for l, c in self._coeffs.items()}, tol=0.0)

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return PauliSum(self._num_qubits,
                            {l: c * other for l, c in self._coeffs.items()})
        if not isinstance(other, PauliSum):
            return NotImplemented
        self._check_compatible(other)
        out: dict[str, complex] = {}
        for la, ca in self._coeffs.items():
            for lb, cb in other._coeffs.items():
                phase, label = _mul_labels(la, lb)
                out[label] = out.get(label, 0.0) + phase * ca * cb
        return PauliSum(self._num_qubits, out)

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex)):
            return self.__mul__(other)
        return NotImplemented

    def adjoint(self) -> "PauliSum":
        """Hermitian conjugate (labels are self-adjoint, so conjugate coefficients)."""
        return PauliSum(self._num_qubits,
                        {l: c.conjugate() for l, c in self._coeffs.items()},
                        tol=0.0)

    def is_hermitian(self, tol: float = 1e-10) -> bool:
        return all(abs(c.imag) <= tol for c in self._coeffs.values())

    def allclose(self, other: "PauliSum", tol: float = 1e-10) -> bool:
        self._check_compatible(other)
        labels = set(self._coeffs) | set(other._coeffs)
        return all(abs(self.coefficient(l) - other.coefficient(l)) <= tol
                   for l in labels)

    # -- serialization ---------------------------------------------------

    def to_records(self) -> list[dict]:
        """Records ``{"label", "re", "im"}``; qubit 0 is the leftmost letter."""
        return [{"label": l, "re": self._coeffs[l].real, "im": self._coeffs[l].imag}
                for l in sorted(self._coeffs)]

    @classmethod
    def from_records(cls, num_qubits: int, records: Iterable[Mapping]) -> "PauliSum":
        return cls(num_qubits,
                   [(r["label"], complex(r["re"], r.get("im", 0.0)))
                    for r in records])


def multiply(a: PauliSum, b: PauliSum) -> PauliSum:
    """Simplified operator product ``a b``."""
    return a * b


def add_simplify(a: PauliSum, b: PauliSum, tol: float = DROP_TOL) -> PauliSum:
    """Merged sum of ``a`` and ``b``; see :meth:`PauliSum.add`."""
    return a.add(b, tol=tol)


def commutator(a: PauliSum, b: PauliSum) -> PauliSum:
    """``a b - b a``, simplified."""
    return (a * b).add(-(b * a))
