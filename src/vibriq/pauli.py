"""Exact algebra on complex-weighted sums of Pauli strings.

A string on N qubits is two N-bit masks, x (bit q set where the letter is
X or Y) and z (where it is Z or Y): P(x, z) = i^|x & z| X^x Z^z, so the
letter Y is i X Z.  Products need popcounts only (Aaronson & Gottesman,
PRA 70, 052328 (2004)): P(xa, za) P(xb, zb) = i^k P(x, z) with x = xa ^ xb,
z = za ^ zb and k = |xa & za| + |xb & zb| - |x & z| + 2 |za & xb|.  Two
strings anticommute when |(xa & zb) ^ (za & xb)| is odd; only those pairs
enter a commutator, the one product of two sums the library needs.

Labels over ``IXYZ`` (qubit 0 = leftmost letter) are only the boundary
format of constructors, ``items``, ``terms`` and ``repr``.  Sums
keep at most one term per string and drop coefficients below a tolerance,
so after simplification structural equality doubles as operator equality.
All operations return new objects; nothing is mutated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

DROP_TOL = 1e-12

_LETTERS = frozenset("IXYZ")
_X_BITS = str.maketrans("IXYZ", "0110")
_Z_BITS = str.maketrans("IXYZ", "0011")
_DIGIT_LETTERS = str.maketrans("0123", "IXYZ")
_I_POWERS = (1.0, 1.0j, -1.0, -1.0j)


def _parse(label: str, num_qubits: int) -> tuple[int, int]:
    """(x, z) of a label; qubit q is bit q."""
    if len(label) != num_qubits or not set(label) <= _LETTERS:
        raise ValueError(f"label {label!r} invalid for {num_qubits} qubits")
    rev = label[::-1]
    return int(rev.translate(_X_BITS), 2), int(rev.translate(_Z_BITS), 2)


def _digits(x: int, z: int, num_qubits: int) -> int:
    """An integer that orders P(x, z) exactly like its label.

    Qubit q becomes hex digit q from the left, (x ^ z)_q + 2 z_q: the
    index of its letter in IXYZ.
    """
    fmt = f"0{num_qubits}b"
    return (int(format(x ^ z, fmt)[::-1], 16)
            + 2 * int(format(z, fmt)[::-1], 16))


def _label(x: int, z: int, num_qubits: int) -> str:
    """The ``IXYZ`` label of P(x, z), qubit 0 leftmost."""
    return format(_digits(x, z, num_qubits),
                  f"0{num_qubits}x").translate(_DIGIT_LETTERS)


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

    Terms are held per (x, z) mask pair; the public views are sorted
    lexicographically by label so equal operators list equal terms.
    """

    __slots__ = ("_num_qubits", "_terms")

    def __init__(self, num_qubits: int,
                 coeffs: Mapping[str, complex] | Iterable[tuple[str, complex]] = (),
                 tol: float = DROP_TOL):
        if num_qubits < 1:
            raise ValueError("num_qubits must be positive")
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        merged: dict[tuple[int, int], complex] = {}
        for label, c in items:
            key = _parse(label, num_qubits)
            merged[key] = merged.get(key, 0.0) + complex(c)
        self._num_qubits = num_qubits
        self._terms = {k: c for k, c in merged.items() if abs(c) > tol}

    # -- constructors -------------------------------------------------

    @classmethod
    def from_masks(cls, num_qubits: int, terms: dict[tuple[int, int], complex],
                   tol: float = DROP_TOL) -> "PauliSum":
        """A sum straight from (x, z) -> complex coefficient; no labels
        parsed.  Terms keep the dict's order; |c| <= tol is dropped."""
        out = cls.__new__(cls)
        out._num_qubits = num_qubits
        out._terms = {k: c for k, c in terms.items() if abs(c) > tol}
        return out

    @classmethod
    def from_label(cls, label: str, coefficient: complex = 1.0) -> "PauliSum":
        return cls(len(label), [(label, coefficient)])

    # -- views ---------------------------------------------------------

    @property
    def num_qubits(self) -> int:
        return self._num_qubits

    @property
    def terms(self) -> tuple[PauliString, ...]:
        return tuple(PauliString(l, c) for l, c in self.items())

    def items(self) -> list[tuple[str, complex]]:
        """(label, coefficient) pairs, sorted by label like ``terms``."""
        n = self._num_qubits
        return sorted((_label(x, z, n), c)
                      for (x, z), c in self._terms.items())

    def masks(self) -> list[tuple[int, int, complex]]:
        """(x, z, coefficient) per term, in ``items`` order."""
        n = self._num_qubits
        return sorted(((x, z, c) for (x, z), c in self._terms.items()),
                      key=lambda t: _digits(t[0], t[1], n))

    def __len__(self) -> int:
        return len(self._terms)

    def __iter__(self) -> Iterator[PauliString]:
        return iter(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PauliSum):
            return NotImplemented
        return (self._num_qubits == other._num_qubits
                and self._terms == other._terms)

    def __repr__(self) -> str:
        if not self._terms:
            return f"PauliSum({self._num_qubits}, 0)"
        parts = [f"({c:.6g})*{l}" for l, c in self.items()]
        return "PauliSum(" + " + ".join(parts) + ")"

    # -- algebra -------------------------------------------------------

    def _check_compatible(self, other: "PauliSum") -> None:
        if self._num_qubits != other._num_qubits:
            raise ValueError(
                f"qubit-count mismatch: {self._num_qubits} vs {other._num_qubits}")

    def add(self, other: "PauliSum", tol: float = DROP_TOL) -> "PauliSum":
        """Merged sum with equal strings combined and |c| <= tol dropped."""
        self._check_compatible(other)
        out = dict(self._terms)
        for key, c in other._terms.items():
            out[key] = out.get(key, 0.0) + c
        return PauliSum.from_masks(self._num_qubits, out, tol)

    def __add__(self, other: "PauliSum") -> "PauliSum":
        return self.add(other)

    def __sub__(self, other: "PauliSum") -> "PauliSum":
        return self.add(-other)

    def __neg__(self) -> "PauliSum":
        return PauliSum.from_masks(
            self._num_qubits, {k: -c for k, c in self._terms.items()}, 0.0)

    def __mul__(self, other):
        if not isinstance(other, (int, float, complex)):
            return NotImplemented
        return PauliSum.from_masks(
            self._num_qubits,
            {k: c * other for k, c in self._terms.items()}, DROP_TOL)

    __rmul__ = __mul__

    def adjoint(self) -> "PauliSum":
        """Hermitian conjugate (strings are self-adjoint, so conjugate coefficients)."""
        return PauliSum.from_masks(
            self._num_qubits,
            {k: c.conjugate() for k, c in self._terms.items()}, 0.0)


def commutator(a: PauliSum, b: PauliSum) -> PauliSum:
    """``a b - b a``, simplified.

    Commuting string pairs cancel, and an anticommuting pair, one with
    popcount((xa & zb) ^ (za & xb)) odd, gives P_a P_b - P_b P_a =
    2 P_a P_b, so only those pairs are multiplied.
    """
    a._check_compatible(b)
    out: dict[tuple[int, int], complex] = {}
    b_terms = b._terms.items()
    for (xa, za), ca in a._terms.items():
        for (xb, zb), cb in b_terms:
            if not ((xa & zb) ^ (za & xb)).bit_count() & 1:
                continue
            x, z = xa ^ xb, za ^ zb
            k = ((xa & za).bit_count() + (xb & zb).bit_count()
                 - (x & z).bit_count() + 2 * (za & xb).bit_count())
            out[x, z] = out.get((x, z), 0.0) + _I_POWERS[k % 4] * ca * cb
    return PauliSum.from_masks(
        a._num_qubits, {k: 2.0 * c for k, c in out.items()}, DROP_TOL)
