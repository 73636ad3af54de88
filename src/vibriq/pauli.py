"""Exact algebra on complex-weighted sums of Pauli strings.

A string on N qubits is two N-bit masks, x (bit q set where the letter is
X or Y) and z (where it is Z or Y): P(x, z) = i^|x & z| X^x Z^z, so the
letter Y is i X Z.  Products need popcounts only (Aaronson & Gottesman,
PRA 70, 052328 (2004)): P(xa, za) P(xb, zb) = i^k P(x, z) with x = xa ^ xb,
z = za ^ zb and k = |xa & za| + |xb & zb| - |x & z| + 2 |za & xb|.  Two
strings anticommute when |(xa & zb) ^ (za & xb)| is odd; only those pairs
enter a commutator.

Labels over ``IXYZ`` (qubit 0 = leftmost letter) are only the boundary
format of constructors, ``items``, ``terms``, records and ``repr``.  Sums
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

    def coefficient(self, label: str) -> complex:
        return self._terms.get(_parse(label, self._num_qubits), 0.0 + 0.0j)

    def __len__(self) -> int:
        return len(self._terms)

    def __iter__(self) -> Iterator[PauliString]:
        return iter(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PauliSum):
            return NotImplemented
        return (self._num_qubits == other._num_qubits
                and self._terms == other._terms)

    def __hash__(self):
        return hash((self._num_qubits, frozenset(self._terms.items())))

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
        if isinstance(other, (int, float, complex)):
            return PauliSum.from_masks(
                self._num_qubits,
                {k: c * other for k, c in self._terms.items()}, DROP_TOL)
        if not isinstance(other, PauliSum):
            return NotImplemented
        self._check_compatible(other)
        return PauliSum.from_masks(
            self._num_qubits, _products(self, other, False), DROP_TOL)

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex)):
            return self.__mul__(other)
        return NotImplemented

    def adjoint(self) -> "PauliSum":
        """Hermitian conjugate (strings are self-adjoint, so conjugate coefficients)."""
        return PauliSum.from_masks(
            self._num_qubits,
            {k: c.conjugate() for k, c in self._terms.items()}, 0.0)

    def is_hermitian(self, tol: float = 1e-10) -> bool:
        return all(abs(c.imag) <= tol for c in self._terms.values())

    def allclose(self, other: "PauliSum", tol: float = 1e-10) -> bool:
        self._check_compatible(other)
        keys = set(self._terms) | set(other._terms)
        return all(abs(self._terms.get(k, 0.0) - other._terms.get(k, 0.0)) <= tol
                   for k in keys)

    # -- serialization ---------------------------------------------------

    def to_records(self) -> list[dict]:
        """Records ``{"label", "re", "im"}``; qubit 0 is the leftmost letter."""
        return [{"label": l, "re": c.real, "im": c.imag} for l, c in self.items()]

    @classmethod
    def from_records(cls, num_qubits: int, records: Iterable[Mapping]) -> "PauliSum":
        return cls(num_qubits,
                   [(r["label"], complex(r["re"], r.get("im", 0.0)))
                    for r in records])


def _products(a: PauliSum, b: PauliSum,
              anticommuting_only: bool) -> dict[tuple[int, int], complex]:
    """(x, z) -> summed i^k ca cb over the string pairs of ``a b``.

    With ``anticommuting_only`` a pair counts only when its strings
    anticommute, popcount((xa & zb) ^ (za & xb)) odd.
    """
    out: dict[tuple[int, int], complex] = {}
    b_terms = b._terms.items()
    for (xa, za), ca in a._terms.items():
        for (xb, zb), cb in b_terms:
            if anticommuting_only \
                    and not ((xa & zb) ^ (za & xb)).bit_count() & 1:
                continue
            x, z = xa ^ xb, za ^ zb
            k = ((xa & za).bit_count() + (xb & zb).bit_count()
                 - (x & z).bit_count() + 2 * (za & xb).bit_count())
            out[x, z] = out.get((x, z), 0.0) + _I_POWERS[k % 4] * ca * cb
    return out


def commutator(a: PauliSum, b: PauliSum) -> PauliSum:
    """``a b - b a``, simplified.

    Commuting string pairs cancel, and an anticommuting pair gives
    P_a P_b - P_b P_a = 2 P_a P_b, so only those pairs are multiplied.
    """
    a._check_compatible(b)
    return PauliSum.from_masks(
        a._num_qubits,
        {k: 2.0 * c for k, c in _products(a, b, True).items()}, DROP_TOL)
