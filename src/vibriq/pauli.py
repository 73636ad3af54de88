"""Exact algebra on complex-weighted sums of Pauli strings.

A string on N qubits is two N-bit masks, x (bit q set where the letter is
X or Y) and z (where it is Z or Y): P(x, z) = i^|x & z| X^x Z^z, so the
letter Y is i X Z.  Products need popcounts only (Aaronson & Gottesman,
PRA 70, 052328 (2004)): P(xa, za) P(xb, zb) = i^k P(x, z) with x = xa ^ xb,
z = za ^ zb and k = |xa & za| + |xb & zb| - |x & z| + 2 |za & xb|.  Two
strings anticommute when |(xa & zb) ^ (za & xb)| is odd; only those pairs
enter a commutator, the one product of two sums the library needs.  One
kernel, ``commutators(a, bs)``, gives [a, b] for many b at once: one
array pass over a's strings against all of bs's strings, on masks held
as int64 (so at most ``MAX_MASK_QUBITS`` qubits), that tags each product
with its b and merges equal (b, string) pairs by one sort.  The grid is
taken in runs of whole sums of bs, each of at most ``_PAIR_CHUNK`` pairs,
so memory stays bounded however many sums a row holds.

Labels over ``IXYZ`` (qubit 0 = leftmost letter) are only the boundary
format of constructors, ``items``, ``terms`` and ``repr``.  Sums
keep at most one term per string and drop coefficients below a tolerance,
so after simplification structural equality doubles as operator equality.
All operations return new objects; nothing is mutated.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

DROP_TOL = 1e-12

# Widest string whose masks fit an int64, the array form of the algebra.
MAX_MASK_QUBITS = 63

# Largest grid of string pairs one commutator pass tests at once: whole
# right-hand sums are grouped up to it, and a wider sum is tested in row
# chunks, so that memory stays bounded for long sums and many columns.
_PAIR_CHUNK = 1 << 13

_LETTERS = frozenset("IXYZ")
_X_BITS = str.maketrans("IXYZ", "0110")
_Z_BITS = str.maketrans("IXYZ", "0011")
_DIGIT_LETTERS = str.maketrans("0123", "IXYZ")
_I_POWERS = np.array([1.0, 1.0j, -1.0, -1.0j])


def _parse(label: str, num_qubits: int) -> tuple[int, int]:
    """(x, z) of a label; qubit q is bit q."""
    if len(label) != num_qubits or not set(label) <= _LETTERS:
        raise ValueError(f"label {label!r} invalid for {num_qubits} qubits")
    rev = label[::-1]
    return int(rev.translate(_X_BITS), 2), int(rev.translate(_Z_BITS), 2)


def _label_order(raw: np.ndarray, num_qubits: int) -> np.ndarray:
    """Positions of strings in label order, from their x and z masks as
    little-endian bytes, shape (strings, 2, bytes), with no label built:
    qubit q's letter is its index in IXYZ, (x ^ z)_q + 2 z_q, and labels
    compare qubit 0 first."""
    x, z = np.unpackbits(raw, axis=2, count=num_qubits,
                         bitorder="little").transpose(1, 0, 2)
    return np.lexsort(((x ^ z) + 2 * z).T[::-1])


def _label(x: int, z: int, num_qubits: int) -> str:
    """The ``IXYZ`` label of P(x, z), qubit 0 leftmost: qubit q becomes hex
    digit q from the left, the index of its letter in IXYZ."""
    fmt = f"0{num_qubits}b"
    digits = (int(format(x ^ z, fmt)[::-1], 16)
              + 2 * int(format(z, fmt)[::-1], 16))
    return format(digits, f"0{num_qubits}x").translate(_DIGIT_LETTERS)


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
        return [(_label(x, z, n), c) for x, z, c in self.masks()]

    def masks(self) -> list[tuple[int, int, complex]]:
        """(x, z, coefficient) per term, in ``items`` order."""
        keys, coeffs = list(self._terms), list(self._terms.values())
        size = (self._num_qubits + 7) // 8
        raw = np.frombuffer(b"".join(m.to_bytes(size, "little")
                                     for key in keys for m in key),
                            dtype=np.uint8).reshape(-1, 2, size)
        return [(*keys[k], coeffs[k])
                for k in _label_order(raw, self._num_qubits).tolist()]

    def mask_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """int64 x and z masks and complex coefficients of the terms, in
        storage order (not ``items`` order).  Raises ``ValueError`` above
        ``MAX_MASK_QUBITS`` qubits."""
        if self._num_qubits > MAX_MASK_QUBITS:
            raise ValueError(
                f"{self._num_qubits} qubits do not fit int64 masks; the "
                f"limit is {MAX_MASK_QUBITS}")
        size = len(self._terms)
        keys = np.fromiter(chain.from_iterable(self._terms), dtype=np.int64,
                           count=2 * size).reshape(size, 2)
        coeffs = np.fromiter(self._terms.values(), dtype=np.complex128,
                             count=size)
        return keys[:, 0], keys[:, 1], coeffs

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


def _sorted_mask_arrays(op: PauliSum
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``op.mask_arrays()`` in ``items`` order, with no Python list built."""
    x, z, c = op.mask_arrays()
    raw = np.stack((x, z), axis=1).astype("<i8", copy=False).view(np.uint8)
    order = _label_order(raw.reshape(-1, 2, 8), op.num_qubits)
    return x[order], z[order], c[order]


def unique_strings(x: np.ndarray, z: np.ndarray,
                   owner: np.ndarray | None = None
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Number the distinct (x, z) mask pairs by first occurrence; with
    ``owner``, the distinct (owner, x, z) triples.

    Returns each pair's number and, per number, the position where it
    first occurs (ascending).  Equal pairs are brought together by one
    sort, on the packed key owner << width(x, z) | x << width(z) | z where
    it fits 63 bits (a quicksort, several times faster than ``np.lexsort``
    on the separate keys).
    """
    if not x.size:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    shift = int(z.max()).bit_length()
    width = int(x.max()).bit_length() + shift
    starts = np.ones(x.size, dtype=bool)
    if width + (0 if owner is None else int(owner.max()).bit_length()) <= 63:
        key = (x << shift) | z
        if owner is not None:
            key |= owner << width
        order = np.argsort(key)
        key = key[order]
        starts[1:] = key[1:] != key[:-1]
    else:
        columns = (z, x) if owner is None else (z, x, owner)
        order = np.lexsort(columns)
        starts[1:] = False
        for column in columns:
            column = column[order]
            starts[1:] |= column[1:] != column[:-1]
    first = np.minimum.reduceat(order, np.flatnonzero(starts))
    by_first = np.argsort(first)
    number = np.empty(first.size, dtype=np.int64)
    number[by_first] = np.arange(first.size)
    ids = np.empty(order.size, dtype=np.int64)
    ids[order] = number[np.cumsum(starts) - 1]
    return ids, first[by_first]


class _Terms(NamedTuple):
    """The terms of several sums as arrays: each term's sum (its
    ``owner``), masks and coefficient, one sum after another."""

    owner: np.ndarray
    x: np.ndarray
    z: np.ndarray
    c: np.ndarray

    def sizes(self, count: int) -> np.ndarray:
        return np.bincount(self.owner, minlength=count)


def _stack(sums: Sequence[PauliSum]) -> _Terms:
    """The terms of ``sums``, each sum in storage order, owner = position."""
    arrays = [s.mask_arrays() for s in sums]
    owner = np.repeat(np.arange(len(sums)), [len(s) for s in sums])
    return _Terms(owner, *(np.concatenate(part) for part in zip(*arrays)))


def _split(num_qubits: int, terms: _Terms, count: int) -> list[PauliSum]:
    """One sum per owner 0 .. count - 1, from terms grouped by owner."""
    bounds = np.cumsum(terms.sizes(count)).tolist()
    keys = list(zip(terms.x.tolist(), terms.z.tolist()))
    coeffs = terms.c.tolist()
    out = []
    for lo, hi in zip([0] + bounds, bounds):
        s = PauliSum.__new__(PauliSum)
        s._num_qubits = num_qubits
        s._terms = dict(zip(keys[lo:hi], coeffs[lo:hi]))
        out.append(s)
    return out


def _merge(owner: np.ndarray, x: np.ndarray, z: np.ndarray, re: np.ndarray,
           im: np.ndarray, scale: float) -> _Terms:
    """``scale`` times the sum of the weights re + i im of equal (owner,
    x, z), added in array order; terms with |c| <= DROP_TOL are dropped.
    The result is grouped by owner, each owner's strings in order of
    first occurrence."""
    ids, first = unique_strings(x, z, owner)
    coeffs = np.empty(first.size, dtype=np.complex128)
    coeffs.real = scale * np.bincount(ids, re, first.size)
    coeffs.imag = scale * np.bincount(ids, im, first.size)
    keep = np.flatnonzero(np.abs(coeffs) > DROP_TOL)
    keep = keep[np.argsort(owner[first[keep]], kind="stable")]
    at = first[keep]
    return _Terms(owner[at], x[at], z[at], coeffs[keep])


def _column_runs(rows: int, sizes: np.ndarray) -> Iterator[tuple[int, int]]:
    """Runs [first, stop) of consecutive columns whose pair grid with
    ``rows`` rows holds at most ``_PAIR_CHUNK`` pairs; a wider column is a
    run of its own."""
    first, held = 0, 0
    for k, size in enumerate(sizes.tolist()):
        if held and rows * (held + size) > _PAIR_CHUNK:
            yield first, k
            first, held = k, 0
        held += size
    if sizes.size:
        yield first, sizes.size


def _commutator_terms(a: _Terms, b: _Terms, count: int) -> _Terms:
    """[a, b_k] for each of the ``count`` sums b_k that ``b`` holds, as
    terms owned by k; ``a``'s owners are ignored.

    A run of whole columns b_k is one pass: the pair grid of a's strings
    (rows) against the run's strings is tested for anticommutation in row
    chunks, and the products of the anticommuting pairs are merged per
    (k, string).  Pairs come in the order of a double loop, a's terms
    outer, so each [a, b_k] equals ``commutator(a, b_k)`` term for term.
    """
    xa, za, ca = a.x, a.z, a.c
    ya = np.bitwise_count(xa & za)
    sizes = b.sizes(count)
    ends = np.cumsum(sizes)
    parts = [_Terms(*(np.empty(0, dtype=np.int64),) * 3,
                    np.empty(0, dtype=np.complex128))]
    for first, stop in _column_runs(xa.size, sizes):
        lo = ends[first - 1] if first else 0
        xb, zb, cb = (v[lo:ends[stop - 1]] for v in (b.x, b.z, b.c))
        rows = max(1, _PAIR_CHUNK // max(xb.size, 1))
        ia, ib = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
        for r in range(0, xa.size, rows):
            sl = slice(r, r + rows)
            odd = np.bitwise_count((xa[sl, None] & zb)
                                   ^ (za[sl, None] & xb)) & 1
            # row-major: the pair order of a double loop
            i, j = np.nonzero(odd)
            ia.append(i + r)
            ib.append(j)
        i, j = np.concatenate(ia), np.concatenate(ib)
        if not i.size:
            continue
        zi, xj = za[i], xb[j]
        x, z = xa[i] ^ xj, zi ^ zb[j]
        k = (ya[i] + np.bitwise_count(xb & zb)[j] - np.bitwise_count(x & z)
             + 2 * np.bitwise_count(zi & xj))
        # i^k ca is exact; its product with cb is taken in real parts, each
        # rounded on its own as in a Python complex product (no fused
        # multiply-add), so every coefficient is the double loop's sum
        p, q = _I_POWERS[k % 4] * ca[i], cb[j]
        parts.append(_merge(b.owner[lo + j], x, z,
                            p.real * q.real - p.imag * q.imag,
                            p.real * q.imag + p.imag * q.real, 2.0))
    return _Terms(*(np.concatenate(part) for part in zip(*parts)))


def commutators(a: PauliSum, bs: Sequence[PauliSum]) -> list[PauliSum]:
    """``[a, b]`` for each ``b`` in ``bs``, simplified.

    Commuting string pairs cancel, and an anticommuting pair, one with
    popcount((xa & zb) ^ (za & xb)) odd, gives P_a P_b - P_b P_a =
    2 P_a P_b, so only those pairs are multiplied.  All of bs is one
    array pass over a's strings against bs's strings, in runs of whole
    sums of at most ``_PAIR_CHUNK`` pairs.  Equal products of one b are
    summed by ``np.bincount`` in pair order (a's terms outer, b's inner,
    each in storage order), and each result keeps its strings in order of
    first occurrence.  Raises ``ValueError`` above ``MAX_MASK_QUBITS``
    qubits.
    """
    for b in bs:
        a._check_compatible(b)
    if not bs:
        return []
    return _split(a._num_qubits,
                  _commutator_terms(_stack([a]), _stack(bs), len(bs)), len(bs))


def commutator(a: PauliSum, b: PauliSum) -> PauliSum:
    """``a b - b a``, simplified: ``commutators(a, [b])[0]``."""
    return commutators(a, [b])[0]
