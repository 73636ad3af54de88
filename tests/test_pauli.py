from itertools import product

import numpy as np
import pytest

from conftest import build_qubit_hamiltonian
from helpers import (assert_same_terms, dense_from_sum, pauli_product,
                     random_pauli_sum, reference_commutator)
from vibriq import pauli
from vibriq.pauli import (MAX_MASK_QUBITS, PauliSum, _sorted_mask_arrays,
                          commutator, commutators)


def test_single_qubit_product_identity():
    x = PauliSum.from_label("X")
    y = PauliSum.from_label("Y")
    assert pauli_product(x, y) == PauliSum.from_label("Z", 1j)
    assert pauli_product(y, x) == PauliSum.from_label("Z", -1j)


def test_identity_is_neutral():
    rng = np.random.default_rng(3)
    s = random_pauli_sum(rng, 3, 5)
    assert pauli_product(PauliSum.from_label("III"), s) == s
    assert pauli_product(s, PauliSum.from_label("III")) == s


def test_square_of_hermitian_two_qubit_sum():
    # (X0 Y1 + Z0)^2 = 2 I: the cross terms carry opposite phases and cancel.
    s = PauliSum(2, [("XY", 1.0), ("ZI", 1.0)])
    product = pauli_product(s, s)
    assert product == PauliSum.from_label("II", 2.0)
    dense = dense_from_sum(s)
    np.testing.assert_allclose(dense @ dense, dense_from_sum(product),
                               atol=1e-12)


def test_add_cancellation_and_empty():
    a = PauliSum(2, [("XI", 2.0)])
    b = PauliSum(2, [("XI", -2.0)])
    assert len(a.add(b, 1e-12)) == 0
    s = PauliSum(2, [("XZ", 0.5), ("YY", -1.0)])
    assert s.add(PauliSum(2), 1e-12) == s


def test_add_matches_dense_on_random_sums():
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = random_pauli_sum(rng, 3, 6)
        b = random_pauli_sum(rng, 3, 6)
        np.testing.assert_allclose(dense_from_sum(a) + dense_from_sum(b),
                                   dense_from_sum(a.add(b, 1e-12)),
                                   atol=1e-12)


# Y-heavy labels exercise the i^|x & z| phases of the mask product.
LETTER_MIXES = ("IXYZ", "YYYXZI")


def test_multiply_matches_dense_on_random_sums():
    rng = np.random.default_rng(11)
    for num_qubits, letters in product(range(1, 7), LETTER_MIXES):
        for _ in range(20):
            a = random_pauli_sum(rng, num_qubits, 5, letters=letters)
            b = random_pauli_sum(rng, num_qubits, 5, letters=letters)
            np.testing.assert_allclose(dense_from_sum(a) @ dense_from_sum(b),
                                       dense_from_sum(pauli_product(a, b)),
                                       atol=1e-12)


def test_commutator_trivial_cases():
    x = PauliSum.from_label("X")
    assert len(commutator(x, x)) == 0
    y = PauliSum.from_label("Y")
    assert commutator(x, y) == PauliSum.from_label("Z", 2j)


def test_commutator_matches_dense_on_hermitian_sums():
    rng = np.random.default_rng(13)
    for num_qubits, letters in product(range(1, 7), LETTER_MIXES):
        for _ in range(20):
            a = random_pauli_sum(rng, num_qubits, 5, hermitian=True,
                                 letters=letters)
            b = random_pauli_sum(rng, num_qubits, 5, hermitian=True,
                                 letters=letters)
            da, db = dense_from_sum(a), dense_from_sum(b)
            dc = dense_from_sum(commutator(a, b))
            np.testing.assert_allclose(da @ db - db @ da, dc, atol=1e-12)
            # anti-Hermitian result for Hermitian inputs
            np.testing.assert_allclose(dc.conj().T, -dc, atol=1e-12)


def test_commutator_matches_dense_on_non_hermitian_sums():
    rng = np.random.default_rng(37)
    for num_qubits, letters in product(range(1, 7), LETTER_MIXES):
        for _ in range(10):
            a = random_pauli_sum(rng, num_qubits, 7, letters=letters)
            b = random_pauli_sum(rng, num_qubits, 9, letters=letters)
            da, db = dense_from_sum(a), dense_from_sum(b)
            np.testing.assert_allclose(dense_from_sum(commutator(a, b)),
                                       da @ db - db @ da, atol=1e-12)


def _sum_from_letters(rng, letters_per_qubit, n_terms):
    """Random complex sum; qubit q's letter drawn from letters_per_qubit[q]."""
    labels = ["".join(rng.choice(list(letters))
                      for letters in letters_per_qubit)
              for _ in range(n_terms)]
    coeffs = rng.normal(size=n_terms) + 1j * rng.normal(size=n_terms)
    return PauliSum(len(letters_per_qubit), list(zip(labels, coeffs)))


def test_commutator_of_commuting_strings_is_zero():
    # I/Z on qubits 0-1 and I/X on qubit 2 in both sums: every pair commutes.
    rng = np.random.default_rng(41)
    for _ in range(10):
        a = _sum_from_letters(rng, ("IZ", "IZ", "IX"), 5)
        b = _sum_from_letters(rng, ("IZ", "IZ", "IX"), 6)
        da, db = dense_from_sum(a), dense_from_sum(b)
        np.testing.assert_allclose(da @ db - db @ da, 0.0, atol=1e-12)
        assert len(commutator(a, b)) == 0


def test_commutator_of_anticommuting_strings_is_twice_the_product():
    # Qubit 0 is X in a and Z in b, the rest I/X in both: every pair
    # anticommutes, so [a, b] = 2 a b.
    rng = np.random.default_rng(43)
    for num_qubits in range(1, 6):
        rest = ("IX",) * (num_qubits - 1)
        a = _sum_from_letters(rng, ("X",) + rest, 5)
        b = _sum_from_letters(rng, ("Z",) + rest, 5)
        da, db = dense_from_sum(a), dense_from_sum(b)
        got = dense_from_sum(commutator(a, b))
        np.testing.assert_allclose(got, da @ db - db @ da, atol=1e-12)
        np.testing.assert_allclose(got, 2.0 * da @ db, atol=1e-12)


def test_commutator_matches_the_pair_loop_term_for_term():
    rng = np.random.default_rng(59)
    for num_qubits, n_a, n_b in ((1, 3, 4), (3, 12, 9), (6, 40, 100),
                                 (9, 150, 60)):
        for hermitian in (True, False):
            a = random_pauli_sum(rng, num_qubits, n_a, hermitian=hermitian)
            b = random_pauli_sum(rng, num_qubits, n_b, hermitian=hermitian)
            assert_same_terms(commutator(a, b), reference_commutator(a, b))
            assert_same_terms(commutator(b, a), reference_commutator(b, a))


def test_commutator_matches_the_pair_loop_on_qeom_products(coupled_pes):
    """[a, H], [[a, H], b] and [H, [a, b]] of the pool's excitations."""
    from vibriq.qeom import build_eom_operators
    layout, _, h = build_qubit_hamiltonian(coupled_pes, (3, 3))
    ops = build_eom_operators(layout)
    for a in ops.adjoints[::3]:
        ah = commutator(a, h)
        assert_same_terms(ah, reference_commutator(a, h))
        for b in ops.operators[::2] + ops.adjoints[1::3]:
            assert_same_terms(commutator(ah, b), reference_commutator(ah, b))
            ab = commutator(a, b)
            assert_same_terms(ab, reference_commutator(a, b))
            assert_same_terms(commutator(h, ab), reference_commutator(h, ab))


def test_commutator_with_no_anticommuting_pair_or_no_terms_is_empty():
    rng = np.random.default_rng(61)
    a = _sum_from_letters(rng, ("IZ", "IZ", "IX"), 7)
    b = _sum_from_letters(rng, ("IZ", "IZ", "IX"), 8)
    empty = PauliSum(3)
    for left, right in ((a, b), (a, empty), (empty, b), (empty, empty)):
        got = commutator(left, right)
        assert got == PauliSum(3) and got.num_qubits == 3
        assert got == reference_commutator(left, right)


def test_commutator_on_the_widest_masks():
    """Strings on qubit 62, the top bit an int64 mask holds."""
    n = MAX_MASK_QUBITS
    assert n == 63
    x_top = PauliSum.from_label("I" * 62 + "X")
    y_top = PauliSum.from_label("I" * 62 + "Y", 0.5)
    assert commutator(x_top, y_top) == PauliSum.from_label("I" * 62 + "Z", 1j)
    rng = np.random.default_rng(67)
    letters = ("IXYZ",) * 3 + ("I",) * 57 + ("IXYZ",) * 3
    for _ in range(5):
        a = _sum_from_letters(rng, letters, 12)
        b = _sum_from_letters(rng, letters, 15)
        got = commutator(a, b)
        assert_same_terms(got, reference_commutator(a, b))
        assert any(x >> 62 or z >> 62 for x, z in got._terms)


def test_commutator_across_row_chunks(monkeypatch):
    """A pair grid many chunks long gives the one-chunk terms."""
    rng = np.random.default_rng(71)
    a = random_pauli_sum(rng, 5, 40)
    for n_b in (3, 30):  # two rows of a per chunk, then one
        b = random_pauli_sum(rng, 5, n_b)
        whole = commutator(a, b)
        monkeypatch.setattr(pauli, "_PAIR_CHUNK", 7)
        chunked = commutator(a, b)
        monkeypatch.undo()
        assert list(chunked._terms.items()) == list(whole._terms.items())
        assert_same_terms(chunked, reference_commutator(a, b))


def _pool_row(ops, i):
    """Row i's columns A_j, A_j^+ (j >= i), paired as ``compute_matrices``
    pairs them."""
    return [op for pair in zip(ops.operators[i:], ops.adjoints[i:])
            for op in pair]


def _assert_each_matches_the_pair_loop(a, bs, got):
    assert len(got) == len(bs)
    for b, one in zip(bs, got):
        assert_same_terms(one, reference_commutator(a, b))
        single = commutator(a, b)
        assert list(one._terms.items()) == list(single._terms.items())
        assert one.num_qubits == a.num_qubits


def _row_cases(coupled_pes):
    """(a, bs): random sums, with an empty and a commuting column, and the
    pool rows of a (3,3) system against A_i^+ and against [A_i^+, H]."""
    from vibriq.qeom import build_eom_operators
    rng = np.random.default_rng(83)
    cases = []
    for num_qubits, n_a, sizes in ((1, 3, (4, 2)), (4, 12, (9, 0, 5, 30)),
                                   (7, 40, (60, 1, 100))):
        a = random_pauli_sum(rng, num_qubits, n_a)
        bs = [random_pauli_sum(rng, num_qubits, n) if n
              else PauliSum(num_qubits) for n in sizes]
        cases.append((a, bs + [PauliSum.from_label("I" * num_qubits)]))
    layout, _, h = build_qubit_hamiltonian(coupled_pes, (3, 3))
    ops = build_eom_operators(layout)
    for i in (0, 3, ops.size - 1):
        row = _pool_row(ops, i)
        dag = ops.adjoints[i]
        cases += [(dag, row), (commutator(dag, h), row)]
    return cases


def test_commutators_match_the_pair_loop_for_each_column(coupled_pes):
    for a, bs in _row_cases(coupled_pes):
        _assert_each_matches_the_pair_loop(a, bs, commutators(a, bs))
    assert commutators(PauliSum.from_label("X"), []) == []


def test_commutators_with_every_column_its_own_pass(coupled_pes, monkeypatch):
    """A one-pair budget makes every column a run and every row a chunk."""
    cases = _row_cases(coupled_pes)
    whole = [commutators(a, bs) for a, bs in cases]
    monkeypatch.setattr(pauli, "_PAIR_CHUNK", 1)
    # an empty column adds no pair, so it may share a run
    sizes = np.array([3, 0, 5, 1])
    assert list(pauli._column_runs(7, sizes)) == [(0, 1), (1, 3), (3, 4)]
    for (a, bs), before in zip(cases, whole):
        got = commutators(a, bs)
        assert [list(g._terms.items()) for g in got] == \
            [list(w._terms.items()) for w in before]
        _assert_each_matches_the_pair_loop(a, bs, got)


def test_column_runs_stay_within_the_pair_budget(monkeypatch):
    monkeypatch.setattr(pauli, "_PAIR_CHUNK", 40)
    sizes = np.array([3, 4, 0, 2, 30, 1, 1, 6])
    runs = list(pauli._column_runs(4, sizes))
    assert runs == [(0, 4), (4, 5), (5, 8)]
    for first, stop in runs:
        assert stop - first == 1 or 4 * sizes[first:stop].sum() <= 40
    assert list(pauli._column_runs(4, np.array([], dtype=int))) == []


def test_commutators_sort_owner_and_mask_keys_wider_than_63_bits(
        monkeypatch):
    """x up to qubit 31 and z up to qubit 30 fill a 63-bit key; the column
    number needs more bits, so equal strings meet through ``np.lexsort``,
    while a single column still takes the packed key."""
    rng = np.random.default_rng(89)
    letters = ("IXYZ",) * 3 + ("I",) * 26 + ("IXYZ", "IXYZ", "IX")
    a = _sum_from_letters(rng, letters, 20)
    bs = [_sum_from_letters(rng, letters, n) for n in (15, 8, 25)]
    x, z = np.array([k for b in commutators(a, bs) for k in b._terms]).T
    assert int(x.max()).bit_length() + int(z.max()).bit_length() == 63
    keys = []
    lexsort = np.lexsort
    monkeypatch.setattr(np, "lexsort",
                        lambda k: keys.append(len(k)) or lexsort(k))
    _assert_each_matches_the_pair_loop(a, bs, commutators(a, bs))
    assert keys == [3]
    keys.clear()
    for b in bs:
        assert_same_terms(commutator(a, b), reference_commutator(a, b))
    assert keys == []


def test_commutator_refuses_masks_wider_than_int64():
    a = PauliSum.from_label("X" + "I" * 63)
    b = PauliSum.from_label("Z" + "I" * 63)
    for left, right in ((a, b), (PauliSum(64), PauliSum(64))):
        with pytest.raises(ValueError, match="limit is 63"):
            commutator(left, right)


def test_multiply_associative_and_distributive():
    rng = np.random.default_rng(17)
    for _ in range(10):
        a = random_pauli_sum(rng, 3, 4)
        b = random_pauli_sum(rng, 3, 4)
        c = random_pauli_sum(rng, 3, 4)
        left = pauli_product(pauli_product(a, b), c)
        right = pauli_product(a, pauli_product(b, c))
        assert len(left.add(-right, 1e-10)) == 0
        dist_left = pauli_product(a, b.add(c, 0.0))
        dist_right = pauli_product(a, b).add(pauli_product(a, c), 0.0)
        assert len(dist_left.add(-dist_right, 1e-10)) == 0


def _has_real_coefficients(op, tol=1e-10):
    """Hermitian: every string is, so every coefficient must be real."""
    return all(abs(c.imag) <= tol for _, c in op.items())


def test_hermiticity_preserved_by_add_and_symmetrized_product():
    rng = np.random.default_rng(19)
    a = random_pauli_sum(rng, 3, 6, hermitian=True)
    b = random_pauli_sum(rng, 3, 6, hermitian=True)
    assert _has_real_coefficients(a.add(b, 1e-12))
    sym = (pauli_product(a, b) + pauli_product(b, a)) * 0.5
    assert _has_real_coefficients(sym)


def test_order_and_equality_independent_of_construction_order():
    rng = np.random.default_rng(31)
    s = random_pauli_sum(rng, 4, 12, letters="IXYYZ")
    pairs = s.items()
    labels = [label for label, _ in pairs]
    assert labels == sorted(labels)
    shuffled = [pairs[k] for k in rng.permutation(len(pairs))]
    built = PauliSum(4)
    for label, c in shuffled:
        built = PauliSum.from_label(label, c) + built
    for other in (PauliSum(4, shuffled), PauliSum(4, dict(shuffled)), built):
        assert other.items() == pairs
        assert other == s


def test_masks_follow_items_order():
    s = PauliSum(3, [("ZIY", 2.0), ("XYI", -1.0j), ("III", 0.5)])
    assert [label for label, _ in s.items()] == ["III", "XYI", "ZIY"]
    # qubit q is bit q; X and Y set x, Z and Y set z
    assert s.masks() == [(0, 0, 0.5), (0b011, 0b010, -1.0j),
                         (0b100, 0b101, 2.0)]


def _letters(x, z, num_qubits):
    """The label of P(x, z) letter by letter: (x_q, z_q) picks I, X, Z or Y."""
    return "".join("IXZY"[(x >> q & 1) + 2 * (z >> q & 1)]
                   for q in range(num_qubits))


@pytest.mark.parametrize("num_qubits", [1, 3, 8, 9, 17, 63, 64, 90])
def test_masks_follow_items_order_on_random_sums(num_qubits):
    rng = np.random.default_rng(num_qubits)
    # a shared prefix over all but the last few qubits makes the order
    # turn on the trailing letters too
    prefix = "".join(rng.choice(list("IXYZ"), size=max(0, num_qubits - 4)))
    labels = ["".join(rng.choice(list("IXYZ"), size=num_qubits))
              for _ in range(150)]
    labels += [prefix + "".join(rng.choice(list("IXYZ"),
                                           size=num_qubits - len(prefix)))
               for _ in range(50)]
    coeffs = rng.normal(size=len(labels)) + 1j * rng.normal(size=len(labels))
    s = PauliSum(num_qubits, list(zip(labels, coeffs)))
    merged = {}
    for label, c in zip(labels, coeffs):
        merged[label] = merged.get(label, 0.0) + c
    expected = sorted(merged)
    masks = s.masks()
    assert [_letters(x, z, num_qubits) for x, z, _ in masks] == expected
    assert [label for label, _ in s.items()] == expected
    np.testing.assert_allclose([c for _, _, c in masks],
                               [merged[label] for label in expected],
                               rtol=1e-15, atol=0)
    if num_qubits <= MAX_MASK_QUBITS:
        x, z, c = _sorted_mask_arrays(s)
        assert x.dtype == z.dtype == np.int64 and c.dtype == np.complex128
        assert list(zip(x.tolist(), z.tolist())) == [m[:2] for m in masks]
        assert c.tobytes() == np.array([m[2] for m in masks]).tobytes()


def test_simplify_idempotent_and_canonical_order():
    s = PauliSum(2, [("ZZ", 1.0), ("IX", 2.0), ("ZZ", -0.25)])
    rebuilt = PauliSum(2, {t.label: t.coefficient for t in s.terms})
    assert rebuilt == s
    labels = [t.label for t in s.terms]
    assert labels == sorted(labels)


def test_adjoint_matches_dense_conjugate_transpose():
    rng = np.random.default_rng(23)
    s = random_pauli_sum(rng, 3, 6)
    np.testing.assert_allclose(dense_from_sum(s.adjoint()),
                               dense_from_sum(s).conj().T, atol=1e-12)


def test_qubit_count_mismatch_raises():
    a = PauliSum.from_label("X")
    b = PauliSum.from_label("XX")
    with pytest.raises(TypeError):
        a * b  # only scalars multiply a sum
    with pytest.raises(ValueError, match="mismatch"):
        a.add(b, 0.0)
    with pytest.raises(ValueError, match="mismatch"):
        commutator(a, b)


def test_invalid_labels_rejected():
    with pytest.raises(ValueError):
        PauliSum(2, [("XQ", 1.0)])
    with pytest.raises(ValueError):
        PauliSum(2, [("X", 1.0)])


def test_drop_tolerance_removes_small_terms():
    s = PauliSum(1, [("X", 1e-13), ("Z", 1.0)])
    assert [t.label for t in s.terms] == ["Z"]
