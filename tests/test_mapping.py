from pathlib import Path

import numpy as np
import pytest

from conftest import bench_pes
from helpers import dense_from_sum, onv_rule_matrix, pauli_product, \
    physical_onvs, random_sq_hamiltonian, reference_sq_hamiltonian, \
    sq_term_problems
from vibriq.circuits import excitation_list, excitation_sq_terms
from vibriq.mapping import (QubitLayout, SqTerm, build_sq_hamiltonian,
                            map_to_pauli, number_operator, occupations,
                            penalty_objective)
from vibriq.pauli import DROP_TOL, PauliSum
from vibriq.pes import (PesExpansion, PesTerm, load_pes,
                        modal_operator_matrices, solve_modals)
from vibriq.simulator import StateVector, expectation


def test_layout_offsets_and_total():
    layout = QubitLayout((2, 3, 4))
    assert layout.offsets == (0, 2, 5)
    assert layout.num_qubits == 9
    assert layout.qubit_index(1, 2) == 4
    with pytest.raises(ValueError):
        layout.qubit_index(1, 3)
    with pytest.raises(ValueError):
        QubitLayout((2, 0))


def test_sq_term_invariants():
    SqTerm(1.0, ((0, 1, 0), (2, 0, 1)))
    with pytest.raises(ValueError):
        SqTerm(1.0, ((1, 0, 0), (0, 1, 1)))  # modes must increase
    with pytest.raises(ValueError):
        SqTerm(1.0, ((0, 0, 0), (0, 1, 1)))  # duplicate mode


def _operators(pes, counts, dim=30):
    basis = solve_modals(pes, counts, dim=dim)
    return modal_operator_matrices(basis, pes)


def test_single_harmonic_mode_terms():
    pes = PesExpansion((1000.0,))
    terms = build_sq_hamiltonian(pes, _operators(pes, [2]), n_body=1)
    got = {t.factors: t.coefficient for t in terms}
    assert set(got) == {((0, 0, 0),), ((0, 1, 1),)}
    assert abs(got[((0, 0, 0),)] - 500.0) < 1e-9
    assert abs(got[((0, 1, 1),)] - 1500.0) < 1e-9


def test_pes_constant_is_the_identity_term():
    pes = PesExpansion((1000.0,), v0=500.0)
    terms = build_sq_hamiltonian(pes, _operators(pes, [2]), n_body=1)
    got = {t.factors: t.coefficient for t in terms}
    assert got[()] == 500.0
    layout = QubitLayout((2,))
    shifted = map_to_pauli(terms, layout)
    bare = map_to_pauli([t for t in terms if t.factors], layout)
    np.testing.assert_allclose(
        dense_from_sum(shifted),
        dense_from_sum(bare) + 500.0 * np.eye(4), rtol=0, atol=1e-12)


def test_no_coupling_terms_without_anharmonicity():
    pes = PesExpansion((1000.0, 1200.0, 900.0))
    terms = build_sq_hamiltonian(pes, _operators(pes, [2, 2, 2]))
    assert all(t.order == 1 for t in terms)


def test_bilinear_coupling_matches_kronecker_oracle():
    # cubic one-mode terms make every modal <k|Q|h> element nonzero,
    # so the coupling expands into the full 16-term block
    c = 7.5
    pes = PesExpansion((1000.0, 1400.0),
                       (PesTerm(c, {0: 1, 1: 1}),
                        PesTerm(9.0, {0: 3}), PesTerm(-6.0, {1: 3})))
    ops = _operators(pes, [2, 2])
    terms = build_sq_hamiltonian(pes, ops)
    two_body = [t for t in terms if t.order == 2]
    assert len(two_body) == 16

    # independent oracle: H = h0 x I + I x h1 + c q0 x q1 on the modal
    # product basis, mode 0 varying fastest
    h0, h1 = np.diag(ops.one_body[0].diagonal()), np.diag(ops.one_body[1].diagonal())
    q0, q1 = ops.q_powers[0][1], ops.q_powers[1][1]
    eye = np.eye(2)
    oracle = np.kron(eye, h0) + np.kron(h1, eye) + c * np.kron(q1, q0)
    np.testing.assert_allclose(onv_rule_matrix(terms, QubitLayout((2, 2))),
                               oracle, atol=1e-12)


def test_projector_to_occupied_modal():
    layout = QubitLayout((1,))
    op = map_to_pauli([SqTerm(1.0, ((0, 0, 0),))], layout)
    np.testing.assert_allclose(dense_from_sum(op), np.diag([0.0, 1.0]),
                               atol=1e-14)


def test_transfer_operator_dense_action():
    layout = QubitLayout((2,))
    op = map_to_pauli([SqTerm(1.0, ((0, 1, 0),))], layout)
    labels = {t.label: t.coefficient for t in op.terms}
    assert labels == pytest.approx({"XX": 0.25, "YY": 0.25,
                                    "YX": 0.25j, "XY": -0.25j})
    dense = dense_from_sum(op)
    expected = np.zeros((4, 4), dtype=complex)
    expected[2, 1] = 1.0  # |modal 1 occupied> <- |modal 0 occupied|
    np.testing.assert_allclose(dense, expected, atol=1e-14)


def test_hermitian_pair_has_real_coefficients():
    layout = QubitLayout((2,))
    op = map_to_pauli([SqTerm(1.0, ((0, 1, 0),)), SqTerm(1.0, ((0, 0, 1),))],
                      layout)
    assert all(abs(c.imag) <= 1e-14 for _, c in op.items())
    assert {t.label: t.coefficient for t in op.terms} == \
        pytest.approx({"XX": 0.5, "YY": 0.5})


def test_mapping_of_hermitian_term_list_is_real(coupled_system):
    _, terms, hamiltonian = coupled_system
    assert all(abs(c.imag) <= 1e-10 for _, c in hamiltonian.items())


def test_mapped_hamiltonian_matches_onv_rules_on_random_inputs():
    rng = np.random.default_rng(41)
    for counts in [(2, 2), (3, 2), (2, 2, 2), (4, 3)]:
        layout = QubitLayout(counts)
        terms = random_sq_hamiltonian(rng, layout)
        dense = dense_from_sum(map_to_pauli(terms, layout))
        onvs = physical_onvs(layout)
        idx = [sum(1 << (layout.offsets[l] + k) for l, k in enumerate(onv))
               for onv in onvs]
        restricted = dense[np.ix_(idx, idx)]
        np.testing.assert_allclose(restricted, onv_rule_matrix(terms, layout),
                                   atol=1e-12)


def test_number_operator_forms():
    layout = QubitLayout((2, 2))
    op = number_operator(layout, 0)
    assert {t.label: t.coefficient for t in op.terms} == \
        pytest.approx({"IIII": 1.0, "ZIII": -0.5, "IZII": -0.5})
    dense = dense_from_sum(op)
    reference_index = 0b0101  # qubits 0 and 2 set
    assert dense[reference_index, reference_index] == pytest.approx(1.0)
    assert dense[0, 0] == pytest.approx(0.0)


@pytest.mark.parametrize("modals", [(2, 2), (2, 3, 4), (4, 4, 4)])
def test_occupations_match_number_operators(modals):
    layout = QubitLayout(modals)
    n = layout.num_qubits
    rng = np.random.default_rng(sum(modals))
    for _ in range(3):
        amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        state = StateVector(n, amps / np.linalg.norm(amps))
        expected = [expectation(state, number_operator(layout, l))
                    for l in range(layout.num_modes)]
        got = occupations(layout, state.amplitudes, np.arange(1 << n))
        assert got.shape == (layout.num_modes,)
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)
        # the same state held on a subset of the basis states
        indices = np.sort(rng.choice(1 << n, size=(1 << n) // 3,
                                     replace=False))
        sub = np.zeros(1 << n, dtype=complex)
        sub[indices] = state.amplitudes[indices]
        sub /= np.linalg.norm(sub)
        expected = [expectation(StateVector(n, sub), number_operator(layout, l))
                    for l in range(layout.num_modes)]
        np.testing.assert_allclose(occupations(layout, sub[indices], indices),
                                   expected, rtol=0, atol=1e-12)


def test_penalty_objective_arithmetic():
    assert penalty_objective(-12.5, [1.0, 1.0], 1e5) == pytest.approx(-12.5)
    assert penalty_objective(3.0, [0.0, 0.0], 1e5) == pytest.approx(3.0 + 2e5)
    assert penalty_objective(3.0, [0.3, 1.9], 0.0) == pytest.approx(3.0)
    with pytest.raises(ValueError):
        penalty_objective(0.0, [1.0], -1.0)


def test_truncation_order_violation_is_hard_error():
    pes = PesExpansion((100.0, 110.0, 120.0),
                       (PesTerm(1.0, {0: 1, 1: 1, 2: 1}),))
    ops = _operators(pes, [2, 2, 2])
    with pytest.raises(ValueError, match="truncation"):
        build_sq_hamiltonian(pes, ops, n_body=2)
    terms = build_sq_hamiltonian(pes, ops, n_body=3)
    assert any(t.order == 3 for t in terms)


def test_three_body_mapping_matches_onv_rules():
    pes = PesExpansion((100.0, 110.0, 120.0),
                       (PesTerm(2.0, {0: 1, 1: 1, 2: 1}),))
    ops = _operators(pes, [2, 2, 2])
    terms = build_sq_hamiltonian(pes, ops, n_body=3)
    layout = QubitLayout((2, 2, 2))
    dense = dense_from_sum(map_to_pauli(terms, layout))
    onvs = physical_onvs(layout)
    idx = [sum(1 << (layout.offsets[l] + k) for l, k in enumerate(onv))
           for onv in onvs]
    np.testing.assert_allclose(dense[np.ix_(idx, idx)],
                               onv_rule_matrix(terms, layout), atol=1e-12)


def test_modal_index_out_of_layout_range():
    layout = QubitLayout((2,))
    with pytest.raises(ValueError):
        map_to_pauli([SqTerm(1.0, ((0, 2, 0),))], layout)


def test_sq_build_refuses_operators_of_another_mode_count():
    ops3 = _operators(bench_pes(3, 0), [2, 2, 2])
    for pes in (bench_pes(2, 0), bench_pes(5, 0)):
        with pytest.raises(ValueError,
                           match="disagree on the number of modes"):
            build_sq_hamiltonian(pes, ops3)


@pytest.mark.parametrize("coefficient", [np.float32(10.74), np.float64(10.74),
                                         11])
def test_sq_coefficients_are_python_floats(coefficient):
    def sq_terms(c):
        pes = PesExpansion((1150.0, 1480.0),
                           (PesTerm(c, {0: 1, 1: 1}), PesTerm(c, {0: 2, 1: 2})))
        return build_sq_hamiltonian(pes, _operators(pes, [2, 3]))

    got, ref = sq_terms(coefficient), sq_terms(float(coefficient))
    assert [t.factors for t in got] == [t.factors for t in ref]
    assert [repr(t.coefficient) for t in got] == \
        [repr(t.coefficient) for t in ref]
    assert all(type(t.coefficient) is float for t in got)


# -- the SQ expansion against the partial-product loop ------------------------

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def _assert_same_as_reference_loop(pes, counts):
    ops = _operators(pes, list(counts), dim=40)
    n_body = max(2, pes.max_coupling_order())
    got = build_sq_hamiltonian(pes, ops, n_body=n_body)
    ref = reference_sq_hamiltonian(pes, ops, DROP_TOL)
    assert [t.factors for t in got] == [f for _, f in ref]
    assert [(repr(t.coefficient), type(t.coefficient)) for t in got] == \
        [(repr(c), type(c)) for c, _ in ref]


def _assert_valid_terms(terms):
    """Each built term is what a validated ``SqTerm`` makes of it."""
    for t in terms:
        assert sq_term_problems(t.coefficient, t.factors) == []
        again = SqTerm(t.coefficient, t.factors)
        assert again == t and repr(again) == repr(t)


@pytest.mark.parametrize("num_modes", [2, 3, 5])
def test_sq_terms_equal_validated_rebuilds(num_modes):
    for seed in range(4):
        pes = bench_pes(num_modes, seed)
        for n in (2, 3, 4):
            _assert_valid_terms(build_sq_hamiltonian(
                pes, _operators(pes, [n] * num_modes)))
    pes = PesExpansion((1150.0, 1480.0, 900.0),
                       (PesTerm(np.float32(3.5), {2: 1, 0: 2, 1: 1}),
                        PesTerm(7, {1: 2})), v0=4)
    terms = build_sq_hamiltonian(pes, _operators(pes, [2, 3, 2]), n_body=3)
    assert terms[0].factors == () and terms[0].coefficient == 4.0
    _assert_valid_terms(terms)


def test_sq_term_problems_oracle_flags_invalid_terms():
    assert sq_term_problems(1.0, ((0, 1, 0), (2, 0, 1))) == []
    assert sq_term_problems(1, ((0, 1, 0),))
    assert sq_term_problems(np.float64(1.0), ((0, 1, 0),))
    assert sq_term_problems(1.0, ((np.int64(0), 1, 0),))
    assert sq_term_problems(1.0, [(0, 1, 0)])
    assert sq_term_problems(1.0, ((1, 0, 0), (0, 1, 1)))
    assert sq_term_problems(1.0, ((0, 0, 0), (0, 1, 1)))


@pytest.mark.parametrize("num_modes", [2, 3, 5])
def test_sq_expansion_matches_reference_loop_on_bench_pes(num_modes):
    for seed in range(6):
        pes = bench_pes(num_modes, seed)
        for n in (2, 3, 4):
            _assert_same_as_reference_loop(pes, (n,) * num_modes)


def test_sq_expansion_matches_reference_loop_on_random_pes():
    """1- to 3-mode terms, some cancelled exactly by their negatives, some
    below the drop tolerance, v0 = 12.5 and 1 to 3 modals per mode."""
    rng = np.random.default_rng(28)
    for _ in range(40):
        num_modes = int(rng.integers(1, 5))
        counts = tuple(int(n) for n in rng.integers(1, 4, num_modes))
        terms = []
        for _ in range(int(rng.integers(1, 12))):
            order = int(rng.integers(1, min(3, num_modes) + 1))
            modes = rng.choice(num_modes, order, replace=False)
            powers = {int(m): int(rng.integers(1, 4)) for m in modes}
            scale = 1e-13 if rng.random() < 0.2 else 10.0
            c = scale * float(rng.normal())
            terms.append(PesTerm(c, powers))
            if rng.random() < 0.3:
                terms.append(PesTerm(-c, powers))
        freqs = tuple(float(w) for w in rng.uniform(500.0, 3000.0, num_modes))
        pes = PesExpansion(freqs, tuple(terms), v0=12.5, max_degree=9)
        _assert_same_as_reference_loop(pes, counts)


@pytest.mark.parametrize("name", ["pes-2.json", "pes-3.json", "pes-5.json"])
def test_sq_expansion_matches_reference_loop_on_golden_pes(name):
    pes = load_pes(GOLDEN_DIR / name)
    for n in (2, 3):
        _assert_same_as_reference_loop(pes, (n,) * pes.num_modes)


# -- the product form: label-built factors multiplied as Pauli sums ----------

def _ladder_sum(num_qubits, qubit, create):
    pad = "I" * qubit, "I" * (num_qubits - qubit - 1)
    return PauliSum(num_qubits, [("X".join(pad), 0.5),
                                 ("Y".join(pad), -0.5j if create else 0.5j)])


def _product_form(terms, layout):
    """Each factor built from labels and multiplied in with the mask
    product of ``helpers.pauli_product``; the slow reference for
    ``map_to_pauli``."""
    n = layout.num_qubits
    total = PauliSum(n)
    for term in terms:
        op = PauliSum.from_label("I" * n, term.coefficient)
        for mode, k, h in term.factors:
            qc = layout.qubit_index(mode, k)
            qa = layout.qubit_index(mode, h)
            if qc == qa:
                z = "I" * qc + "Z" + "I" * (n - qc - 1)
                factor = PauliSum(n, [("I" * n, 0.5), (z, -0.5)])
            else:
                factor = pauli_product(_ladder_sum(n, qc, True),
                                       _ladder_sum(n, qa, False))
            op = pauli_product(op, factor)
        total = total.add(op)
    return total


def _assert_same_as_product_form(terms, layout):
    got, ref = map_to_pauli(terms, layout), _product_form(terms, layout)
    assert got.masks() == ref.masks()
    assert repr(got.masks()) == repr(ref.masks())
    # insertion order too: it is the summation order of later products
    assert list(got._terms) == list(ref._terms)
    return got


def _random_terms(rng, layout, n_terms, scale=1.0):
    """1- to 3-mode products of random transfer operators."""
    terms = []
    for _ in range(n_terms):
        order = int(rng.integers(1, min(3, layout.num_modes) + 1))
        modes = sorted(rng.choice(layout.num_modes, order, replace=False))
        factors = tuple((int(l), int(rng.integers(layout.modal_counts[l])),
                         int(rng.integers(layout.modal_counts[l])))
                        for l in modes)
        terms.append(SqTerm(float(scale * rng.normal()), factors))
    return terms


@pytest.mark.parametrize("counts", [(2, 3), (3, 3, 3), (1, 2, 3, 2), (4, 2)])
def test_direct_mapping_matches_product_form_on_random_terms(counts):
    rng = np.random.default_rng(sum(counts))
    layout = QubitLayout(counts)
    terms = _random_terms(rng, layout, 60) + [SqTerm(0.7, ())]
    # exact negatives empty a string out of the running sum; the terms
    # after them bring it back in at the end
    terms += [SqTerm(-t.coefficient, t.factors) for t in terms[:20]]
    terms += terms[5:15]
    _assert_same_as_product_form(terms, layout)


def test_term_and_its_negative_map_to_zero():
    layout = QubitLayout((2, 3, 2))
    terms = [SqTerm(1.3, ((0, 1, 0), (1, 2, 2), (2, 0, 1))),
             SqTerm(-1.3, ((0, 1, 0), (1, 2, 2), (2, 0, 1)))]
    assert len(_assert_same_as_product_form(terms, layout)) == 0


def test_direct_mapping_drops_like_product_form_near_tolerance():
    rng = np.random.default_rng(7)
    layout = QubitLayout((2, 3, 2))
    for scale in (0.1, 0.3, 1.0, 3.0, 10.0):
        terms = _random_terms(rng, layout, 40, scale * DROP_TOL)
        terms += [SqTerm(scale * DROP_TOL, ()), SqTerm(4 * DROP_TOL, ())]
        _assert_same_as_product_form(terms, layout)


def test_direct_mapping_drops_whole_terms_at_the_tolerance():
    """Strings of magnitude exactly DROP_TOL are dropped, one ulp above
    kept, whatever the factor count."""
    layout = QubitLayout((2, 3, 2))
    above = float(np.nextafter(1.0, 2.0))
    for scale in (1.0, above):
        terms = [SqTerm(scale * DROP_TOL, ()),
                 SqTerm(2 * scale * DROP_TOL, ((1, 2, 2),)),
                 SqTerm(-4 * scale * DROP_TOL, ((0, 1, 0),)),
                 SqTerm(16 * scale * DROP_TOL, ((0, 0, 1), (2, 1, 0))),
                 SqTerm(-32 * scale * DROP_TOL, ((0, 1, 1), (1, 0, 2),
                                                 (2, 0, 1)))]
        got = _assert_same_as_product_form(terms, layout)
        # 55 strings, the identity twice
        assert len(got) == (0 if scale == 1.0 else 54)


def test_direct_mapping_skips_a_nan_term():
    """A NaN coefficient adds nothing and takes no string out of the sum."""
    layout = QubitLayout((2, 2))
    terms = [SqTerm(1.0, ((0, 1, 0),)), SqTerm(0.5, ((1, 0, 0),)),
             SqTerm(0.25, ())]
    clean = map_to_pauli(terms, layout)
    for factors in (((0, 1, 0),), ((0, 1, 0), (1, 0, 0)), ()):
        got = map_to_pauli(terms + [SqTerm(float("nan"), factors)], layout)
        assert list(got._terms.items()) == list(clean._terms.items())


@pytest.mark.parametrize("counts", [(3, 3), (2, 2, 2)])
def test_excitation_operators_match_product_form(counts):
    layout = QubitLayout(counts)
    for exc in excitation_list(layout, 2):
        _assert_same_as_product_form(excitation_sq_terms(exc), layout)


def test_direct_mapping_beyond_64_qubits():
    layout = QubitLayout((6,) * 15)
    assert layout.num_qubits == 90
    terms = [SqTerm(0.5, ((14, 5, 2),)),
             SqTerm(-1.25, ((3, 4, 4), (12, 0, 5), (14, 1, 1))),
             SqTerm(2.0, ((0, 0, 1), (13, 3, 3))),
             SqTerm(0.75, ((14, 5, 2),))]
    op = _assert_same_as_product_form(terms, layout)
    assert max(x | z for x, z, _ in op.masks()).bit_length() == 90
