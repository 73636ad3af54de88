import json
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from conftest import bench_pes
from helpers import (pes_index_by_filtering, pes_to_dict,
                     reference_one_body_projection, reference_q_power_matrix,
                     save_pes)
from vibriq.pes import (ModalBasis, PesExpansion, PesTerm, ho_q_power_matrix,
                        load_pes, modal_operator_matrices, modal_q_power_matrix,
                        one_body_matrix, pes_from_dict, solve_modals)

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def hermite_quadrature_q_matrix(power: int, dim: int) -> np.ndarray:
    """<i|Q^p|j> by exact Gauss-Hermite quadrature over oscillator states."""
    nodes, weights = np.polynomial.hermite.hermgauss(80)
    norms = np.array([1.0 / math.sqrt(math.sqrt(math.pi) * (2.0 ** n)
                                      * math.factorial(n))
                      for n in range(dim)])
    hvals = np.stack([np.polynomial.hermite.Hermite([0] * n + [1])(nodes)
                      for n in range(dim)])
    psi = norms[:, None] * hvals  # wavefunctions without the exp(-x^2/2)
    out = np.zeros((dim, dim))
    for i in range(dim):
        for j in range(dim):
            out[i, j] = np.sum(weights * psi[i] * psi[j] * nodes ** power)
    return out


def test_q_matrix_first_power_small():
    expected = np.array([[0.0, 1.0 / math.sqrt(2)],
                         [1.0 / math.sqrt(2), 0.0]])
    np.testing.assert_allclose(ho_q_power_matrix(1, 2), expected, atol=1e-14)


def test_q_squared_diagonal_is_number_plus_half():
    q2 = ho_q_power_matrix(2, 8)
    np.testing.assert_allclose(np.diag(q2), np.arange(8) + 0.5, atol=1e-13)


def test_q_fourth_ground_entry():
    # squaring the p=2 matrix at dim >= 6 gives <0|Q^4|0> = 3/4
    q2 = ho_q_power_matrix(2, 6)
    expected = (q2 @ q2)[0, 0]
    assert abs(expected - 0.75) < 1e-13
    assert abs(ho_q_power_matrix(4, 3)[0, 0] - 0.75) < 1e-13


@pytest.mark.parametrize("power", [1, 2, 3, 4])
def test_q_matrix_against_quadrature(power):
    got = ho_q_power_matrix(power, 10)
    np.testing.assert_allclose(got, hermite_quadrature_q_matrix(power, 10),
                               atol=1e-10)


@pytest.mark.parametrize("power", [2, 3, 4])
def test_q_matrix_banded_truncation_identity(power):
    big = ho_q_power_matrix(1, 10 + power)
    truncated = np.linalg.matrix_power(big, power)[:10, :10]
    np.testing.assert_allclose(ho_q_power_matrix(power, 10), truncated,
                               atol=1e-12)


@pytest.mark.parametrize("power", [1, 2, 3, 4, 5])
def test_q_matrix_band_and_parity_structure(power):
    q = ho_q_power_matrix(power, 12)
    np.testing.assert_allclose(q, q.T, atol=0)
    for i in range(12):
        for j in range(12):
            if abs(i - j) > power or (i - j - power) % 2:
                assert q[i, j] == 0.0


def test_q_matrix_is_built_once_and_read_only():
    q = ho_q_power_matrix(3, 7)
    assert ho_q_power_matrix(3, 7) is q
    with pytest.raises(ValueError):
        q[0, 1] = 1.0
    with pytest.raises(ValueError):
        q += 1.0


@pytest.mark.parametrize("dim", [1, 2, 7, 40])
def test_q_matrix_is_bit_equal_to_a_fresh_construction(dim):
    for power in range(1, 7):
        got = ho_q_power_matrix(power, dim)
        ref = reference_q_power_matrix(power, dim)
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()


def test_q_matrix_takes_integers_only():
    assert ho_q_power_matrix(np.int64(3), np.int64(7)) is ho_q_power_matrix(3, 7)
    # 17 is a size no other test builds, so the first call meets no memo
    for dim in (8, 17):
        with pytest.raises(TypeError):
            ho_q_power_matrix(2.0, dim)
        ho_q_power_matrix(2, dim)
        with pytest.raises(TypeError):
            ho_q_power_matrix(2.0, dim)
        with pytest.raises(TypeError):
            ho_q_power_matrix(2, float(dim))
    for _ in range(2):
        with pytest.raises(ValueError):
            ho_q_power_matrix(0, 8)
        with pytest.raises(ValueError):
            ho_q_power_matrix(2, 0)


def test_one_body_matrix_harmonic_spectrum():
    pes = PesExpansion((1000.0,))
    h = one_body_matrix(pes, 0, 5)
    np.testing.assert_allclose(h, np.diag([500.0, 1500.0, 2500.0, 3500.0,
                                           4500.0]), atol=1e-12)


def test_one_body_matrix_symmetric_with_quartic():
    pes = PesExpansion((1000.0,), (PesTerm(12.0, {0: 4}),))
    h = one_body_matrix(pes, 0, 20)
    np.testing.assert_allclose(h, h.T, atol=0)


def test_cubic_ground_energy_matches_grid_oracle():
    # real-space discretization of -(w/2) d2/dQ2 + (w/2) Q^2 + c Q^3
    omega, c = 1000.0, 10.0
    pes = PesExpansion((omega,), (PesTerm(c, {0: 3}),))
    h = one_body_matrix(pes, 0, 30)
    matrix_ground = np.linalg.eigvalsh(h)[0]

    npts = 4000
    q = np.linspace(-9.0, 9.0, npts)
    dq = q[1] - q[0]
    diag = omega / 2.0 * q ** 2 + c * q ** 3 + omega / dq ** 2
    off = -omega / (2.0 * dq ** 2) * np.ones(npts - 1)
    # lowest eigenvalue of the tridiagonal matrix diag(diag) + offdiag(off)
    grid_ground = eigh_tridiagonal(diag, off, eigvals_only=True, select="i",
                                   select_range=(0, 0))[0]
    assert abs(matrix_ground - grid_ground) < 0.01


def test_solve_modals_harmonic_identity_columns():
    pes = PesExpansion((777.0,))
    basis = solve_modals(pes, [3], dim=12)
    np.testing.assert_allclose(basis.coefficients[0], np.eye(12)[:, :3],
                               atol=1e-12)
    np.testing.assert_allclose(basis.energies[0],
                               777.0 * (np.arange(3) + 0.5), atol=1e-9)


def test_solve_modals_primitive_dim_convergence():
    # quartic perturbation <= 1% of omega: retained energies converged
    pes = PesExpansion((1000.0,), (PesTerm(8.0, {0: 4}),))
    e30 = solve_modals(pes, [4], dim=30).energies[0]
    e60 = solve_modals(pes, [4], dim=60).energies[0]
    np.testing.assert_allclose(e30, e60, atol=1e-6)


def test_solve_modals_orthonormal_and_ascending(coupled_pes):
    basis = solve_modals(coupled_pes, [3, 3], dim=40)
    for mode in range(2):
        c = basis.coefficients[mode]
        np.testing.assert_allclose(c.T @ c, np.eye(3), atol=1e-10)
        e = basis.energies[mode]
        assert np.all(np.diff(e) > 0)


def test_solve_modals_sign_convention():
    pes = PesExpansion((500.0,), (PesTerm(-4.0, {0: 3}),))
    basis = solve_modals(pes, [3], dim=30)
    for k in range(3):
        col = basis.coefficients[0][:, k]
        assert col[int(np.argmax(np.abs(col)))] > 0


def test_modal_operators_harmonic_q_is_truncated_primitive():
    pes = PesExpansion((1000.0, 800.0), (PesTerm(5.0, {0: 1, 1: 1}),))
    basis = solve_modals(pes, [2, 2], dim=25)
    ops = modal_operator_matrices(basis, pes)
    np.testing.assert_allclose(ops.q_powers[0][1],
                               ho_q_power_matrix(1, 25)[:2, :2], atol=1e-12)
    np.testing.assert_allclose(ops.one_body[0],
                               np.diag(basis.energies[0]), atol=1e-9)


def test_modal_operators_anharmonic_diagonal_energy(coupled_pes):
    basis = solve_modals(coupled_pes, [2, 2], dim=40)
    ops = modal_operator_matrices(basis, coupled_pes)
    for mode in range(2):
        np.testing.assert_allclose(ops.one_body[mode],
                                   np.diag(basis.energies[mode]), atol=1e-8)


def test_modal_q_squared_converged_against_larger_primitive_basis():
    pes = PesExpansion((900.0,), (PesTerm(6.0, {0: 4}), PesTerm(3.0, {0: 2})))
    m40 = modal_q_power_matrix(solve_modals(pes, [3], dim=40), 0, 2)
    m60 = modal_q_power_matrix(solve_modals(pes, [3], dim=60), 0, 2)
    np.testing.assert_allclose(m40, m60, atol=1e-8)


def test_pes_validation_errors():
    with pytest.raises(ValueError):
        PesExpansion((0.0,))
    with pytest.raises(ValueError):
        PesExpansion((100.0,), (PesTerm(1.0, {1: 2}),))
    with pytest.raises(ValueError):
        PesExpansion((100.0,), (PesTerm(1.0, {0: 5}),))
    with pytest.raises(ValueError):
        PesTerm(1.0, {})
    with pytest.raises(ValueError):
        PesTerm(1.0, {0: 0})


def test_pes_json_roundtrip(tmp_path, coupled_pes):
    path = tmp_path / "pes.json"
    save_pes(coupled_pes, path)
    again = load_pes(path)
    assert again.frequencies == coupled_pes.frequencies
    assert again.v0 == coupled_pes.v0
    assert {t.coefficient: t.powers for t in again.terms} == \
        {t.coefficient: t.powers for t in coupled_pes.terms}
    data = json.loads(path.read_text())
    assert data["units"] == "cm-1"
    assert data["num_modes"] == 2


def test_pes_json_rejects_wrong_units():
    with pytest.raises(ValueError, match="units"):
        pes_from_dict({"units": "hartree", "frequencies": [100.0]})


_TERM = {"coeff": 1.5, "powers": {"0": 4}}
_ACCEPTED = "the accepted keys are frequencies, num_modes, units, v0, terms"
_TERM_ACCEPTED = "the accepted keys are coeff, powers"


def test_pes_json_refuses_an_unknown_key():
    """A misspelled v0 is refused, not read as a PES with v0 = 0."""
    with pytest.raises(ValueError, match=f"unknown key 'V0' in the PES; "
                                         f"{_ACCEPTED}"):
        pes_from_dict({"frequencies": [100.0], "terms": [_TERM], "V0": 3.0})


def test_pes_json_refuses_missing_frequencies():
    with pytest.raises(ValueError, match=f"missing key 'frequencies' in the "
                                         f"PES; {_ACCEPTED}"):
        pes_from_dict({"terms": [_TERM]})


def test_pes_json_refuses_an_unknown_term_key():
    term = {"coef": 1.5, "coeff": 1.5, "powers": {"0": 4}}
    with pytest.raises(ValueError, match=f"unknown key 'coef' in PES term 1; "
                                         f"{_TERM_ACCEPTED}"):
        pes_from_dict({"frequencies": [100.0], "terms": [_TERM, term]})


def test_pes_json_refuses_a_term_without_coeff():
    with pytest.raises(ValueError, match=f"missing key 'coeff' in PES term 0; "
                                         f"{_TERM_ACCEPTED}"):
        pes_from_dict({"frequencies": [100.0], "terms": [{"powers": {"0": 4}}]})


def test_pes_json_refuses_a_term_without_powers():
    with pytest.raises(ValueError, match=f"missing key 'powers' in PES term 0; "
                                         f"{_TERM_ACCEPTED}"):
        pes_from_dict({"frequencies": [100.0], "terms": [{"coeff": 1.5}]})


def test_pes_dict_shape_follows_interchange_format(harmonic_pes):
    data = pes_to_dict(harmonic_pes)
    assert set(data) == {"num_modes", "units", "frequencies", "v0", "terms"}


# -- the PES index and the one-body matrices, against fresh constructions ----

def _random_pes(rng) -> PesExpansion:
    """1- to 3-mode terms in random order, each term's powers listed in
    random mode order, some modes without a one-mode term."""
    num_modes = int(rng.integers(1, 6))
    terms = []
    for _ in range(int(rng.integers(0, 14))):
        order = int(rng.integers(1, min(3, num_modes) + 1))
        modes = rng.choice(num_modes, order, replace=False)
        terms.append(PesTerm(float(rng.normal()),
                             {int(m): int(rng.integers(1, 4)) for m in modes}))
    freqs = tuple(float(w) for w in rng.uniform(500.0, 3000.0, num_modes))
    return PesExpansion(freqs, tuple(terms), max_degree=9)


def _assert_index_matches_filtering(pes):
    one_mode, coupling, order = pes_index_by_filtering(pes)
    for mode in range(pes.num_modes + 2):  # modes past the last have none
        got = pes.one_mode_terms(mode)
        assert [id(t) for t in got] == [id(t) for t in one_mode.get(mode, [])]
    assert [id(t) for t in pes.coupling_terms()] == [id(t) for t in coupling]
    assert pes.max_coupling_order() == order
    for t in pes.terms:
        assert t.modes == tuple(sorted(t.powers))


def test_pes_index_matches_filtering():
    for num_modes in (1, 2, 3, 5):
        for seed in range(3):
            _assert_index_matches_filtering(bench_pes(num_modes, seed))
    for name in ("pes-2.json", "pes-3.json", "pes-5.json"):
        _assert_index_matches_filtering(load_pes(GOLDEN_DIR / name))
    rng = np.random.default_rng(30)
    for _ in range(40):
        _assert_index_matches_filtering(_random_pes(rng))
    _assert_index_matches_filtering(PesExpansion((1000.0, 1500.0)))


def test_pes_index_lists_are_the_callers_own():
    pes = bench_pes(2, 0)
    pes.coupling_terms().clear()
    pes.one_mode_terms(0).clear()
    _assert_index_matches_filtering(pes)


@pytest.mark.parametrize("num_modes", [2, 3, 5])
def test_projected_one_body_is_bit_equal_to_a_fresh_construction(num_modes):
    for seed in range(3):
        pes = bench_pes(num_modes, seed)
        for modals, dim in ((2, 40), (3, 40), (4, 40), (3, 17)):
            basis = solve_modals(pes, (modals,) * num_modes, dim=dim)
            ops = modal_operator_matrices(basis, pes)
            assert basis.pes is pes
            for mode, c in enumerate(basis.coefficients):
                ref = reference_one_body_projection(pes, c, mode)
                got = basis.one_body[mode]
                assert got.dtype == ref.dtype and got.shape == ref.shape
                assert got.tobytes() == ref.tobytes()
                assert ops.one_body[mode] is got
                assert not got.flags.writeable


def test_modal_operators_project_afresh_for_another_pes():
    """Harmonic modals of an anharmonic PES, and a basis made by hand: the
    one-body matrices are those of the PES passed in."""
    pes = bench_pes(3, 1)
    harmonic = solve_modals(PesExpansion(pes.frequencies), (3, 2, 3))
    solved = solve_modals(pes, (3, 2, 3))
    by_hand = ModalBasis(solved.coefficients, solved.energies)
    for basis in (harmonic, by_hand):
        ops = modal_operator_matrices(basis, pes)
        for mode, c in enumerate(basis.coefficients):
            ref = reference_one_body_projection(pes, c, mode)
            assert ops.one_body[mode].tobytes() == ref.tobytes()
    assert harmonic.one_body[0].tobytes() != \
        modal_operator_matrices(harmonic, pes).one_body[0].tobytes()
    # an equal PES that is another object is projected afresh, to the
    # same bits
    again = pes_from_dict(pes_to_dict(pes))
    for a, b in zip(modal_operator_matrices(solved, again).one_body,
                    solved.one_body):
        assert a is not b and a.tobytes() == b.tobytes()


# -- non-finite and non-integer input is refused, never rounded --------------

def _pes_json(**changes):
    data = {"frequencies": [1000.0, 1500.0], "num_modes": 2, "v0": 0.0,
            "terms": [{"coeff": 2.0, "powers": {"0": 4}},
                      {"coeff": 1.5, "powers": {"0": 1, "1": 1}}]}
    term = changes.pop("term", None)
    if term is not None:
        data["terms"][1] = {**data["terms"][1], **term}
    data.update(changes)
    return data


@pytest.mark.parametrize("changes, message", [
    ({"term": {"powers": {"0": 2.5}}},
     "the power 2.5 of mode '0' in PES term 1 is not an integer"),
    ({"term": {"powers": {"0": 1, "1": True}}},
     "the power True of mode '1' in PES term 1 is not an integer"),
    ({"term": {"powers": {"0": 1, "1": 2.0}}},
     "the power 2.0 of mode '1' in PES term 1 is not an integer"),
    ({"term": {"coeff": math.nan}}, "the coeff of PES term 1 is nan"),
    ({"term": {"coeff": math.inf}}, "the coeff of PES term 1 is inf"),
    ({"term": {"coeff": -math.inf}}, "the coeff of PES term 1 is -inf"),
    ({"term": {"coeff": True}}, "the coeff of PES term 1 is True"),
    ({"term": {"coeff": "1.5"}}, "the coeff of PES term 1 is '1.5'"),
    ({"v0": math.nan}, "v0 is nan, not a finite number"),
    ({"v0": -math.inf}, "v0 is -inf, not a finite number"),
    ({"frequencies": [1000.0, math.nan]}, "frequency 1 is nan"),
    ({"frequencies": [math.inf, 1500.0]}, "frequency 0 is inf"),
    ({"num_modes": 2.0}, "num_modes 2.0 is not an integer"),
    ({"num_modes": True}, "num_modes True is not an integer"),
    ({"term": {"powers": {"0": 1, "00": 2}}},
     "a mode appears twice in PES term 1"),
    ({"term": {"powers": {"a": 1}}}, "mode 'a' of PES term 1 is not an integer"),
    ({"term": {"powers": {"0": 0}}}, r"PES term 1: invalid power Q_0\^0"),
    ({"term": {"powers": {"0": 1, "2": 1}}},
     "term 1 touches mode 2 but only 2 modes declared"),
])
def test_pes_json_refuses_what_it_would_otherwise_round(changes, message):
    with pytest.raises(ValueError, match=message):
        pes_from_dict(_pes_json(**changes))


def test_pes_file_with_a_nan_literal_is_refused(tmp_path):
    """Python's json reads NaN and Infinity; the PES loader refuses them."""
    path = tmp_path / "pes.json"
    path.write_text(json.dumps(_pes_json(term={"coeff": math.nan})))
    assert "NaN" in path.read_text()
    with pytest.raises(ValueError, match="the coeff of PES term 1 is nan"):
        load_pes(path)
    save_pes(pes_from_dict(_pes_json()), path)
    assert load_pes(path) == pes_from_dict(_pes_json())


def test_pes_objects_refuse_non_finite_numbers():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="not finite"):
            PesTerm(bad, {0: 2})
        with pytest.raises(ValueError, match="positive and finite"):
            PesExpansion((1000.0, bad))
        with pytest.raises(ValueError, match="not finite"):
            PesExpansion((1000.0,), v0=bad)
