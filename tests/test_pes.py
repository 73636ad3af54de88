import json
import math

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from helpers import pes_to_dict, reference_q_power_matrix, save_pes
from vibriq.pes import (PesExpansion, PesTerm, ho_q_power_matrix, load_pes,
                        modal_operator_matrices, modal_q_power_matrix,
                        one_body_matrix, pes_from_dict, solve_modals)


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
