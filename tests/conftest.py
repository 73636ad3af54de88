import importlib.util
from pathlib import Path

import numpy as np
import numpy.ma  # noqa: F401
import pytest
import scipy.sparse  # noqa: F401

from vibriq.mapping import QubitLayout, build_sq_hamiltonian, map_to_pauli
from vibriq.pes import (PesExpansion, PesTerm, modal_operator_matrices,
                        pes_from_dict, solve_modals)

# numpy.ma (loaded by the first np.unique) and scipy.sparse (by the first
# compile) are imported above, before any test, so that a tracemalloc bound
# counts what the code under test allocates, not a first import.

PESGEN_PATH = Path(__file__).resolve().parent.parent / "bench" / "pesgen.py"


def bench_pesgen():
    """The benchmark's seeded PES generator, ``bench/pesgen.py``."""
    spec = importlib.util.spec_from_file_location("pesgen", PESGEN_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bench_pes(num_modes: int, seed: int) -> PesExpansion:
    """The benchmark's synthetic quartic force field for one seed."""
    return pes_from_dict(bench_pesgen().make_pes(num_modes, seed))


def _coupled_pes() -> PesExpansion:
    # Low-frequency pair so the penalty equilibrium at mu = 1e5 sits well
    # inside the 1e-3 occupation tolerance; coupling <= 10% of the softer mode.
    rng = np.random.default_rng(1207)
    coupling = round(float(rng.uniform(0.06, 0.10)) * 160.0, 6)
    terms = (
        PesTerm(round(float(rng.uniform(1.0, 2.0)), 6), {0: 4}),
        PesTerm(round(float(rng.uniform(-2.5, -1.0)), 6), {1: 3}),
        PesTerm(coupling, {0: 1, 1: 1}),
    )
    return PesExpansion((160.0, 240.0), terms)


def _harmonic_pes() -> PesExpansion:
    return PesExpansion((1000.0, 1500.0))


def build_qubit_hamiltonian(pes: PesExpansion, modal_counts, dim: int = 40):
    layout = QubitLayout(tuple(modal_counts))
    basis = solve_modals(pes, layout.modal_counts, dim=dim)
    operators = modal_operator_matrices(basis, pes)
    terms = build_sq_hamiltonian(pes, operators,
                                 n_body=max(2, pes.max_coupling_order()))
    return layout, terms, map_to_pauli(terms, layout)


@pytest.fixture(scope="session")
def coupled_pes() -> PesExpansion:
    return _coupled_pes()


@pytest.fixture(scope="session")
def harmonic_pes() -> PesExpansion:
    return _harmonic_pes()


@pytest.fixture(scope="session")
def coupled_system(coupled_pes):
    """(layout, sq terms, qubit Hamiltonian) of the coupled 2x2 fixture."""
    return build_qubit_hamiltonian(coupled_pes, (2, 2))


@pytest.fixture(scope="session")
def harmonic_system(harmonic_pes):
    return build_qubit_hamiltonian(harmonic_pes, (2, 2))
