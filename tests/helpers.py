"""Shared test oracles, independent of the code paths they check."""

from __future__ import annotations

import json
import math
from functools import reduce
from itertools import product

import numpy as np

from vibriq.mapping import QubitLayout, SqTerm
from vibriq.pauli import PauliSum
from vibriq.vqe import SIMPLEX_FATOL, SIMPLEX_XATOL

PAULI_MATS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

_I_POWERS = (1.0, 1.0j, -1.0, -1.0j)


def pes_to_dict(pes) -> dict:
    """The PES JSON interchange form that ``vibriq.pes.pes_from_dict`` reads."""
    return {
        "num_modes": pes.num_modes,
        "units": "cm-1",
        "frequencies": list(pes.frequencies),
        "v0": pes.v0,
        "terms": [{"coeff": t.coefficient,
                   "powers": {str(m): p for m, p in sorted(t.powers.items())}}
                  for t in pes.terms],
    }


def save_pes(pes, path) -> None:
    """Write ``pes`` as a PES JSON file."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(pes_to_dict(pes), fh, indent=2, sort_keys=True)
        fh.write("\n")


def dense_from_label(label: str) -> np.ndarray:
    """Kronecker matrix of one Pauli label (qubit 0 = leftmost = LSB)."""
    return reduce(np.kron, [PAULI_MATS[c] for c in reversed(label)])


def pauli_product(a: PauliSum, b: PauliSum) -> PauliSum:
    """``a b`` by the mask rule P(xa, za) P(xb, zb) = i^k P(xa ^ xb, za ^ zb),
    k = |xa & za| + |xb & zb| - |x & z| + 2 |za & xb|.

    String pairs are summed with ``a``'s terms outer and ``b``'s inner, in
    insertion order, so the result's term order is reproducible.
    """
    if a.num_qubits != b.num_qubits:
        raise ValueError(f"qubit-count mismatch: {a.num_qubits} vs "
                         f"{b.num_qubits}")
    out: dict[tuple[int, int], complex] = {}
    for (xa, za), ca in a._terms.items():
        for (xb, zb), cb in b._terms.items():
            x, z = xa ^ xb, za ^ zb
            k = ((xa & za).bit_count() + (xb & zb).bit_count()
                 - (x & z).bit_count() + 2 * (za & xb).bit_count())
            out[x, z] = out.get((x, z), 0.0) + _I_POWERS[k % 4] * ca * cb
    return PauliSum.from_masks(a.num_qubits, out)


def reference_commutator(a: PauliSum, b: PauliSum) -> PauliSum:
    """``a b - b a`` by a double loop over the string pairs, ``a``'s terms
    outer and ``b``'s inner: an anticommuting pair, popcount((xa & zb) ^
    (za & xb)) odd, adds 2 P_a P_b by the mask product rule, and the rest
    cancel.  Equal strings add in pair order; the result keeps its strings
    in order of first occurrence."""
    if a.num_qubits != b.num_qubits:
        raise ValueError(f"qubit-count mismatch: {a.num_qubits} vs "
                         f"{b.num_qubits}")
    out: dict[tuple[int, int], complex] = {}
    for (xa, za), ca in a._terms.items():
        for (xb, zb), cb in b._terms.items():
            if not ((xa & zb) ^ (za & xb)).bit_count() & 1:
                continue
            x, z = xa ^ xb, za ^ zb
            k = ((xa & za).bit_count() + (xb & zb).bit_count()
                 - (x & z).bit_count() + 2 * (za & xb).bit_count())
            out[x, z] = out.get((x, z), 0.0) + _I_POWERS[k % 4] * ca * cb
    return PauliSum.from_masks(a.num_qubits,
                               {k: 2.0 * c for k, c in out.items()})


def assert_same_terms(got: PauliSum, ref: PauliSum) -> None:
    """The same strings in the same order, coefficients to 1e-15 relative."""
    assert list(got._terms) == list(ref._terms)
    for key, c in ref._terms.items():
        assert abs(got._terms[key] - c) <= 1e-15 * abs(c)


def dense_from_sum(op: PauliSum) -> np.ndarray:
    dim = 1 << op.num_qubits
    out = np.zeros((dim, dim), dtype=complex)
    for term in op.terms:
        out += term.coefficient * dense_from_label(term.label)
    return out


def random_pauli_sum(rng: np.random.Generator, num_qubits: int, n_terms: int,
                     hermitian: bool = False, letters: str = "IXYZ") -> PauliSum:
    """Random sum; each label letter drawn uniformly from ``letters``."""
    labels = ["".join(rng.choice(list(letters), size=num_qubits))
              for _ in range(n_terms)]
    if hermitian:
        coeffs = rng.normal(size=n_terms)
    else:
        coeffs = rng.normal(size=n_terms) + 1j * rng.normal(size=n_terms)
    return PauliSum(num_qubits, list(zip(labels, coeffs)))


def physical_onvs(layout: QubitLayout) -> list[tuple[int, ...]]:
    """Occupied-modal tuples, mode 0 varying fastest."""
    ranges = [range(n) for n in reversed(layout.modal_counts)]
    return [rev[::-1] for rev in product(*ranges)]


def onv_rule_matrix(terms: list[SqTerm], layout: QubitLayout) -> np.ndarray:
    """Hamiltonian matrix over the physical ONV basis from the ladder rules.

    A factor (l, k, h) connects an ONV occupying modal h of mode l to the
    ONV occupying modal k instead; all other modes must match.  This is a
    direct transcription of the creation/annihilation action, with no
    Pauli algebra involved.
    """
    onvs = physical_onvs(layout)
    index = {onv: i for i, onv in enumerate(onvs)}
    dim = len(onvs)
    mat = np.zeros((dim, dim), dtype=complex)
    for term in terms:
        for col, onv in enumerate(onvs):
            target = list(onv)
            ok = True
            for mode, k, h in term.factors:
                if onv[mode] != h:
                    ok = False
                    break
                target[mode] = k
            if ok:
                mat[index[tuple(target)], col] += term.coefficient
    return mat


def random_sq_hamiltonian(rng: np.random.Generator,
                          layout: QubitLayout) -> list[SqTerm]:
    """Random Hermitian one- plus two-body transfer-operator list."""
    terms: dict[tuple, float] = {}

    def add(factors, coeff):
        terms[factors] = terms.get(factors, 0.0) + coeff

    counts = layout.modal_counts
    for mode, n in enumerate(counts):
        sym = rng.normal(size=(n, n))
        sym = 0.5 * (sym + sym.T)
        for k in range(n):
            for h in range(n):
                add(((mode, k, h),), float(sym[k, h]))
    for l in range(layout.num_modes):
        for m in range(l + 1, layout.num_modes):
            if rng.random() < 0.5 and layout.num_modes > 2:
                continue
            a = rng.normal(size=(counts[l], counts[l]))
            b = rng.normal(size=(counts[m], counts[m]))
            a = 0.5 * (a + a.T)
            b = 0.5 * (b + b.T)
            for kl in range(counts[l]):
                for hl in range(counts[l]):
                    for km in range(counts[m]):
                        for hm in range(counts[m]):
                            add(((l, kl, hl), (m, km, hm)),
                                float(a[kl, hl] * b[km, hm]))
    return [SqTerm(c, f) for f, c in terms.items() if abs(c) > 1e-14]


def reference_q_power_matrix(power: int, dim: int) -> np.ndarray:
    """Q^power on the first ``dim`` oscillator states, built afresh: the
    banded Q = (a+ + a)/sqrt(2) at dim + power, its matrix power cut to
    dim x dim, then symmetrized as 0.5 (M + M^T)."""
    root = np.sqrt(np.arange(1, dim + power) / 2.0)
    q1 = np.diag(root, 1) + np.diag(root, -1)
    qp = np.linalg.matrix_power(q1, power)[:dim, :dim]
    return 0.5 * (qp + qp.T)


def reference_one_body_projection(pes, coefficients: np.ndarray,
                                  mode: int) -> np.ndarray:
    """T + V^(l) of ``mode`` built afresh on the primitive basis of
    ``coefficients`` (the harmonic diagonal, then each one-mode term of
    ``mode`` in PES order times ``reference_q_power_matrix``), projected
    as c^T H c and symmetrized as 0.5 (M + M^T)."""
    dim = coefficients.shape[0]
    h = np.diag(pes.frequencies[mode] * (np.arange(dim) + 0.5))
    for term in pes.terms:
        if list(term.powers) == [mode]:
            h = h + term.coefficient * reference_q_power_matrix(
                term.powers[mode], dim)
    m = coefficients.T @ h @ coefficients
    return 0.5 * (m + m.T)


def pes_index_by_filtering(pes) -> tuple[dict, list, int]:
    """(mode -> its one-mode terms, coupling terms, largest coupling order,
    1 without coupling), each list filtered from ``pes.terms`` in order."""
    one_mode = {mode: [t for t in pes.terms if set(t.powers) == {mode}]
                for mode in range(len(pes.frequencies))}
    coupling = [t for t in pes.terms if len(t.powers) >= 2]
    return one_mode, coupling, max([len(t.powers) for t in coupling] + [1])


def sq_term_problems(coefficient, factors) -> list[str]:
    """What keeps (coefficient, factors) from being a valid SQ term as
    ``SqTerm`` makes one: a float coefficient and a tuple of
    (mode, create, annihilate) tuples of ints, modes strictly increasing."""
    problems = []
    if type(coefficient) is not float:
        problems.append(f"coefficient {coefficient!r} is a "
                        f"{type(coefficient).__name__}")
    if type(factors) is not tuple or any(
            type(f) is not tuple or len(f) != 3
            or any(type(v) is not int for v in f) for f in factors):
        problems.append(f"factors {factors!r} are not int triples")
    elif any(a[0] >= b[0] for a, b in zip(factors, factors[1:])):
        problems.append(f"modes of {factors!r} do not increase")
    return problems


def reference_sq_hamiltonian(pes, operators, drop_tol: float) -> list[tuple]:
    """(coefficient, factors) per term of the n-mode SQ Hamiltonian.

    The PES constant, then every one-body matrix entry, then each coupling
    term grown one factor at a time: its partial products are extended
    by every (k, h) entry of the next mode's matrix, row-major, weights
    starting at 1.0, and scaled by the term's coefficient at the end.
    Contributions of magnitude <= ``drop_tol`` are skipped, equal factor
    tuples summed in order of first occurrence, and sums <= ``drop_tol``
    dropped at the end.
    """
    merged: dict[tuple, float] = {}

    def accumulate(factors, coeff):
        if abs(coeff) > drop_tol:
            merged[factors] = merged.get(factors, 0.0) + coeff

    accumulate((), float(pes.v0))
    for mode, h in enumerate(operators.one_body):
        for k in range(h.shape[0]):
            for hh in range(h.shape[1]):
                accumulate(((mode, k, hh),), float(h[k, hh]))
    for term in pes.terms:
        if len(term.powers) < 2:
            continue
        stack = [((), 1.0)]
        for m in sorted(term.powers):
            mat = operators.q_powers[m][term.powers[m]]
            stack = [(partial + ((m, k, h),), weight * float(mat[k, h]))
                     for partial, weight in stack
                     for k in range(mat.shape[0]) for h in range(mat.shape[1])]
        for factors, weight in stack:
            accumulate(factors, term.coefficient * weight)
    return [(c, f) for f, c in merged.items() if abs(c) > drop_tol]


# -- dense circuit / noise oracles -------------------------------------------

def dense_gate_matrix(gate, angle, num_qubits: int) -> np.ndarray:
    """Full 2^N x 2^N matrix of one gate, built by explicit basis action."""
    dim = 1 << num_qubits
    mat = np.zeros((dim, dim), dtype=complex)
    if gate.kind == "cnot":
        c, t = gate.qubits
        for j in range(dim):
            mat[j ^ (((j >> c) & 1) << t), j] = 1.0
        return mat
    q = gate.qubits[0]
    if gate.kind == "x":
        local = PAULI_MATS["X"]
    elif gate.kind == "h":
        local = (PAULI_MATS["X"] + PAULI_MATS["Z"]) / np.sqrt(2)
    elif gate.kind == "phase":
        local = np.diag([1.0, np.exp(1j * angle)])
    elif gate.kind == "rx":
        local = (np.cos(angle / 2) * PAULI_MATS["I"]
                 - 1j * np.sin(angle / 2) * PAULI_MATS["X"])
    elif gate.kind == "ry":
        local = (np.cos(angle / 2) * PAULI_MATS["I"]
                 - 1j * np.sin(angle / 2) * PAULI_MATS["Y"])
    elif gate.kind == "rz":
        local = (np.cos(angle / 2) * PAULI_MATS["I"]
                 - 1j * np.sin(angle / 2) * PAULI_MATS["Z"])
    else:
        raise ValueError(gate.kind)
    for j in range(dim):
        bit = (j >> q) & 1
        for out_bit in (0, 1):
            amp = local[out_bit, bit]
            if amp != 0:
                mat[j ^ ((bit ^ out_bit) << q), j] += amp
    return mat


def dense_circuit_unitary(circuit, params) -> np.ndarray:
    dim = 1 << circuit.num_qubits
    u = np.eye(dim, dtype=complex)
    for gate in circuit.gates:
        u = dense_gate_matrix(gate, gate.resolved_angle(params),
                              circuit.num_qubits) @ u
    return u


def density_matrix_simulation(circuit, params, noise) -> np.ndarray:
    """Gate unitaries interleaved with exact depolarizing channels.

    The channel matches ``noisy_trajectories``: with the class
    probability, one uniformly random non-identity Pauli on the gate's
    qubits.
    """
    n = circuit.num_qubits
    dim = 1 << n
    rho = np.zeros((dim, dim), dtype=complex)
    rho[0, 0] = 1.0
    for gate in circuit.gates:
        angle = gate.resolved_angle(params)
        u = dense_gate_matrix(gate, angle, n)
        rho = u @ rho @ u.conj().T
        p = noise.gate_probability(gate, angle)
        if p <= 0:
            continue
        k = len(gate.qubits)
        letters = [l for l in product("IXYZ", repeat=k) if set(l) != {"I"}]
        mixed = np.zeros_like(rho)
        for ls in letters:
            label = ["I"] * n
            for q, letter in zip(gate.qubits, ls):
                label[q] = letter
            pauli = dense_from_label("".join(label))
            mixed += pauli @ rho @ pauli
        rho = (1 - p) * rho + (p / len(letters)) * mixed
    return rho


def noisy_trajectories(circuit, params, noise, seeds) -> np.ndarray:
    """Final states of the depolarizing unraveling, one row per seed.

    Each run starts from |0...0>, applies every gate's unitary and then,
    with the gate-class probability, one uniformly random non-identity
    Pauli on the gate's qubits, so the runs average to the channel of
    ``density_matrix_simulation``.  The unitaries and Paulis are dense
    matrices built once for all runs.
    """
    n = circuit.num_qubits
    dim = 1 << n
    steps = []
    for gate in circuit.gates:
        angle = gate.resolved_angle(params)
        paulis = []
        for choice in range(1, 1 << (2 * len(gate.qubits))):
            label = ["I"] * n
            for j, q in enumerate(gate.qubits):
                label[q] = "IXYZ"[(choice >> (2 * j)) & 3]
            paulis.append(dense_from_label("".join(label)))
        steps.append((dense_gate_matrix(gate, angle, n),
                      noise.gate_probability(gate, angle), paulis))
    states = np.zeros((len(seeds), dim), dtype=complex)
    for row, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        amps = np.zeros(dim, dtype=complex)
        amps[0] = 1.0
        for unitary, p, paulis in steps:
            amps = unitary @ amps
            if p > 0.0 and rng.random() < p:
                amps = paulis[int(rng.integers(1, len(paulis) + 1)) - 1] @ amps
        states[row] = amps
    return states


def dense_expectations(states: np.ndarray, op: PauliSum) -> np.ndarray:
    """<psi|op|psi> per row of ``states``, from the dense matrix of ``op``."""
    return np.einsum("ri,ij,rj->r", states.conj(), dense_from_sum(op),
                     states).real


# -- objective oracles --------------------------------------------------------

def givens_rotation(amps: np.ndarray, pairs: np.ndarray,
                    angle: float) -> np.ndarray:
    """A copy of ``amps`` with each (src, dst) column of ``pairs`` rotated
    by ``angle``: a fresh 2x2 matrix and one ``dot`` on the gathered pairs."""
    c, s = math.cos(angle), math.sin(angle)
    out = amps.copy()
    out[pairs] = np.array(((c, -s), (s, c))).dot(amps[pairs])
    return out


def quadratic_form(amps: np.ndarray, block: np.ndarray) -> float:
    """a^T B a by the ``@`` operator, left to right."""
    return float(amps @ block @ amps)


# -- optimizer oracle ---------------------------------------------------------

def scipy_nelder_mead(f, x0, adaptive: bool, max_evals: int):
    """scipy's Nelder-Mead driver with the VQE's tolerances, and
    ``max_evals`` as both ``maxfev`` and ``maxiter``."""
    from scipy import optimize

    return optimize.minimize(
        f, x0, method="Nelder-Mead",
        options={"maxfev": max_evals, "maxiter": max_evals,
                 "xatol": SIMPLEX_XATOL, "fatol": SIMPLEX_FATOL,
                 "adaptive": adaptive})

