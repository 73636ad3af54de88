"""Ground-state minimization of the (optionally penalty-augmented) energy.

The default optimizer is a derivative-free simplex with restarts: each
restart rebuilds a fresh simplex around the best point found so far,
which recovers from the stalls simplex methods hit on higher-dimensional
penalty landscapes.  The simplex is in-library: ``_nelder_mead`` takes
scipy's Nelder-Mead steps in scipy's order and visits the same points
bit for bit, without loading ``scipy.optimize`` for the run.  A
simultaneous-perturbation optimizer is available for noisy objectives.
Convergence is declared when the best objective value stops improving by
more than the tolerance over a trailing evaluation window, or across a
restart; the result says which stop ended the run.

The objective never touches the gate-level circuit: each run compiles
the ansatz into an ``AnsatzProgram`` (one vectorized step per excitation
or Pauli rotation), once, outside the objective, on one of three routes.
uvccsd keeps one occupied modal per mode, so its state never leaves the
Π N_l physical (VCI) basis: the ``"physical"`` route runs it there, as
a^T H a on real amplitudes against the real symmetric block of
``exact.physical_block`` (``a.dot(H).dot(a)``, the same products as ``@``
with less dispatch), where the occupation penalty is exactly zero.
chc leaks out of that basis, but each of its blocks exp(i theta Y X..X)
is a real rotation that flips two or four bits, an even number per
register: the ``"parity"`` route runs it on the 2^(N-M) real amplitudes
of ``exact.parity_indices``, the states with odd weight in every
register, against H compiled on those states as a scipy CSR matrix.
swaprz and ryrz leave even that set, so the ``"full"`` route runs them on
all 2^N complex amplitudes against H compiled on all 2^N.  The parity and
full routes share one objective, Re<a|H a> plus the occupation penalty,
and H is checked Hermitian once per run.  A real H on the complex
amplitudes of swaprz and ryrz multiplies their real and imaginary parts
in turn, the sums scipy forms after casting H to complex, without the
cast.
The result keeps its state on the program's basis and embeds it into
2^N only when ``VqeResult.state`` is read.  ``build_ansatz``
still gives the ``Circuit`` used for resource counts, noise and as the
reference the program is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .circuits import (Block, Circuit, chc_blocks, circuit_from_blocks,
                       excitation_list, heuristic_blocks, reference_circuit,
                       uvcc_blocks)
from .exact import parity_indices, physical_block
from .mapping import QubitLayout, occupations, penalty_objective
from .pauli import PauliSum
from .simulator import (AnsatzProgram, StateVector, check_compiled_size,
                        check_hermitian, check_program_size,
                        compile_pauli_sum, embed)

ANSATZ_KINDS = ("uvccsd", "chc", "swaprz", "ryrz")
OPTIMIZERS = ("nelder-mead", "spsa")
DEFAULT_PENALTY_WEIGHT = 1e5

# Why a run stopped.  Only "tolerance" counts as converged: "max_evals"
# means the evaluation budget ran out, "restarts" that the simplex was
# still improving when its last restart ended.
STOP_TOLERANCE = "tolerance"
STOP_MAX_EVALS = "max_evals"
STOP_RESTARTS = "restarts"

# Simplex runs per minimization: the first plus the restarts.
NELDER_MEAD_RUNS = 12
# A simplex run ends when its vertices agree to these in x and in f.
SIMPLEX_XATOL = 1e-10
SIMPLEX_FATOL = 1e-12

# Range of the uniform random start parameters.
INIT_RANGE = (-0.2, 0.2)


@dataclass(frozen=True)
class VqeConfig:
    ansatz: str = "uvccsd"
    depth: int = 1
    trotter_steps: int = 1
    optimizer: str = "nelder-mead"
    max_evals: int = 200_000
    tol: float = 1e-8
    mu: float | None = None
    seed: int = 0
    initial_params: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.ansatz not in ANSATZ_KINDS:
            raise ValueError(f"unknown ansatz {self.ansatz!r}")
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if self.tol <= 0:
            raise ValueError("tolerance must be positive")
        if self.max_evals < 1:
            raise ValueError("max_evals must be positive")
        if self.mu is not None and self.mu < 0:
            raise ValueError("penalty weight must be nonnegative")

    def effective_mu(self) -> float:
        """Penalty defaults to 1e5 for the occupation-breaking heuristics."""
        if self.mu is not None:
            return self.mu
        return DEFAULT_PENALTY_WEIGHT if self.ansatz in ("swaprz", "ryrz") else 0.0


@dataclass
class VqeResult:
    energy: float
    params: np.ndarray
    history: list[float]
    evals: int
    seed: int
    stop_reason: str
    # The basis the objective ran on, "physical", "parity" or "full"; set
    # by ``ground_state``.
    route: str | None = None
    # The state at ``params`` on the program's ascending basis states; set
    # by ``ground_state``, not serialized.
    num_qubits: int | None = None
    indices: np.ndarray | None = field(default=None, repr=False, compare=False)
    amplitudes: np.ndarray | None = field(default=None, repr=False,
                                          compare=False)

    @property
    def state(self) -> StateVector | None:
        """The state at ``params`` in the full 2^N space, built when read;
        ``None`` for a result of ``minimize`` alone."""
        if self.amplitudes is None:
            return None
        return embed(self.num_qubits, self.indices, self.amplitudes)

    @property
    def converged(self) -> bool:
        return self.stop_reason == STOP_TOLERANCE

    def to_dict(self) -> dict:
        return {"energy": self.energy,
                "params": [float(p) for p in self.params],
                "history": [float(v) for v in self.history],
                "evals": self.evals,
                "seed": self.seed,
                "stop_reason": self.stop_reason,
                "converged": self.converged,
                "route": self.route}


class _Converged(Exception):
    pass


class _Tracker:
    """Records accepted (improving) values and stops on window stagnation
    or an exhausted budget, noting which in ``stop_reason``."""

    def __init__(self, objective: Callable, tol: float, window: int,
                 max_evals: int):
        self._objective = objective
        self._tol = tol
        self._window = window
        self._max_evals = max_evals
        self.evals = 0
        self.best_value = np.inf
        self.best_params: np.ndarray | None = None
        self.history: list[float] = []
        self._best_trace: list[float] = []
        self.stop_reason: str | None = None

    def __call__(self, params: np.ndarray) -> float:
        if self.evals >= self._max_evals:
            self.stop_reason = STOP_MAX_EVALS
            raise _Converged
        value = float(self._objective(np.asarray(params, dtype=float)))
        if not math.isfinite(value):
            raise RuntimeError(
                f"objective returned non-finite value {value!r} at "
                f"parameters {np.asarray(params).tolist()}")
        self.evals += 1
        if value < self.best_value:
            self.best_value = value
            self.best_params = np.array(params, dtype=float)
            self.history.append(value)
        self._best_trace.append(self.best_value)
        if len(self._best_trace) > self._window:
            gain = self._best_trace[-self._window - 1] - self.best_value
            if gain <= self._tol:
                self.stop_reason = STOP_TOLERANCE
                raise _Converged
        return value

    def reset_window(self) -> None:
        self._best_trace.clear()


def _nelder_mead(f: Callable[[np.ndarray], float], x0: np.ndarray,
                 adaptive: bool) -> np.ndarray:
    """Nelder-Mead from ``x0`` until the simplex is within ``SIMPLEX_XATOL``
    in x and ``SIMPLEX_FATOL`` in f; returns the best vertex.

    scipy 1.17's ``_minimize_neldermead`` with no bounds and no call or
    iteration limit (``f`` ends a run early by raising), operation for
    operation, so it evaluates the same points in the same order, bit for
    bit.  ``adaptive`` takes the coefficients of Gao & Han, Comput. Optim.
    Appl. 51, 259 (2012).  The reflection coefficient is 1 and is left
    out of the steps' expressions; multiplying by it is exact.  ``f`` may
    keep its argument but must not modify it.

    The bookkeeping differs from scipy's where the result cannot: the
    sorts index with ``fsim.argsort()``, the kernel ``np.argsort`` calls,
    and the convergence test checks f before x (both are pure, and the
    f-test fails on almost every iteration).  scipy's f-test is
    max |fsim[0] - fsim[1:]| <= fatol.  ``fsim`` is sorted ascending
    before every test, so each |fsim[0] - fsim[j]| is the rounded
    fsim[j] - fsim[0], and rounding is monotone: the largest is
    fsim[-1] - fsim[0], the same float, so the test is that one
    subtraction.
    """
    n = len(x0)
    if adaptive:
        chi, psi, sigma = 1 + 2 / n, 0.75 - 1 / (2 * n), 1 - 1 / n
    else:
        chi, psi, sigma = 2, 0.5, 0.5
    sim = np.tile(x0, (n + 1, 1))
    steps = np.arange(n)
    sim[steps + 1, steps] = np.where(x0 != 0, 1.05 * x0, 0.00025)
    fsim = np.full(n + 1, np.inf)
    for k in range(n + 1):
        fsim[k] = f(sim[k].copy())
    # sorted twice, as scipy does: argsort is not stable, and ties in f
    # occur near convergence
    for _ in range(2):
        ind = fsim.argsort()
        sim, fsim = sim[ind], fsim[ind]
    # scipy's tests, f first; fsim is sorted (see the docstring)
    while not (fsim[-1] - fsim[0] <= SIMPLEX_FATOL
               and abs(sim[1:] - sim[0]).max() <= SIMPLEX_XATOL):
        xbar = np.add.reduce(sim[:-1], 0) / n
        xr = 2 * xbar - sim[-1]
        fxr = f(xr)
        if fxr < fsim[0]:
            xe = (1 + chi) * xbar - chi * sim[-1]
            fxe = f(xe)
            if fxe < fxr:
                sim[-1], fsim[-1] = xe, fxe
            else:
                sim[-1], fsim[-1] = xr, fxr
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fxr < fsim[-1]:
                # outside contraction
                xc = (1 + psi) * xbar - psi * sim[-1]
                fxc = f(xc)
                accept = fxc <= fxr
            else:
                # inside contraction
                xc = (1 - psi) * xbar + psi * sim[-1]
                fxc = f(xc)
                accept = fxc < fsim[-1]
            if accept:
                sim[-1], fsim[-1] = xc, fxc
            else:
                # shrink towards the best vertex
                for j in range(1, n + 1):
                    sim[j] = sim[0] + sigma * (sim[j] - sim[0])
                    fsim[j] = f(sim[j].copy())
        ind = fsim.argsort()
        sim, fsim = sim[ind], fsim[ind]
    return sim[0]


def _run_nelder_mead(tracker: _Tracker, start: np.ndarray,
                     config: VqeConfig) -> str:
    """Simplex runs with restarts; returns the stop reason.

    Each run is ``_nelder_mead``, the in-library simplex that follows
    scipy's iterates; the tracker ends a run by raising, and its budget
    counts the start point and every earlier run, so it always stops
    before scipy's own ``maxfev``/``maxiter`` of ``max_evals`` could.
    """
    current = start
    previous_best = np.inf
    for _ in range(NELDER_MEAD_RUNS):
        tracker.reset_window()
        try:
            _nelder_mead(tracker, current, len(current) >= 6)
        except _Converged:
            pass
        if tracker.stop_reason == STOP_MAX_EVALS:
            return STOP_MAX_EVALS
        current = tracker.best_params
        if previous_best - tracker.best_value <= config.tol:
            return STOP_TOLERANCE
        previous_best = tracker.best_value
    return STOP_RESTARTS


def _run_spsa(tracker: _Tracker, start: np.ndarray, config: VqeConfig) -> str:
    """Standard decaying-gain SPSA; each iteration costs two evaluations.

    Returns the stop reason.  The iteration count is derived from the
    evaluation budget left after the start point, so finishing the
    schedule counts as exhausting it, and an even budget ends on a whole
    +- pair, not on a lone "+" that no update uses.
    """
    rng = np.random.default_rng(np.random.SeedSequence((config.seed, 0x5B5A)))
    theta = np.array(start, dtype=float)
    iterations = (config.max_evals - 1) // 2
    a, c, big_a = 0.2, 0.1, 0.1 * iterations
    alpha, gamma = 0.602, 0.101
    try:
        for k in range(iterations):
            ak = a / (k + 1 + big_a) ** alpha
            ck = c / (k + 1) ** gamma
            delta = rng.choice((-1.0, 1.0), size=theta.size)
            plus = tracker(theta + ck * delta)
            minus = tracker(theta - ck * delta)
            theta = theta - ak * (plus - minus) / (2.0 * ck) * (1.0 / delta)
    except _Converged:
        return tracker.stop_reason
    return STOP_MAX_EVALS


def minimize(objective: Callable[[np.ndarray], float], start: Sequence[float],
             config: VqeConfig | None = None) -> VqeResult:
    """Derivative-free minimization with accepted-value history."""
    config = config or VqeConfig()
    start = np.asarray(start, dtype=float)
    # The stagnation window grows with dimension: a simplex can stall for
    # far more than 50 evaluations on larger parameter sets.
    tracker = _Tracker(objective, config.tol, max(50, 25 * start.size),
                       config.max_evals)
    tracker(start)  # within budget and window, so it cannot stop the run
    run = _run_nelder_mead if config.optimizer == "nelder-mead" else _run_spsa
    # with nothing to vary, the evaluated start is the minimum
    stop_reason = run(tracker, start, config) if start.size else STOP_TOLERANCE
    return VqeResult(energy=tracker.best_value,
                     params=tracker.best_params,
                     history=tracker.history,
                     evals=tracker.evals,
                     seed=config.seed,
                     stop_reason=stop_reason)


def _ansatz_blocks(layout: QubitLayout,
                  config: VqeConfig) -> tuple[list[Block], int]:
    """Blocks of the ansatz, reference-state preparation included, and
    their parameter count."""
    if config.ansatz in ("uvccsd", "chc"):
        excitations = excitation_list(layout, 2)
        if config.ansatz == "uvccsd":
            blocks = uvcc_blocks(layout, excitations, config.trotter_steps)
        else:
            blocks = chc_blocks(layout, excitations)
        return blocks, len(excitations)
    heuristic, num_parameters = heuristic_blocks(
        config.ansatz, layout.num_qubits, config.depth)
    return list(reference_circuit(layout).gates) + heuristic, num_parameters


def build_ansatz(layout: QubitLayout, config: VqeConfig) -> Circuit:
    """Ansatz circuit including the reference-state preparation."""
    return circuit_from_blocks(layout.num_qubits,
                               *_ansatz_blocks(layout, config))


def ansatz_program(layout: QubitLayout, config: VqeConfig,
                   indices: np.ndarray | None = None) -> AnsatzProgram:
    """The ansatz of ``build_ansatz`` as vectorized noise-free steps, on the
    basis states ``indices`` (all 2^N when ``None``)."""
    blocks, num_parameters = _ansatz_blocks(layout, config)
    return AnsatzProgram.compile(layout.num_qubits, blocks, num_parameters,
                                 indices)


def _objective(hamiltonian: PauliSum, layout: QubitLayout, config: VqeConfig
               ) -> tuple[str, Callable, AnsatzProgram]:
    """The route, the objective on the program's basis, and the program;
    H's size is checked, then the program's, before a parity or full basis."""
    blocks, num_parameters = _ansatz_blocks(layout, config)
    # uvccsd is the one ansatz whose states cannot leave the physical
    # basis, and chc the one that keeps every register's parity
    if config.ansatz == "uvccsd":
        route = "physical"
        indices, block = physical_block(hamiltonian, layout)
        check_program_size(blocks, indices.size)
    else:
        mu = config.effective_mu()
        check_hermitian(hamiltonian)
        route = "parity" if config.ansatz == "chc" else "full"
        dim = 1 << (layout.num_qubits
                    - (layout.num_modes if route == "parity" else 0))
        check_compiled_size(hamiltonian, dim)
        check_program_size(blocks, dim)
        indices = parity_indices(layout) if route == "parity" else None
        compiled = compile_pauli_sum(hamiltonian, indices)
    program = AnsatzProgram.compile(layout.num_qubits, blocks, num_parameters,
                                    indices)
    # scipy multiplies a real H by complex amplitudes by casting H's values
    # to complex on every product; the real and imaginary parts in turn
    # give the same sums without the copy
    split = route != "physical" and not (program.real
                                         or np.iscomplexobj(compiled))

    def objective(params: np.ndarray) -> float:
        amps = program.amplitudes(params)
        if route == "physical":
            return float(amps.dot(block).dot(amps))
        if split:
            h_amps = np.empty_like(amps)
            h_amps.real = compiled @ amps.real
            h_amps.imag = compiled @ amps.imag
        else:
            h_amps = compiled @ amps
        energy = float(np.vdot(amps, h_amps).real)
        if mu > 0:
            return penalty_objective(energy, occupations(
                layout, amps, program.indices), mu)
        return energy

    return route, objective, program


def ground_state(hamiltonian: PauliSum, layout: QubitLayout,
                 config: VqeConfig | None = None) -> VqeResult:
    """Penalty-aware VQE on exact statevector expectations (noise-free).

    uvccsd runs on the physical basis, chc on the parity basis, swaprz and
    ryrz on the full space; the result names the ``route`` and carries the
    state of its best parameters on that basis.
    """
    config = config or VqeConfig()
    if hamiltonian.num_qubits != layout.num_qubits:
        raise ValueError("Hamiltonian and layout disagree on the qubit count")
    route, objective, program = _objective(hamiltonian, layout, config)

    if config.initial_params is not None:
        start = np.asarray(config.initial_params, dtype=float)
        if start.shape != (program.num_parameters,):
            raise ValueError(f"expected {program.num_parameters} initial "
                             f"parameters, got {start.shape}")
    else:
        rng = np.random.default_rng(config.seed)
        start = rng.uniform(*INIT_RANGE, size=program.num_parameters)
    result = minimize(objective, start, config)
    result.route = route
    result.num_qubits = layout.num_qubits
    result.indices = program.indices
    result.amplitudes = program.amplitudes(result.params)
    return result
