"""Command-line front end: resources, vqe, qeom, noise-fidelity, exact.

Every subcommand emits machine-readable JSON (or CSV for resource
reports) echoing the fully resolved configuration, with keys sorted, so
identical configurations and seeds reproduce byte-identical files.
Exit codes: 0 success, 1 runtime failure (diagnostic names the stage),
2 argument errors (from the parser).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

import numpy as np

from . import __version__
from .circuits import count_resources
from .exact import physical_spectrum
from .mapping import QubitLayout, build_sq_hamiltonian, map_to_pauli, occupations
from .pes import (DEFAULT_PRIMITIVE_DIM, load_pes, modal_operator_matrices,
                  solve_modals)
from .qeom import eom_diagnostics, excitation_energies
from .simulator import NoiseModel, run_fidelity_experiment
from .vqe import (ANSATZ_KINDS, DEFAULT_PENALTY_WEIGHT, OPTIMIZERS, VqeConfig,
                  build_ansatz, ground_state)


def _jsonify(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def _emit(payload: dict, out: str | None, fmt: str = "json") -> None:
    if fmt == "json":
        text = json.dumps(_jsonify(payload), indent=2, sort_keys=True) + "\n"
    elif fmt == "csv":
        buf = io.StringIO()
        rows = payload["result"]
        if isinstance(rows, dict):
            rows = [rows]
        writer = csv.DictWriter(buf, fieldnames=sorted(rows[0]))
        writer.writeheader()
        for row in rows:
            writer.writerow(_jsonify(row))
        text = buf.getvalue()
    else:
        raise ValueError(f"unknown format {fmt!r}")
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _modals_argument(text: str) -> str:
    """argparse type check: a positive integer or comma list thereof."""
    try:
        parts = [int(p) for p in text.split(",") if p]
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid modal counts {text!r}")
    if not parts or any(p < 1 for p in parts):
        raise argparse.ArgumentTypeError(f"modal counts must be >= 1: {text!r}")
    return text


def _parse_modals(text: str, num_modes: int | None) -> tuple[int, ...]:
    parts = [int(p) for p in text.split(",") if p]
    if len(parts) == 1 and num_modes is not None:
        return (parts[0],) * num_modes
    if len(parts) == 1 and num_modes is None:
        raise ValueError("a single modal count needs --modes")
    if num_modes is not None and len(parts) != num_modes:
        raise ValueError(f"{len(parts)} modal counts for {num_modes} modes")
    return tuple(parts)


def _hamiltonian_from_args(args) -> tuple:
    pes = load_pes(args.pes)
    layout = QubitLayout(_parse_modals(args.modals, pes.num_modes))
    basis = solve_modals(pes, layout.modal_counts, dim=args.primitive_dim)
    operators = modal_operator_matrices(basis, pes)
    n_body = max(2, pes.max_coupling_order())
    terms = build_sq_hamiltonian(pes, operators, n_body=n_body)
    hamiltonian = map_to_pauli(terms, layout)
    return pes, layout, hamiltonian


def _config_echo(args, skip=("func", "command", "stage")) -> dict:
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def _cmd_resources(args) -> None:
    layout = QubitLayout(_parse_modals(args.modals, args.modes))
    config = VqeConfig(ansatz=args.ansatz, depth=args.depth,
                       trotter_steps=args.trotter_steps)
    circuit = build_ansatz(layout, config)
    payload = {"command": "resources", "version": __version__,
               "config": _config_echo(args),
               "result": count_resources(circuit)}
    _emit(payload, args.out, args.format)


def _cmd_exact(args) -> None:
    pes, layout, hamiltonian = _hamiltonian_from_args(args)
    eigenvalues = physical_spectrum(hamiltonian, layout)
    payload = {"command": "exact", "version": __version__,
               "config": _config_echo(args),
               "result": {"eigenvalues": eigenvalues,
                          "subspace_dimension": int(np.prod(layout.modal_counts))}}
    _emit(payload, args.out, "json")


def _vqe_config(args) -> VqeConfig:
    return VqeConfig(ansatz=args.ansatz, depth=args.depth,
                     trotter_steps=args.trotter_steps,
                     optimizer=args.optimizer, max_evals=args.max_evals,
                     tol=args.tol, mu=args.mu, seed=args.seed)


def _run_vqe(args) -> tuple:
    pes, layout, hamiltonian = _hamiltonian_from_args(args)
    config = _vqe_config(args)
    result = ground_state(hamiltonian, layout, config)
    return layout, hamiltonian, config, result


def _cmd_vqe(args) -> None:
    layout, hamiltonian, config, result = _run_vqe(args)
    payload = {"command": "vqe", "version": __version__,
               "config": _config_echo(args),
               "result": {**result.to_dict(),
                          "mu": config.effective_mu(),
                          "occupations": occupations(
                              layout, result.amplitudes, result.indices)}}
    _emit(payload, args.out, "json")


def _cmd_qeom(args) -> None:
    layout, hamiltonian, config, result = _run_vqe(args)
    energies, matrices, ops = excitation_energies(
        result.state, hamiltonian, layout, max_order=args.order,
        threshold=args.threshold)
    payload = {"command": "qeom", "version": __version__,
               "config": _config_echo(args),
               "result": {"energies": energies,
                          "diagnostics": eom_diagnostics(matrices),
                          "pool_size": ops.size,
                          "filtered_count": int(2 * ops.size - len(energies)),
                          "ground_energy": result.energy,
                          "occupations": occupations(
                              layout, result.amplitudes, result.indices),
                          "vqe": result.to_dict()}}
    _emit(payload, args.out, "json")


def _cmd_noise_fidelity(args) -> None:
    modal_counts = _parse_modals(args.modals, args.modes)
    noise = NoiseModel(p_u2=args.p_u2, p_u3=args.p_u3, p_cx=args.p_cx)
    report = run_fidelity_experiment(modal_counts, trials=args.trials,
                                     shots=args.shots, seed=args.seed,
                                     noise=noise)
    payload = {"command": "noise-fidelity", "version": __version__,
               "config": _config_echo(args), "result": report}
    _emit(payload, args.out, "json")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--pes", required=True,
                        help="PES JSON file (cm-1 units)")
    parser.add_argument("--modals", default="2", type=_modals_argument,
                        help="modal count per mode: N or N1,N2,...")
    parser.add_argument("--out", default=None, help="output file (default stdout)")
    parser.add_argument("--primitive-dim", type=int,
                        default=DEFAULT_PRIMITIVE_DIM,
                        help="harmonic primitive basis size per mode")


def _add_ansatz_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--ansatz", default=VqeConfig.ansatz,
                        choices=ANSATZ_KINDS)
    parser.add_argument("--depth", type=int, default=VqeConfig.depth)
    parser.add_argument("--trotter-steps", type=int,
                        default=VqeConfig.trotter_steps)


def _add_vqe_options(parser: argparse.ArgumentParser) -> None:
    _add_ansatz_options(parser)
    parser.add_argument("--optimizer", default=VqeConfig.optimizer,
                        choices=OPTIMIZERS)
    parser.add_argument("--max-evals", type=int, default=VqeConfig.max_evals)
    parser.add_argument("--tol", type=float, default=VqeConfig.tol)
    parser.add_argument("--mu", type=float, default=VqeConfig.mu,
                        help=f"penalty weight (default "
                             f"{DEFAULT_PENALTY_WEIGHT:g} for swaprz/ryrz)")
    parser.add_argument("--seed", type=int, default=VqeConfig.seed)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vibriq",
        description="Vibrational eigenstates via simulated variational "
                    "quantum algorithms")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("resources", help="circuit resource report")
    p.add_argument("--modes", type=int, default=None)
    p.add_argument("--modals", default="2", type=_modals_argument,
                   help="modal count per mode: N (with --modes) or N1,N2,...")
    p.add_argument("--out", default=None, help="output file (default stdout)")
    _add_ansatz_options(p)
    p.add_argument("--format", default="json", choices=("json", "csv"))
    p.set_defaults(func=_cmd_resources, stage="resource estimation")

    p = sub.add_parser("exact", help="physical-subspace spectrum")
    _add_common(p)
    p.set_defaults(func=_cmd_exact, stage="exact diagonalization")

    p = sub.add_parser("vqe", help="ground-state optimization")
    _add_common(p)
    _add_vqe_options(p)
    p.set_defaults(func=_cmd_vqe, stage="vqe optimization")

    p = sub.add_parser("qeom", help="excitation energies from a VQE ground state")
    _add_common(p)
    _add_vqe_options(p)
    p.add_argument("--order", type=int, default=2, choices=(1, 2))
    p.add_argument("--threshold", type=float, default=1e-6)
    p.set_defaults(func=_cmd_qeom, stage="qeom")

    p = sub.add_parser("noise-fidelity",
                       help="noisy-vs-ideal distribution fidelities")
    p.add_argument("--modes", type=int, default=None)
    p.add_argument("--modals", default="2,2", type=_modals_argument)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--shots", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--p-u2", type=float, default=NoiseModel.p_u2)
    p.add_argument("--p-u3", type=float, default=NoiseModel.p_u3)
    p.add_argument("--p-cx", type=float, default=NoiseModel.p_cx)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_noise_fidelity, stage="noise experiment")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except Exception as exc:  # surface the failing stage, exit 1
        print(f"error in {args.stage}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
