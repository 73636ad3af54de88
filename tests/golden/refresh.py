"""Golden result files: a fixed set of sub-second ``vibriq`` commands and
the files they wrote when this directory was last refreshed.

    python tests/golden/refresh.py          # rewrite the PES, result and
                                            # fingerprint files
    python tests/golden/refresh.py --check  # compare a fresh run with them

Run from a source checkout; the program is imported from its ``src``
directory.  The PES files are ``bench/pesgen.py``'s seed-0 force fields
for 2, 3 and 5 modes.  Every command runs in-process through
``vibriq.cli.main`` in one directory that holds the PES files, with paths
relative to it, so the echoed configuration is the same wherever it runs.

A fresh run matches when every key, string, integer and boolean is equal
and every float is within ``REL_TOL`` relative; byte identity is reported
on its own.  A change that moves a file lists it and its largest relative
change in ``CHANGES.md`` along with the refresh.

``hamiltonians.json`` holds a fingerprint of the Hamiltonian set-up on
each PES file at ``FINGERPRINT_MODALS`` modals per mode: a SHA-256 over
the SQ terms (coefficient repr and type, factors) and the Pauli terms
(x and z masks, coefficient repr), each in the order the library returns
them, with the term counts beside it.  A fresh set-up must match it
exactly, so a change that moves one coefficient bit or one term's place
shows.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent
ROOT = GOLDEN_DIR.parents[1]
REL_TOL = 1e-12
PES_MODES = (2, 3, 5)
FINGERPRINT_MODALS = (2, 3)
FINGERPRINTS = GOLDEN_DIR / "hamiltonians.json"

# result file stem -> command line, without --out
COMMANDS = {
    "vqe-uvccsd-3x2": ["vqe", "--pes", "pes-3.json", "--modals", "2"],
    "vqe-chc-2x3": ["vqe", "--pes", "pes-2.json", "--modals", "3",
                    "--ansatz", "chc"],
    "vqe-swaprz-2x2": ["vqe", "--pes", "pes-2.json", "--modals", "2",
                       "--ansatz", "swaprz", "--max-evals", "3000"],
    "vqe-ryrz-2x2": ["vqe", "--pes", "pes-2.json", "--modals", "2",
                     "--ansatz", "ryrz", "--max-evals", "3000"],
    "qeom-chc-2x3": ["qeom", "--pes", "pes-2.json", "--modals", "3",
                     "--ansatz", "chc"],
    "qeom-uvccsd-3x2": ["qeom", "--pes", "pes-3.json", "--modals", "2"],
    "exact-5x2": ["exact", "--pes", "pes-5.json", "--modals", "2"],
    "resources": ["resources", "--modes", "3", "--modals", "2"],
    "noise-fidelity-2x2": ["noise-fidelity", "--modals", "2,2",
                           "--trials", "1"],
}


def pes_name(modes: int) -> str:
    return f"pes-{modes}.json"


def result_name(stem: str) -> str:
    return f"{stem}.json"


@contextlib.contextmanager
def _working_directory(path: Path):
    previous = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(previous)


def run_commands(workdir: Path) -> None:
    """Run every command in ``workdir``, which holds the PES files; each
    writes its result file there.  Raises if a command fails."""
    from vibriq.cli import main

    with _working_directory(workdir):
        for stem, argv in COMMANDS.items():
            if main([*argv, "--out", result_name(stem)]) != 0:
                raise RuntimeError(f"vibriq {' '.join(argv)} failed")


def largest_change(expected, got, where: str = "$") -> float:
    """The largest relative change of a float between two parsed result
    files; raises ``AssertionError`` at the first key, string, integer,
    boolean or shape that differs, or a float beyond ``REL_TOL``."""
    if type(expected) is not type(got):
        raise AssertionError(f"{where}: {expected!r} became {got!r}")
    if isinstance(expected, dict):
        if expected.keys() != got.keys():
            raise AssertionError(f"{where}: keys {sorted(expected)} became "
                                 f"{sorted(got)}")
        return max((largest_change(expected[k], got[k], f"{where}.{k}")
                    for k in expected), default=0.0)
    if isinstance(expected, list):
        if len(expected) != len(got):
            raise AssertionError(f"{where}: length {len(expected)} became "
                                 f"{len(got)}")
        return max((largest_change(a, b, f"{where}[{i}]")
                    for i, (a, b) in enumerate(zip(expected, got))),
                   default=0.0)
    if isinstance(expected, float):
        if expected == got:
            return 0.0
        change = abs(got - expected) / max(abs(expected), abs(got))
        if not change <= REL_TOL:
            raise AssertionError(f"{where}: {expected!r} became {got!r}")
        return change
    if expected != got:
        raise AssertionError(f"{where}: {expected!r} became {got!r}")
    return 0.0


def check(workdir: Path) -> list[str]:
    """Compare the result files in ``workdir`` with the golden ones; returns
    one line per file, then one line naming the byte-identical files.
    Raises ``AssertionError`` on the first file that does not match."""
    lines, identical = [], []
    for stem in COMMANDS:
        golden, fresh = GOLDEN_DIR / result_name(stem), workdir / result_name(stem)
        try:
            change = largest_change(json.loads(golden.read_bytes()),
                                    json.loads(fresh.read_bytes()))
        except AssertionError as exc:
            raise AssertionError(f"{golden.name}: {exc}") from None
        if golden.read_bytes() == fresh.read_bytes():
            identical.append(stem)
            lines.append(f"{stem}: byte-identical")
        else:
            lines.append(f"{stem}: largest relative change {change:.3g}")
    lines.append(f"byte-identical: {len(identical)} of {len(COMMANDS)} files"
                 + "".join(f" {s}" for s in identical))
    return lines


def hamiltonian_fingerprints() -> dict:
    """PES file name -> modals -> the set-up's fingerprint and term
    counts, from the PES files in this directory, through the set-up chain
    of the ``vqe``, ``qeom`` and ``exact`` commands at their default
    primitive dimension."""
    from vibriq.mapping import QubitLayout, build_sq_hamiltonian, map_to_pauli
    from vibriq.pes import load_pes, modal_operator_matrices, solve_modals

    out = {}
    for modes in PES_MODES:
        pes = load_pes(GOLDEN_DIR / pes_name(modes))
        per_modals = out[pes_name(modes)] = {}
        for modals in FINGERPRINT_MODALS:
            layout = QubitLayout((modals,) * pes.num_modes)
            basis = solve_modals(pes, layout.modal_counts)
            terms = build_sq_hamiltonian(
                pes, modal_operator_matrices(basis, pes),
                n_body=max(2, pes.max_coupling_order()))
            x, z, c = map_to_pauli(terms, layout).mask_arrays()
            digest = hashlib.sha256()
            for t in terms:
                digest.update(repr((repr(t.coefficient),
                                    type(t.coefficient).__name__,
                                    t.factors)).encode())
            digest.update(b"|")
            for key in zip(x.tolist(), z.tolist(), map(repr, c.tolist())):
                digest.update(repr(key).encode())
            per_modals[str(modals)] = {"sq_terms": len(terms),
                                       "pauli_terms": len(x),
                                       "sha256": digest.hexdigest()}
    return out


def check_fingerprints() -> list[str]:
    """Compare fresh fingerprints with ``hamiltonians.json``; one line per
    system.  Raises ``AssertionError`` at the first that differs."""
    golden = json.loads(FINGERPRINTS.read_text())
    fresh = hamiltonian_fingerprints()
    if golden.keys() != fresh.keys():
        raise AssertionError(f"{FINGERPRINTS.name}: systems {sorted(golden)} "
                             f"became {sorted(fresh)}")
    lines = []
    for name, per_modals in golden.items():
        for modals, expected in per_modals.items():
            got = fresh[name].get(modals)
            if got != expected:
                raise AssertionError(f"{FINGERPRINTS.name}: {name} at "
                                     f"{modals} modals: {expected} became "
                                     f"{got}")
            lines.append(f"{name} x{modals}: {got['sq_terms']} SQ and "
                         f"{got['pauli_terms']} Pauli terms, identical")
    return lines


def copy_pes_files(workdir: Path) -> None:
    for modes in PES_MODES:
        shutil.copyfile(GOLDEN_DIR / pes_name(modes), workdir / pes_name(modes))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare a fresh run with the golden files")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "bench"))
    if args.check:
        with tempfile.TemporaryDirectory() as tmp:
            copy_pes_files(Path(tmp))
            run_commands(Path(tmp))
            print("\n".join(check(Path(tmp)) + check_fingerprints()))
        return 0
    from pesgen import write_pes

    for modes in PES_MODES:
        write_pes(GOLDEN_DIR / pes_name(modes), modes, 0)
    run_commands(GOLDEN_DIR)
    FINGERPRINTS.write_text(json.dumps(hamiltonian_fingerprints(), indent=2)
                            + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
