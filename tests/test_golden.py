"""Fresh result files and Hamiltonian fingerprints against the committed
ones in ``tests/golden``."""

from golden.refresh import (COMMANDS, check, check_fingerprints,
                            copy_pes_files, run_commands)


def test_result_files_match_the_golden_set(tmp_path):
    """Every command of the golden set, in-process: keys, strings, integers
    and booleans equal, floats within 1e-12 relative.  The last printed
    line names the files that are also byte-identical (``-s`` shows it)."""
    copy_pes_files(tmp_path)
    run_commands(tmp_path)
    lines = check(tmp_path)
    assert len(lines) == len(COMMANDS) + 1
    print("\n".join(lines))


def test_hamiltonian_fingerprints_match_the_golden_set():
    """Every SQ and Pauli term of the set-up on the golden PES files, bit
    for bit and in order, at 2 and 3 modals per mode."""
    assert len(check_fingerprints()) == 6
