"""Fresh result files against the committed ones in ``tests/golden``."""

from golden.refresh import COMMANDS, check, copy_pes_files, run_commands


def test_result_files_match_the_golden_set(tmp_path):
    """Every command of the golden set, in-process: keys, strings, integers
    and booleans equal, floats within 1e-12 relative.  The last printed
    line names the files that are also byte-identical (``-s`` shows it)."""
    copy_pes_files(tmp_path)
    run_commands(tmp_path)
    lines = check(tmp_path)
    assert len(lines) == len(COMMANDS) + 1
    print("\n".join(lines))
