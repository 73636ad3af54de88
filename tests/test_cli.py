import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from vibriq import cli
from vibriq.cli import main
from conftest import bench_pesgen
from helpers import save_pes


@pytest.fixture()
def harmonic_pes_file(tmp_path, harmonic_pes):
    path = tmp_path / "harmonic.json"
    save_pes(harmonic_pes, path)
    return str(path)


@pytest.fixture()
def coupled_pes_file(tmp_path, coupled_pes):
    path = tmp_path / "coupled.json"
    save_pes(coupled_pes, path)
    return str(path)


def run(argv):
    return main(argv)


def test_cli_import_does_not_load_the_optimizer(tmp_path, coupled_pes_file):
    """No command loads scipy.optimize: the VQE's simplex is in-library.
    scipy.linalg is loaded for the qEOM pencil's solve only, so ``vqe``
    and ``exact`` run without it, and scipy.sparse only when a Pauli sum
    is compiled, so ``import vibriq``, ``resources`` and
    ``noise-fidelity`` load no scipy module at all.  Each command runs end
    to end in a fresh interpreter, on a (2,2) PES where it reads one."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = ("import sys, importlib\n"
             "module = importlib.import_module(sys.argv[1])\n"
             "if sys.argv[2:]:\n"
             "    assert module.main(sys.argv[2:]) == 0\n"
             "print(' '.join(m for m in sys.modules "
             "if m.startswith('scipy')))")
    out = ["--out", str(tmp_path / "out.json")]
    common = ["--pes", coupled_pes_file, "--modals", "2", *out]
    runs = {"import vibriq": ["vibriq"],
            "import vibriq.cli": ["vibriq.cli"],
            "resources": ["vibriq.cli", "resources", "--modes", "2", *out],
            "noise-fidelity": ["vibriq.cli", "noise-fidelity", "--trials",
                               "1", "--shots", "100", *out]}
    for command in ("vqe", "qeom", "exact"):
        runs[command] = ["vibriq.cli", command, *common]
    loaded = {}
    for name, argv in runs.items():
        done = subprocess.run([sys.executable, "-c", probe, *argv], env=env,
                              check=True, capture_output=True, text=True)
        loaded[name] = done.stdout.split()

    def under(package, modules):
        return [m for m in modules
                if m == package or m.startswith(package + ".")]

    for name, modules in loaded.items():
        assert under("scipy.optimize", modules) == [], name
        if name != "qeom":
            assert under("scipy.linalg", modules) == [], name
        if name not in ("vqe", "qeom", "exact"):
            assert modules == [], name
    assert "scipy.linalg" in loaded["qeom"]


def test_resources_golden_row(tmp_path):
    out = tmp_path / "res.json"
    assert run(["resources", "--modes", "4", "--modals", "10",
                "--ansatz", "uvccsd", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["result"] == {"cx": 23472, "params": 522, "qubits": 40}
    assert data["config"]["ansatz"] == "uvccsd"


def test_resources_csv(tmp_path):
    out = tmp_path / "res.csv"
    assert run(["resources", "--modes", "2", "--modals", "2",
                "--ansatz", "swaprz", "--depth", "3", "--format", "csv",
                "--out", str(out)]) == 0
    assert out.read_text().splitlines() == ["cx,params,qubits", "72,34,4"]


def test_resources_per_mode_modal_list(tmp_path):
    out = tmp_path / "res.json"
    assert run(["resources", "--modals", "2,4", "--ansatz", "chc",
                "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    # S = 1 + 3 = 4, D = 3: CHC CNOTs = 2*4 + 6*3 = 26
    assert data["result"] == {"cx": 26, "params": 7, "qubits": 6}


def test_exact_subcommand(tmp_path, harmonic_pes_file):
    out = tmp_path / "exact.json"
    assert run(["exact", "--pes", harmonic_pes_file, "--modals", "2",
                "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    np.testing.assert_allclose(data["result"]["eigenvalues"],
                               [1250.0, 2250.0, 2750.0, 3750.0], atol=1e-8)
    assert data["result"]["subspace_dimension"] == 4


def test_vqe_subcommand(tmp_path, coupled_pes_file):
    out = tmp_path / "vqe.json"
    assert run(["vqe", "--pes", coupled_pes_file, "--modals", "2",
                "--ansatz", "uvccsd", "--seed", "2", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    result = data["result"]
    assert result["energy"] == pytest.approx(200.9738210400657, abs=1e-6)
    assert result["occupations"] == pytest.approx([1.0, 1.0], abs=1e-9)
    assert result["mu"] == 0.0
    assert result["history"][-1] == result["energy"]
    assert result["route"] == "physical"


def test_vqe_refuses_negative_penalty_weight(tmp_path, coupled_pes_file,
                                            capsys):
    for ansatz in ("uvccsd", "ryrz"):
        assert run(["vqe", "--pes", coupled_pes_file, "--modals", "2",
                    "--ansatz", ansatz, "--mu", "-1",
                    "--out", str(tmp_path / "vqe.json")]) == 1
        err = capsys.readouterr().err
        assert "error in vqe optimization" in err
        assert "penalty weight must be nonnegative" in err
    assert not (tmp_path / "vqe.json").exists()


def test_vqe_reports_exhausted_budget(tmp_path, coupled_pes_file):
    out = tmp_path / "vqe.json"
    assert run(["vqe", "--pes", coupled_pes_file, "--modals", "2",
                "--max-evals", "40", "--out", str(out)]) == 0
    result = json.loads(out.read_text())["result"]
    assert result["evals"] == 40
    assert result["stop_reason"] == "max_evals"
    assert result["converged"] is False


def test_pes_constant_shifts_energies_not_gaps(tmp_path, coupled_pes):
    results = {}
    for v0 in (0.0, 500.0):
        pes_path = tmp_path / f"pes{v0:g}.json"
        save_pes(replace(coupled_pes, v0=v0), pes_path)
        for command in ("exact", "vqe", "qeom"):
            out = tmp_path / f"{command}{v0:g}.json"
            argv = [command, "--pes", str(pes_path), "--modals", "2",
                    "--out", str(out)]
            if command != "exact":
                argv += ["--seed", "2"]
            assert run(argv) == 0
            results[command, v0] = json.loads(out.read_text())["result"]
    np.testing.assert_allclose(
        np.subtract(results["exact", 500.0]["eigenvalues"],
                    results["exact", 0.0]["eigenvalues"]), 500.0, atol=1e-9)
    assert results["vqe", 500.0]["energy"] - results["vqe", 0.0]["energy"] \
        == pytest.approx(500.0, abs=1e-6)
    assert results["qeom", 500.0]["vqe"]["stop_reason"] == "tolerance"
    np.testing.assert_allclose(results["qeom", 500.0]["energies"],
                               results["qeom", 0.0]["energies"], atol=1e-6)


def test_qeom_subcommand(tmp_path, coupled_pes_file):
    out = tmp_path / "qeom.json"
    argv = ["qeom", "--pes", coupled_pes_file, "--modals", "2",
            "--ansatz", "uvccsd", "--seed", "2", "--out", str(out)]
    assert run(argv) == 0
    first = out.read_bytes()
    data = json.loads(first)
    result = data["result"]
    np.testing.assert_allclose(
        result["energies"],
        [163.8299079212743, 240.3839686158763, 404.21424818421826], atol=1e-4)
    assert result["pool_size"] == 3
    assert result["filtered_count"] == 3
    assert result["occupations"] == pytest.approx([1.0, 1.0], abs=1e-9)
    diagnostics = result["diagnostics"]
    assert set(diagnostics) == {"metric_condition", "complex_eigenvalues",
                                "max_imag"}
    assert 1.0 <= diagnostics["metric_condition"] < 1.01
    assert diagnostics["complex_eigenvalues"] == 0
    assert run(argv) == 0
    assert out.read_bytes() == first


def test_qeom_solves_its_pencil_once(tmp_path, coupled_pes_file,
                                    monkeypatch):
    """The energies and the diagnostics share one solve of the pencil, and
    the result file is the one that solving it twice writes."""
    from scipy import linalg

    from vibriq import cli, qeom

    argv = ["qeom", "--pes", coupled_pes_file, "--modals", "2",
            "--ansatz", "chc", "--out", str(tmp_path / "qeom.json")]
    calls = []
    eigvals = linalg.eigvals

    def counted(*args, **kwargs):
        calls.append(args)
        return eigvals(*args, **kwargs)

    monkeypatch.setattr(linalg, "eigvals", counted)
    assert run(argv) == 0
    assert len(calls) == 1
    once = (tmp_path / "qeom.json").read_bytes()
    monkeypatch.setattr(cli, "eom_diagnostics",
                        lambda matrices: qeom._solve_pencil(matrices)[1])
    assert run(argv) == 0
    assert len(calls) == 3
    assert (tmp_path / "qeom.json").read_bytes() == once


def test_qeom_occupations_match_vqe(tmp_path, coupled_pes_file):
    # Both commands run the same optimization and read <N_l> one way, so
    # the chc ground state's occupations agree to the last bit.
    results = {}
    for command in ("vqe", "qeom"):
        out = tmp_path / f"{command}.json"
        assert run([command, "--pes", coupled_pes_file, "--modals", "3",
                    "--ansatz", "chc", "--out", str(out)]) == 0
        results[command] = json.loads(out.read_text())["result"]
    occupations = results["qeom"]["occupations"]
    assert len(occupations) == 2
    assert occupations == results["vqe"]["occupations"]
    assert occupations == pytest.approx([1.0, 1.0], abs=1e-6)
    assert results["vqe"]["route"] == results["qeom"]["vqe"]["route"] \
        == "parity"


def test_one_modal_per_mode_gives_the_exact_eigenvalue(tmp_path,
                                                       coupled_pes_file):
    """D = 1: the ansatz has no parameters and the qEOM pool is empty."""
    common = ["--pes", coupled_pes_file, "--modals", "1"]
    assert run(["exact", *common, "--out", str(tmp_path / "exact.json")]) == 0
    (reference,) = json.loads(
        (tmp_path / "exact.json").read_text())["result"]["eigenvalues"]
    for command in ("vqe", "qeom"):
        for ansatz in ("uvccsd", "chc"):
            out = tmp_path / f"{command}-{ansatz}.json"
            assert run([command, *common, "--ansatz", ansatz,
                        "--out", str(out)]) == 0
            result = json.loads(out.read_text())["result"]
            if command == "qeom":
                assert result["energies"] == []
                assert result["pool_size"] == 0
                result = result["vqe"]
            assert result["energy"] == pytest.approx(reference, rel=1e-12)
            assert result["params"] == []
            assert result["stop_reason"] == "tolerance"


def test_qeom_refuses_negative_threshold(tmp_path, coupled_pes_file, capsys,
                                         monkeypatch):
    """The parser refuses the threshold, before any VQE has run."""
    def ground_state(*args, **kwargs):
        raise AssertionError("VQE ran before the threshold was checked")

    monkeypatch.setattr(cli, "ground_state", ground_state)
    out = tmp_path / "qeom.json"
    for threshold in ("-1e9", "-1", "nan"):
        with pytest.raises(SystemExit) as info:
            run(["qeom", "--pes", coupled_pes_file, "--modals", "2",
                 f"--threshold={threshold}", "--out", str(out)])
        assert info.value.code == 2
        assert "threshold must be nonnegative" in capsys.readouterr().err
    assert not out.exists()


def test_depth_and_trotter_steps_below_one_refused(tmp_path, coupled_pes_file,
                                                   capsys, monkeypatch):
    """Every ansatz refuses them, also the ones that ignore them, before
    the Hamiltonian is built."""
    def solve_modals(*args, **kwargs):
        raise AssertionError("modals solved before the ansatz was checked")

    monkeypatch.setattr(cli, "solve_modals", solve_modals)
    out = str(tmp_path / "out.json")
    cases = [("vqe optimization", ["vqe", "--pes", coupled_pes_file]),
             ("resource estimation", ["resources", "--modes", "2"])]
    for stage, argv in cases:
        for ansatz, option, message in (
                ("chc", "--trotter-steps", "trotter_steps must be >= 1"),
                ("uvccsd", "--depth", "depth must be >= 1")):
            assert run([*argv, "--modals", "2", "--ansatz", ansatz,
                        option, "0", "--out", out]) == 1
            err = capsys.readouterr().err.strip()
            assert err == f"error in {stage}: {message}"
    assert not (tmp_path / "out.json").exists()


def test_noise_fidelity_subcommand(tmp_path):
    out = tmp_path / "nf.json"
    assert run(["noise-fidelity", "--modals", "2,2", "--trials", "2",
                "--shots", "400", "--seed", "21", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    fid = data["result"]["fidelity"]
    assert set(fid) == {"uvccsd", "chc"}
    assert len(fid["chc"]["values"]) == 2
    assert data["result"]["noise"] == {"p_u2": 7e-4, "p_u3": 1.4e-3,
                                       "p_cx": 2.2e-2}


@pytest.mark.parametrize("argv", [
    ["resources", "--modes", "2", "--modals", "2"],
    ["noise-fidelity", "--modals", "2,2", "--trials", "2", "--shots", "300"],
])
def test_identical_seeds_reproduce_byte_identical_files(tmp_path, argv):
    out = tmp_path / "report.json"
    assert run(argv + ["--out", str(out)]) == 0
    first = out.read_bytes()
    assert run(argv + ["--out", str(out)]) == 0
    assert out.read_bytes() == first


def test_vqe_reruns_byte_identical(tmp_path, coupled_pes_file):
    out = tmp_path / "vqe.json"
    outs = []
    for _ in range(2):
        assert run(["vqe", "--pes", coupled_pes_file, "--modals", "2",
                    "--seed", "7", "--max-evals", "400",
                    "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_missing_pes_file_exits_one(tmp_path, capsys):
    assert run(["exact", "--pes", str(tmp_path / "nope.json"),
                "--modals", "2"]) == 1
    err = capsys.readouterr().err
    assert "error in exact diagonalization" in err


def test_noise_fidelity_refuses_oversized_register(capsys):
    assert run(["noise-fidelity", "--modals", "7,6", "--trials", "1",
                "--shots", "10"]) == 1
    err = capsys.readouterr().err
    assert "error in noise experiment" in err
    assert "13 qubits" in err


def test_bad_arguments_exit_two():
    with pytest.raises(SystemExit) as info:
        run(["vqe", "--modals", "2"])  # --pes required
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        run(["resources", "--ansatz", "fancy"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        run(["resources", "--modes", "2", "--modals", "two"])
    assert info.value.code == 2


def test_resources_takes_no_pes_options(tmp_path, harmonic_pes_file):
    # resources counts gates from the layout alone; a PES would be ignored
    for extra in (["--pes", harmonic_pes_file, "--modals", "2"],
                  ["--pes", str(tmp_path / "missing.json"), "--modes", "3"],
                  ["--modes", "2", "--primitive-dim", "30"]):
        with pytest.raises(SystemExit) as info:
            run(["resources", *extra])
        assert info.value.code == 2


def test_single_modal_count_needs_modes(capsys):
    # neither command reads a PES, so only --modes can expand a single count
    for argv in (["resources", "--modals", "2"],
                 ["noise-fidelity", "--modals", "2"]):
        assert run(argv) == 1
        err = capsys.readouterr().err.strip()
        assert err.endswith("a single modal count needs --modes")


def test_modal_list_mismatch_is_runtime_error(harmonic_pes_file, capsys):
    assert run(["exact", "--pes", harmonic_pes_file,
                "--modals", "2,2,2"]) == 1
    assert "modal counts" in capsys.readouterr().err


def test_vqe_uvccsd_runs_on_twenty_qubits(tmp_path):
    """(4,)*5 is 20 qubits, beyond the full-space Hamiltonian's limit;
    uvccsd runs on its 1 024 physical states."""
    pes_path = tmp_path / "pes.json"
    bench_pesgen().write_pes(pes_path, 5, 0)
    out = tmp_path / "vqe.json"
    assert run(["vqe", "--pes", str(pes_path), "--modals", "4",
                "--max-evals", "50", "--out", str(out)]) == 0
    result = json.loads(out.read_text())["result"]
    assert result["route"] == "physical"
    assert result["evals"] == 50
    assert len(result["occupations"]) == 5
    assert all(abs(n - 1.0) <= 1e-12 for n in result["occupations"])


def test_vqe_uvccsd_runs_on_twenty_five_qubits(tmp_path, harmonic_pes_file):
    """(13,12) is 25 qubits and 156 physical states: the run, its
    occupations included, never builds a 2^25-amplitude array."""
    out = tmp_path / "vqe.json"
    tracemalloc.start()
    try:
        assert run(["vqe", "--pes", harmonic_pes_file, "--modals", "13,12",
                    "--max-evals", "5", "--out", str(out)]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 26
    result = json.loads(out.read_text())["result"]
    assert result["route"] == "physical"
    assert result["evals"] == 5
    assert len(result["occupations"]) == 2
    assert all(abs(n - 1.0) <= 1e-12 for n in result["occupations"])
