"""Benchmark of the vibriq commands, end to end and layer by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
``src`` directory.  One workload runs in this single process, with BLAS
and the noise-trial pool held to one thread.  Each command runs in-process
through ``vibriq.cli.main`` on inputs made from the seed, and every result
is checked against the oracles in ``oracles.py``.

--trace 0 times the untraced command: ``wall_s`` is the median of the
invocations made within S seconds after one warm-up, ``setup_s`` the
median of group means of repeated set-ups, ``peak_rss_mb`` the process's
peak resident set.  --trace 1 alternates untraced and traced invocations, then runs a
traced probe pipeline on a seeded (2,2) system for the layers the command
never enters; it prints the per-layer metrics and writes every span to
``bench/out/<run>/spans.jsonl``.  The last line of stdout is the result
object; the per-layer table goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "VIBRIQ_THREADS")
SETUP_BURST_SECONDS = 0.6
SETUP_MIN_REPS = 3
SETUP_GROUPS = 5
PROBE_MODALS = (2, 2)
MAX_FAILURES = 3

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
PER_LAYER = (
    ("pes.solve_modals_s", "s"),
    ("mapping.build_sq_s", "s"), ("mapping.sq_terms", "count"),
    ("mapping.map_to_pauli_s", "s"), ("mapping.pauli_terms", "count"),
    ("pauli.double_commutator_s", "s"),
    ("pauli.double_commutator_terms", "count"),
    ("circuits.build_ansatz_s", "s"), ("circuits.gates", "count"),
    ("circuits.cx", "count"),
    ("simulator.apply_circuit_s", "s"), ("simulator.expectation_s", "s"),
    ("simulator.noisy_counts_s.uvccsd", "s"),
    ("simulator.noisy_counts_s.chc", "s"), ("simulator.sample_s", "s"),
    ("simulator.noisy_batch_mb", "MB"),
    ("vqe.ground_state_s", "s"), ("vqe.evals", "count"), ("vqe.eval_s", "s"),
    ("vqe.accepted_ratio", "ratio"),
    ("qeom.build_operators_s", "s"), ("qeom.matrices_s", "s"),
    ("qeom.solve_s", "s"), ("qeom.pool_size", "count"),
    ("qeom.kept_ratio", "ratio"),
    ("exact.dense_matrix_s", "s"), ("exact.physical_spectrum_s", "s"),
    ("exact.physical_fraction", "ratio"), ("exact.dense_mb", "MB"),
    ("pes.self_s", "s"), ("mapping.self_s", "s"), ("pauli.self_s", "s"),
    ("circuits.self_s", "s"), ("simulator.self_s", "s"), ("vqe.self_s", "s"),
    ("qeom.self_s", "s"), ("exact.self_s", "s"), ("cli.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


class Runner:
    """Invokes one command line and keeps the operation tally."""

    def __init__(self, cli_main, workload, inputs):
        self._main = cli_main
        self._workload = workload
        self._inputs = inputs
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def _call(self):
        try:
            return self._main(self._inputs.argv)
        except SystemExit as exc:  # argparse rejects its arguments this way
            return exc.code

    def invoke(self, tracer=None) -> float | None:
        """Run and check the command once; its seconds, or None on failure.

        With a tracer, the call runs with the tracer installed, inside a
        root span named ``cli.main``.
        """
        out = self._inputs.out_path
        out.unlink(missing_ok=True)
        self.attempted += 1
        if tracer is None:
            start = time.perf_counter()
            code = self._call()
            seconds = time.perf_counter() - start
        else:
            with tracer.installed():
                with tracer.span("cli.main") as root:
                    code = self._call()
            seconds = root["end"] - root["start"]
        if code != 0:
            print(f"command exited with {code}", file=sys.stderr)
            self.failed += 1
            return None
        try:
            with open(out, encoding="utf-8") as fh:
                problems = self._workload.check(json.load(fh), self._inputs)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problems = [f"no readable result: {exc!r}"]
        if problems:
            for p in problems:
                print(f"check failed: {p}", file=sys.stderr)
            self.failed += 1
            self.correct = False
            return None
        return seconds

    def give_up(self) -> bool:
        return self.failed >= MAX_FAILURES


def _limit_threads() -> None:
    for name in THREAD_VARIABLES:
        os.environ[name] = "1"


def _import_program():
    """vibriq.cli from this checkout's src, or None."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import vibriq.cli
    except ImportError as exc:
        print(f"cannot import vibriq from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return None
    if not Path(vibriq.cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"vibriq was imported from {vibriq.cli.__file__}, not from "
              f"this checkout", file=sys.stderr)
        return None
    return vibriq.cli


def _setup_burst(workload, inputs, times: list[float]) -> None:
    """Time the set-up for SETUP_BURST_SECONDS (at least SETUP_MIN_REPS)."""
    began = time.perf_counter()
    reps = 0
    while reps < SETUP_MIN_REPS or \
            time.perf_counter() - began < SETUP_BURST_SECONDS:
        start = time.perf_counter()
        workload.setup(inputs)
        times.append(time.perf_counter() - start)
        reps += 1


def _untraced(runner, workload, inputs, seconds) -> dict:
    """Set-up bursts go before and after the warm-up and after every
    invocation, so that the set-up median samples the same stretch of
    time as wall_s; the box drifts over seconds."""
    setups: list[float] = []
    _setup_burst(workload, inputs, setups)
    runner.invoke()  # warm-up
    _setup_burst(workload, inputs, setups)
    walls = []
    began = time.perf_counter()
    while (time.perf_counter() - began < seconds or not walls) \
            and not runner.give_up():
        wall = runner.invoke()
        _setup_burst(workload, inputs, setups)
        if wall is not None:
            walls.append(wall)
    if not walls:
        raise RuntimeError("no invocation succeeded")
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"wall_s": statistics.median(walls),
            "setup_s": _median_of_means(setups), "peak_rss_mb": peak_mb}


def _median_of_means(times: list[float]) -> float:
    """Median of the group means, sample i going to group i % SETUP_GROUPS.

    The box switches for seconds at a time between a fast and a slow
    state, longer than a burst, so single set-up times are bimodal and
    their median jumps when the share of slow bursts crosses a half.
    Every group holds samples from every burst, so each group mean, and
    their median, follows that share smoothly.
    """
    groups = [times[i::SETUP_GROUPS] for i in range(SETUP_GROUPS)]
    return statistics.median(statistics.fmean(g) for g in groups)


def _probe_pipeline(workdir: Path, seed: int) -> None:
    """Every layer once on a (2,2) system, through the module attributes."""
    from pesgen import write_pes
    from vibriq import exact, mapping, pes as pes_mod, qeom, simulator, vqe

    path = workdir / "probe_pes.json"
    write_pes(path, len(PROBE_MODALS), seed)
    pes = pes_mod.load_pes(path)
    layout = mapping.QubitLayout(PROBE_MODALS)
    basis = pes_mod.solve_modals(pes, layout.modal_counts)
    terms = mapping.build_sq_hamiltonian(
        pes, pes_mod.modal_operator_matrices(basis, pes))
    hamiltonian = mapping.map_to_pauli(terms, layout)
    config = vqe.VqeConfig(ansatz="uvccsd", seed=seed)
    result = vqe.ground_state(hamiltonian, layout, config)
    state = simulator.apply_circuit(vqe.build_ansatz(layout, config),
                                    result.params)
    simulator.expectation(state, hamiltonian)
    qeom.excitation_energies(state, hamiltonian, layout)
    exact.physical_spectrum(hamiltonian, layout)
    simulator.run_fidelity_experiment(PROBE_MODALS, trials=1, shots=10000,
                                      seed=seed)


def _traced(runner, seconds, workdir, seed):
    runner.invoke()  # warm-up
    tracer = tracing.Tracer()
    untraced, traced, per_rep = [], [], []
    began = time.perf_counter()
    while (time.perf_counter() - began < seconds or not per_rep) \
            and not runner.give_up():
        tracer.rep = f"command-{runner.attempted}"
        tracer.circuit_kinds.clear()
        wall = runner.invoke()
        traced_wall = runner.invoke(tracer)
        if wall is None or traced_wall is None:
            continue
        untraced.append(wall)
        traced.append(traced_wall)
        rep_spans = [s for s in tracer.spans if s["rep"] == tracer.rep]
        per_rep.append(tracing.layer_metrics(rep_spans, "cli.main"))
    if not per_rep:
        raise RuntimeError("no invocation succeeded")
    tracer.rep = "probe"
    tracer.circuit_kinds.clear()
    with tracer.installed(), tracer.span("probe.pipeline"):
        _probe_pipeline(workdir, seed)
    probe = tracing.layer_metrics(
        [s for s in tracer.spans if s["rep"] == "probe"], "probe.pipeline")
    tracer.write_jsonl(workdir / "spans.jsonl")

    values, sources = {}, {}
    for name in probe:  # every PER_LAYER name but trace.overhead_ratio
        measured = [m[name] for m in per_rep if m[name] is not None]
        if measured:
            values[name], sources[name] = statistics.median(measured), "command"
        else:
            values[name], sources[name] = probe[name], "probe"
    values["trace.overhead_ratio"] = (statistics.median(traced)
                                      / statistics.median(untraced))
    sources["trace.overhead_ratio"] = "command"
    return values, sources


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _limit_threads()
    cli = _import_program()
    if cli is None:
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    workdir = OUT_DIR / (f"{args.workload}-seed{args.seed}-trace{args.trace}"
                         f"-{os.getpid()}")
    workdir.mkdir(parents=True, exist_ok=True)
    inputs = workload.prepare(workdir, args.seed)
    runner = Runner(cli.main, workload, inputs)

    try:
        if args.trace:
            values, sources = _traced(runner, args.seconds, workdir, args.seed)
            spec = PER_LAYER
        else:
            values = _untraced(runner, workload, inputs, args.seconds)
            spec = END_TO_END
    except RuntimeError as exc:
        print(f"{args.workload}: {exc}", file=sys.stderr)
        return 1
    if args.trace:
        for name, unit in spec:
            print(f"{name:34s} {values[name]:14.6g} {unit:6s} {sources[name]}",
                  file=sys.stderr)
    result = {"correct": runner.correct, "attempted": runner.attempted,
              "failed": runner.failed,
              "metrics": {name: {"value": values[name], "unit": unit}
                          for name, unit in spec}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
