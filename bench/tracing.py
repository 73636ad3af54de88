"""Spans around the public functions of each vibriq module, from outside.

``Tracer.installed()`` swaps every module-level binding of a traced
function for a wrapper that records a span (name, start, end, parent)
plus counts taken from the call's arguments and result, and puts the
originals back on exit.  Nothing in the library is edited.  Spans stay in
memory; ``write_jsonl`` saves them when the run ends.

``layer_metrics`` turns the spans of one repetition into the per-layer
metrics named in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from contextlib import contextmanager

LAYERS = ("pes", "mapping", "pauli", "circuits", "simulator", "vqe", "qeom",
          "exact", "cli")


def _cx(circuit) -> int:
    return sum(1 for g in circuit.gates if g.kind == "cnot")


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


# (defining module, function, span name, counts from (tracer, args, kwargs, result))
TRACED = (
    ("pes", "load_pes", "pes.load_pes", None),
    ("pes", "solve_modals", "pes.solve_modals", None),
    ("pes", "modal_operator_matrices", "pes.modal_operator_matrices", None),
    ("mapping", "build_sq_hamiltonian", "mapping.build_sq_hamiltonian",
     lambda t, a, k, r: {"terms": len(r)}),
    ("mapping", "map_to_pauli", "mapping.map_to_pauli",
     lambda t, a, k, r: {"terms": len(r)}),
    ("mapping", "number_operator", "mapping.number_operator", None),
    ("pauli", "commutator", "pauli.commutator", None),
    ("qeom", "double_commutator", "pauli.double_commutator",
     lambda t, a, k, r: {"terms": len(r)}),
    ("vqe", "build_ansatz", "circuits.build_ansatz",
     lambda t, a, k, r: t.circuit_built(r, _arg(a, k, 1, "config").ansatz)),
    ("circuits", "build_uvcc", "circuits.build_uvcc",
     lambda t, a, k, r: t.circuit_built(r, "uvccsd")),
    ("circuits", "build_chc", "circuits.build_chc",
     lambda t, a, k, r: t.circuit_built(r, "chc")),
    ("simulator", "apply_circuit", "simulator.apply_circuit", None),
    ("simulator", "expectation", "simulator.expectation", None),
    ("simulator", "expectation_value", "simulator.expectation_value", None),
    ("simulator", "sample", "simulator.sample", None),
    ("simulator", "noisy_counts", "simulator.noisy_counts",
     lambda t, a, k, r: {"ansatz": t.circuit_kinds.get(id(a[0]), "other"),
                         "shots": _arg(a, k, 3, "shots"),
                         "qubits": a[0].num_qubits}),
    ("vqe", "ground_state", "vqe.ground_state",
     lambda t, a, k, r: {"evals": r.evals, "accepted": len(r.history)}),
    ("qeom", "excitation_energies", "qeom.excitation_energies",
     lambda t, a, k, r: {"pool_size": r[2].size, "kept": len(r[0])}),
    ("qeom", "build_eom_operators", "qeom.build_operators", None),
    ("qeom", "compute_matrices", "qeom.matrices", None),
    ("qeom", "solve_pseudo_eigenproblem", "qeom.solve", None),
    ("exact", "physical_spectrum", "exact.physical_spectrum",
     lambda t, a, k, r: {"qubits": a[1].num_qubits,
                         "physical_dim": len(r)}),
    ("exact", "dense_matrix", "exact.dense_matrix", None),
)


class Tracer:
    """Collects spans; one repetition's spans share ``rep``."""

    def __init__(self):
        self.spans: list[dict] = []
        self.rep = ""
        self.circuit_kinds: dict[int, str] = {}
        self._stack: list[int] = []
        self._next_id = 0

    def circuit_built(self, circuit, kind: str) -> dict:
        self.circuit_kinds[id(circuit)] = kind
        return {"ansatz": kind, "gates": len(circuit.gates),
                "cx": _cx(circuit)}

    @contextmanager
    def span(self, name: str):
        """Record one span; yields a dict that takes counts."""
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        record = {"rep": self.rep, "id": span_id, "parent": parent,
                  "name": name}
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield record
        finally:
            end = time.perf_counter()
            self._stack.pop()
            record["start"] = start
            record["end"] = end
            self.spans.append(record)

    def _wrap(self, fn, name, counts):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
                if counts is not None:
                    record.update(counts(self, args, kwargs, result))
                return result
        return traced

    @contextmanager
    def installed(self):
        """Trace every binding of the TRACED functions in vibriq modules."""
        modules = {n: m for n, m in sys.modules.items()
                   if n == "vibriq" or n.startswith("vibriq.")}
        swapped = []
        try:
            for module, fname, name, counts in TRACED:
                original = getattr(modules[f"vibriq.{module}"], fname)
                wrapper = self._wrap(original, name, counts)
                for mod in modules.values():
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
                            swapped.append((mod, key, original))
            yield self
        finally:
            for mod, key, original in swapped:
                setattr(mod, key, original)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps(record, sort_keys=True) + "\n")


# -- per-layer metrics ---------------------------------------------------------

def _duration(span) -> float:
    return span["end"] - span["start"]


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the time its child spans cover."""
    out = {s["id"]: _duration(s) for s in spans}
    for s in spans:
        if s["parent"] in out:
            out[s["parent"]] -= _duration(s)
    return out


def layer_metrics(spans: list[dict], root_name: str) -> dict[str, float | None]:
    """Metrics of one repetition; None where the layer was never entered."""
    by_name: dict[str, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
    root = by_name[root_name][0]
    own = self_times(spans)

    def total(name):
        found = by_name.get(name)
        return sum(_duration(s) for s in found) if found else None

    def per_call(name, key=None):
        found = by_name.get(name)
        if not found:
            return None
        return statistics.median(s[key] if key else _duration(s) for s in found)

    m: dict[str, float | None] = {}
    m["pes.solve_modals_s"] = total("pes.solve_modals")
    m["mapping.build_sq_s"] = total("mapping.build_sq_hamiltonian")
    sq = by_name.get("mapping.build_sq_hamiltonian")
    m["mapping.sq_terms"] = sq[-1]["terms"] if sq else None
    top_maps = [s for s in by_name.get("mapping.map_to_pauli", ())
                if s["parent"] == root["id"]]
    m["mapping.map_to_pauli_s"] = (sum(_duration(s) for s in top_maps)
                                   if top_maps else None)
    m["mapping.pauli_terms"] = top_maps[-1]["terms"] if top_maps else None
    m["pauli.double_commutator_s"] = per_call("pauli.double_commutator")
    m["pauli.double_commutator_terms"] = per_call("pauli.double_commutator",
                                                  "terms")

    builds = [s for s in spans if "gates" in s]
    outer = [s for s in builds
             if not any(p["id"] == s["parent"] for p in builds)]
    m["circuits.build_ansatz_s"] = (sum(_duration(s) for s in outer)
                                    if outer else None)
    m["circuits.gates"] = max((s["gates"] for s in outer), default=None)
    m["circuits.cx"] = max((s["cx"] for s in outer), default=None)

    m["simulator.apply_circuit_s"] = per_call("simulator.apply_circuit")
    m["simulator.expectation_s"] = per_call("simulator.expectation")
    noisy = by_name.get("simulator.noisy_counts", [])
    for kind in ("uvccsd", "chc"):
        mine = [s for s in noisy if s["ansatz"] == kind]
        m[f"simulator.noisy_counts_s.{kind}"] = (
            sum(_duration(s) for s in mine) if mine else None)
    m["simulator.sample_s"] = total("simulator.sample")
    m["simulator.noisy_batch_mb"] = max(
        (s["shots"] * (1 << s["qubits"]) * 16 / 1e6 for s in noisy),
        default=None)

    vqe = by_name.get("vqe.ground_state")
    m["vqe.ground_state_s"] = total("vqe.ground_state")
    if vqe:
        evals = sum(s["evals"] for s in vqe)
        m["vqe.evals"] = evals
        m["vqe.eval_s"] = m["vqe.ground_state_s"] / evals
        m["vqe.accepted_ratio"] = sum(s["accepted"] for s in vqe) / evals
    else:
        m["vqe.evals"] = m["vqe.eval_s"] = m["vqe.accepted_ratio"] = None

    m["qeom.build_operators_s"] = total("qeom.build_operators")
    m["qeom.matrices_s"] = total("qeom.matrices")
    m["qeom.solve_s"] = total("qeom.solve")
    eom = by_name.get("qeom.excitation_energies")
    m["qeom.pool_size"] = eom[-1]["pool_size"] if eom else None
    m["qeom.kept_ratio"] = (eom[-1]["kept"] / (2 * eom[-1]["pool_size"])
                            if eom else None)

    m["exact.dense_matrix_s"] = total("exact.dense_matrix")
    m["exact.physical_spectrum_s"] = total("exact.physical_spectrum")
    spec = by_name.get("exact.physical_spectrum")
    if spec:
        n = spec[-1]["qubits"]
        m["exact.physical_fraction"] = spec[-1]["physical_dim"] / (1 << n)
        m["exact.dense_mb"] = (1 << (2 * n)) * 16 / 1e6
    else:
        m["exact.physical_fraction"] = m["exact.dense_mb"] = None

    for layer in LAYERS:
        mine = [own[s["id"]] for s in spans
                if s["name"].split(".")[0] == layer]
        m[f"{layer}.self_s"] = sum(mine) if mine else None
    return m
