"""Every name the demos, the README quick start and the benchmark's tracer
use from vibriq exists, and the cheap demos run.

The scripts are parsed first, so a deleted or renamed public name fails
here in milliseconds instead of when someone next runs a demo; a name
that is only looked up at run time fails in the demo runs.
"""

import ast
import importlib
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _sources():
    """(origin, Python source) of each demo and README ```python block."""
    for path in sorted((ROOT / "demos").glob("*.py")):
        yield path.name, path.read_text(encoding="utf-8")
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    for k, block in enumerate(re.findall(r"```python\n(.*?)```", readme,
                                         re.DOTALL)):
        yield f"README.md block {k}", block


def _vibriq_imports(source):
    """(module, name) per ``from vibriq... import name``, and (module, None)
    per ``import vibriq...``."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 0 \
                and node.module.split(".")[0] == "vibriq":
            for alias in node.names:
                yield node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "vibriq":
                    yield alias.name, None


def test_demo_and_readme_imports_exist():
    sources = list(_sources())
    assert len(sources) >= 6  # five demos and the quick start
    checked, missing = 0, []
    for origin, source in sources:
        for module, name in _vibriq_imports(source):
            checked += 1
            try:
                found = importlib.import_module(module)
            except ImportError:
                missing.append(f"{origin}: module {module}")
                continue
            if name is not None and not hasattr(found, name):
                missing.append(f"{origin}: {module}.{name}")
    assert checked > 0
    assert not missing, missing


@pytest.mark.parametrize("demo", ["01_hamiltonian_construction",
                                  "02_resource_estimation",
                                  "04_excited_states_qeom"])
def test_cheap_demo_runs_cleanly(tmp_path, demo):
    """The demo exits 0 with nothing on stderr, in a fresh interpreter.
    Demo 04 runs a chc VQE on the parity route, so it applies a compiled
    Hamiltonian.  Demos 03 and 05 take 5-6 s each and are left out to keep
    the suite's time down."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / f"{demo}.py")],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True)
    assert (done.returncode, done.stderr) == (0, "")


BENCH = ROOT / "bench"


def _load_bench_module(name):
    spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_hooks_resolve_and_the_probe_fills_every_layer(
        tmp_path, monkeypatch):
    """The benchmark's tracer finds each traced function by its module and
    name, and its probe pipeline reaches every layer.

    Either failure makes ``bench/run.py --trace 1`` exit 1, as a rename of a
    traced function once did.  The guard follows ``bench/tracing.py`` as it
    is; the benchmark refresh (ROADMAP item 1), which may rename or drop a
    traced name or a metric, is what relaxes it.
    """
    # bench/run.py imports tracing, and its probe pesgen, from bench/
    monkeypatch.syspath_prepend(str(BENCH))
    for name in ("tracing", "pesgen"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    tracing = _load_bench_module("tracing")
    monkeypatch.setitem(sys.modules, "tracing", tracing)
    missing = [f"vibriq.{module}.{fname}"
               for module, fname, _, _ in tracing.TRACED
               if not hasattr(importlib.import_module(f"vibriq.{module}"),
                              fname)]
    assert not missing, missing

    run = _load_bench_module("run")
    tracer = tracing.Tracer()
    with tracer.installed(), tracer.span("probe.pipeline"):
        run._probe_pipeline(tmp_path, 0)
    metrics = tracing.layer_metrics(tracer.spans, "probe.pipeline")
    empty = [name for name, value in metrics.items()
             if value is None and name != "cli.self_s"]
    assert not empty, empty


@pytest.mark.parametrize(
    "workload",
    [w["name"] for w in json.loads(
        (ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]])
def test_each_benchmark_command_runs_once_traced(workload, tmp_path,
                                                 monkeypatch):
    """``bench/run.py --trace 1`` on each workload, cut to one traced
    invocation: the counts the tracer takes from a command's own calls
    (such as a traced function's result) must work, and every metric must
    print.  Inputs, results and spans go to ``tmp_path``."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    modules = {}
    # in import order, each registered before it runs, as its dataclasses
    # need; the registrations are undone after the test
    for name in ("tracing", "pesgen", "oracles", "workloads", "run"):
        spec = importlib.util.spec_from_file_location(name,
                                                      BENCH / f"{name}.py")
        modules[name] = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, name, modules[name])
        spec.loader.exec_module(modules[name])
    run, workloads = modules["run"], modules["workloads"]
    from vibriq import cli

    spec = workloads.WORKLOADS[workload]
    runner = run.Runner(cli.main, spec, spec.prepare(tmp_path, 0))
    values, _ = run._traced(runner, 0, tmp_path, 0)
    assert runner.failed == 0 and runner.correct
    for name, _ in run.PER_LAYER:
        format(values[name], "14.6g")
