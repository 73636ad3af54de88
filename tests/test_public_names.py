"""Every name the demos and the README quick start import from vibriq exists.

The scripts are parsed, not run, so a deleted or renamed public name
fails here in milliseconds instead of when someone next runs a demo.
"""

import ast
import importlib
import re
from pathlib import Path

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
