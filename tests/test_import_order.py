"""Import-shape gates: every ``repro`` subpackage imports first in a
fresh interpreter, and ``repro.core`` never imports ``repro.analysis``.

``repro.core.gateway`` imports ``repro.fidelity`` at module level (it
holds a ``SpanLane``), and ``repro.fidelity`` imports ``repro.core.config``
and ``repro.core.containment`` back. That holds while neither of those
two, nor a package ``__init__`` on the way, imports the gateway or the
farm. The suite itself cannot see a cycle: ``conftest.py`` has imported
half the tree before any test runs.
"""

from __future__ import annotations

import ast
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

_SUBPACKAGES = sorted(
    f"repro.{module.name}"
    for module in pkgutil.iter_modules(repro.__path__)
    if module.ispkg
)
#: The members of the old cycle, entered from each side.
_CYCLE_MEMBERS = ["repro.core.gateway", "repro.fidelity.ladder", "repro.fidelity.span"]


def test_every_subpackage_is_listed():
    assert {"repro.core", "repro.fidelity", "repro.net", "repro.sim"} <= set(_SUBPACKAGES)


@pytest.mark.parametrize("first", _SUBPACKAGES + _CYCLE_MEMBERS)
def test_imports_first_in_a_fresh_interpreter(first):
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-c", f"import {first}; import repro.core.gateway, repro.fidelity"],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr


def _analysis_imports(source: str) -> list:
    """Line numbers of every import of ``repro.analysis`` in ``source``,
    function-local ones included."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        if any(n == "repro.analysis" or n.startswith("repro.analysis.") for n in names):
            lines.append(node.lineno)
    return lines


def test_core_never_imports_analysis():
    """The layering gate: analysis reads the core's results, the core
    never reaches up. The scanner is checked against each import form
    first, so an empty result means no import, not no detection."""
    for form in (
        "import repro.analysis.trace",
        "from repro.analysis import dedup",
        "from repro import analysis",
        "def f():\n    from repro.analysis.trace import load_trace",
    ):
        assert _analysis_imports(form), form
    assert not _analysis_imports("from repro.core import config  # repro.analysis")
    core = Path(repro.__file__).resolve().parent / "core"
    offenders = sorted(
        f"{path.relative_to(core.parent)}:{line}"
        for path in core.rglob("*.py")
        for line in _analysis_imports(path.read_text())
    )
    assert not offenders, "\n".join(offenders)
