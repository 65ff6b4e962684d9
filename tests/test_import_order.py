"""Every ``repro`` subpackage imports first in a fresh interpreter.

``repro.core.gateway`` imports ``repro.fidelity`` at module level (it
holds a ``SpanLane``), and ``repro.fidelity`` imports ``repro.core.config``
and ``repro.core.containment`` back. That holds while neither of those
two, nor a package ``__init__`` on the way, imports the gateway or the
farm. The suite itself cannot see a cycle: ``conftest.py`` has imported
half the tree before any test runs.
"""

from __future__ import annotations

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
