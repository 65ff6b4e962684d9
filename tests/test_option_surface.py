"""The option surface equals the experiment matrix.

Every field of the config dataclasses is a configuration the
differential tests, the span lane's validity rule and the interaction
matrix have to keep covering, so each must have a caller that sets it:
a keyword argument to the class, ``dataclasses.replace`` or
``with_overrides`` somewhere under ``src/repro/`` (outside the module
that defines the class), ``benchmarks/`` or ``examples/``. Tests do not
count. A field nobody sets is a constant that has not been written as
one yet; the few kept anyway are listed below with the reason, and that
list may only shrink.
"""

from __future__ import annotations

import ast
import dataclasses
import sys
from pathlib import Path

from repro.core.config import HoneyfarmConfig
from repro.core.intershard import InterShardConfig
from repro.workloads.telescope import TelescopeConfig

ROOT = Path(__file__).resolve().parents[1]
SCANNED = [ROOT / "src" / "repro", ROOT / "benchmarks", ROOT / "examples"]

#: The config roots; a dataclass one of them holds as a field default
#: (``HoneyfarmConfig.deception``) is part of the surface too.
ROOTS = [HoneyfarmConfig, TelescopeConfig, InterShardConfig]

#: ``Class.field`` -> why it stays settable with no caller outside tests.
KEPT_WITHOUT_A_CALLER = {
    "HoneyfarmConfig.dns_server_ip": "deployment address",
    "HoneyfarmConfig.personality_by_prefix":
        "population model, exercised by tests/test_personality_mix.py",
    "HoneyfarmConfig.personality_mix":
        "population model, exercised by tests/test_personality_mix.py",
    "HoneyfarmConfig.default_personality":
        "population model, exercised by tests/test_personality_mix.py",
    "HoneyfarmConfig.outbound_rate_limit":
        "CompositePolicy.decide is a _TIMED row of benchmarks/e2e/layers.py"
        " until the benchmark PR",
    "TelescopeConfig.probes_min": "trace shape, varied by tests",
    "TelescopeConfig.probes_pareto_shape": "trace shape, varied by tests",
    "TelescopeConfig.sequential_sweep_fraction": "trace shape, varied by tests",
    "TelescopeConfig.backscatter_fraction": "trace shape, varied by tests",
}


def _config_classes() -> list:
    classes = list(ROOTS)
    for cls in classes:  # grows while iterating: nested blocks are walked too
        for field in dataclasses.fields(cls):
            default = (
                field.default_factory()
                if field.default_factory is not dataclasses.MISSING
                else field.default
            )
            if dataclasses.is_dataclass(default) and type(default) not in classes:
                classes.append(type(default))
    return classes


def _setters(cls: type) -> set:
    """Field names of ``cls`` some scanned file passes by keyword to the
    class, ``replace`` or ``with_overrides``."""
    home = Path(sys.modules[cls.__module__].__file__).resolve()
    accepted = {cls.__name__, "replace", "with_overrides"}
    names = set()
    for directory in SCANNED:
        for path in directory.rglob("*.py"):
            if path.resolve() == home or "tests" in path.relative_to(ROOT).parts:
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                called = getattr(func, "id", None) or getattr(func, "attr", None)
                if called in accepted:
                    names.update(kw.arg for kw in node.keywords if kw.arg)
    return names


def test_every_config_field_has_a_caller_or_a_reason():
    uncalled = set()
    for cls in _config_classes():
        declared = {field.name for field in dataclasses.fields(cls)}
        uncalled.update(f"{cls.__name__}.{name}" for name in declared - _setters(cls))
    unexplained = sorted(uncalled - set(KEPT_WITHOUT_A_CALLER))
    assert not unexplained, (
        "set by no caller outside tests (make it a constant, or delete it):\n"
        + "\n".join(unexplained)
    )
    stale = sorted(set(KEPT_WITHOUT_A_CALLER) - uncalled)
    assert not stale, (
        "has a caller now, or is gone (drop it from KEPT_WITHOUT_A_CALLER):\n"
        + "\n".join(stale)
    )
