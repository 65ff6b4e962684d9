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

The simulation kernel (``src/repro/sim/``) is held to the same rule:
each public name it defines has a reader there, and each defaulted
parameter a caller that passes it.
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


#: ``Class.name`` / ``Class.method(param)`` of the kernel -> why it stays
#: with no caller outside tests. May only shrink.
KERNEL_KEPT = {
    "RandomStream.bounded_pareto":
        "the reference the telescope's inlined session-size draw is tested"
        " against (tests/test_workloads_telescope.py)",
    "Simulator.cancelled_pending":
        "how the guest-loop and compaction tests see a cancellation that is"
        " still in the heap",
}

KERNEL = ROOT / "src" / "repro" / "sim"


def _defaulted(func: ast.FunctionDef, bound: int) -> list:
    """``(position, name)`` of each defaulted parameter of ``func``,
    positions counted after the ``bound`` leading ones a call does not
    write (``self`` or ``cls``); None for keyword-only ones."""
    args = func.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    found = [
        (i - bound, arg.arg) for i, arg in enumerate(positional) if i >= first
    ]
    found += [
        (None, arg.arg)
        for arg, default in zip(args.kwonlyargs, args.kw_defaults)
        if default is not None
    ]
    return found


def _kernel_surface() -> list:
    """``(label, the name a caller writes, defaulted parameters)`` for
    every public function, class and method of the kernel; a class's
    ``__init__`` parameters go under the class name."""
    surface = []
    for path in sorted(KERNEL.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                surface.append((node.name, node.name, _defaulted(node, 0)))
            if not isinstance(node, ast.ClassDef) or node.name.startswith("_"):
                continue
            surface.append((node.name, node.name, []))
            for item in node.body:
                if not isinstance(item, ast.FunctionDef):
                    continue
                decorators = {getattr(d, "id", None) for d in item.decorator_list}
                bound = 0 if "staticmethod" in decorators else 1
                if item.name == "__init__":
                    surface.append((node.name, node.name, _defaulted(item, bound)))
                elif not item.name.startswith("_"):
                    surface.append(
                        (f"{node.name}.{item.name}", item.name, _defaulted(item, bound))
                    )
    return surface


def _loads_and_calls() -> tuple:
    """Every name the scanned files load (a bare name or an attribute),
    and their calls grouped by the name called."""
    loaded, calls = set(), {}
    for directory in SCANNED:
        for path in directory.rglob("*.py"):
            if "tests" in path.relative_to(ROOT).parts:
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    loaded.add(node.id)
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    loaded.add(node.attr)
                elif isinstance(node, ast.Call):
                    func = node.func
                    called = getattr(func, "id", None) or getattr(func, "attr", None)
                    calls.setdefault(called, []).append(node)
    return loaded, calls


def _passes(call: ast.Call, position, name: str) -> bool:
    """Whether ``call`` writes the parameter: by keyword, by position,
    or possibly (``*args`` / ``**kwargs``)."""
    if any(kw.arg is None or kw.arg == name for kw in call.keywords):
        return True
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return True
    return position is not None and len(call.args) > position


def test_every_kernel_name_and_parameter_has_a_caller():
    """Every public function, class and method name defined under
    ``src/repro/sim/`` is loaded somewhere under ``src/repro``,
    ``benchmarks/`` or ``examples/`` (tests do not count), and every
    defaulted parameter is passed, by keyword or by position, at some
    call of that name there.

    Names are matched, not types: a ``run(until, x)`` on any other
    object counts as passing ``Simulator.run``'s second parameter, and
    any ``.sample(...)`` as a reader of a kernel ``sample``. So the gate
    is a floor: what it flags has no caller, but what it passes may
    still have none.
    """
    loaded, calls = _loads_and_calls()
    uncalled = set()
    for label, name, params in _kernel_surface():
        if name not in loaded:
            uncalled.add(label)
        for position, param in params:
            if not any(_passes(call, position, param) for call in calls.get(name, ())):
                uncalled.add(f"{label}({param})")
    unexplained = sorted(uncalled - set(KERNEL_KEPT))
    assert not unexplained, (
        "kernel surface with no caller outside tests (delete it):\n"
        + "\n".join(unexplained)
    )
    stale = sorted(set(KERNEL_KEPT) - uncalled)
    assert not stale, (
        "has a caller now, or is gone (drop it from KERNEL_KEPT):\n"
        + "\n".join(stale)
    )
