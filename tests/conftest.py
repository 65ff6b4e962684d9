"""Shared fixtures for the Potemkin reproduction test suite."""

from __future__ import annotations

import difflib
from pathlib import Path

import pytest
from hypothesis import settings

from repro.core.config import HoneyfarmConfig
from repro.core.honeyfarm import Honeyfarm
from repro.net.addr import IPAddress, Prefix
from repro.services.personality import default_registry
from repro.sim.engine import Simulator
from repro.sim.rand import SeedSequence
from repro.vmm.host import PhysicalHost
from repro.vmm.snapshot import ReferenceSnapshot


#: Ten times the examples, for the scheduled CI run:
#: ``pytest --hypothesis-profile=nightly``. A property that sets its own
#: count scales it by ``settings.default.max_examples`` to follow.
settings.register_profile("nightly", max_examples=10 * settings.default.max_examples)


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="rewrite tests/golden/* expectations instead of failing on mismatch",
    )


class GoldenComparator:
    """Compare a rendering against a committed golden file.

    On mismatch, fail with a unified diff (a full-text compare is
    unreadable when one series row changes). With ``--update-golden``,
    rewrite the expectation instead — review the resulting git diff
    before committing.
    """

    def __init__(self, update: bool) -> None:
        self.update = update

    def check(self, path: Path, rendered: str) -> None:
        if self.update:
            path.parent.mkdir(exist_ok=True)
            path.write_text(rendered)
            return
        if not path.exists():
            pytest.fail(
                f"golden file missing: {path} — create it with "
                "`pytest --update-golden`",
                pytrace=False,
            )
        expected = path.read_text()
        if rendered == expected:
            return
        diff = "".join(
            difflib.unified_diff(
                expected.splitlines(keepends=True),
                rendered.splitlines(keepends=True),
                fromfile=f"golden/{path.name}",
                tofile="actual",
            )
        )
        pytest.fail(
            f"golden mismatch for {path.name} — if the behaviour change is "
            f"intentional, accept with `pytest --update-golden`:\n{diff}",
            pytrace=False,
        )


@pytest.fixture
def golden(request: pytest.FixtureRequest) -> GoldenComparator:
    return GoldenComparator(request.config.getoption("--update-golden"))


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def seeds() -> SeedSequence:
    return SeedSequence(42)


@pytest.fixture
def host() -> PhysicalHost:
    """A 2 GiB host with a default Windows snapshot installed."""
    host = PhysicalHost(memory_bytes=2 * (1 << 30), max_vms=512)
    snapshot = ReferenceSnapshot(host.memory, personality="windows-default")
    host.install_snapshot(snapshot)
    return host


@pytest.fixture
def snapshot(host: PhysicalHost) -> ReferenceSnapshot:
    return host.snapshot_for("windows-default")


@pytest.fixture
def registry():
    return default_registry()


@pytest.fixture
def external_ip() -> IPAddress:
    return IPAddress.parse("203.0.113.7")


@pytest.fixture
def small_config() -> HoneyfarmConfig:
    """A /24 single-host farm config: every code path, small footprint."""
    return HoneyfarmConfig(
        prefixes=("10.16.0.0/24",),
        num_hosts=1,
        idle_timeout_seconds=30.0,
        clone_jitter=0.0,
        seed=7,
    )


@pytest.fixture
def small_farm(small_config: HoneyfarmConfig) -> Honeyfarm:
    return Honeyfarm(small_config)
