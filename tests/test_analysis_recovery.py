"""Edge cases for the recovery analysis (``repro.analysis.recovery``).

``test_faults_golden.py`` pins the happy path — one crash, one repair,
full recovery. This file covers the awkward corners of
:func:`fault_outcomes` and :class:`RecoveryReport`:

* a chaos run with **zero crashes** (empty plan, or a plan of only
  link/clone faults) yields no outcomes and a "(none)" timeline;
* a crash that is **never repaired** before the run ends, on a farm
  with no surviving capacity, reports ``mttr is None`` and renders as
  "not recovered";
* a **repair racing the displaced-address respawns**: the host comes
  back while backoff timers for its displaced VMs are still in flight,
  and the accounting (MTTR, respawn counters, packet ledger) must still
  reconcile.
"""

from __future__ import annotations

from repro.analysis.recovery import fault_outcomes, packet_ledger, recovery_report
from repro.core.config import HoneyfarmConfig
from repro.core.honeyfarm import Honeyfarm
from repro.faults import ChaosController, FaultPlan, clone_faults, host_crash
from repro.net.addr import IPAddress
from repro.net.packet import tcp_packet
from repro.vmm.vm import VMState

ATTACKER = IPAddress.parse("203.0.113.9")


def make_farm(**overrides) -> Honeyfarm:
    base = dict(
        prefixes=("10.16.0.0/24",),
        num_hosts=2,
        idle_timeout_seconds=300.0,
        clone_jitter=0.0,
        seed=9,
    )
    base.update(overrides)
    return Honeyfarm(HoneyfarmConfig(**base))


def spawn_running_vms(farm: Honeyfarm, count: int, until: float = 5.0) -> None:
    for i in range(count):
        dst = IPAddress.parse(f"10.16.0.{10 + i}")
        farm.inject(tcp_packet(ATTACKER, dst, 1000 + i, 445))
    farm.run(until=until)


# ---------------------------------------------------------------------- #
# Zero crashes
# ---------------------------------------------------------------------- #


class TestZeroCrashes:
    def test_empty_plan_yields_no_outcomes(self):
        farm = make_farm()
        controller = ChaosController(farm, FaultPlan())
        controller.start()
        spawn_running_vms(farm, 4)
        assert fault_outcomes(farm, controller) == []

    def test_non_crash_faults_yield_no_outcomes(self):
        # Records exist (a clone-fault window fired) but none are host
        # crashes, so the MTTR analysis has nothing to say.
        farm = make_farm()
        plan = FaultPlan(events=(clone_faults(at=1.0, duration=2.0, rate=0.5),))
        controller = ChaosController(farm, plan)
        controller.start()
        spawn_running_vms(farm, 4, until=10.0)
        assert controller.records  # the window did fire...
        assert fault_outcomes(farm, controller) == []  # ...but no crash

    def test_render_shows_placeholder_timeline_and_no_mttr_section(self):
        farm = make_farm()
        controller = ChaosController(farm, FaultPlan())
        controller.start()
        spawn_running_vms(farm, 4)
        rendered = recovery_report(farm, controller).render()
        assert "(none)" in rendered
        assert "Host-crash recovery" not in rendered
        assert "Packet ledger" in rendered

    def test_ledger_reconciles_without_faults(self):
        farm = make_farm()
        spawn_running_vms(farm, 4)
        assert packet_ledger(farm).leaked == 0


# ---------------------------------------------------------------------- #
# Crash never repaired before the run ends
# ---------------------------------------------------------------------- #


class TestCrashNeverRepaired:
    def run_unrepaired(self):
        # Single host: once it crashes nothing can respawn the displaced
        # VMs, so the live-VM level can never regain its pre-crash value.
        farm = make_farm(num_hosts=1)
        plan = FaultPlan(events=(host_crash(at=6.0, host="0", repair_after=0.0),))
        controller = ChaosController(farm, plan)
        controller.start()
        spawn_running_vms(farm, 4)
        farm.run(until=40.0)
        return farm, controller

    def test_mttr_is_none_and_record_never_cleared(self):
        farm, controller = self.run_unrepaired()
        [record] = [r for r in controller.records if r.kind == "host_crash"]
        assert not record.skipped
        assert record.cleared_at is None  # repair_after=0 means forever
        [outcome] = fault_outcomes(farm, controller)
        assert outcome.pre_fault_live > 0
        assert outcome.recovered_at is None
        assert outcome.mttr is None
        assert farm.live_vms == 0

    def test_render_says_not_recovered(self):
        farm, controller = self.run_unrepaired()
        rendered = recovery_report(farm, controller).render()
        assert "not recovered" in rendered
        assert "Host-crash recovery" in rendered

    def test_ledger_still_reconciles(self):
        farm, controller = self.run_unrepaired()
        ledger = packet_ledger(farm)
        assert ledger.packets_in > 0
        assert ledger.leaked == 0


# ---------------------------------------------------------------------- #
# Repair racing the displaced-address respawns
# ---------------------------------------------------------------------- #


class TestRepairRacesRespawn:
    def run_race(self):
        # Crash at t=6, repair at t=8: the displaced VMs' respawn
        # backoff timers (base 0.5 s, doubling) straddle the repair, so
        # some respawns land before the host returns and some after.
        farm = make_farm()
        plan = FaultPlan(events=(host_crash(at=6.0, host="0", repair_after=2.0),))
        controller = ChaosController(farm, plan)
        controller.start()
        spawn_running_vms(farm, 6)
        displaced = [vm.ip for vm in farm.hosts[0].vms()]
        assert displaced, "crash target must have resident VMs for the race"
        farm.run(until=40.0)
        return farm, controller, displaced

    def test_record_cleared_at_matches_repair_schedule(self):
        farm, controller, _ = self.run_race()
        [record] = [r for r in controller.records if r.kind == "host_crash"]
        assert record.fired_at == 6.0
        assert record.cleared_at == 8.0
        assert farm.metrics.counters()["farm.host_repairs"] == 1

    def test_every_displaced_address_is_running_again(self):
        farm, _, displaced = self.run_race()
        for ip in displaced:
            vm = farm.gateway.vm_at(ip)
            assert vm.state is VMState.RUNNING, ip
        counters = farm.metrics.counters()
        assert counters["farm.respawns"] == len(displaced)
        assert counters.get("farm.respawns_abandoned", 0) == 0

    def test_level_recovers_and_mttr_is_positive(self):
        farm, controller, _ = self.run_race()
        [outcome] = fault_outcomes(farm, controller)
        assert outcome.min_live < outcome.pre_fault_live  # the crash bit
        assert outcome.recovered_at is not None
        assert outcome.mttr is not None and outcome.mttr > 0.0
        series = farm.metrics.series("farm.live_vms_series")
        assert series.values[-1] >= outcome.pre_fault_live

    def test_ledger_reconciles_through_the_race(self):
        farm, _, _ = self.run_race()
        assert packet_ledger(farm).leaked == 0


# ---------------------------------------------------------------------- #
# Windowing: a later crash bounds the earlier crash's recovery window
# ---------------------------------------------------------------------- #


def test_unrecovered_first_crash_window_ends_at_second_crash():
    # Crash host 0 (never repaired), then crash host 1 (never repaired).
    # The first outcome's window ends at the second crash; neither level
    # recovers, so both MTTRs are None and the report renders two rows.
    farm = make_farm()
    plan = FaultPlan(
        events=(
            host_crash(at=6.0, host="0", repair_after=0.0),
            host_crash(at=12.0, host="1", repair_after=0.0),
        )
    )
    controller = ChaosController(farm, plan)
    controller.start()
    spawn_running_vms(farm, 6)
    farm.run(until=40.0)
    outcomes = fault_outcomes(farm, controller)
    assert len(outcomes) == 2
    first, second = outcomes
    assert first.record.fired_at == 6.0
    assert second.record.fired_at == 12.0
    assert second.mttr is None  # nothing left to heal on
    rendered = recovery_report(farm, controller).render()
    assert rendered.count("not recovered") >= 1


def test_non_crash_faults_mixed_with_crash_keep_ledger_clean():
    farm = make_farm()
    plan = FaultPlan(
        events=(
            clone_faults(at=2.0, duration=6.0, rate=0.5),
            host_crash(at=6.0, host="0", repair_after=2.0),
        )
    )
    controller = ChaosController(farm, plan)
    controller.start()
    spawn_running_vms(farm, 6)
    farm.run(until=40.0)
    # Only the crash produces an outcome; the ledger must balance anyway.
    assert len(fault_outcomes(farm, controller)) == 1
    assert packet_ledger(farm).leaked == 0
