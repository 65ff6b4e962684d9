"""``potemkin`` command-line interface.

Three subcommands cover the interactive workflows a user reaches for
before writing code against the API:

* ``potemkin demo`` — run a small farm under a worm outbreak and print
  the containment outcome.
* ``potemkin telescope`` — generate a background-radiation trace to a
  JSONL file (inspectable, replayable input for experiments).
* ``potemkin concurrency`` — the idle-timeout sweep over a trace file
  (or a freshly generated one), printing the F-CONC table.
* ``potemkin forensics`` — run a multi-worm incident, then triage the
  captured VMs: label-free family clustering, body-size estimates, and
  the content-sharing (dedup) opportunity.
* ``potemkin chaos`` — a fault-injection drill: a worm outbreak with a
  mid-run host crash (or a JSON fault plan), ending in a recovery report
  whose packet ledger must balance.
* ``potemkin trace`` — the flight recorder: re-run a scenario with the
  structured event trace armed and dump JSONL, or inspect an existing
  trace file (``--filter subsystem=gateway``, ``--tail 20``).
* ``potemkin conform`` — the differential conformance fuzzer: generate
  random scenarios from a root seed, run each through the world matrix
  (delta / full-copy / sharing flip / alternate containment / fidelity
  ladder / responder baseline), check every invariant oracle, and
  optionally shrink any failure to a minimal JSON repro plus a
  paste-ready pytest case.
* ``potemkin federation`` — a parallel sharded federation run: N shard
  farms over M worker processes in lockstep epochs, cross-shard
  reflection over the message layer, per-shard rows, and a global
  packet-conservation check (docs/FEDERATION.md).
* ``potemkin adversary`` — the attacker-vs-deception experiment: run
  fingerprinting scanners (tiers 0-3) and a botnet campaign against the
  farm with the deception defense off and on, printing dwell time,
  capture rate, and abort rate per tier (docs/ADVERSARIES.md).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.analysis.concurrency import sweep_timeouts
from repro.analysis.report import format_table
from repro.core.config import HoneyfarmConfig
from repro.core.honeyfarm import Honeyfarm
from repro.net.addr import Prefix
from repro.workloads.scenarios import outbreak_scenario
from repro.workloads.telescope import TelescopeConfig, TelescopeWorkload
from repro.workloads.trace import TraceReader, TraceWriter

__all__ = ["main"]


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro.analysis.summary import farm_run_report

    farm, outbreak = outbreak_scenario(
        worm_name=args.worm,
        scan_rate=args.scan_rate,
        containment=args.containment,
        seed=args.seed,
    )
    outbreak.start()
    farm.run(until=args.duration)
    print(f"{args.worm} outbreak demo — {args.duration:.0f}s simulated\n")
    print(farm_run_report(farm))
    return 0


def _cmd_telescope(args: argparse.Namespace) -> int:
    prefixes = [Prefix.parse(p) for p in args.prefix]
    workload = TelescopeWorkload(prefixes, TelescopeConfig(seed=args.seed))
    records = workload.generate(args.duration)
    with TraceWriter(args.output) as writer:
        writer.write_all(records)
    print(f"wrote {len(records)} records covering {args.duration:.0f}s to {args.output}")
    return 0


def _cmd_concurrency(args: argparse.Namespace) -> int:
    if args.trace:
        records = TraceReader(args.trace).read_all()
    else:
        prefixes = [Prefix.parse(p) for p in args.prefix]
        workload = TelescopeWorkload(prefixes, TelescopeConfig(seed=args.seed))
        records = workload.generate(args.duration)
    results = sweep_timeouts(records, args.timeout)
    rows = [
        [f"{r.timeout:g}", r.peak_vms, f"{r.mean_vms:.1f}", r.vm_instantiations]
        for r in results
    ]
    print(
        format_table(
            ["idle timeout (s)", "peak VMs", "mean VMs", "instantiations"],
            rows,
            title=f"Concurrency vs idle timeout ({len(records)} arrivals)",
        )
    )
    return 0


def _cmd_forensics(args: argparse.Namespace) -> int:
    from repro.analysis.dedup import dedup_opportunity
    from repro.forensics import ForensicTriage
    from repro.net.addr import IPAddress
    from repro.net.packet import TcpFlags, tcp_packet, udp_packet

    farm = Honeyfarm(HoneyfarmConfig(
        prefixes=("10.16.0.0/25",), num_hosts=2,
        containment="drop-all", idle_timeout_seconds=600.0,
        clone_jitter=0.0, seed=args.seed,
    ))
    attacker = IPAddress.parse("203.0.113.80")
    addr = iter(range(1, 126))
    for __ in range(16):  # clean population for the baseline
        dst = IPAddress.parse(f"10.16.0.{next(addr)}")
        farm.inject(tcp_packet(attacker, dst, 1000, 445))
    for __ in range(args.victims):
        dst = IPAddress.parse(f"10.16.0.{next(addr)}")
        farm.inject(udp_packet(attacker, dst, 2000, 1434, payload="exploit:slammer"))
    for __ in range(args.victims // 2):
        dst = IPAddress.parse(f"10.16.0.{next(addr)}")
        farm.inject(tcp_packet(attacker, dst, 3000, 80))
        farm.inject(tcp_packet(attacker, dst, 3000, 80,
                               flags=TcpFlags.PSH | TcpFlags.ACK,
                               payload="exploit:codered"))
    farm.run(until=10.0)

    triage = ForensicTriage(farm)
    triage.collect()
    print(triage.report().render())
    print()
    print(dedup_opportunity(farm.hosts).render())
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.analysis.recovery import recovery_report
    from repro.analysis.summary import farm_run_report
    from repro.faults import FaultPlan
    from repro.workloads.scenarios import chaos_drill_scenario

    plan = FaultPlan.from_file(args.fault_plan) if args.fault_plan else None
    duration, crash_at, repair_after = args.duration, args.crash_at, args.repair_after
    if args.smoke:
        # The epidemic reaches the farm ~15 s in; crash just after so the
        # drill actually displaces VMs.
        duration, crash_at, repair_after = 45.0, 25.0, 10.0
    farm, outbreak, controller = chaos_drill_scenario(
        crash_at=crash_at,
        repair_after=repair_after,
        plan=plan,
        seed=args.seed,
    )
    outbreak.start()
    controller.start()
    farm.run(until=duration)
    report = recovery_report(farm, controller)
    print(
        f"chaos drill — {duration:.0f}s simulated,"
        f" {controller.faults_fired} fault(s) fired\n"
    )
    print(farm_run_report(farm))
    print()
    print(report.render())
    if report.ledger.leaked != 0:
        print(
            f"\nERROR: packet ledger leaked {report.ledger.leaked} packet(s)",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.analysis.trace import (
        filter_events,
        format_event,
        load_trace,
        parse_filter,
        render_trace_summary,
    )

    try:
        filters = [parse_filter(expr) for expr in (args.filter or [])]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.ladder:
        # Shorthand for the fidelity-ladder lifecycle stream
        # (promotion / handoff / demotion events).
        filters.append(("sub", "ladder"))

    if args.input:
        # Inspect mode: analyse a previously recorded trace.
        events = load_trace(args.input)
        timing = None
        evicted = 0
    else:
        # Record mode: run the scenario with the flight recorder armed.
        from repro.obs import FlightRecorder, install, uninstall
        from repro.workloads.scenarios import chaos_drill_scenario

        duration = args.duration
        recorder = FlightRecorder(capacity=args.capacity)
        install(recorder)
        try:
            if args.scenario == "chaos-drill":
                crash_at, repair_after = args.crash_at, args.repair_after
                if args.smoke:
                    duration, crash_at, repair_after = 45.0, 25.0, 10.0
                farm, outbreak, controller = chaos_drill_scenario(
                    crash_at=crash_at,
                    repair_after=repair_after,
                    seed=args.seed,
                )
                outbreak.start()
                controller.start()
            else:  # outbreak
                farm, outbreak = outbreak_scenario(seed=args.seed)
                outbreak.start()
            if args.snapshot_interval > 0:
                recorder.start_snapshots(
                    farm.sim, farm.metrics, args.snapshot_interval
                )
            farm.run(until=duration)
        finally:
            uninstall()
        recorder.dump(args.output)
        print(
            f"recorded {recorder.emitted} event(s)"
            f" ({recorder.evicted} evicted, capacity {args.capacity})"
            f" over {duration:.0f}s simulated -> {args.output}\n"
        )
        events = [json.loads(line) for line in recorder.iter_jsonl()]
        timing = recorder.timing_summary()
        evicted = recorder.evicted

    if filters:
        events = filter_events(events, filters)
    if args.tail:
        for event in events[-args.tail:]:
            print(format_event(event))
        print()
    print(render_trace_summary(events, timing=timing, evicted=evicted))
    return 0


def _cmd_conform(args: argparse.Namespace) -> int:
    import time
    from pathlib import Path

    from repro.testing import run_conformance
    from repro.testing.shrink import failure_predicate, pytest_case, shrink_scenario

    seed = args.seed
    if seed is None:
        import os

        seed = int.from_bytes(os.urandom(4), "big")
    runs = 10 if args.smoke else args.runs

    print(f"conformance fuzz: root seed {seed}, {runs} scenarios")
    print(f"replay with: potemkin conform --seed {seed} --runs {runs}")

    started = time.perf_counter()

    def progress(index: int, verdict) -> None:
        s = verdict.scenario
        status = "ok" if verdict.passed else (
            "FAIL " + ",".join(verdict.failing_oracles)
        )
        print(
            f"  [{index}] {s.name}: containment={s.containment}"
            f" memory={s.memory_profile} waves={len(s.worm_waves)}"
            f" faults={len(s.fault_events)} -> {status}"
            f" ({verdict.elapsed_seconds:.2f}s)"
        )

    report = run_conformance(seed, runs, on_verdict=progress)
    elapsed = time.perf_counter() - started
    print(
        f"\n{report.scenarios_run} scenarios x {report.worlds_per_scenario}"
        f" worlds, {len(report.oracle_names)} oracles"
        f" ({', '.join(report.oracle_names)}) in {elapsed:.1f}s"
    )
    if report.passed:
        print("all oracles green")
        return 0

    artifacts = Path(args.artifacts)
    artifacts.mkdir(parents=True, exist_ok=True)
    for verdict in report.failures:
        index = report.verdicts.index(verdict)
        stem = f"seed{seed}-idx{index}"
        failure_path = artifacts / f"{stem}.json"
        failure_path.write_text(json.dumps(verdict.to_dict(), indent=2) + "\n")
        print(f"\nFAILURE [{index}] {verdict.scenario.name} -> {failure_path}")
        for violation in verdict.violations:
            print(f"  {violation}")
        if args.shrink:
            print("  shrinking (re-verifying the failure each step)...")
            result = shrink_scenario(
                verdict.scenario,
                failure_predicate(verdict.failing_oracles),
                failing_oracles=verdict.failing_oracles,
                max_evaluations=args.shrink_budget,
            )
            min_path = artifacts / f"{stem}-min.json"
            min_path.write_text(json.dumps(result.to_dict(), indent=2) + "\n")
            repro_path = artifacts / f"{stem}-repro.py"
            repro_path.write_text(
                pytest_case(result.minimized, result.failing_oracles)
            )
            print(
                f"  minimized size {result.original.size()} ->"
                f" {result.minimized.size()}"
                f" in {result.evaluations} evaluations -> {min_path}"
            )
            print(f"  paste-ready pytest case -> {repro_path}")
    print(
        f"\n{len(report.failures)}/{report.scenarios_run} scenarios failed;"
        f" replay with: potemkin conform --seed {seed} --runs {runs}"
    )
    return 1


def _cmd_adversary(args: argparse.Namespace) -> int:
    from repro.adversary import FINGERPRINT_TIERS, experiment_digest, run_adversary_experiment

    duration = 12.0 if args.smoke else args.duration
    result = run_adversary_experiment(
        seed=args.seed,
        duration=duration,
        containment=args.containment,
        num_targets=args.targets,
        include_botnet=not args.no_botnet,
    )
    print(
        f"adversary experiment: seed {args.seed}, containment "
        f"{args.containment}, {args.targets} targets, {duration}s"
    )
    for arm in ("off", "on"):
        scanners = result["arms"][arm]["scanners"]
        print(f"\ndeception {arm}:")
        print("  tier  verdict      stage    tells  captures  dwell")
        for tier in sorted(scanners, key=int):
            s = scanners[tier]
            dwell = "-" if s["dwell_time"] is None else f"{s['dwell_time']:.1f}s"
            print(
                f"  {tier:>4}  {s['verdict'] or '-':<11}"
                f"  {s['abort_stage'] or '-':<7}"
                f"  {s['tell_total']:>5.2f}  {len(s['captures']):>8}  {dwell}"
            )
        if "botnet" in result["arms"][arm]:
            b = result["arms"][arm]["botnet"]
            print(
                f"  botnet: {len(b['captures'])} captures,"
                f" {b['lateral_infections']} lateral,"
                f" {b['stage2_pushed']} stage-2 pushes,"
                f" {b['checkins_seen']} check-ins heard"
            )
    off = result["headline"]["fingerprint_captures_off"]
    on = result["headline"]["fingerprint_captures_on"]
    print(
        f"\ncaptures from fingerprinting scanners (tiers"
        f" {list(FINGERPRINT_TIERS)}): {off} without deception,"
        f" {on} with deception"
    )
    print(f"digest: {experiment_digest(result)[:16]}")
    if args.json:
        from pathlib import Path

        path = Path(args.json)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
        print(f"full report -> {path}")
    return 0


def _cmd_federation(args: argparse.Namespace) -> int:
    from repro.testing.fedscenario import FederationScenario
    from repro.workloads.worms import KNOWN_WORMS

    scenario = FederationScenario(
        seed=args.seed, shards=args.shards, shard_bits=args.shard_bits,
        duration=args.duration, latency=args.latency,
        telescope_rate=args.telescope_rate, exploit_fraction=0.4,
        probes_max=100, max_packets_per_shard=args.max_packets,
        containment=args.containment,
        worms=tuple((name, 2.0) for name in sorted(KNOWN_WORMS)),
        name="cli",
    )
    if args.scenario_file:
        scenario = FederationScenario.from_json(
            open(args.scenario_file).read()
        )
    result = scenario.run(args.workers)
    lane = (
        f"{result.workers} worker process(es)" if result.workers
        else "in-process reference"
    )

    print(
        f"federation run — {scenario.shards} shard(s) over {lane},"
        f" {scenario.duration:.0f}s simulated,"
        f" epoch lookahead {scenario.interlink().lookahead:g}s\n"
    )
    rows = [
        [
            report["shard"],
            ", ".join(report["prefixes"]),
            report["live_vms"],
            len(report["infections"]),
            report["ledger"]["packets_in"],
            report["intershard"]["sent"],
            report["intershard"]["received"],
            report["nat"]["reply_translations"],
        ]
        for report in result.reports
    ]
    print(format_table(
        ["shard", "prefixes", "live VMs", "infections", "packets in",
         "x-shard out", "x-shard in", "NAT replies"],
        rows,
        title="Per-shard outcome",
    ))

    try:
        ledger = result.assert_packet_conservation()
    except AssertionError as exc:
        print(f"\nERROR: {exc}", file=sys.stderr)
        return 1
    print(
        f"\npacket conservation holds: {ledger.packets_in} in ="
        f" {ledger.delivered} delivered + {ledger.emulated} emulated +"
        f" {ledger.refused} refused + {ledger.dropped} dropped +"
        f" {ledger.still_pending} pending"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="potemkin",
        description="Potemkin virtual honeyfarm reproduction (SOSP 2005)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="run a worm outbreak against a small farm")
    demo.add_argument("--worm", default="codered", help="worm name (default: codered)")
    demo.add_argument("--scan-rate", type=float, default=20.0, help="scans/s per host")
    demo.add_argument(
        "--containment",
        default="reflect",
        choices=["open", "drop-all", "allow-dns", "reflect"],
    )
    demo.add_argument("--duration", type=float, default=120.0, help="simulated seconds")
    demo.add_argument("--seed", type=int, default=1)
    demo.set_defaults(func=_cmd_demo)

    telescope = sub.add_parser("telescope", help="generate a background-radiation trace")
    telescope.add_argument("--prefix", action="append", default=None,
                           help="dark prefix (repeatable; default 10.16.0.0/16)")
    telescope.add_argument("--duration", type=float, default=60.0)
    telescope.add_argument("--seed", type=int, default=77)
    telescope.add_argument("--output", default="telescope.jsonl")
    telescope.set_defaults(func=_cmd_telescope)

    conc = sub.add_parser("concurrency", help="idle-timeout sweep over a trace")
    conc.add_argument("--trace", default=None, help="JSONL trace file (else generate)")
    conc.add_argument("--prefix", action="append", default=None)
    conc.add_argument("--duration", type=float, default=60.0)
    conc.add_argument("--seed", type=int, default=77)
    conc.add_argument(
        "--timeout",
        type=float,
        action="append",
        default=None,
        help="idle timeout to evaluate (repeatable)",
    )
    conc.set_defaults(func=_cmd_concurrency)

    forensics = sub.add_parser(
        "forensics", help="run a multi-worm incident and triage the captures"
    )
    forensics.add_argument("--victims", type=int, default=10,
                           help="slammer victims (codered gets half)")
    forensics.add_argument("--seed", type=int, default=55)
    forensics.set_defaults(func=_cmd_forensics)

    chaos = sub.add_parser(
        "chaos", help="fault-injection drill with a recovery report"
    )
    chaos.add_argument(
        "--fault-plan", default=None,
        help="JSON fault plan file (overrides --crash-at/--repair-after)",
    )
    chaos.add_argument("--duration", type=float, default=180.0, help="simulated seconds")
    chaos.add_argument("--crash-at", type=float, default=60.0,
                       help="host crash time (default fault plan only)")
    chaos.add_argument("--repair-after", type=float, default=30.0,
                       help="repair delay after the crash")
    chaos.add_argument("--seed", type=int, default=42)
    chaos.add_argument("--smoke", action="store_true",
                       help="short CI drill (45s, crash at 25s)")
    chaos.set_defaults(func=_cmd_chaos)

    trace = sub.add_parser(
        "trace", help="record or inspect a flight-recorder trace"
    )
    trace.add_argument(
        "--input", default=None,
        help="inspect an existing JSONL trace instead of recording one",
    )
    trace.add_argument(
        "--scenario", default="chaos-drill", choices=["chaos-drill", "outbreak"],
        help="scenario to record (ignored with --input)",
    )
    trace.add_argument("--duration", type=float, default=120.0,
                       help="simulated seconds to record")
    trace.add_argument("--crash-at", type=float, default=60.0,
                       help="chaos-drill host crash time")
    trace.add_argument("--repair-after", type=float, default=30.0,
                       help="chaos-drill repair delay")
    trace.add_argument("--seed", type=int, default=42)
    trace.add_argument("--output", default="flight.jsonl",
                       help="JSONL trace destination (record mode)")
    trace.add_argument(
        "--snapshot-interval", type=float, default=10.0,
        help="sim-seconds between metric snapshots (0 disables)",
    )
    trace.add_argument("--capacity", type=int, default=100_000,
                       help="ring-buffer size; oldest events evict beyond it")
    trace.add_argument(
        "--filter", action="append", default=None, metavar="KEY=VALUE",
        help="keep only matching events, e.g. subsystem=gateway (repeatable)",
    )
    trace.add_argument("--tail", type=int, default=0, metavar="N",
                       help="print the last N events follow-style")
    trace.add_argument(
        "--ladder", action="store_true",
        help="keep only fidelity-ladder events (promotion/handoff/demotion);"
        " shorthand for --filter subsystem=ladder",
    )
    trace.add_argument("--smoke", action="store_true",
                       help="short CI drill (45s, crash at 25s)")
    trace.set_defaults(func=_cmd_trace)

    conform = sub.add_parser(
        "conform",
        help="differential conformance fuzz: scenarios x worlds x oracles",
    )
    conform.add_argument(
        "--seed", type=int, default=None,
        help="root seed (default: random; always printed for replay)",
    )
    conform.add_argument("--runs", type=int, default=25,
                         help="number of generated scenarios")
    conform.add_argument("--smoke", action="store_true",
                         help="bounded CI pass (10 scenarios)")
    conform.add_argument("--shrink", action="store_true",
                         help="minimize failing scenarios and emit repro files")
    conform.add_argument("--shrink-budget", type=int, default=80,
                         help="max differential re-runs per shrink")
    conform.add_argument(
        "--artifacts", default="benchmarks/reports/conform_failures",
        help="directory for failing-scenario JSON and repro files",
    )
    conform.set_defaults(func=_cmd_conform)

    federation = sub.add_parser(
        "federation",
        help="parallel sharded federation run with conservation check",
    )
    federation.add_argument("--shards", type=int, default=2,
                            help="number of shard farms (default 2)")
    federation.add_argument(
        "--workers", type=int, default=2,
        help="worker processes; 0 runs the in-process reference lane",
    )
    federation.add_argument("--shard-bits", type=int, default=26,
                            help="prefix length per shard (default /26)")
    federation.add_argument("--duration", type=float, default=15.0,
                            help="simulated seconds")
    federation.add_argument("--latency", type=float, default=0.25,
                            help="cross-shard hop latency (= epoch lookahead)")
    federation.add_argument("--telescope-rate", type=float, default=2048.0,
                            help="telescope sources/s per /16 per shard")
    federation.add_argument("--max-packets", type=int, default=600,
                            help="telescope records per shard")
    federation.add_argument(
        "--containment", default="reflect",
        choices=["open", "drop-all", "allow-dns", "reflect"],
    )
    federation.add_argument(
        "--scenario-file", default=None,
        help="run a pinned FederationScenario JSON instead of the knobs above",
    )
    federation.add_argument("--seed", type=int, default=1905)
    federation.set_defaults(func=_cmd_federation)

    adversary = sub.add_parser(
        "adversary",
        help="fingerprinting scanners + botnet vs the deception defense",
    )
    adversary.add_argument("--seed", type=int, default=1)
    adversary.add_argument("--duration", type=float, default=20.0,
                           help="simulated seconds per agent run")
    adversary.add_argument("--targets", type=int, default=8,
                           help="farm addresses each agent attacks")
    adversary.add_argument(
        "--containment", default="reflect",
        choices=["open", "drop-all", "allow-dns", "reflect"],
    )
    adversary.add_argument("--no-botnet", action="store_true",
                           help="skip the botnet campaign arm")
    adversary.add_argument("--smoke", action="store_true",
                           help="bounded CI pass (12 simulated seconds)")
    adversary.add_argument("--json", default=None,
                           help="write the full report JSON to this path")
    adversary.set_defaults(func=_cmd_adversary)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "prefix", None) is None and hasattr(args, "prefix"):
        args.prefix = ["10.16.0.0/16"]
    if getattr(args, "timeout", None) is None and hasattr(args, "timeout"):
        args.timeout = [1.0, 5.0, 30.0, 60.0, 300.0, 600.0]
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - module execution guard
    sys.exit(main())
