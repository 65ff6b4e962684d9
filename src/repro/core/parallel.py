"""The parallel federation: shard workers in separate processes.

This is the scalability tentpole: N shard workers, each owning a full
farm (gateway, hosts, ladder, batched event loop) in its own OS process,
coordinated over pipes by a conservative time-stepped protocol (see
:mod:`repro.core.intershard` and docs/FEDERATION.md). Nothing about the
protocol is written here: each worker serves one
:class:`~repro.core.intershard.ShardGroup`, and the coordinator hands
:func:`~repro.core.intershard.run_lockstep` — the loop the in-process
:class:`~repro.core.federation.FederatedHoneyfarm` runs — one pipe proxy
per worker. A pipe round-trip stands where the reference has a function
call, so for any worker count the results are bit-equal to the reference
(``tests/test_parallel_federation.py`` asserts it at 1, 2, 4 and 8
workers).

Determinism does not depend on scheduling: each worker runs its shards
in shard order within an epoch, messages are routed purely by the shard
map, and each mailbox replays its messages in ``(deliver_time,
src_shard, seq)`` order. The only nondeterminism between runs is wall
time.

Workers receive *specs*, not live objects: configs, prefix strings,
worm names, telescope parameters, trace records — everything picklable
and everything reconstructible to an identical farm in any process.
Messages are encoded (:meth:`ShardMessage.encode`) only here, at the
pipe; the coordinator routes the encoded tuples without decoding packet
bodies.
"""

from __future__ import annotations

import multiprocessing as mp
import traceback
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.config import HoneyfarmConfig
from repro.core.federation import FederationResult
from repro.core.intershard import (
    InterShardConfig,
    ShardGroup,
    ShardMessage,
    ShardRunner,
    assign_shards,
    run_lockstep,
)
from repro.net.shardmap import ShardMap
from repro.sim.engine import batched_collection

__all__ = ["FederationResult", "ParallelFederation"]

#: Index of ``dst_shard`` in :meth:`ShardMessage.encode` tuples — the
#: coordinator routes encoded messages without decoding packet bodies.
_ENC_DST_SHARD = 4


def _shard_worker(conn, payload: Dict[str, Any]) -> None:
    """Worker main: build this worker's :class:`ShardGroup`, then serve
    the coordinator's calls on it.

    Protocol (all tuples, coordinator -> worker unless noted):

    * worker sends ``("ready", [shard indices])`` after construction;
    * ``("epoch", end, inbound)`` — :meth:`ShardGroup.epoch` on the
      decoded inbound messages, answer ``("done", outbound)`` with the
      epoch's encoded outbox;
    * ``("deposit", inbound)`` — :meth:`ShardGroup.deposit` (the
      post-final-barrier exchange), answer ``("done", [])``;
    * ``("reports",)`` — answer ``("reports", [shard report dicts])``;
    * ``("stop",)`` — exit.

    Any exception is shipped back as ``("error", formatted traceback)``.
    """
    try:
        shard_map = ShardMap(payload["spec"])
        runners: List[ShardRunner] = []
        for index, config, records in payload["shards"]:
            runner = ShardRunner(
                index, config, shard_map, payload["interlink"], worms=payload["worms"]
            )
            if payload["telescope"] is not None:
                runner.attach_telescope(
                    payload["telescope"], batched=payload["batched"]
                )
            elif records is not None:
                runner.attach_records(records, batched=payload["batched"])
            runners.append(runner)
        group = ShardGroup(runners)
        conn.send(("ready", [runner.index for runner in group.runners]))
        # The worker's side of the drive run_lockstep holds the collector
        # policy around: here the slices arrive one pipe message each.
        with batched_collection():
            while True:
                op, *args = conn.recv()
                if op == "stop":
                    return
                if op == "reports":
                    conn.send(("reports", group.reports()))
                elif op in ("epoch", "deposit"):
                    # The codec lives here, at the pipe, and nowhere else.
                    *when, inbound = args
                    getattr(group, op)(
                        *when, [ShardMessage.decode(encoded) for encoded in inbound]
                    )
                    conn.send(("done", [m.encode() for m in group.collect()]))
                else:
                    raise ValueError(f"unknown coordinator op: {op!r}")
    except Exception:
        try:
            conn.send(("error", traceback.format_exc()))
        except Exception:
            pass
    finally:
        conn.close()


class _WorkerPort:
    """Coordinator-side stand-in for the :class:`ShardGroup` living in
    one worker process: each method is that method's call sent down the
    pipe, and :meth:`collect` is the reply."""

    def __init__(self, conn, worker: int) -> None:
        self.conn = conn
        self.worker = worker

    def epoch(self, end: float, inbound: List[Tuple]) -> None:
        self.conn.send(("epoch", end, inbound))

    def deposit(self, inbound: List[Tuple]) -> None:
        self.conn.send(("deposit", inbound))

    def collect(self):
        """The worker's next reply. The only ``recv`` on the coordinator
        side, so the one place a worker failure surfaces."""
        message = self.conn.recv()
        if message[0] == "error":
            raise RuntimeError(
                f"federation worker {self.worker} failed:\n{message[1]}"
            )
        return message[1]


class ParallelFederation:
    """Coordinator for one multiprocess federated run.

    Parameters
    ----------
    shard_configs / interlink:
        Per-shard farm configs (globally disjoint prefixes) and the
        epoch protocol constants — the same inputs the in-process
        reference takes.
    workers:
        Worker process count. Shards are placed by
        :func:`~repro.core.intershard.assign_shards`; a worker with no
        shards is simply never spawned, so any ``workers >= 1`` is valid
        for any shard count.
    telescope / shard_records:
        The workload, exactly one of: a picklable
        :class:`~repro.workloads.telescope.PartitionedTelescope` each
        worker expands for its own shards, or one explicit trace per
        shard (a :class:`~repro.sim.batch.PacketColumns`, which pickles
        as its columns for a spawned worker, or a list of rows). (No
        workload is also legal — worm-only experiments seed via
        records.)
    worms:
        ``(name, scan_rate)`` specs registered on every shard.
    start_method:
        ``multiprocessing`` start method; default prefers ``fork``
        (cheap on Linux) and falls back to whatever the platform has.
    """

    def __init__(
        self,
        shard_configs: Sequence[HoneyfarmConfig],
        interlink: InterShardConfig,
        workers: int,
        *,
        telescope=None,
        shard_records: Optional[Sequence[Optional[Iterable]]] = None,
        worms: Sequence[Tuple[str, float]] = (),
        batched: bool = True,
        start_method: Optional[str] = None,
    ) -> None:
        if workers <= 0:
            raise ValueError(f"workers must be positive: {workers!r}")
        if telescope is not None and shard_records is not None:
            raise ValueError("pass telescope or shard_records, not both")
        self.shard_configs = list(shard_configs)
        self.shard_map = ShardMap.from_configs(self.shard_configs)  # validates
        if telescope is not None and telescope.shard_count != len(self.shard_configs):
            raise ValueError(
                f"telescope has {telescope.shard_count} partitions for"
                f" {len(self.shard_configs)} shards"
            )
        if shard_records is not None and len(shard_records) != len(self.shard_configs):
            raise ValueError(
                f"got {len(shard_records)} record lists for"
                f" {len(self.shard_configs)} shards"
            )
        self.interlink = interlink
        self.workers = workers
        self.telescope = telescope
        self.shard_records = shard_records
        self.worms = tuple((name, float(rate)) for name, rate in worms)
        self.batched = batched
        if start_method is None:
            methods = mp.get_all_start_methods()
            start_method = "fork" if "fork" in methods else methods[0]
        self.start_method = start_method
        loads = [
            self.shard_map.addresses_of(i)
            for i in range(self.shard_map.shard_count)
        ]
        self.assignment = assign_shards(loads, workers)
        self._ran = False

    def _payload_for(self, worker: int) -> Dict[str, Any]:
        shards = []
        for index, owner in enumerate(self.assignment):
            if owner != worker:
                continue
            records = (
                self.shard_records[index]
                if self.shard_records is not None else None
            )
            shards.append((index, self.shard_configs[index], records))
        return {
            "spec": self.shard_map.spec(),
            "interlink": self.interlink,
            "shards": shards,
            "telescope": self.telescope,
            "worms": self.worms,
            "batched": self.batched,
        }

    def run(self, until: float) -> FederationResult:
        """Execute the lockstep run to ``until`` and collect reports.

        One-shot: the workers' farms end with the run, so a second call
        would silently restart from zero — rejected instead.
        """
        if self._ran:
            raise ValueError("a ParallelFederation instance runs once")
        self._ran = True
        ctx = mp.get_context(self.start_method)
        active = sorted(set(self.assignment))
        processes: List[Any] = []
        ports: List[_WorkerPort] = []
        try:
            for worker in active:
                parent_conn, child_conn = ctx.Pipe()
                process = ctx.Process(
                    target=_shard_worker,
                    args=(child_conn, self._payload_for(worker)),
                    daemon=True,
                )
                process.start()
                child_conn.close()
                processes.append(process)
                ports.append(_WorkerPort(parent_conn, worker))
            for port in ports:
                port.collect()  # ready
            # Shard -> position in ``ports`` of the worker that owns it.
            owner = [active.index(worker) for worker in self.assignment]
            epochs = run_lockstep(
                ports, lambda encoded: owner[encoded[_ENC_DST_SHARD]],
                0.0, until, self.interlink.lookahead,
            )
            reports: List[Dict[str, Any]] = []
            for port in ports:
                port.conn.send(("reports",))
            for port in ports:
                reports.extend(port.collect())
            for port in ports:
                port.conn.send(("stop",))
            for process in processes:
                process.join(timeout=30)
        finally:
            for process in processes:
                if process.is_alive():
                    process.terminate()
                    process.join(timeout=5)
            for port in ports:
                port.conn.close()
        reports.sort(key=lambda r: r["shard"])
        return FederationResult(
            reports=reports,
            workers=self.workers,
            assignment=list(self.assignment),
            epochs=epochs,
        )
