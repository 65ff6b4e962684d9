"""Rows of typed columns: the shape of the farm's per-entity tables.

The gateway's flow table (:class:`~repro.net.flow.FlowTable`) and the
emulator tier's address table
(:class:`~repro.fidelity.emulator.AddressTable`) hold one row per live
entity, not one object. :class:`RowTable` is what they share.

**Rows.** Every field is a column: a typed ``array`` (``COLUMNS`` names
each with its typecode) or a list of object references
(``OBJECT_COLUMNS``; ``keys``, the row's key, is every table's). One
dict, ``index``, maps each key to its dense row id. Rows are handed out
from a free list: a removed entity's row goes back on it, and when it
runs dry every column grows by a block of rows at once. When the table
empties, every column is released, so a drained table holds no
capacity. A live entity costs a fixed number of bytes, not a handful of
objects.

**The row serial.** Every new row is stamped with a serial drawn from a
counter that only rises; freeing the row zeroes it. Whoever keeps a row
id beyond the call that produced it keeps the serial with it — a view,
an expiry bucket — and the row is still its entity exactly while the
serials agree. A reused row has a new serial, so nothing written through
a stale holder can land on the entity that moved in.

**Expiry over rows.** A row expires after ``idle_timeout`` without
activity (its ``last_seen`` column); :meth:`RowTable.expire_idle` is an
explicit sweep, so no timer per row exists. The sweep visits only rows
old enough to possibly be idle: coarse time buckets over ``last_seen``
list ``(row, serial)`` pairs. One bucket policy: a row is filed under
its creation time when it opens and *not* moved when later activity
touches it. :meth:`RowTable.expire_idle` visits every bucket old enough
to hold an expirable row, and refiles the rows it finds still live under
their true ``last_seen``. A row's bucket is therefore never later than
its ``last_seen`` one, so the sweep that should expire it always visits
it: expiry timing and counts are those of re-bucketing on every touch,
without the per-touch moves. A live row has at most one bucket entry (a
sweep empties each bucket it visits before refiling; a row opened not
to expire is never filed), so an entry is current exactly while its serial
is; one whose row was freed is dropped when its bucket is swept. What
expiring a row means is the table's (:meth:`RowTable._expire`): by
default it is freed.
"""

from __future__ import annotations

from array import array
from typing import Dict, Hashable, List, Sequence, Tuple

__all__ = ["RowTable"]


class RowTable:
    """Live entities as rows, with idle expiry (module docstring).

    Subclasses name their columns and write them when a row opens
    (:meth:`_open` writes only ``serial``, ``last_seen``, the key and
    the index); a freed row's object columns are reset to None, so a
    dead row pins nothing."""

    #: Typed columns, name -> ``array`` typecode. Every table has these.
    COLUMNS: Dict[str, str] = {"last_seen": "d", "serial": "q"}
    #: Object columns (lists). Every table has ``keys``.
    OBJECT_COLUMNS: Tuple[str, ...] = ("keys",)
    #: Buckets per idle-timeout window. A sweep visits the bucket that
    #: straddles the expiry horizon and refiles its live rows into it, so
    #: a bucket wider than the sweep interval is examined once per sweep
    #: until its last row expires. 64 makes a bucket no wider than the
    #: farm's default 1 s sweep (``sweep_interval_seconds``) for any
    #: timeout up to 64 s, so a row is examined about once; the cost is
    #: more, smaller buckets.
    _BUCKETS_PER_TIMEOUT = 64
    #: Rows added per growth, at least; else an eighth of the table.
    _GROWTH = 64

    def __init__(self, idle_timeout: float) -> None:
        if idle_timeout <= 0:
            raise ValueError(f"idle_timeout must be positive: {idle_timeout!r}")
        self.idle_timeout = idle_timeout
        # Every column object lives as long as the table: growing and
        # releasing work in place.
        self._arrays = [array(typecode) for typecode in self.COLUMNS.values()]
        self._lists = [[] for __ in self.OBJECT_COLUMNS]
        for name, column in zip(self.COLUMNS, self._arrays):
            setattr(self, name, column)
        for name, column in zip(self.OBJECT_COLUMNS, self._lists):
            setattr(self, name, column)
        self.index: Dict[Hashable, int] = {}
        self._free = array("q")
        self._buckets: Dict[int, array] = {}
        self._granularity = max(idle_timeout / self._BUCKETS_PER_TIMEOUT, 1e-9)
        self._serials_issued = 0
        self.expired_total = 0

    def __len__(self) -> int:
        return len(self.index)

    def __contains__(self, key: Hashable) -> bool:
        return key in self.index

    def holds(self, row: int, serial: int) -> bool:
        """Whether ``row`` still holds the entity that was stamped
        ``serial``."""
        serials = self.serial
        return row < len(serials) and serials[row] == serial

    # ------------------------------------------------------------------ #
    # Row maintenance
    # ------------------------------------------------------------------ #

    def _open(self, key: Hashable, now: float, expires: bool = True) -> int:
        """A new row for ``key``, indexed and, if it ``expires``, filed at
        ``now``, its ``last_seen`` ``now``; the subclass writes the other
        columns. Filed inline: this runs once per entity."""
        if not self._free:
            self._grow()
        row = self._free.pop()
        self._serials_issued = serial = self._serials_issued + 1
        self.last_seen[row] = now
        self.serial[row] = serial
        self.keys[row] = key
        self.index[key] = row
        if not expires:
            return row
        bucket = int(now / self._granularity)
        filed = self._buckets.get(bucket)
        if filed is None:
            filed = self._buckets[bucket] = array("q")
        filed.append(row)
        filed.append(serial)
        return row

    def _grow(self) -> None:
        """Add a block of free rows to every column."""
        first = len(self.keys)
        added = max(self._GROWTH, first >> 3)
        for column in self._arrays:
            column.frombytes(bytes(column.itemsize * added))
        for column in self._lists:
            column.extend([None] * added)
        # Descending, so rows are handed out lowest first.
        self._free.extend(range(first + added - 1, first - 1, -1))

    def _free_rows(self, rows: Sequence[int]) -> None:
        """Forget the entities in live ``rows``; the rows join the free
        list, in order. Their bucket entries stay behind, dead, until
        their buckets are swept. Column by column, since a sweep frees
        many rows at once."""
        index = self.index
        keys = self.keys
        for row in rows:
            del index[keys[row]]
        for column in self._lists:
            for row in rows:
                column[row] = None
        serials = self.serial
        for row in rows:
            serials[row] = 0
        self._free.extend(rows)

    def _free_row(self, row: int) -> None:
        self._free_rows((row,))

    def _release_if_empty(self) -> None:
        """With no live row left, let go of every column's capacity and
        every index (each names only freed rows)."""
        if self.index or not self.keys:
            return
        for column in self._arrays:
            del column[:]
        for column in self._lists:
            del column[:]
        del self._free[:]
        self.index.clear()
        self._buckets.clear()

    # ------------------------------------------------------------------ #
    # Expiry
    # ------------------------------------------------------------------ #

    def expire_idle(self, now: float) -> List[Hashable]:
        """Expire every row idle past the timeout; returns their keys.

        Incremental: only buckets whose entire time range is old enough to
        contain expired rows are visited, so a sweep's cost tracks the
        number of *expirable* rows, not the number of live ones.
        """
        timeout = self.idle_timeout
        granularity = self._granularity
        boundary = int((now - timeout) / granularity)
        buckets = self._buckets
        serials = self.serial
        last_seen = self.last_seen
        expired: List[int] = []
        for index in sorted(b for b in buckets if b <= boundary):
            pairs = iter(buckets.pop(index))
            for row, serial in zip(pairs, pairs):
                if serials[row] != serial:
                    continue  # freed since it was filed
                seen = last_seen[row]
                if now - seen > timeout:
                    expired.append(row)
                else:
                    # Touched since it was filed: refile it under its
                    # true last_seen (the module docstring's one policy).
                    bucket = int(seen / granularity)
                    filed = buckets.get(bucket)
                    if filed is None:
                        filed = buckets[bucket] = array("q")
                    filed.append(row)
                    filed.append(serial)
        keys = self._expire(expired)
        self.expired_total += len(keys)
        self._release_if_empty()
        return keys

    def _expire(self, rows: List[int]) -> List[Hashable]:
        """Expire the idle live ``rows``, which the sweep has let go of
        (none is refiled): free them, and return their keys."""
        keys = [self.keys[row] for row in rows]
        self._free_rows(rows)
        return keys
