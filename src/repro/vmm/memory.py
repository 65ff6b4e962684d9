"""Page-granular memory with copy-on-write and content-based sharing.

This module is the mechanism behind the paper's key memory result: a
flash-cloned VM initially shares *every* page with its reference image and
pays physical memory only for pages it subsequently dirties, so hundreds
of honeypot VMs fit in the RAM that would conventionally hold a handful.

Representation
--------------
A clone's address space is a **base + runs + overlay**:

* the *base* is an immutable :class:`ReferenceImage` whose frames were
  allocated once, when the reference snapshot was taken;
* a *run* is an extent ``(first page, count, first tag)`` of consecutive
  clean pages dirtied in one call with freshly generated content — the
  boot working set, a connection's buffers. Page ``i`` of a run reads
  ``first tag + i``; each page is one frame that only its owner
  references, so writing and freeing a run costs one allocator call and
  one bump per counter, whatever its length;
* the *overlay* is a per-VM dict mapping page number → content tag,
  holding every other private page: pinned content (a worm body) and
  rewrites. Writing into a run splits the run around the pages written
  and moves those pages here.

Every guest write is one :meth:`GuestAddressSpace.write_run` call. It
walks the range as segments — pages inside one run, clean pages, pages
already in the overlay — and does each segment's ledger work once: one
splice of the run list, one allocator call, one bump per counter, and
per page only the store lookup and the refcount update.
:meth:`GuestAddressSpace.write` is the single-page primitive that
defines what a bulk write means; ``write_run`` stops before any page it
cannot treat exactly as ``write`` would (an exhausted pool, content that
may live in another guest's run) and the caller falls back to it.

This makes clone creation O(1) in pages — exactly the property that makes
flash cloning fast in the real system, where only page tables are touched
— and keeps the clone's first activity O(1) as well.
Frame *contents* are modelled as integer version tags: the experiments
depend on which pages are private, not on their bytes, but tags let tests
verify CoW isolation (writer sees its own value, sharers still see the
original).

Content-based sharing
---------------------
Delta virtualization collapses pages that were *never modified*. The
paper names the next multiplier — collapsing pages whose contents happen
to be identical even though they were written independently (ESX-style
transparent page sharing; Waldspurger, OSDI 2002). In a honeyfarm that
redundancy is enormous: every victim of the same worm carries the same
worm body.

When sharing is enabled (the default; ``content_sharing=False`` is the
ablation), each :class:`MachineMemory` owns a :class:`SharedFrameStore`
— a content tag → refcounted frame table. A dirty write interns its tag:
the first writer of a tag pays one physical frame, every later writer of
the same tag (any VM on the host) shares it at zero frame cost, and the
frame returns to the pool only when its last reference is rewritten or
destroyed. The table holds only tags that are pinned or were written one
page at a time; tags living in runs are found through the store's run
index (fresh tags only grow, so the index is a sorted list that fresh
runs append to) and move into the table the moment something else names
them. Every operation is O(1) or a bisect, so the host's physical usage

    resident = image frames + distinct private contents

stays an exact, cheaply-queryable quantity rather than a scanner result.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import chain
from operator import attrgetter
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "PAGE_SIZE",
    "OutOfMemoryError",
    "reset_content_tags",
    "MachineMemory",
    "SharedFrameStore",
    "ReferenceImage",
    "GuestAddressSpace",
]

PAGE_SIZE = 4096
"""Bytes per page; delta virtualization operates at this granularity."""


class _TagCounter:
    """Source of fresh content tags: consecutive integers from 1, taken
    one at a time or reserved as a range."""

    __slots__ = ("next",)

    def __init__(self) -> None:
        self.next = 1

    def take(self, count: int = 1) -> int:
        """Reserve ``count`` consecutive tags; returns the first."""
        first = self.next
        self.next = first + count
        return first


_fresh_tags = _TagCounter()


def reset_content_tags() -> None:
    """Restart fresh content tags from 1, so two runs in one process hand
    out the same tags. Only for use between runs: memory created before
    the reset must not be written afterwards."""
    _fresh_tags.next = 1


class OutOfMemoryError(Exception):
    """Raised when a host's physical frame pool is exhausted.

    The reclamation layer treats this as the signal to evict idle VMs
    (memory pressure is one of the paper's reclamation triggers).
    """


class _SharedEntry:
    """One physical frame in the shared store: its reference count and,
    per holding address space, how many of that space's pages map it."""

    __slots__ = ("refs", "holders")

    def __init__(self, space: "GuestAddressSpace") -> None:
        """A frame that one page of ``space`` maps."""
        self.refs = 1
        self.holders: Dict["GuestAddressSpace", int] = {space: 1}


class _Run:
    """``count`` consecutive pages of ``space`` starting at ``page``,
    holding consecutive fresh tags starting at ``tag``; every page is a
    frame only ``space`` references."""

    __slots__ = ("space", "page", "count", "tag")

    def __init__(self, space: "GuestAddressSpace", page: int, count: int, tag: int) -> None:
        self.space = space
        self.page = page
        self.count = count
        self.tag = tag


_first_tag = attrgetter("tag")


class SharedFrameStore:
    """Content tag → refcounted physical frame (transparent page sharing).

    One store per :class:`MachineMemory`; all private writes on the host
    go through it. Interning a tag either allocates a fresh frame (first
    sight of that content) or bumps the refcount of the existing frame
    (a *hit* — the sharing win). Releasing drops the refcount and frees
    the frame when it reaches zero. Runs of fresh pages are kept whole
    (:meth:`add_run` / :meth:`release_all`): one reference and one frame
    per page, with no per-page entry until a page is rewritten or its tag
    is pinned somewhere else.

    Invariants (checked by :meth:`audit` and the hypothesis ledger test):

    * ``total_refs`` == Σ over live address spaces of their private pages;
    * ``distinct_frames`` == entries + pages in runs
      == physical frames the store holds
      == the owning memory's ``private_frames``;
    * ``shared_frames`` == entries with ``refs >= 2``;
    * ``savings_frames`` == ``total_refs - distinct_frames`` — frames a
      sharing-off host would additionally need for the same contents.

    Every mutation also maintains each holder's ``_exclusive_frames``
    (frames only that space references), which is what makes reclamation
    projection O(1): destroying a VM returns exactly its exclusive
    frames, because shared frames outlive it.
    """

    def __init__(self, memory: "MachineMemory") -> None:
        self.memory = memory
        self._entries: Dict[int, _SharedEntry] = {}
        # Live runs ordered by first tag. Fresh tags only grow, so a new
        # run appends.
        self._runs: List[_Run] = []
        self._run_frames = 0
        self.total_refs = 0
        self.shared_frames = 0     # entries currently referenced >= 2 times
        self.attach_hits = 0       # interns that matched an existing frame
        self.frames_recycled = 0   # sole-owner rewrites that reused the frame

    # ------------------------------------------------------------------ #
    # Accounting views
    # ------------------------------------------------------------------ #

    @property
    def distinct_frames(self) -> int:
        """Physical frames currently backing the store."""
        return len(self._entries) + self._run_frames

    @property
    def savings_frames(self) -> int:
        """Frames avoided versus a no-sharing host with the same contents."""
        return self.total_refs - self.distinct_frames

    def refs_of(self, tag: int) -> int:
        """Current reference count of ``tag`` (0 if not resident)."""
        entry = self._entries.get(tag)
        if entry is not None:
            return entry.refs
        return 0 if self._run_holding(tag) is None else 1

    # ------------------------------------------------------------------ #
    # Runs of fresh pages
    # ------------------------------------------------------------------ #

    def _run_position(self, tag: int) -> int:
        """Index in ``_runs`` of the last run starting at or before
        ``tag``; -1 if every run starts after it."""
        return bisect_right(self._runs, tag, key=_first_tag) - 1

    def _run_holding(self, tag: int) -> Optional[_Run]:
        """The live run holding ``tag``, if any. Anything the counter has
        not issued yet (every worm-body tag, for one) is answered by the
        first compare."""
        if tag >= _fresh_tags.next:
            return None
        i = self._run_position(tag)
        if i >= 0 and tag < self._runs[i].tag + self._runs[i].count:
            return self._runs[i]
        return None

    def add_run(self, space: "GuestAddressSpace", page: int, count: int, tag: int) -> _Run:
        """Back ``count`` fresh pages of ``space`` with ``count`` new
        frames. ``tag`` must come from the fresh-tag counter, and no tag
        of the run may be resident already.

        Raises :class:`OutOfMemoryError` (with no state change) when the
        pool cannot hold the whole run.
        """
        self.memory._allocate_private(count)
        run = _Run(space, page, count, tag)
        self._runs.append(run)
        self._run_frames += count
        self.total_refs += count
        space._exclusive_frames += count
        return run

    def replace_run(self, run: _Run, pieces: List[_Run], carved: int) -> None:
        """``carved`` pages leave ``run`` and ``pieces`` — what is left of
        the run, in tag order, ``run`` itself being the first if it keeps
        a head — take the run's place in the index. The carved pages keep
        their frames, references and exclusivity; the caller gives each
        an entry (:meth:`adopt`, or one under a new tag: :meth:`retag_run`)."""
        i = self._run_position(run.tag)
        self._runs[i:i + 1] = pieces
        self._run_frames -= carved

    def adopt(self, space: "GuestAddressSpace", tag: int) -> None:
        """Give a page just carved out of one of ``space``'s runs the
        entry of its own that the single-page paths act on."""
        self._entries[tag] = _SharedEntry(space)

    def _resident(self, tag: int) -> Optional[_SharedEntry]:
        """The entry holding ``tag``, carving it out of a live run first
        if that is where the content lives; None if not resident."""
        entry = self._entries.get(tag)
        if entry is None:
            run = self._run_holding(tag)
            if run is not None:
                run.space._carve_page(run, tag - run.tag)
                entry = self._entries[tag]
        return entry

    # ------------------------------------------------------------------ #
    # Mutation — O(1), or one bisect when a tag may live in a run
    # ------------------------------------------------------------------ #

    def _attach(self, entry: _SharedEntry, space: "GuestAddressSpace") -> None:
        """One more page of ``space`` maps ``entry``'s frame (a hit)."""
        holders = entry.holders
        held = holders.get(space, 0)
        if not held and len(holders) == 1:
            # The sole current holder is gaining a co-sharer.
            next(iter(holders))._exclusive_frames -= 1
        holders[space] = held + 1
        if entry.refs == 1:
            self.shared_frames += 1
        entry.refs += 1

    def _detach(self, tag: int, space: "GuestAddressSpace") -> bool:
        """One page of ``space`` stops mapping ``tag``'s frame; True if
        that was the last reference anywhere (the entry is gone and the
        caller returns the frame to the pool)."""
        entry = self._entries[tag]
        entry.refs -= 1
        if not entry.refs:
            del self._entries[tag]
            return True
        if entry.refs == 1:
            self.shared_frames -= 1
        holders = entry.holders
        held = holders[space]
        if held == 1:
            del holders[space]
            if len(holders) == 1:
                # Down to one surviving holder: it owns the frame now.
                next(iter(holders))._exclusive_frames += 1
        else:
            holders[space] = held - 1
        return False

    def intern(self, space: "GuestAddressSpace", tag: int) -> None:
        """Map one page of ``space`` to the frame holding ``tag``,
        allocating the frame if this content is new to the host.

        Raises :class:`OutOfMemoryError` (with no state change) when a
        fresh frame is needed and the pool is exhausted.
        """
        entry = self._resident(tag)
        if entry is None:
            self.memory._allocate_private(1)  # may raise; nothing mutated yet
            self._entries[tag] = _SharedEntry(space)
            space._exclusive_frames += 1
        else:
            self.attach_hits += 1
            self._attach(entry, space)
        self.total_refs += 1

    def release(self, space: "GuestAddressSpace", tag: int) -> None:
        """Drop one of ``space``'s references to ``tag``, freeing the
        frame when the last reference anywhere goes."""
        self.total_refs -= 1
        if self._detach(tag, space):
            self.memory._free_private(1)
            space._exclusive_frames -= 1

    def exchange(self, space: "GuestAddressSpace", old_tag: int, new_tag: int) -> None:
        """Rewrite one of ``space``'s pages from ``old_tag`` to
        ``new_tag`` without ever dropping the old mapping on failure.

        The common case — a sole owner dirtying to content nobody else
        holds — reuses the existing frame in place: no allocator
        round-trip and no transient over-allocation. Otherwise the new
        tag is interned *first* (so an OOM leaves the page intact) and
        the old reference released after.
        """
        if old_tag == new_tag:
            return
        old_entry = self._entries[old_tag]
        if old_entry.refs == 1 and self._resident(new_tag) is None:
            del self._entries[old_tag]
            self._entries[new_tag] = old_entry
            self.frames_recycled += 1
            return
        self.intern(space, new_tag)  # may raise; old mapping still intact
        self.release(space, old_tag)

    # ------------------------------------------------------------------ #
    # Bulk mutation — the segments of GuestAddressSpace.write_run. Each
    # equals the single-page calls it names, page by page in order. The
    # allocator is called once per segment because every ledger move of
    # the segment goes the same way, so the peak is the per-page one.
    # ------------------------------------------------------------------ #

    def bulk_prefix(self, count: int, contents: Optional[Sequence[int]]) -> int:
        """How many of ``count`` pages the bulk paths below may take: up
        to the first whose tag could live in a run (pinned below the
        fresh-tag counter) or, for fresh content, is pinned already."""
        if contents is None:
            tags = range(_fresh_tags.next, _fresh_tags.next + count)
            if self._entries.keys().isdisjoint(tags):
                return count
            return next(i for i, tag in enumerate(tags) if tag in self._entries)
        issued = _fresh_tags.next
        if not count or min(contents) >= issued:
            return count
        return next(i for i, tag in enumerate(contents) if tag < issued)

    def intern_run(self, space: "GuestAddressSpace", tags: Sequence[int]) -> int:
        """:meth:`intern` each of ``tags`` for a clean page of ``space``;
        stops before the first miss the pool has no frame for and
        returns how many were interned."""
        entries = self._entries
        free = self.memory.free_frames
        done = misses = 0
        for tag in tags:
            entry = entries.get(tag)
            if entry is not None:
                self._attach(entry, space)
            elif misses < free:
                entries[tag] = _SharedEntry(space)
                misses += 1
            else:
                break
            done += 1
        self.attach_hits += done - misses
        self.total_refs += done
        space._exclusive_frames += misses
        self.memory._allocate_private(misses)
        return done

    def retag_run(self, space: "GuestAddressSpace", tags: Sequence[int]) -> None:
        """Pages of ``space`` just carved out of a run are rewritten to
        ``tags`` — :meth:`adopt` then :meth:`exchange`, per page. A miss
        re-keys the page's own frame; a hit shares the resident frame
        and frees the page's own."""
        entries = self._entries
        hits = 0
        for tag in tags:
            entry = entries.get(tag)
            if entry is None:
                entries[tag] = _SharedEntry(space)
            else:
                self._attach(entry, space)
                hits += 1
        self.frames_recycled += len(tags) - hits
        self.attach_hits += hits
        space._exclusive_frames -= hits
        self.memory._free_private(hits)

    def exchange_run(
        self, space: "GuestAddressSpace", old_tags: Sequence[int], new_tags: Sequence[int]
    ) -> int:
        """:meth:`exchange` pairwise; stops before the first pair that
        would raise and returns how many were exchanged. Sole-owner
        rewrites to new content re-key in place; the rest, whose ledger
        moves go both ways, take :meth:`exchange` itself."""
        entries = self._entries
        done = recycled = 0
        for old, new in zip(old_tags, new_tags):
            if old != new:
                miss = new not in entries
                if miss and entries[old].refs == 1:
                    entries[new] = entries.pop(old)
                    recycled += 1
                elif miss and not self.memory.free_frames:
                    break
                else:
                    self.exchange(space, old, new)
            done += 1
        self.frames_recycled += recycled
        return done

    def release_all(self, space: "GuestAddressSpace") -> int:
        """Drop every reference ``space`` holds — its runs whole, one
        :meth:`release` per overlay page — and return the frames nobody
        else maps to the pool in one call; returns how many."""
        freed = 0
        for run in space._runs:
            del self._runs[self._run_position(run.tag)]
            freed += run.count
        self._run_frames -= freed
        self.total_refs -= freed + len(space._overlay)
        detach = self._detach
        for tag in space._overlay.values():
            if detach(tag, space):
                freed += 1
        space._exclusive_frames -= freed
        self.memory._free_private(freed)
        return freed

    # ------------------------------------------------------------------ #
    # Verification (tests and the sweep's ledger check)
    # ------------------------------------------------------------------ #

    def audit(self) -> None:
        """Recount every counter from the raw entries and runs; raise
        :class:`AssertionError` on any drift. O(entries + runs) — for
        tests and debugging, not the hot path."""
        run_frames = sum(run.count for run in self._runs)
        if run_frames != self._run_frames:
            raise AssertionError(
                f"shared store drift: _run_frames={self._run_frames}, recount {run_frames}"
            )
        issued = 0  # one past the last tag of the previous run
        for run in self._runs:
            if run.count <= 0 or run.tag < issued:
                raise AssertionError(f"run at tag {run.tag}: empty, out of order or overlapping")
            issued = run.tag + run.count
            if run not in run.space._runs:
                raise AssertionError(f"run at tag {run.tag}: unknown to its address space")
            if not self._entries.keys().isdisjoint(range(run.tag, issued)):
                raise AssertionError(f"run at tag {run.tag}: a tag is also a store entry")
        if issued > _fresh_tags.next:
            raise AssertionError(f"run tags reach {issued}, past the fresh-tag counter")
        refs = sum(e.refs for e in self._entries.values()) + run_frames
        if refs != self.total_refs:
            raise AssertionError(
                f"shared store drift: total_refs={self.total_refs}"
                f" but entries and runs sum to {refs}"
            )
        shared = sum(1 for e in self._entries.values() if e.refs >= 2)
        if shared != self.shared_frames:
            raise AssertionError(
                f"shared store drift: shared_frames={self.shared_frames}, recount {shared}"
            )
        for tag, entry in self._entries.items():
            if entry.refs != sum(entry.holders.values()):
                raise AssertionError(f"entry {tag}: refs disagree with holder multiset")
            if entry.refs <= 0:
                raise AssertionError(f"entry {tag}: resident with refs={entry.refs}")
        exclusive: Dict["GuestAddressSpace", int] = {}
        for entry in self._entries.values():
            if len(entry.holders) == 1:
                holder = next(iter(entry.holders))
                exclusive[holder] = exclusive.get(holder, 0) + 1
        for run in self._runs:
            exclusive[run.space] = exclusive.get(run.space, 0) + run.count
        for space, expect in exclusive.items():
            if space._exclusive_frames != expect:
                raise AssertionError(
                    f"space {space!r}: _exclusive_frames={space._exclusive_frames},"
                    f" recount {expect}"
                )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<SharedFrameStore frames={self.distinct_frames}"
            f" refs={self.total_refs} shared={self.shared_frames}"
            f" saved={self.savings_frames}>"
        )


class MachineMemory:
    """A host's pool of physical page frames.

    Tracks allocation against a hard capacity; the honeyfarm's
    VMs-per-host results come directly from this accounting. The pool is
    split into invariant-checked sub-ledgers — ``image_frames`` (frozen
    reference images) and ``private_frames`` (VM overlays, deduplicated
    by the :class:`SharedFrameStore` when ``content_sharing`` is on).
    """

    def __init__(self, capacity_bytes: int, content_sharing: bool = True) -> None:
        if capacity_bytes <= 0:
            raise ValueError(f"capacity must be positive: {capacity_bytes!r}")
        self.capacity_frames = capacity_bytes // PAGE_SIZE
        self.allocated_frames = 0
        self.peak_allocated_frames = 0
        self.allocation_failures = 0
        self.image_frames = 0
        self.private_frames = 0
        self.content_sharing = bool(content_sharing)
        self.sharing: Optional[SharedFrameStore] = (
            SharedFrameStore(self) if content_sharing else None
        )

    @property
    def capacity_bytes(self) -> int:
        return self.capacity_frames * PAGE_SIZE

    @property
    def allocated_bytes(self) -> int:
        return self.allocated_frames * PAGE_SIZE

    @property
    def free_frames(self) -> int:
        return self.capacity_frames - self.allocated_frames

    @property
    def private_pages(self) -> int:
        """Pages the host's live address spaces have dirtied, summed —
        what the private frames would number without content sharing."""
        return self.sharing.total_refs if self.sharing is not None else self.private_frames

    @property
    def shared_frames(self) -> int:
        """Frames currently mapped by two or more page references."""
        return self.sharing.shared_frames if self.sharing is not None else 0

    @property
    def sharing_savings_frames(self) -> int:
        """Frames content sharing is saving right now (0 when disabled)."""
        return self.sharing.savings_frames if self.sharing is not None else 0

    def allocate(self, frames: int) -> None:
        """Claim ``frames`` physical frames or raise :class:`OutOfMemoryError`."""
        if frames < 0:
            raise ValueError(f"cannot allocate a negative frame count: {frames!r}")
        if self.allocated_frames + frames > self.capacity_frames:
            self.allocation_failures += 1
            raise OutOfMemoryError(
                f"requested {frames} frames, only {self.free_frames} free"
                f" of {self.capacity_frames}"
            )
        self.allocated_frames += frames
        if self.allocated_frames > self.peak_allocated_frames:
            self.peak_allocated_frames = self.allocated_frames

    def free(self, frames: int) -> None:
        """Return ``frames`` physical frames to the pool."""
        if frames < 0:
            raise ValueError(f"cannot free a negative frame count: {frames!r}")
        if frames > self.allocated_frames:
            raise ValueError(
                f"freeing {frames} frames but only {self.allocated_frames} allocated"
            )
        self.allocated_frames -= frames

    def can_fit(self, frames: int) -> bool:
        return self.allocated_frames + frames <= self.capacity_frames

    # ------------------------------------------------------------------ #
    # Sub-ledgers (image vs private); all frames flow through these so
    # the frame invariant below stays exact.
    # ------------------------------------------------------------------ #

    def _allocate_image(self, frames: int) -> None:
        self.allocate(frames)
        self.image_frames += frames

    def _free_image(self, frames: int) -> None:
        self.free(frames)
        self.image_frames -= frames

    def _allocate_private(self, frames: int) -> None:
        self.allocate(frames)
        self.private_frames += frames

    def _free_private(self, frames: int) -> None:
        self.free(frames)
        self.private_frames -= frames

    def check_frame_invariant(self) -> None:
        """Assert the frame ledger balances; O(1).

        ``allocated == image + private`` always, and with sharing on the
        private ledger must equal the store's distinct frame count (every
        private frame is owned by exactly one store entry).
        """
        if self.image_frames + self.private_frames != self.allocated_frames:
            raise AssertionError(
                f"frame ledger drift: image={self.image_frames}"
                f" + private={self.private_frames}"
                f" != allocated={self.allocated_frames}"
            )
        if self.sharing is not None and self.sharing.distinct_frames != self.private_frames:
            raise AssertionError(
                f"frame ledger drift: store holds {self.sharing.distinct_frames}"
                f" frames but private ledger says {self.private_frames}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<MachineMemory {self.allocated_frames}/{self.capacity_frames} frames"
            f" ({self.allocated_bytes // (1 << 20)} MiB used)"
            f" sharing={'on' if self.sharing is not None else 'off'}>"
        )


class ReferenceImage:
    """The frozen memory image of a booted reference VM.

    Allocated once on a host; every clone's base layer. ``sharers`` counts
    attached address spaces so the image cannot be released while clones
    still depend on it.
    """

    def __init__(self, memory: MachineMemory, page_count: int, name: str = "reference") -> None:
        if page_count <= 0:
            raise ValueError(f"page_count must be positive: {page_count!r}")
        memory._allocate_image(page_count)
        self.memory = memory
        self.page_count = page_count
        self.name = name
        self.sharers = 0
        self.released = False
        # Base contents: version tag per page, fixed at snapshot time.
        base_version = _fresh_tags.take()
        self._contents: Dict[int, int] = {}
        self._default_version = base_version

    def content_of(self, page: int) -> int:
        """Version tag of ``page`` in the frozen image."""
        self._check_page(page)
        return self._contents.get(page, self._default_version)

    def stamp_page(self, page: int) -> None:
        """Give ``page`` a distinct content tag (used when building a
        snapshot whose pages must be distinguishable in tests)."""
        self._check_page(page)
        if self.released:
            raise ValueError("cannot modify a released reference image")
        self._contents[page] = _fresh_tags.take()

    def _check_page(self, page: int) -> None:
        if not (0 <= page < self.page_count):
            raise IndexError(f"page {page} outside image of {self.page_count} pages")

    def attach(self) -> None:
        if self.released:
            raise ValueError("cannot attach to a released reference image")
        self.sharers += 1

    def detach(self) -> None:
        if self.sharers <= 0:
            raise ValueError("detach without matching attach")
        self.sharers -= 1

    def release(self) -> None:
        """Free the image's frames; only legal once no clones remain."""
        if self.released:
            return
        if self.sharers > 0:
            raise ValueError(f"cannot release image with {self.sharers} sharers")
        self.memory._free_image(self.page_count)
        self.released = True

    @property
    def bytes(self) -> int:
        return self.page_count * PAGE_SIZE

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<ReferenceImage {self.name!r} pages={self.page_count}"
            f" sharers={self.sharers}>"
        )


class GuestAddressSpace:
    """A VM's memory: a reference image plus private CoW pages, held as
    runs of fresh pages and a per-page overlay (see the module docstring).

    Two construction modes mirror the system under test and its ablation:

    * ``GuestAddressSpace(image)`` — **delta virtualization**: O(1)
      creation, zero initial private frames.
    * ``GuestAddressSpace(image, eager_copy=True)`` — the **full-copy
      baseline**: every page is copied (and charged) up front, as a
      conventional clone would.

    When the host memory has content sharing enabled, every private
    write routes through its :class:`SharedFrameStore`, so identical
    contents across (or within) VMs cost one frame.
    """

    def __init__(self, image: ReferenceImage, eager_copy: bool = False) -> None:
        if eager_copy and not image.memory.can_fit(image.page_count):
            # Refused before any state changes; ``allocate`` counts the
            # failure and raises OutOfMemoryError.
            image.memory.allocate(image.page_count)
        image.attach()
        self.image = image
        self.memory = image.memory
        self._store = self.memory.sharing
        self.eager_copy = eager_copy
        self._overlay: Dict[int, int] = {}
        self._runs: List[_Run] = []
        self.cow_faults = 0
        # Frames only this space references; maintained by the store.
        # Equals private_pages when sharing is off.
        self._exclusive_frames = 0
        self.destroyed = False
        if eager_copy:
            # A full copy is one write of the whole image. The bulk call
            # stops only before a fresh tag something has pinned ahead of
            # the counter; that page takes the single-page path.
            page = 0
            while page < image.page_count:
                page += self.write_run(page, image.page_count - page)
                if page < image.page_count:
                    self.write(page)
                    page += 1
            self.cow_faults = 0  # copied up front, not faulted

    # ------------------------------------------------------------------ #
    # Access
    # ------------------------------------------------------------------ #

    @property
    def page_count(self) -> int:
        return self.image.page_count

    def read(self, page: int) -> int:
        """Content tag visible at ``page`` (private pages win over base)."""
        self._check_alive()
        self.image._check_page(page)
        if page in self._overlay:
            return self._overlay[page]
        run = self._run_at(page)
        if run is not None:
            return run.tag + page - run.page
        return self.image.content_of(page)

    def _run_at(self, page: int) -> Optional[_Run]:
        """The run holding ``page``, if any. A guest has one run per
        boot, plus one per split, so a scan beats an index."""
        for run in self._runs:
            if 0 <= page - run.page < run.count:
                return run
        return None

    def _carve(self, run: _Run, offset: int, count: int) -> None:
        """Take the ``count`` pages from ``offset`` on out of ``run``,
        splitting the run around them. The pages keep their frames: no
        ledger moves, and the caller gives each a slot in the overlay
        (and, under sharing, an entry in the store)."""
        after = run.count - offset - count
        pieces = []
        if after:
            beyond = offset + count
            pieces.append(_Run(self, run.page + beyond, after, run.tag + beyond))
        if offset:
            run.count = offset  # the pages before the carved ones stay in place
            pieces.insert(0, run)
        i = self._runs.index(run)
        self._runs[i:i + 1] = pieces
        if self._store is not None:
            self._store.replace_run(run, pieces, count)

    def _carve_page(self, run: _Run, offset: int) -> int:
        """Move the page at ``offset`` of ``run`` to the per-page overlay
        so the single-page paths can act on it; returns the page's tag.
        Nothing a guest can observe changes."""
        page = run.page + offset
        tag = run.tag + offset
        self._carve(run, offset, 1)
        if self._store is not None:
            self._store.adopt(self, tag)
        self._overlay[page] = tag
        return tag

    def write(self, page: int, content: Optional[int] = None) -> int:
        """Dirty ``page``, taking a CoW fault on the first write; returns
        the new content tag.

        ``content`` pins the page's content tag: two pages (in any VMs)
        written with the same tag hold identical bytes. Malware bodies
        use this — the same worm writes the same code everywhere — which
        is exactly what the shared-frame store collapses: with sharing
        on, only the first write of a tag on the host pays a frame.
        ``None`` means freshly generated, globally unique content.
        """
        self._check_alive()
        self.image._check_page(page)
        tag = _fresh_tags.take() if content is None else content
        store = self._store
        old = self._overlay.get(page)
        if old is None:
            run = self._run_at(page)
            if run is not None:
                old = self._carve_page(run, page - run.page)
        if old is not None:
            if store is not None:
                store.exchange(self, old, tag)
        else:
            if store is not None:
                store.intern(self, tag)
            else:
                self.memory._allocate_private(1)
            self.cow_faults += 1
        self._overlay[page] = tag
        return tag

    def write_run(
        self, page: int, count: int, contents: Optional[Sequence[int]] = None
    ) -> int:
        """Dirty up to ``count`` pages from ``page`` on; returns how many
        were written.

        Equivalent to ``write(page + i, contents[i] if contents else
        None)`` for every ``i`` below the returned number, at the cost of
        one call: the range is walked as segments — pages inside one
        run, clean pages, pages already in the overlay — and each
        segment's ledger work is done once. Fresh content (``contents``
        None) on clean pages is recorded as a run, O(1) whatever its
        length. The run stops *before* a page whose single write would
        raise (the pool is exhausted) or whose tag needs the single-page
        lookups (:meth:`SharedFrameStore.bulk_prefix`); the caller sends
        that page through :meth:`write` and sees what it does.
        """
        self._check_alive()
        self.image._check_page(page)
        if count <= 0:
            return 0
        self.image._check_page(page + count - 1)
        if contents is not None and len(contents) != count:
            raise ValueError(f"{len(contents)} content tags for {count} pages")
        store = self._store
        memory = self.memory
        overlay = self._overlay
        if store is not None:
            count = store.bulk_prefix(count, contents)
        done = 0
        while done < count:
            at = page + done
            run, length = self._segment_at(at, count - done)
            private = run is not None or at in overlay
            if contents is None:
                tags: Sequence[int] = range(_fresh_tags.next, _fresh_tags.next + length)
            else:
                tags = contents[done:done + length]
            wrote = length
            if run is not None:
                self._carve(run, at - run.page, length)
                if store is not None:
                    store.retag_run(self, tags)
            elif private:
                if store is not None:
                    olds = [overlay[p] for p in range(at, at + length)]
                    wrote = store.exchange_run(self, olds, tags)
            elif contents is None:
                # Fresh content on clean pages stays one extent.
                wrote = min(length, memory.free_frames)
                if wrote and store is not None:
                    self._runs.append(store.add_run(self, at, wrote, tags[0]))
                elif wrote:
                    memory._allocate_private(wrote)
                    self._runs.append(_Run(self, at, wrote, tags[0]))
            elif store is not None:
                wrote = store.intern_run(self, tags)
            else:
                wrote = min(length, memory.free_frames)
                memory._allocate_private(wrote)
            if contents is None:
                _fresh_tags.take(wrote)
            if private or contents is not None:
                overlay.update(zip(range(at, at + wrote), tags))
            if not private:
                self.cow_faults += wrote
            done += wrote
            if wrote < length:
                break
        return done

    def _segment_at(self, page: int, limit: int) -> Tuple[Optional[_Run], int]:
        """The longest stretch of at most ``limit`` pages from ``page`` on
        that are all of one kind — inside one run (returned with it), in
        the overlay, or clean."""
        overlay = self._overlay
        if page in overlay:
            return None, next((i for i in range(1, limit) if page + i not in overlay), limit)
        for run in self._runs:
            ahead = run.page - page
            if -run.count < ahead <= 0:
                return run, min(limit, ahead + run.count)
            if 0 < ahead < limit:
                limit = ahead
        if overlay:
            limit = next((i for i in range(1, limit) if page + i in overlay), limit)
        return None, limit

    def private_page_contents(self) -> Iterator[Tuple[int, int]]:
        """Iterate (page number, content tag) over the private pages."""
        return chain(self._overlay.items(), *(
            zip(range(run.page, run.page + run.count), range(run.tag, run.tag + run.count))
            for run in self._runs
        ))

    def is_private(self, page: int) -> bool:
        """Whether ``page`` has been dirtied away from the image."""
        self.image._check_page(page)
        return page in self._overlay or self._run_at(page) is not None

    # ------------------------------------------------------------------ #
    # Accounting
    # ------------------------------------------------------------------ #

    @property
    def private_pages(self) -> int:
        """Pages dirtied away from the image (logical private size)."""
        return len(self._overlay) + sum(run.count for run in self._runs)

    @property
    def shared_pages(self) -> int:
        return self.image.page_count - self.private_pages

    @property
    def private_bytes(self) -> int:
        return self.private_pages * PAGE_SIZE

    @property
    def reclaimable_frames(self) -> int:
        """Physical frames destroying this space returns to the pool.

        Under content sharing only *exclusively held* frames come back —
        frames shared with other spaces survive the teardown — so this,
        not :attr:`private_pages`, is what reclamation must project.
        """
        if self._store is not None:
            return self._exclusive_frames
        return self.private_pages

    def sharing_ratio(self) -> float:
        """Fraction of this VM's pages still shared with the image."""
        return self.shared_pages / self.image.page_count

    def private_page_numbers(self) -> Iterator[int]:
        return chain(self._overlay, *(
            range(run.page, run.page + run.count) for run in self._runs
        ))

    # ------------------------------------------------------------------ #
    # Teardown
    # ------------------------------------------------------------------ #

    def destroy(self) -> int:
        """Release all private references and detach from the image.

        Returns the number of physical frames freed (under sharing this
        can be less than the private page count). Idempotent.
        """
        if self.destroyed:
            return 0
        if self._store is not None:
            freed = self._store.release_all(self)
        else:
            freed = self.private_pages
            self.memory._free_private(freed)
        self._overlay.clear()
        self._runs.clear()
        self.image.detach()
        self.destroyed = True
        return freed

    def _check_alive(self) -> None:
        if self.destroyed:
            raise ValueError("address space has been destroyed")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<GuestAddressSpace private={self.private_pages}"
            f"/{self.image.page_count} pages>"
        )
