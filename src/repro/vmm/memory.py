"""Page-granular memory with copy-on-write and content-based sharing.

This module is the mechanism behind the paper's key memory result: a
flash-cloned VM initially shares *every* page with its reference image and
pays physical memory only for pages it subsequently dirties, so hundreds
of honeypot VMs fit in the RAM that would conventionally hold a handful.

Representation
--------------
A clone's address space is a **base + runs + extents**:

* the *base* is an immutable :class:`ReferenceImage` whose frames were
  allocated once, when the reference snapshot was taken;
* a *run* holds consecutive clean pages dirtied in one call with fresh
  content — the boot working set, a connection's buffers. Each page is
  one frame only its owner references, so writing and freeing a run
  costs one allocator call and one bump per counter, whatever its length;
* an *extent* holds every other private page: pinned content (a worm
  body) and rewrites.

Both are ``(first page, count, tags, start)``, page ``page + i`` reading
``tags[start + i]``: ``tags`` is the call's range of fresh tags or the
caller's pinned sequence, kept by reference — every victim of a worm
points at the one tuple of its body — so a page costs no object of its
own. Writing into a run or an extent splits it around the pages written,
which become an extent.

Every guest write is one :meth:`GuestAddressSpace.write_run` call, the
only code that moves the frame ledger. It walks the range as segments —
pages inside one run, pages inside one extent, clean pages — and does
each segment's ledger work once: one splice of a piece list, one
allocator call, one bump per counter, and per page only the store lookup
and the refcount update.

So clone creation is O(1) in pages — exactly the property that makes
flash cloning fast in the real system, where only page tables are
touched — and so is the clone's first activity. Frame *contents* are
integer version tags: the experiments depend on which pages are private,
not on their bytes, but tags let tests verify CoW isolation.

Content-based sharing
---------------------
The paper's next multiplier after delta virtualization collapses pages
whose contents are identical though written independently (ESX-style
transparent page sharing; Waldspurger, OSDI 2002): every victim of a
worm carries the same body. With sharing on (the default;
``content_sharing=False`` is the ablation) each :class:`MachineMemory`
owns a :class:`SharedFrameStore`, a content tag → refcount table: the
first writer of a tag pays one frame, every later writer on the host
shares it, and the frame returns to the pool with its last reference.
Pinned content has its own tag space: every pinned tag carries
:data:`PINNED`, which fresh tags never reach, and ``write_run`` refuses
any other. So a page of a fresh run is never shared or looked up and has
no entry — the store only counts run frames. Every write and release is
O(1) per page, so

    resident = image frames + distinct private contents

stays an exact, cheaply-queryable quantity rather than a scanner result.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "PAGE_SIZE",
    "PINNED",
    "OutOfMemoryError",
    "reset_content_tags",
    "MachineMemory",
    "SharedFrameStore",
    "ReferenceImage",
    "GuestAddressSpace",
]

PAGE_SIZE = 4096
"""Bytes per page; delta virtualization operates at this granularity."""

PINNED = 1 << 63
"""The bit every pinned content tag carries (a worm body's pages are
pinned). Fresh tags count up from 1 and never reach it."""


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


class _Run:
    """``count`` consecutive private pages from ``page`` on, page
    ``page + i`` holding ``tags[start + i]``. In a space's run list the
    tags are fresh and every page is a frame only that space references;
    in its extent list they are store entries when sharing is on."""

    __slots__ = ("page", "count", "tags", "start")

    def __init__(self, page: int, count: int, tags: Sequence[int], start: int) -> None:
        self.page = page
        self.count = count
        self.tags = tags
        self.start = start

    def contents(self) -> Sequence[int]:
        """Content tags of the pages, in page order."""
        return self.tags[self.start:self.start + self.count]



class SharedFrameStore:
    """Content tag → refcounted physical frame (transparent page sharing).

    One store per :class:`MachineMemory`; all private writes on the host
    go through it. Interning a tag either allocates a fresh frame (first
    sight of that content) or bumps the refcount of the existing frame
    (a *hit* — the sharing win). Releasing drops the refcount and frees
    the frame when it reaches zero. A page of a guest's fresh run has no
    entry — no other page can name its tag — and is one reference and one
    frame in ``_run_frames`` until it is rewritten.

    Invariants (checked by :meth:`audit` and the hypothesis ledger test):

    * ``total_refs`` == Σ over live address spaces of their private pages;
    * ``distinct_frames`` == entries + pages in runs
      == physical frames the store holds
      == the owning memory's ``private_frames``;
    * ``shared_frames`` == entries with ``refs >= 2``;
    * ``savings_frames`` == ``total_refs - distinct_frames`` — frames a
      sharing-off host would additionally need for the same contents.

    An entry is only a reference count: the store does not know which
    spaces hold a frame. Which frames a space holds alone — what
    destroying it returns — is counted when asked
    (:attr:`GuestAddressSpace.reclaimable_frames`).
    """

    def __init__(self, memory: "MachineMemory") -> None:
        self.memory = memory
        self._entries: Dict[int, int] = {}  # content tag -> references
        self._run_frames = 0  # pages in live runs, one frame each
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
        """Current reference count of ``tag``'s entry (0 if it has none)."""
        return self._entries.get(tag, 0)

    # ------------------------------------------------------------------ #
    # Mutation — the segments of GuestAddressSpace.write_run, each taking
    # its pages in order. The allocator is called once per segment where
    # every ledger move of the segment goes the same way, so the peak is
    # the page-at-a-time one; exchange_run, whose moves may go both ways,
    # calls it per page.
    # ------------------------------------------------------------------ #

    def _detach(self, tag: int) -> bool:
        """One page stops mapping ``tag``'s frame; True if that was the
        last reference (the entry is gone and the caller returns the
        frame to the pool)."""
        entries = self._entries
        refs = entries[tag] - 1
        if not refs:
            del entries[tag]
            return True
        if refs == 1:
            self.shared_frames -= 1
        entries[tag] = refs
        return False

    def intern_run(self, tags: Sequence[int]) -> int:
        """Map clean pages to the frames holding ``tags``, a hit sharing
        the resident frame and a miss taking a new one; stops before the
        first miss the pool has no frame for and returns how many were
        mapped."""
        entries = self._entries
        free = self.memory.free_frames
        done = misses = 0
        for tag in tags:
            refs = entries.get(tag, 0)
            if not refs:
                if misses == free:
                    break
                misses += 1
            elif refs == 1:
                self.shared_frames += 1
            entries[tag] = refs + 1
            done += 1
        self.attach_hits += done - misses
        self.total_refs += done
        self.memory._allocate_private(misses)
        return done

    def retag_run(self, tags: Sequence[int]) -> None:
        """Pages just carved out of a run, each the only reference to its
        frame, are rewritten to ``tags`` and leave the run count. A miss
        re-keys the page's own frame; a hit shares the resident frame and
        frees the page's own."""
        entries = self._entries
        self._run_frames -= len(tags)
        hits = 0
        for tag in tags:
            refs = entries.get(tag, 0)
            if refs:
                hits += 1
                if refs == 1:
                    self.shared_frames += 1
            entries[tag] = refs + 1
        self.frames_recycled += len(tags) - hits
        self.attach_hits += hits
        self.memory._free_private(hits)

    def exchange_run(self, old_tags: Sequence[int], new_tags: Sequence[int]) -> int:
        """Rewrite extent pages from ``old_tags`` to ``new_tags``,
        pairwise; stops before the first pair the pool has no frame for
        and returns how many were rewritten.

        A sole owner rewriting to content nobody holds re-keys its frame
        in place: no allocator round trip, no transient over-allocation.
        Otherwise the new tag is mapped *first*, so a failed pair leaves
        the old mapping intact, and the old reference dropped after —
        per page, because these moves go both ways and the peak must be
        the page-at-a-time one.
        """
        entries = self._entries
        memory = self.memory
        done = recycled = 0
        for old, new in zip(old_tags, new_tags):
            if old != new:
                refs = entries.get(new, 0)
                if not refs and entries[old] == 1:
                    entries[new] = entries.pop(old)
                    recycled += 1
                else:
                    if refs:
                        self.attach_hits += 1
                        if refs == 1:
                            self.shared_frames += 1
                    elif memory.free_frames:
                        memory._allocate_private(1)
                    else:
                        break
                    entries[new] = refs + 1
                    if self._detach(old):
                        memory._free_private(1)
            done += 1
        self.frames_recycled += recycled
        return done

    def release_all(self, space: "GuestAddressSpace") -> int:
        """Drop every reference ``space`` holds — its runs whole, its
        extent pages one by one — and return the frames nobody else maps
        to the pool in one call; returns how many."""
        freed = sum(run.count for run in space._runs)
        self._run_frames -= freed
        self.total_refs -= space.private_pages
        for extent in space._extents:
            freed += sum(map(self._detach, extent.contents()))
        self.memory._free_private(freed)
        return freed

    # ------------------------------------------------------------------ #
    # Verification (tests and the sweep's ledger check)
    # ------------------------------------------------------------------ #

    def audit(self) -> None:
        """Recount every counter from the raw entries; raise
        :class:`AssertionError` on any drift. O(entries) — for tests and
        debugging, not the hot path."""
        refs = sum(self._entries.values()) + self._run_frames
        if refs != self.total_refs:
            raise AssertionError(
                f"shared store drift: total_refs={self.total_refs}"
                f" but entries and run frames sum to {refs}"
            )
        shared = sum(1 for count in self._entries.values() if count >= 2)
        if shared != self.shared_frames:
            raise AssertionError(
                f"shared store drift: shared_frames={self.shared_frames}, recount {shared}"
            )
        for tag, count in self._entries.items():
            if count <= 0:
                raise AssertionError(f"entry {tag}: resident with refs={count}")

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
    reference images) and ``private_frames`` (VMs' dirtied pages, deduplicated
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
    runs of fresh pages and extents over shared tag sequences (see the
    module docstring). A guest holds a few of each — one run per boot or
    connection write, one extent per write that is not a fresh run —
    whatever the pages number, so a scan beats an index.

    Two construction modes mirror the system under test and its ablation:

    * ``GuestAddressSpace(image)`` — **delta virtualization**: O(1)
      creation, zero initial private frames.
    * ``GuestAddressSpace(image, eager_copy=True)`` — the **full-copy
      baseline**: every page is copied (and charged) up front, as a
      conventional clone would.

    When the host memory has content sharing enabled, every private
    write routes through its :class:`SharedFrameStore`, so identical
    contents across (or within) VMs cost one frame.

    A space with no extent holds the empty tuple in place of a list:
    most clones never rewrite a page or pin content.
    """

    __slots__ = (
        "image", "memory", "_store", "eager_copy", "_runs", "_extents",
        "cow_faults", "destroyed",
    )

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
        self._runs: List[_Run] = []
        self._extents: Sequence[_Run] = ()
        self.cow_faults = 0
        self.destroyed = False
        if eager_copy:
            # A full copy is one write of the whole image; the pool was
            # checked above to hold it.
            self.write_run(0, image.page_count)
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
        _, piece, _ = self._segment_at(page, 1)
        if piece is not None:
            return piece.tags[piece.start + page - piece.page]
        return self.image.content_of(page)

    def _carve(self, held: List[_Run], piece: _Run, offset: int, count: int) -> None:
        """Take the ``count`` pages from ``offset`` on out of ``piece``, one
        of ``held`` (this space's runs or its extents), splitting it
        around them. The pages keep their frames: no ledger moves, and the
        caller gives them an extent (and, under sharing, store entries)."""
        after = piece.count - offset - count
        pieces = []
        if after:
            beyond = offset + count
            pieces.append(_Run(piece.page + beyond, after, piece.tags, piece.start + beyond))
        if offset:
            piece.count = offset  # the pages before the carved ones stay in place
            pieces.insert(0, piece)
        i = held.index(piece)
        held[i:i + 1] = pieces

    def _add_extent(self, page: int, count: int, tags: Sequence[int], start: int) -> None:
        """Pages ``page..`` now hold ``tags[start..]``: grow the last
        extent when they continue it, else add one."""
        extents = self._extents
        last = extents[-1] if extents else None
        if last and last.tags is tags and last.page - page == last.start - start == -last.count:
            last.count += count
        elif extents:
            extents.append(_Run(page, count, tags, start))
        else:
            self._extents = [_Run(page, count, tags, start)]

    def write(self, page: int, content: Optional[int] = None) -> int:
        """Dirty ``page`` with ``content`` (fresh, globally unique content
        when None, else a tag carrying :data:`PINNED`) and return the tag
        written: a one-page :meth:`write_run` that raises
        :class:`OutOfMemoryError` when the pool has no frame for the page.
        Pages (in any VMs) written with the same tag hold identical bytes
        — a worm body's pages, which the shared-frame store keeps once
        per host.
        """
        tag = _fresh_tags.next if content is None else content
        if not self.write_run(page, 1, None if content is None else (content,)):
            raise OutOfMemoryError(f"no free frame for page {page}")
        return tag

    def write_run(
        self, page: int, count: int, contents: Optional[Sequence[int]] = None
    ) -> int:
        """Dirty up to ``count`` pages from ``page`` on, page ``i`` with
        ``contents[i]`` (fresh content when ``contents`` is None);
        returns how many were written. ``contents`` is kept by reference
        and must not change afterwards; a tag in it without
        :data:`PINNED` raises :class:`ValueError` before anything moves.

        The range is walked as segments — pages inside one run, pages
        inside one extent, clean pages — and each segment's ledger work
        is done once. Fresh content on clean pages is recorded as a run,
        O(1) whatever its length; every other segment becomes an extent
        over ``contents`` (or the call's range of fresh tags).

        The write stops before the first page the pool has no frame for:
        that page counts one failed allocation and, for fresh content,
        spends the tag it drew.
        """
        self._check_alive()
        self.image._check_page(page)
        if count <= 0:
            return 0
        self.image._check_page(page + count - 1)
        if contents is not None:
            if len(contents) != count:
                raise ValueError(f"{len(contents)} content tags for {count} pages")
            unpinned = next((tag for tag in contents if not tag & PINNED), None)
            if unpinned is not None:
                raise ValueError(f"content tag {unpinned:#x} does not carry PINNED")
        store = self._store
        memory = self.memory
        runs = self._runs
        # Page ``page + i`` gets ``seq[i]``: fresh tags are drawn in page
        # order, so the counter stands at ``seq[done]`` at every segment.
        first = _fresh_tags.next
        seq = contents if contents is not None else range(first, first + count)
        done = 0
        while done < count:
            at = page + done
            held, piece, length = self._segment_at(at, count - done)
            # Fresh content on clean pages stays one run.
            fresh_run = held is None and contents is None
            tags = seq[done:done + length]
            wrote = length
            if held is runs:
                self._carve(runs, piece, at - piece.page, length)
                if store is not None:
                    store.retag_run(tags)
            elif held is not None:
                offset = piece.start + at - piece.page
                if store is not None:
                    wrote = store.exchange_run(piece.tags[offset:offset + length], tags)
                if wrote:
                    self._carve(held, piece, at - piece.page, wrote)
            elif store is not None and not fresh_run:
                wrote = store.intern_run(tags)
            else:
                # A fresh run, or pinned pages with sharing off: one new
                # frame a page.
                wrote = min(length, memory.free_frames)
                memory._allocate_private(wrote)
                if fresh_run and wrote:
                    runs.append(_Run(at, wrote, seq, done))
                    if store is not None:
                        store._run_frames += wrote
                        store.total_refs += wrote
            if contents is None:
                _fresh_tags.take(wrote)
            if wrote and not fresh_run:
                self._add_extent(at, wrote, seq, done)
            if held is None:
                self.cow_faults += wrote
            done += wrote
            if wrote < length:
                memory.allocation_failures += 1
                if contents is None:
                    _fresh_tags.take()
                break
        return done

    def _segment_at(
        self, page: int, limit: int
    ) -> Tuple[Optional[List[_Run]], Optional[_Run], int]:
        """The longest stretch of at most ``limit`` pages from ``page`` on
        that are all of one kind: inside one run or one extent (returned
        with the list holding it), or clean (``None, None``)."""
        for held in (self._runs, self._extents):
            for piece in held:
                ahead = piece.page - page
                if -piece.count < ahead <= 0:
                    return held, piece, min(limit, ahead + piece.count)
                if 0 < ahead < limit:
                    limit = ahead
        return None, None, limit

    def private_page_contents(self) -> Iterator[Tuple[int, int]]:
        """Iterate (page number, content tag) over the private pages."""
        return chain.from_iterable([
            zip(range(piece.page, piece.page + piece.count), piece.contents())
            for piece in chain(self._extents, self._runs)
        ])

    def is_private(self, page: int) -> bool:
        """Whether ``page`` has been dirtied away from the image."""
        self.image._check_page(page)
        return self._segment_at(page, 1)[0] is not None

    # ------------------------------------------------------------------ #
    # Accounting
    # ------------------------------------------------------------------ #

    @property
    def private_pages(self) -> int:
        """Pages dirtied away from the image (logical private size)."""
        return sum(piece.count for piece in chain(self._extents, self._runs))

    @property
    def shared_pages(self) -> int:
        return self.image.page_count - self.private_pages

    @property
    def private_bytes(self) -> int:
        return self.private_pages * PAGE_SIZE

    @property
    def reclaimable_frames(self) -> int:
        """Physical frames destroying this space returns to the pool.

        Under content sharing only frames no other space maps come back:
        every run frame, and each extent tag whose store refcount is this
        space's own count of it (a tag the space maps twice is still its
        alone). So this, not :attr:`private_pages`, is what reclamation
        must project. Counted when asked, in O(extent pages) — the order
        of the eviction it plans.
        """
        store = self._store
        if store is None:
            return self.private_pages
        refs = store._entries
        own = Counter(chain.from_iterable(extent.contents() for extent in self._extents))
        return sum(run.count for run in self._runs) + sum(
            1 for tag, held in own.items() if refs[tag] == held
        )

    def private_page_numbers(self) -> Iterator[int]:
        return chain.from_iterable([
            range(piece.page, piece.page + piece.count)
            for piece in chain(self._extents, self._runs)
        ])

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
        self._runs.clear()
        self._extents = ()
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
