"""A guest write is one extent call: bulk against per-page, step by step.

``GuestAddressSpace.write_run`` must be indistinguishable from the same
number of single-page ``write`` calls. The reference here is the per-page
loop every guest write pattern used before ``write_run`` existed; each
test drives one op sequence through the real guest code twice — once as
it is, once with ``GuestHost._write_run`` replaced by that loop — and
compares everything a caller can see after every op: reads, returned
tags, private page contents, CoW faults, the frame ledgers, reclaimable
frames, allocation failures and the guest's cursors. The store audit and
the frame invariant run after every op.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.net.addr import IPAddress
from repro.net.packet import udp_packet
from repro.services.guest import GuestHost, _worm_body_region, _worm_body_tags
from repro.services.personality import default_registry
from repro.sim.engine import Simulator
from repro.sim.rand import RandomStream
from repro.vmm.memory import (
    PAGE_SIZE,
    GuestAddressSpace,
    MachineMemory,
    OutOfMemoryError,
    reset_content_tags,
)
from repro.vmm.snapshot import ReferenceSnapshot
from repro.vmm.vm import VirtualMachine

PAGES = 16
MAX_GUESTS = 4
ROOMY = 4 * PAGES   # private frames beside the image: never runs out
TIGHT = PAGES + 6   # ... runs out in the middle of a second boot

# Pinned far above anything the fresh-tag counter reaches.
TAG_A = 10**15 + 1
TAG_B = 10**15 + 2

REGISTRY = default_registry()
WINDOWS = REGISTRY.get("windows-default")
SLAMMER_PAGES = REGISTRY.catalog.get("slammer").infection_pages
ATTACKER = IPAddress.parse("203.0.113.1")


def _body(family: int, count: int):
    """The first ``count`` content tags of worm ``family``'s body."""
    return tuple(10**15 + 1000 * (family + 1) + i for i in range(count))


def _per_page_write_run(guest: GuestHost, page: int, count: int, contents=None) -> int:
    """``GuestHost._write_run`` before runs: one ``write`` per page."""
    total = guest.vm.address_space.page_count
    for i in range(count):
        content = contents[i] if contents is not None else None
        if not guest._write_page((page + i) % total, content):
            return i
    return count


class _World:
    """``hosts`` hosts with one image each, up to ``MAX_GUESTS`` guests
    (guest ``key`` lives on host ``key % hosts``) to replay ops in."""

    def __init__(
        self, bulk: bool, sharing: bool, private_frames: int, evict: bool,
        hosts: int = 1, pages: int = PAGES,
    ) -> None:
        reset_content_tags()
        self.bulk = bulk
        self.evict = evict
        self.pages = pages
        self.memories = [
            MachineMemory((pages + private_frames) * PAGE_SIZE, content_sharing=sharing)
            for _ in range(hosts)
        ]
        self.snapshots = [
            ReferenceSnapshot(memory, image_bytes=pages * PAGE_SIZE, disk_blocks=2048)
            for memory in self.memories
        ]
        self.guests = {}

    @property
    def memory(self) -> MachineMemory:
        return self.memories[0]

    def clone(self, key: int) -> GuestHost:
        snapshot = self.snapshots[key % len(self.snapshots)]
        vm = VirtualMachine(
            snapshot, GuestAddressSpace(snapshot.image),
            IPAddress.parse(f"10.16.0.{key + 1}"), 0.0,
        )
        vm.start(now=0.0)
        guest = GuestHost(
            vm=vm,
            personality=WINDOWS,
            catalog=REGISTRY.catalog,
            sim=Simulator(),
            rng=RandomStream(1),
            on_oom=(lambda: self._evict_neighbour(key)) if self.evict else None,
        )
        if not self.bulk:
            guest._write_run = lambda *args: _per_page_write_run(guest, *args)
        self.guests[key] = guest
        return guest

    def _evict_neighbour(self, key: int) -> bool:
        """Memory-pressure handler: destroy the lowest-keyed other guest
        of the same host."""
        hosts = len(self.memories)
        for other in sorted(self.guests):
            if other != key and other % hosts == key % hosts:
                self.guests.pop(other).vm.address_space.destroy()
                return True
        return False

    def apply(self, op):
        """Run one op; returns what the caller of that op would see."""
        kind, key = op[0], op[1]
        if kind == "clone":
            if key not in self.guests:
                self.clone(key)
            return None
        guest = self.guests.get(key)
        if guest is None:
            return None
        space = guest.vm.address_space
        try:
            if kind == "destroy":
                del self.guests[key]
                return space.destroy()
            if kind == "boot":
                guest._dirty_pages(op[2])
                return None
            if kind == "conn":
                guest._dirty_connection_pages(op[2])
                return None
            if kind == "body":  # pinned run: worm family op[4]'s body at page op[2]
                return guest._write_run(op[2], op[3], _body(op[4], op[3]))
            if kind == "fresh":  # fresh rewrite run
                return guest._write_run(op[2], op[3])
            if kind == "mirror":  # pinned run of whatever another guest's pages hold
                source = self.guests.get(op[4])
                if source is None:
                    return None
                reads = tuple(
                    source.vm.address_space.read((op[5] + i) % self.pages)
                    for i in range(op[3])
                )
                return guest._write_run(op[2], op[3], reads)
            if kind == "packet":
                replies = guest.handle_packet(
                    udp_packet(ATTACKER, guest.vm.ip, 1, 1434, payload=op[2]), 0.0
                )
                return len(replies), guest.infected
            if kind == "write":
                return space.write(op[2], op[3])
            if kind == "copy":  # pin the content another guest's page holds
                source = self.guests.get(op[3])
                if source is None:
                    return None
                return space.write(op[2], source.vm.address_space.read(op[4]))
        except OutOfMemoryError:
            return "oom"
        raise AssertionError(f"unknown op {op!r}")

    def observe(self):
        seen = {"memory": [], "store": [], "guests": {}}
        for memory in self.memories:
            memory.check_frame_invariant()
            store = memory.sharing
            if store is not None:
                store.audit()
            seen["memory"].append((
                memory.allocated_frames, memory.private_frames,
                memory.peak_allocated_frames, memory.allocation_failures,
                memory.private_pages,
            ))
            seen["store"].append(None if store is None else (
                store.total_refs, store.distinct_frames, store.shared_frames,
                store.savings_frames, store.attach_hits, store.frames_recycled,
            ))
        for key, g in self.guests.items():
            space = g.vm.address_space
            seen["guests"][key] = (
                [space.read(p) for p in range(self.pages)],
                [space.is_private(p) for p in range(self.pages)],
                sorted(space.private_page_contents()),
                sorted(space.private_page_numbers()),
                space.private_pages,
                space.cow_faults,
                space._exclusive_frames,
                space.reclaimable_frames,
                g._page_cursor, g._conn_cursor, g.dropped_page_writes,
            )
        return seen


def _replay(ops, bulk, sharing=True, private_frames=ROOMY, evict=False, **shape):
    world = _World(bulk, sharing, private_frames, evict, **shape)
    return [(world.apply(op), world.observe()) for op in ops], world


def _assert_same(ops, **world):
    """Replay ``ops`` both ways, compare step by step; returns the bulk world."""
    with_runs, run_world = _replay(ops, bulk=True, **world)
    per_page, _ = _replay(ops, bulk=False, **world)
    for step, (got, want) in enumerate(zip(with_runs, per_page)):
        assert got == want, f"diverged at op {step}: {ops[step]!r}"
    return run_world


FREE_THEN_ALLOCATE = [
    ("clone", 0), ("clone", 1), ("clone", 2),
    ("body", 2, 2, 1, 1), ("body", 0, 3, 4, 0),
    ("write", 1, 2, TAG_A), ("body", 1, 3, 4, 0), ("body", 1, 2, 5, 1),
]


@pytest.mark.parametrize("sharing", [True, False])
class TestRunCases:
    def test_boot_is_one_run(self, sharing):
        world = _assert_same([("clone", 0), ("boot", 0, 10)], sharing=sharing)
        space = world.guests[0].vm.address_space
        assert [(r.page, r.count) for r in space._runs] == [(0, 10)]
        assert not space._overlay
        if sharing:
            assert not world.memory.sharing._entries

    def test_run_ends_exactly_at_image_end(self, sharing):
        ops = [("clone", 0), ("boot", 0, 6), ("boot", 0, PAGES - 6), ("boot", 0, 1)]
        world = _assert_same(ops, sharing=sharing)
        space = world.guests[0].vm.address_space
        assert space.private_pages == PAGES
        assert space.cow_faults == PAGES  # the wrapped page was a rewrite

    def test_wrap_around(self, sharing):
        # 10 pages, then 10 more: 6 to the image end, 4 rewrites of the head.
        world = _assert_same(
            [("clone", 0), ("boot", 0, 10), ("boot", 0, 10)], sharing=sharing
        )
        assert world.guests[0].vm.address_space.cow_faults == PAGES

    def test_boot_over_dirty_pages_stops_and_resumes(self, sharing):
        ops = [("clone", 0), ("write", 0, 3, None), ("write", 0, 4, TAG_A), ("boot", 0, 8)]
        _assert_same(ops, sharing=sharing)

    @pytest.mark.parametrize("page", [0, 4, 9])
    def test_rewrite_inside_a_run_splits_it(self, sharing, page):
        ops = [
            ("clone", 0), ("boot", 0, 10),
            ("write", 0, page, None), ("write", 0, page, TAG_A), ("write", 0, 5, TAG_A),
        ]
        world = _assert_same(ops, sharing=sharing)
        space = world.guests[0].vm.address_space
        assert sum(r.count for r in space._runs) == 8
        assert space.private_pages == 10

    def test_pinned_content_equal_to_a_run_tag_shares(self, sharing):
        ops = [
            ("clone", 0), ("clone", 1), ("boot", 0, 10),
            ("copy", 1, 2, 0, 4),   # guest 1 pins what guest 0's run page 4 holds
            ("copy", 0, 12, 0, 7),  # ... and guest 0 duplicates its own page 7
            ("write", 0, 4, TAG_A), ("destroy", 0), ("destroy", 1),
        ]
        _assert_same(ops, sharing=sharing)
        if sharing:
            world = _World(bulk=True, sharing=True, private_frames=ROOMY, evict=False)
            for op in ops[:4]:
                world.apply(op)
            tag = world.guests[0].vm.address_space.read(4)
            assert world.memory.sharing.refs_of(tag) == 2
            assert world.memory.sharing.refs_of(tag + 1) == 1  # still in the run
            assert world.guests[0].vm.address_space.reclaimable_frames == 9

    def test_rewrite_to_content_living_in_a_run(self, sharing):
        # Guest 1 solely owns TAG_A at page 3, then rewrites that page to
        # what guest 0's run holds: the frame must be shared, not recycled.
        ops = [
            ("clone", 0), ("clone", 1), ("boot", 0, 10),
            ("write", 1, 3, TAG_A), ("copy", 1, 3, 0, 4), ("copy", 0, 0, 0, 9),
        ]
        world = _assert_same(ops, sharing=sharing)
        if sharing:
            tag = world.guests[0].vm.address_space.read(4)
            assert world.memory.sharing.refs_of(tag) == 2

    @pytest.mark.parametrize("evict", [True, False])
    def test_oom_in_the_middle_of_a_boot(self, sharing, evict):
        ops = [("clone", 0), ("clone", 1), ("boot", 0, 12), ("boot", 1, 12), ("boot", 1, 3)]
        world = _assert_same(ops, sharing=sharing, private_frames=TIGHT, evict=evict)
        assert world.memory.allocation_failures >= 1
        assert (0 in world.guests) != evict
        assert (world.guests[1].dropped_page_writes == 0) == evict

    def test_content_pinned_ahead_of_the_counter(self, sharing):
        # Fresh tags start at 1 (the image takes the first); pin one the
        # boot will reach, so a page of the boot must share that frame.
        ops = [("clone", 0), ("clone", 1), ("write", 1, 0, 6), ("boot", 0, 10)]
        _assert_same(ops, sharing=sharing)

    def test_destroy_with_runs_and_pinned_pages(self, sharing):
        ops = [
            ("clone", 0), ("clone", 1), ("boot", 0, 8), ("boot", 1, 5),
            ("write", 0, 2, TAG_A), ("write", 1, 9, TAG_A), ("write", 0, 11, TAG_B),
            ("copy", 1, 12, 0, 6), ("destroy", 0), ("destroy", 1),
        ]
        world = _assert_same(ops, sharing=sharing)
        assert world.memory.private_frames == 0

    # -- pinned runs: the worm body ------------------------------------- #

    @pytest.mark.parametrize("page, count", [(0, 4), (3, 4), (7, 6)])
    def test_body_over_the_boot_run_head_middle_and_tail(self, sharing, page, count):
        ops = [("clone", 0), ("boot", 0, 10), ("body", 0, page, count, 0), ("destroy", 0)]
        world = _World(bulk=True, sharing=sharing, private_frames=ROOMY, evict=False)
        for op in ops[:3]:
            world.apply(op)
        space = world.guests[0].vm.address_space
        # One range carve: what is left of the run is at most two pieces.
        inside = min(page + count, 10) - page
        assert sorted((r.page, r.count) for r in space._runs) == [
            piece for piece in ((0, page), (page + inside, 10 - page - inside)) if piece[1]
        ]
        assert [space.read(page + i) for i in range(count)] == list(_body(0, count))
        assert space.cow_faults == 10 + count - inside
        _assert_same(ops, sharing=sharing)

    def test_body_crossing_the_image_end_wraps(self, sharing):
        ops = [("clone", 0), ("boot", 0, 4), ("body", 0, PAGES - 3, 6, 0)]
        world = _assert_same(ops, sharing=sharing)
        space = world.guests[0].vm.address_space
        body = _body(0, 6)
        assert [space.read(p) for p in (13, 14, 15, 0, 1, 2)] == list(body)
        assert space.cow_faults == 4 + 3  # the wrapped half rewrote boot pages

    def test_body_over_pages_the_connection_region_owns(self, sharing):
        # Region pages 4.. : the first cycle leaves runs, a rewrite moves
        # pages to the overlay, the rest stay clean; the body crosses all.
        ops = [
            ("clone", 0), ("boot", 0, 4), ("conn", 0, 3), ("conn", 0, 3),
            ("fresh", 0, 5, 2), ("body", 0, 2, 12, 0), ("conn", 0, 6), ("destroy", 0),
        ]
        _assert_same(ops, sharing=sharing)

    def test_second_victim_hits_on_its_host_and_misses_on_another(self, sharing):
        # Guests 0 and 2 share host 0; guest 1 is alone on host 1.
        ops = [
            ("clone", 0), ("clone", 1), ("clone", 2),
            ("boot", 0, 8), ("boot", 1, 8), ("boot", 2, 8),
            ("body", 0, 2, 10, 0), ("body", 2, 2, 10, 0), ("body", 1, 2, 10, 0),
            ("destroy", 0), ("destroy", 2), ("destroy", 1),
        ]
        _assert_same(ops, sharing=sharing, hosts=2)
        if sharing:
            world = _World(True, True, ROOMY, evict=False, hosts=2)
            for op in ops[:9]:
                world.apply(op)
            first, second = (memory.sharing for memory in world.memories)
            assert (first.attach_hits, first.frames_recycled) == (10, 6)
            assert first.shared_frames == 10
            assert (second.attach_hits, second.frames_recycled) == (0, 6)
            # The second victim's six run frames went back to the pool.
            assert world.memories[0].private_frames == 8 + 8 + 4 - 6
            assert world.guests[2].vm.address_space.reclaimable_frames == 2
            assert world.guests[0].vm.address_space.reclaimable_frames == 2

    def test_pinned_tag_living_in_another_guests_run(self, sharing):
        # Guest 1 writes a run of what guest 0's boot run holds: tags
        # below the fresh-tag counter, which only the single-page path
        # may look up (it carves them out of guest 0's run).
        ops = [
            ("clone", 0), ("clone", 1), ("boot", 0, 10), ("boot", 1, 4),
            ("mirror", 1, 2, 5, 0, 3), ("fresh", 0, 2, 6), ("destroy", 0), ("destroy", 1),
        ]
        world = _assert_same(ops, sharing=sharing)
        assert world.memory.private_frames == 0

    def test_fresh_rewrite_run_over_runs_overlay_and_clean_pages(self, sharing):
        ops = [
            ("clone", 0), ("clone", 1), ("boot", 0, 6), ("write", 0, 8, TAG_A),
            ("write", 1, 1, TAG_A), ("fresh", 0, 3, 9), ("fresh", 0, 0, PAGES + 2),
        ]
        _assert_same(ops, sharing=sharing)

    def test_overlay_segment_frees_before_it_allocates(self, sharing):
        # Guest 1 rewrites overlay pages 2.. in one run: page 2 (sole
        # owner, new content resident in guest 2) frees a frame, page 3
        # (shared with guest 0, new content nowhere) then needs one. The
        # pool is at its peak, so one allocator call for the whole
        # segment would raise the peak or fail.
        for private_frames in (ROOMY, 9):
            world = _assert_same(
                FREE_THEN_ALLOCATE, sharing=sharing, private_frames=private_frames
            )
            if sharing:
                assert world.memory.peak_allocated_frames == PAGES + 9
                assert world.memory.allocation_failures == 0

    def test_connection_region_cycles_at_its_cap(self, sharing):
        # Cap 96 on a 16-page image: every call wraps somewhere.
        ops = [("clone", 0), ("boot", 0, 3)] + [("conn", 0, 7)] * 16
        world = _assert_same(ops, sharing=sharing)
        assert world.guests[0]._conn_cursor == 7 * 16

    @pytest.mark.parametrize("evict", [True, False])
    def test_oom_in_the_middle_of_a_body(self, sharing, evict):
        ops = [
            ("clone", 0), ("clone", 1), ("boot", 0, 12), ("boot", 1, 4),
            ("body", 1, 2, 12, 0), ("body", 1, 0, PAGES, 1),
        ]
        world = _assert_same(ops, sharing=sharing, private_frames=TIGHT, evict=evict)
        assert world.memory.allocation_failures >= 1
        assert (0 in world.guests) != evict

    # -- the same, through a real infection ----------------------------- #

    @pytest.mark.parametrize("evict", [True, False])
    def test_infection_runs_out_of_memory_mid_body(self, sharing, evict):
        # A 2 048-page image keeps the body clear of the working set, so
        # every body page needs a frame; the pool fits this guest
        # exactly, once the neighbour's 40 pages are gone.
        pages = 2048
        room = (
            WINDOWS.base_working_set_pages + WINDOWS.pages_per_connection + SLAMMER_PAGES
        )
        shape = dict(sharing=sharing, private_frames=room, evict=evict, pages=pages)
        ops = [("clone", 0), ("clone", 1), ("boot", 1, 40), ("packet", 0, "exploit:slammer")]
        world = _assert_same(ops, **shape)
        victim = world.guests[0]
        assert victim.infected
        base = _worm_body_region("slammer", pages, SLAMMER_PAGES)
        tags = _worm_body_tags("slammer", SLAMMER_PAGES)
        space = victim.vm.address_space
        written = SLAMMER_PAGES if evict else SLAMMER_PAGES - 40
        assert victim.dropped_page_writes == (0 if evict else 1)
        assert [space.read(base + i) for i in range(written)] == list(tags[:written])
        assert not any(space.is_private(base + i) for i in range(written, SLAMMER_PAGES))
        assert (1 in world.guests) != evict

    def test_reexploiting_an_infected_guest_writes_nothing(self, sharing):
        ops = [("clone", 0), ("packet", 0, "exploit:slammer")]
        world = _assert_same(ops, sharing=sharing, private_frames=2048, pages=1024)
        guest = world.guests[0]
        space = guest.vm.address_space
        # 1 024 pages: the body starts at page 0, on top of the boot run.
        assert _worm_body_region("slammer", 1024, SLAMMER_PAGES) % 1024 == 0
        assert space.read(0) == _worm_body_tags("slammer", SLAMMER_PAGES)[0]
        before = world.observe()
        exploit = udp_packet(ATTACKER, guest.vm.ip, 1, 1434, payload="exploit:slammer")
        assert guest._maybe_infect(exploit, 1.0) is False
        assert world.observe() == before


# ---------------------------------------------------------------------- #
# Hypothesis: any interleaving, both sharing modes, with and without room
# ---------------------------------------------------------------------- #

guest_keys = st.integers(min_value=0, max_value=MAX_GUESTS - 1)
pages = st.integers(min_value=0, max_value=PAGES - 1)
lengths = st.integers(min_value=1, max_value=PAGES + 4)
ops_strategy = st.lists(
    st.one_of(
        st.tuples(st.just("clone"), guest_keys),
        st.tuples(st.just("destroy"), guest_keys),
        st.tuples(st.just("boot"), guest_keys, lengths),
        st.tuples(st.just("conn"), guest_keys, st.integers(min_value=1, max_value=8)),
        st.tuples(st.just("body"), guest_keys, pages, lengths,
                  st.integers(min_value=0, max_value=1)),
        st.tuples(st.just("fresh"), guest_keys, pages, lengths),
        st.tuples(st.just("mirror"), guest_keys, pages,
                  st.integers(min_value=1, max_value=6), guest_keys, pages),
        st.tuples(st.just("write"), guest_keys, pages,
                  st.sampled_from([None, None, TAG_A, TAG_B, 9, 40, _body(0, 3)[2]])),
        st.tuples(st.just("copy"), guest_keys, pages, guest_keys, pages),
    ),
    min_size=1, max_size=30,
)


@pytest.mark.slow
class TestRunEquivalenceProperty:
    @given(ops_strategy, st.booleans(), st.sampled_from([ROOMY, TIGHT]), st.booleans(),
           st.sampled_from([1, 2]))
    @example(FREE_THEN_ALLOCATE, True, ROOMY, False, 1)
    @settings(max_examples=500, deadline=None)
    def test_runs_match_per_page_writes(self, ops, sharing, private_frames, evict, hosts):
        everyone = [("clone", key) for key in range(MAX_GUESTS)]
        _assert_same(
            everyone + ops,
            sharing=sharing, private_frames=private_frames, evict=evict, hosts=hosts,
        )
