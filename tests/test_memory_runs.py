"""Runs of fresh pages: the boot working set as one extent.

``GuestAddressSpace.write_fresh_run`` must be indistinguishable from the
same number of single-page ``write`` calls. The reference here is the
per-page boot loop the guest used before runs existed; every test drives
one op sequence through both and compares everything a caller can see:
reads, returned tags, private page contents, CoW faults, the frame
ledgers, reclaimable frames and allocation failures. The store audit and
the frame invariant run after every op.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.addr import IPAddress
from repro.services.guest import GuestHost
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
MAX_GUESTS = 3
ROOMY = 4 * PAGES   # private frames beside the image: never runs out
TIGHT = PAGES + 6   # ... runs out in the middle of a second boot

# Pinned far above anything the fresh-tag counter reaches.
TAG_A = 10**15 + 1
TAG_B = 10**15 + 2

REGISTRY = default_registry()


def _per_page_boot(guest: GuestHost, count: int) -> None:
    """The boot loop before runs: one ``write`` per page."""
    total = guest.vm.address_space.page_count
    for _ in range(count):
        page = guest._page_cursor % total
        guest._page_cursor += 1
        if not guest._write_page(page):
            return


class _World:
    """One host, one image, up to ``MAX_GUESTS`` guests to replay ops in."""

    def __init__(self, runs: bool, sharing: bool, private_frames: int, evict: bool) -> None:
        reset_content_tags()
        self.runs = runs
        self.evict = evict
        self.memory = MachineMemory(
            (PAGES + private_frames) * PAGE_SIZE, content_sharing=sharing
        )
        self.snapshot = ReferenceSnapshot(
            self.memory, image_bytes=PAGES * PAGE_SIZE, disk_blocks=8
        )
        self.guests = {}

    def clone(self, key: int) -> GuestHost:
        vm = VirtualMachine(
            self.snapshot, GuestAddressSpace(self.snapshot.image),
            IPAddress.parse(f"10.16.0.{key + 1}"), 0.0,
        )
        guest = GuestHost(
            vm=vm,
            personality=REGISTRY.get("windows-default"),
            catalog=REGISTRY.catalog,
            sim=Simulator(),
            rng=RandomStream(1),
            on_oom=(lambda: self._evict_other(key)) if self.evict else None,
        )
        self.guests[key] = guest
        return guest

    def _evict_other(self, key: int) -> bool:
        """Memory-pressure handler: destroy the lowest-keyed other guest."""
        for other in sorted(self.guests):
            if other != key:
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
                if self.runs:
                    guest._dirty_pages(op[2])
                else:
                    _per_page_boot(guest, op[2])
                return guest._page_cursor, guest.dropped_page_writes
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
        self.memory.check_frame_invariant()
        store = self.memory.sharing
        if store is not None:
            store.audit()
        return {
            "memory": (
                self.memory.allocated_frames, self.memory.private_frames,
                self.memory.peak_allocated_frames, self.memory.allocation_failures,
            ),
            "store": None if store is None else (
                store.total_refs, store.distinct_frames, store.shared_frames,
                store.savings_frames, store.attach_hits, store.frames_recycled,
            ),
            "guests": {
                key: (
                    [g.vm.address_space.read(p) for p in range(PAGES)],
                    [g.vm.address_space.is_private(p) for p in range(PAGES)],
                    sorted(g.vm.address_space.private_page_contents()),
                    sorted(g.vm.address_space.private_page_numbers()),
                    g.vm.address_space.private_pages,
                    g.vm.address_space.cow_faults,
                    g.vm.address_space._exclusive_frames,
                    g.vm.address_space.reclaimable_frames,
                )
                for key, g in self.guests.items()
            },
        }


def _replay(ops, runs, sharing=True, private_frames=ROOMY, evict=False):
    world = _World(runs, sharing, private_frames, evict)
    return [(world.apply(op), world.observe()) for op in ops], world


def _assert_same(ops, **world):
    """Replay ``ops`` both ways, compare step by step; returns the run world."""
    with_runs, run_world = _replay(ops, runs=True, **world)
    per_page, _ = _replay(ops, runs=False, **world)
    for step, (got, want) in enumerate(zip(with_runs, per_page)):
        assert got == want, f"diverged at op {step}: {ops[step]!r}"
    return run_world


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
            world = _World(runs=True, sharing=True, private_frames=ROOMY, evict=False)
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


# ---------------------------------------------------------------------- #
# Hypothesis: any interleaving, both sharing modes, with and without room
# ---------------------------------------------------------------------- #

guest_keys = st.integers(min_value=0, max_value=MAX_GUESTS - 1)
pages = st.integers(min_value=0, max_value=PAGES - 1)
ops_strategy = st.lists(
    st.one_of(
        st.tuples(st.just("clone"), guest_keys),
        st.tuples(st.just("destroy"), guest_keys),
        st.tuples(st.just("boot"), guest_keys, st.integers(min_value=1, max_value=PAGES + 4)),
        st.tuples(st.just("write"), guest_keys, pages,
                  st.sampled_from([None, None, TAG_A, TAG_B, 9, 40])),
        st.tuples(st.just("copy"), guest_keys, pages, guest_keys, pages),
    ),
    min_size=1, max_size=30,
)


@pytest.mark.slow
class TestRunEquivalenceProperty:
    @given(ops_strategy, st.booleans(), st.sampled_from([ROOMY, TIGHT]), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_runs_match_per_page_writes(self, ops, sharing, private_frames, evict):
        _assert_same(ops, sharing=sharing, private_frames=private_frames, evict=evict)
