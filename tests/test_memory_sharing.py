"""Content-based page sharing: the shared-frame store and its ledger.

Covers the mechanism at three levels:

* unit tests on :class:`~repro.vmm.memory.SharedFrameStore` refcounting
  (intern / release / exchange, frame recycling, OOM ordering safety,
  exclusive-frame maintenance);
* a hypothesis property: random interleavings of clone / write (fresh
  and repeated tags) / fresh run / destroy / image release conserve the
  frame ledger
  ``allocated == image frames + distinct private frames`` in both
  sharing modes, with identical guest-visible reads;
* farm-level ablation: the same fixed-seed worm storm with sharing on
  must behave identically at the guest level while hitting memory
  pressure strictly later (fewer pressure events, lower peak residency).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import HoneyfarmConfig
from repro.core.honeyfarm import Honeyfarm
from repro.net.addr import IPAddress
from repro.net.packet import udp_packet
from repro.vmm.memory import (
    PAGE_SIZE,
    GuestAddressSpace,
    MachineMemory,
    OutOfMemoryError,
    ReferenceImage,
)

ATTACKER = IPAddress.parse("203.0.113.44")

# Pinned content tags far above anything the fresh-tag counter reaches.
TAG_A = 10**15 + 1
TAG_B = 10**15 + 2
TAG_C = 10**15 + 3


@pytest.fixture
def memory():
    return MachineMemory(64 * (1 << 20))  # 16384 frames, sharing on


@pytest.fixture
def image(memory):
    return ReferenceImage(memory, page_count=64)


class TestSharedFrameStore:
    def test_first_writer_pays_second_shares(self, memory, image):
        a = GuestAddressSpace(image)
        b = GuestAddressSpace(image)
        base = memory.allocated_frames
        a.write(0, content=TAG_A)
        assert memory.allocated_frames == base + 1
        b.write(5, content=TAG_A)  # same content, different page and VM
        assert memory.allocated_frames == base + 1
        assert memory.sharing.attach_hits == 1
        assert memory.shared_frames == 1
        assert memory.sharing_savings_frames == 1
        assert a.read(0) == b.read(5) == TAG_A

    def test_intra_vm_duplicates_share_too(self, memory, image):
        a = GuestAddressSpace(image)
        base = memory.allocated_frames
        a.write(0, content=TAG_A)
        a.write(1, content=TAG_A)
        assert memory.allocated_frames == base + 1
        assert a.private_pages == 2
        assert memory.sharing_savings_frames == 1
        # Both references are the same space's: still fully reclaimable.
        assert a.reclaimable_frames == 1

    def test_frame_freed_only_when_last_sharer_leaves(self, memory, image):
        a = GuestAddressSpace(image)
        b = GuestAddressSpace(image)
        base = memory.allocated_frames
        a.write(0, content=TAG_A)
        b.write(0, content=TAG_A)
        b.write(0, content=TAG_B)  # b dirties away: a still holds TAG_A
        assert memory.allocated_frames == base + 2
        assert a.read(0) == TAG_A
        assert memory.shared_frames == 0
        a.write(0, content=TAG_C)  # last TAG_A reference rewritten
        assert memory.sharing.refs_of(TAG_A) == 0
        assert memory.allocated_frames == base + 2

    def test_sole_owner_rewrite_recycles_frame(self, memory, image):
        a = GuestAddressSpace(image)
        a.write(0, content=TAG_A)
        peak = memory.peak_allocated_frames
        allocated = memory.allocated_frames
        a.write(0, content=TAG_B)
        assert memory.allocated_frames == allocated
        assert memory.peak_allocated_frames == peak  # no transient +1
        assert memory.sharing.frames_recycled == 1
        assert a.read(0) == TAG_B

    def test_rewrite_same_tag_is_noop(self, memory, image):
        a = GuestAddressSpace(image)
        a.write(0, content=TAG_A)
        refs = memory.sharing.refs_of(TAG_A)
        a.write(0, content=TAG_A)
        assert memory.sharing.refs_of(TAG_A) == refs
        memory.sharing.audit()

    def test_exclusive_frames_track_sharer_comings_and_goings(self, memory, image):
        a = GuestAddressSpace(image)
        b = GuestAddressSpace(image)
        a.write(0, content=TAG_A)
        assert a.reclaimable_frames == 1
        b.write(0, content=TAG_A)  # a loses exclusivity
        assert a.reclaimable_frames == 0
        assert b.reclaimable_frames == 0
        b.write(0, content=TAG_B)  # a regains it
        assert a.reclaimable_frames == 1
        assert b.reclaimable_frames == 1
        memory.sharing.audit()

    def test_destroy_returns_only_physical_frames(self, memory, image):
        a = GuestAddressSpace(image)
        b = GuestAddressSpace(image)
        a.write(0, content=TAG_A)
        a.write(1, content=TAG_B)
        b.write(0, content=TAG_A)
        base = memory.allocated_frames
        freed = b.destroy()
        # b's only page was shared with a: nothing physical came back.
        assert freed == 0
        assert memory.allocated_frames == base
        assert a.read(0) == TAG_A
        freed = a.destroy()
        assert freed == 2
        memory.check_frame_invariant()

    def test_oom_on_rewrite_leaves_old_mapping_intact(self, image):
        # A tiny pool: image (64) + 2 private frames.
        memory = image.memory
        tight = MachineMemory((64 + 2) * PAGE_SIZE)
        img = ReferenceImage(tight, page_count=64)
        a = GuestAddressSpace(img)
        b = GuestAddressSpace(img)
        a.write(0, content=TAG_A)
        b.write(0, content=TAG_A)  # shared: rewrite cannot recycle
        b.write(1, content=TAG_B)  # pool now full
        with pytest.raises(OutOfMemoryError):
            b.write(0, content=TAG_C)  # needs a frame; must not lose TAG_A
        assert b.read(0) == TAG_A
        assert tight.sharing.refs_of(TAG_A) == 2
        tight.check_frame_invariant()
        tight.sharing.audit()
        assert memory.allocated_frames == 64  # fixture pool untouched

    def test_oom_on_fresh_write_changes_nothing(self):
        tight = MachineMemory((8 + 1) * PAGE_SIZE)
        img = ReferenceImage(tight, page_count=8)
        a = GuestAddressSpace(img)
        a.write(0, content=TAG_A)
        with pytest.raises(OutOfMemoryError):
            a.write(1, content=TAG_B)
        assert not a.is_private(1)
        assert a.cow_faults == 1
        assert tight.allocation_failures == 1
        tight.check_frame_invariant()

    def test_eager_copy_rolls_back_cleanly_on_oom(self):
        tight = MachineMemory((8 + 4) * PAGE_SIZE)
        img = ReferenceImage(tight, page_count=8)
        with pytest.raises(OutOfMemoryError):
            GuestAddressSpace(img, eager_copy=True)
        assert img.sharers == 0
        assert tight.allocated_frames == 8
        assert tight.allocation_failures == 1  # refused once, up front
        tight.check_frame_invariant()
        tight.sharing.audit()

    def test_eager_copy_is_one_run_around_a_pinned_fresh_tag(self, memory, image):
        """The full copy is a single bulk write: one run, except that a
        fresh tag something pinned ahead of the counter must share that
        frame, exactly as page-by-page interning did."""
        other = GuestAddressSpace(image)
        pinned = other.write(0) + 11  # the copy's page 10 will draw this tag
        other.write(1, content=pinned)
        base = memory.allocated_frames
        copy = GuestAddressSpace(image, eager_copy=True)
        assert copy.private_pages == 64 and copy.cow_faults == 0
        assert copy.read(10) == pinned
        assert memory.sharing.refs_of(pinned) == 2
        assert memory.allocated_frames == base + 63
        assert [(r.page, r.count) for r in copy._runs] == [(0, 10), (11, 53)]
        memory.sharing.audit()

    def test_sharing_off_keeps_original_accounting(self):
        memory = MachineMemory(64 * (1 << 20), content_sharing=False)
        image = ReferenceImage(memory, page_count=64)
        a = GuestAddressSpace(image)
        b = GuestAddressSpace(image)
        base = memory.allocated_frames
        a.write(0, content=TAG_A)
        b.write(0, content=TAG_A)
        assert memory.allocated_frames == base + 2  # no dedup
        assert memory.shared_frames == 0
        assert memory.sharing_savings_frames == 0
        assert a.reclaimable_frames == 1
        memory.check_frame_invariant()

    def test_invariant_catches_ledger_drift(self, memory, image):
        a = GuestAddressSpace(image)
        a.write(0, content=TAG_A)
        memory.check_frame_invariant()
        memory.private_frames += 1  # simulate drift
        with pytest.raises(AssertionError):
            memory.check_frame_invariant()


# ---------------------------------------------------------------------- #
# Hypothesis: the frame ledger under random interleavings
# ---------------------------------------------------------------------- #

PAGES = 16
MAX_SPACES = 6

# A small pool of repeatable tags (collisions likely) plus per-op unique
# tags; explicit in both worlds so sharing on/off see identical writes.
repeat_tags = st.integers(min_value=0, max_value=4).map(lambda k: 10**12 + k)


@st.composite
def op_sequences(draw):
    ops = []
    n = draw(st.integers(min_value=1, max_value=40))
    for index in range(n):
        kind = draw(st.sampled_from(["clone", "write", "write", "write", "run", "destroy"]))
        if kind == "clone":
            ops.append(("clone",))
        elif kind == "run":
            ops.append((
                "run",
                draw(st.integers(min_value=0, max_value=MAX_SPACES - 1)),
                draw(st.integers(min_value=0, max_value=PAGES - 1)),
                draw(st.integers(min_value=1, max_value=PAGES)),
            ))
        elif kind == "destroy":
            ops.append(("destroy", draw(st.integers(min_value=0, max_value=MAX_SPACES - 1))))
        else:
            fresh = draw(st.booleans())
            tag = 10**13 + index if fresh else draw(repeat_tags)
            ops.append((
                "write",
                draw(st.integers(min_value=0, max_value=MAX_SPACES - 1)),
                draw(st.integers(min_value=0, max_value=PAGES - 1)),
                tag,
            ))
    return ops


class _World:
    """One (memory, image, spaces) universe to replay an op sequence in."""

    def __init__(self, content_sharing: bool) -> None:
        self.memory = MachineMemory(4 * (1 << 20), content_sharing=content_sharing)
        self.image = ReferenceImage(self.memory, page_count=PAGES)
        self.spaces = {}

    def apply(self, op):
        """Apply one op; a run op returns how many pages it wrote."""
        if op[0] == "clone":
            if len(self.spaces) < MAX_SPACES:
                key = len(self.spaces)
                while key in self.spaces:
                    key += 1
                self.spaces[key] = GuestAddressSpace(self.image)
        elif op[0] == "destroy":
            space = self.spaces.pop(op[1], None)
            if space is not None:
                space.destroy()
        elif op[0] == "run":
            _, idx, page, count = op
            space = self.spaces.get(idx)
            if space is not None:
                return space.write_run(page, min(count, PAGES - page))
        else:
            _, idx, page, tag = op
            space = self.spaces.get(idx)
            if space is not None:
                space.write(page, content=tag)

    def check_ledger(self) -> None:
        self.memory.check_frame_invariant()
        overlay_refs = sum(s.private_pages for s in self.spaces.values())
        if self.memory.sharing is not None:
            self.memory.sharing.audit()
            assert self.memory.sharing.total_refs == overlay_refs
            distinct = len({
                tag
                for s in self.spaces.values()
                for _, tag in s.private_page_contents()
            })
            assert self.memory.private_frames == distinct
            assert self.memory.sharing_savings_frames == overlay_refs - distinct
        else:
            assert self.memory.private_frames == overlay_refs
        assert self.memory.allocated_frames == (
            self.memory.image_frames + self.memory.private_frames
        )

    def teardown(self) -> None:
        for space in self.spaces.values():
            space.destroy()
        self.spaces.clear()
        self.image.release()


@pytest.mark.slow
class TestFrameLedgerProperty:
    @given(op_sequences())
    @settings(max_examples=120, deadline=None)
    def test_ledger_conserved_and_reads_identical(self, ops):
        shared_world = _World(content_sharing=True)
        private_world = _World(content_sharing=False)
        for op in ops:
            assert shared_world.apply(op) == private_world.apply(op)
            shared_world.check_ledger()
            private_world.check_ledger()
            # Sharing never changes what guests observe. (The two worlds'
            # *images* carry different base version tags — they were
            # snapshotted separately — so compare dirtied state: the same
            # pages must be private with the same contents, and clean
            # pages must read through to the image in both. A fresh run
            # draws its tags from the process-wide counter, once per
            # world, so those pages are compared by privateness only.)
            assert set(shared_world.spaces) == set(private_world.spaces)
            for key, space in shared_world.spaces.items():
                other = private_world.spaces[key]
                for page in range(PAGES):
                    assert space.is_private(page) == other.is_private(page)
                    if space.is_private(page):
                        mine, theirs = space.read(page), other.read(page)
                        assert mine == theirs or max(mine, theirs) < 10**12
                    else:
                        assert space.read(page) == shared_world.image.content_of(page)
                        assert other.read(page) == private_world.image.content_of(page)
            # ... and never costs frames relative to the ablation.
            assert (
                shared_world.memory.allocated_frames
                <= private_world.memory.allocated_frames
            )
        shared_world.teardown()
        private_world.teardown()
        assert shared_world.memory.allocated_frames == 0
        assert private_world.memory.allocated_frames == 0
        shared_world.memory.check_frame_invariant()


# ---------------------------------------------------------------------- #
# Farm-level ablation: same behaviour, later pressure
# ---------------------------------------------------------------------- #

def _worm_storm(content_sharing: bool, host_memory_bytes: int) -> Honeyfarm:
    """A fixed-seed slammer storm over a /26 on one host."""
    farm = Honeyfarm(HoneyfarmConfig(
        prefixes=("10.16.0.0/26",), num_hosts=1,
        host_memory_bytes=host_memory_bytes,
        vm_image_bytes=16 * (1 << 20),
        containment="drop-all", clone_jitter=0.0, seed=9,
        memory_pressure_threshold=0.9,
        idle_timeout_seconds=600.0,
        sweep_interval_seconds=1.0,
        content_sharing=content_sharing,
    ))
    for i in range(40):
        farm.inject(udp_packet(
            ATTACKER, IPAddress.parse(f"10.16.0.{i + 1}"), 1, 1434,
            payload="exploit:slammer",
        ))
    farm.run(until=10.0)
    return farm


def _pressure_events(farm: Honeyfarm) -> int:
    return sum(
        getattr(policy, "pressure_events", 0)
        for policy in farm.reclamation.policies
    )


@pytest.mark.slow
class TestSharingAblation:
    # Roomy: 256 MiB for a 16 MiB image and ~40 small victims.
    ROOMY = 256 * (1 << 20)
    # Tight: sized between the two modes' measured demand — the storm
    # peaks at ~12,080 frames with sharing on and ~14,576 with it off
    # (image included), so a 13,696-frame host with a 0.9 threshold
    # pressures only the sharing-off run.
    TIGHT = 13696 * PAGE_SIZE

    def test_identical_guest_visible_behaviour_when_unconstrained(self):
        on = _worm_storm(True, self.ROOMY)
        off = _worm_storm(False, self.ROOMY)
        assert [
            (r.worm_name, str(r.victim), r.time, r.generation)
            for r in on.infections
        ] == [
            (r.worm_name, str(r.victim), r.time, r.generation)
            for r in off.infections
        ]
        assert on.metrics.counters() == off.metrics.counters()
        # Same logical footprints, fewer physical frames.
        assert (
            on.hosts[0].total_private_pages()
            == off.hosts[0].total_private_pages()
        )
        savings = on.hosts[0].memory.sharing_savings_frames
        assert savings > 0
        assert (
            on.hosts[0].memory.allocated_frames
            == off.hosts[0].memory.allocated_frames - savings
        )
        assert (
            on.hosts[0].memory.peak_allocated_frames
            < off.hosts[0].memory.peak_allocated_frames
        )

    def test_both_modes_are_deterministic(self):
        for sharing in (True, False):
            first = _worm_storm(sharing, self.TIGHT)
            second = _worm_storm(sharing, self.TIGHT)
            assert first.metrics.counters() == second.metrics.counters()
            assert [str(r.victim) for r in first.infections] == [
                str(r.victim) for r in second.infections
            ]
            assert (
                first.hosts[0].memory.peak_allocated_frames
                == second.hosts[0].memory.peak_allocated_frames
            )

    def test_sharing_defers_memory_pressure(self):
        on = _worm_storm(True, self.TIGHT)
        off = _worm_storm(False, self.TIGHT)
        assert _pressure_events(off) > 0  # the scenario does exert pressure
        assert _pressure_events(on) < _pressure_events(off)
        assert (
            on.hosts[0].memory.peak_allocated_frames
            < off.hosts[0].memory.peak_allocated_frames
        )
        on_evictions = on.metrics.counters().get("farm.pressure_evictions", 0) + \
            on.metrics.counters().get("farm.sweep_reclaims", 0)
        off_evictions = off.metrics.counters().get("farm.pressure_evictions", 0) + \
            off.metrics.counters().get("farm.sweep_reclaims", 0)
        assert on_evictions <= off_evictions
        on.hosts[0].memory.check_frame_invariant()
