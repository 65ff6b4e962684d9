"""Unit tests for CoW memory: the delta-virtualization mechanism."""

import pytest

from repro.vmm.memory import (
    PAGE_SIZE,
    GuestAddressSpace,
    MachineMemory,
    OutOfMemoryError,
    ReferenceImage,
)


@pytest.fixture
def memory():
    return MachineMemory(capacity_bytes=64 * (1 << 20))  # 16384 frames


@pytest.fixture
def image(memory):
    return ReferenceImage(memory, page_count=1024)


class TestMachineMemory:
    def test_capacity_in_frames(self, memory):
        assert memory.capacity_frames == 16384
        assert memory.capacity_bytes == 64 * (1 << 20)

    def test_allocate_and_free(self, memory):
        memory.allocate(100)
        assert memory.allocated_frames == 100
        assert memory.free_frames == 16284
        memory.free(40)
        assert memory.allocated_frames == 60

    def test_exhaustion_raises(self, memory):
        memory.allocate(memory.capacity_frames)
        with pytest.raises(OutOfMemoryError):
            memory.allocate(1)
        assert memory.allocation_failures == 1

    def test_failed_allocation_changes_nothing(self, memory):
        memory.allocate(16000)
        with pytest.raises(OutOfMemoryError):
            memory.allocate(1000)
        assert memory.allocated_frames == 16000

    def test_peak_tracking(self, memory):
        memory.allocate(500)
        memory.free(400)
        memory.allocate(100)
        assert memory.peak_allocated_frames == 500

    def test_over_free_rejected(self, memory):
        memory.allocate(10)
        with pytest.raises(ValueError):
            memory.free(11)

    def test_negative_amounts_rejected(self, memory):
        with pytest.raises(ValueError):
            memory.allocate(-1)
        with pytest.raises(ValueError):
            memory.free(-1)

    def test_can_fit(self, memory):
        assert memory.can_fit(memory.capacity_frames)
        assert not memory.can_fit(memory.capacity_frames + 1)

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            MachineMemory(0)


class TestReferenceImage:
    def test_allocation_charged_to_pool(self, memory):
        ReferenceImage(memory, page_count=1024)
        assert memory.allocated_frames == 1024

    def test_release_frees_frames(self, memory, image):
        image.release()
        assert memory.allocated_frames == 0
        assert image.released

    def test_release_with_sharers_rejected(self, memory, image):
        image.attach()
        with pytest.raises(ValueError):
            image.release()

    def test_release_is_idempotent(self, memory, image):
        image.release()
        image.release()
        assert memory.allocated_frames == 0

    def test_attach_detach_balance(self, image):
        image.attach()
        image.attach()
        assert image.sharers == 2
        image.detach()
        image.detach()
        assert image.sharers == 0
        with pytest.raises(ValueError):
            image.detach()

    def test_attach_after_release_rejected(self, image):
        image.release()
        with pytest.raises(ValueError):
            image.attach()

    def test_stamp_page_changes_content(self, image):
        before = image.content_of(5)
        image.stamp_page(5)
        assert image.content_of(5) != before
        assert image.content_of(6) == image.content_of(7)  # untouched pages share a tag

    def test_page_bounds_checked(self, image):
        with pytest.raises(IndexError):
            image.content_of(1024)
        with pytest.raises(IndexError):
            image.stamp_page(-1)

    def test_zero_pages_rejected(self, memory):
        with pytest.raises(ValueError):
            ReferenceImage(memory, page_count=0)


class TestCoWAddressSpace:
    def test_clone_creation_charges_no_frames(self, memory, image):
        baseline = memory.allocated_frames
        space = GuestAddressSpace(image)
        assert memory.allocated_frames == baseline
        assert space.private_pages == 0
        assert space.shared_pages == 1024

    def test_read_sees_image_content(self, memory, image):
        image.stamp_page(7)
        space = GuestAddressSpace(image)
        assert space.read(7) == image.content_of(7)

    def test_first_write_takes_cow_fault(self, memory, image):
        space = GuestAddressSpace(image)
        baseline = memory.allocated_frames
        space.write(3)
        assert space.cow_faults == 1
        assert space.private_pages == 1
        assert memory.allocated_frames == baseline + 1
        assert space.is_private(3)
        assert not space.is_private(4)

    def test_rewrite_is_free(self, memory, image):
        space = GuestAddressSpace(image)
        space.write(3)
        baseline = memory.allocated_frames
        space.write(3)
        assert space.cow_faults == 1
        assert memory.allocated_frames == baseline

    def test_write_isolation_between_clones(self, memory, image):
        a = GuestAddressSpace(image)
        b = GuestAddressSpace(image)
        original = b.read(9)
        new_tag = a.write(9)
        assert a.read(9) == new_tag
        assert b.read(9) == original  # b still sees the image's content

    def test_write_does_not_affect_image(self, memory, image):
        space = GuestAddressSpace(image)
        original = image.content_of(9)
        space.write(9)
        assert image.content_of(9) == original

    def test_private_bytes(self, memory, image):
        space = GuestAddressSpace(image)
        space.write(0)
        space.write(1)
        assert space.private_bytes == 2 * PAGE_SIZE

    def test_destroy_frees_private_frames_and_detaches(self, memory, image):
        space = GuestAddressSpace(image)
        for page in range(10):
            space.write(page)
        baseline = memory.allocated_frames
        freed = space.destroy()
        assert freed == 10
        assert memory.allocated_frames == baseline - 10
        assert image.sharers == 0

    def test_destroy_is_idempotent(self, memory, image):
        space = GuestAddressSpace(image)
        space.write(0)
        assert space.destroy() == 1
        assert space.destroy() == 0

    def test_access_after_destroy_rejected(self, memory, image):
        space = GuestAddressSpace(image)
        space.destroy()
        with pytest.raises(ValueError):
            space.read(0)
        with pytest.raises(ValueError):
            space.write(0)

    def test_write_beyond_image_rejected(self, memory, image):
        space = GuestAddressSpace(image)
        with pytest.raises(IndexError):
            space.write(1024)

    def test_oom_on_cow_fault(self):
        memory = MachineMemory(capacity_bytes=10 * PAGE_SIZE)
        image = ReferenceImage(memory, page_count=8)
        space = GuestAddressSpace(image)
        space.write(0)
        space.write(1)
        with pytest.raises(OutOfMemoryError):
            space.write(2)  # pool is 10 frames: 8 image + 2 private
        assert space.private_pages == 2  # failed write did not corrupt state

    def test_attach_refcount_tracks_clones(self, memory, image):
        spaces = [GuestAddressSpace(image) for __ in range(5)]
        assert image.sharers == 5
        for space in spaces:
            space.destroy()
        assert image.sharers == 0


class TestEagerCopy:
    def test_eager_copy_charges_full_image(self, memory, image):
        baseline = memory.allocated_frames
        space = GuestAddressSpace(image, eager_copy=True)
        assert memory.allocated_frames == baseline + 1024
        assert space.private_pages == 1024
        assert space.shared_pages == 0

    def test_eager_copy_writes_take_no_faults(self, memory, image):
        space = GuestAddressSpace(image, eager_copy=True)
        space.write(5)
        assert space.cow_faults == 0

    def test_eager_copy_destroy_frees_everything(self, memory, image):
        space = GuestAddressSpace(image, eager_copy=True)
        space.destroy()
        assert memory.allocated_frames == 1024  # just the image

    def test_eager_copy_oom_rolls_back_attach(self):
        memory = MachineMemory(capacity_bytes=12 * PAGE_SIZE)
        image = ReferenceImage(memory, page_count=8)
        with pytest.raises(OutOfMemoryError):
            GuestAddressSpace(image, eager_copy=True)
        assert image.sharers == 0
        assert memory.allocated_frames == 8

    def test_eager_copy_content_is_private(self, memory, image):
        image.stamp_page(3)
        space = GuestAddressSpace(image, eager_copy=True)
        # An eager copy has its own content tags (a copied frame), distinct
        # from the image's.
        assert space.read(3) != image.content_of(3)


class TestConsolidationScenario:
    def test_hundred_clones_fit_where_full_copies_would_not(self):
        """The paper's headline memory result in miniature: 100 CoW clones
        of a 1024-page image fit easily in a pool that could hold only ~15
        full copies."""
        memory = MachineMemory(capacity_bytes=16 * 1024 * PAGE_SIZE)
        image = ReferenceImage(memory, page_count=1024)
        clones = []
        for __ in range(100):
            space = GuestAddressSpace(image)
            for page in range(64):  # modest working set
                space.write(page)
            clones.append(space)
        used = memory.allocated_frames
        assert used == 1024 + 100 * 64
        full_copy_equivalent = 1024 + 100 * 1024
        assert full_copy_equivalent > memory.capacity_frames  # would not fit
        assert used < memory.capacity_frames
