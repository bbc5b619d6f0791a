"""Tests for the memory, memory-map and allocator substrates."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AllocationError
from repro.sim.allocator import CHUNK_HEADER_SIZE, Allocator
from repro.sim.memory import PAGE_SIZE, Memory
from repro.sim.vmmap import (
    APP_CODE_BASE,
    GLOBALS_BASE,
    HEAP_BASE,
    KERNEL_BASE,
    LIB_CODE_BASE,
    Region,
    RegionKind,
    STACK_TOP,
    VirtualMemoryMap,
    default_memory_map,
)


class TestMemory:
    def test_uninitialized_reads_zero(self):
        assert Memory().read(0x1234, 8) == 0

    def test_write_read_roundtrip_all_sizes(self):
        mem = Memory()
        for size in (1, 2, 4, 8):
            value = (1 << (8 * size)) - 3
            mem.write(0x1000, value, size)
            assert mem.read(0x1000, size) == value

    def test_little_endian_layout(self):
        mem = Memory()
        mem.write(0x2000, 0x0102030405060708, 8)
        assert mem.read(0x2000, 1) == 0x08
        assert mem.read(0x2007, 1) == 0x01

    def test_page_straddling_access(self):
        mem = Memory()
        addr = PAGE_SIZE - 3
        mem.write(addr, 0xAABBCCDDEEFF1122, 8)
        assert mem.read(addr, 8) == 0xAABBCCDDEEFF1122
        assert mem.touched_pages() == 2

    def test_value_truncated_to_size(self):
        mem = Memory()
        mem.write(0x3000, 0x1FF, 1)
        assert mem.read(0x3000, 1) == 0xFF

    def test_bytes_helpers(self):
        mem = Memory()
        mem.write_bytes(0x4000, b"hello")
        assert mem.read_bytes(0x4000, 5) == b"hello"

    @given(st.lists(st.tuples(st.integers(0, 1 << 40),
                              st.integers(0, (1 << 64) - 1),
                              st.sampled_from([1, 2, 4, 8])),
                    min_size=1, max_size=24))
    @settings(max_examples=40, deadline=None)
    def test_matches_dict_model(self, writes):
        """Memory behaves like a per-byte dict under arbitrary writes."""
        mem = Memory()
        model = {}
        for addr, value, size in writes:
            mem.write(addr, value, size)
            for i in range(size):
                model[addr + i] = (value >> (8 * i)) & 0xFF
        for addr, byte in list(model.items())[:50]:
            assert mem.read(addr, 1) == byte


class TestVirtualMemoryMap:
    def test_overlapping_regions_rejected(self):
        vmmap = VirtualMemoryMap([Region("a", 0, 100, RegionKind.HEAP)])
        with pytest.raises(ValueError):
            vmmap.add_region(Region("b", 50, 150, RegionKind.HEAP))

    def test_empty_region_rejected(self):
        with pytest.raises(ValueError):
            Region("empty", 10, 10, RegionKind.HEAP)

    def test_default_map_classifies_code_and_data(self):
        vmmap = default_memory_map(2, APP_CODE_BASE + 0x100)
        assert vmmap.find(APP_CODE_BASE).kind is RegionKind.APP_CODE
        assert vmmap.find(GLOBALS_BASE + 8).kind is RegionKind.GLOBALS
        assert vmmap.find(HEAP_BASE + 8).kind is RegionKind.HEAP
        assert vmmap.find(KERNEL_BASE + 8).kind is RegionKind.KERNEL
        assert vmmap.find(0x123) is None

    def test_default_map_has_one_stack_per_thread(self):
        vmmap = default_memory_map(3, APP_CODE_BASE + 0x100)
        for tid in range(3):
            region = vmmap.stack_region_of_thread(tid)
            assert region is not None
            assert vmmap.find(region.start + 64).kind is RegionKind.STACK

    def test_app_and_lib_code_pass_pc_filter(self):
        vmmap = default_memory_map(1, APP_CODE_BASE + 0x100)
        assert vmmap.find(APP_CODE_BASE + 4).kind is RegionKind.APP_CODE
        assert vmmap.find(LIB_CODE_BASE + 4).kind is RegionKind.LIB_CODE
        assert vmmap.find(KERNEL_BASE + 4).kind is RegionKind.KERNEL

    @given(
        st.lists(st.one_of(st.integers(0, 2**12), st.integers(0, 2**64),
                           st.integers(2**63, 2**64)),
                 min_size=2, max_size=24, unique=True),
        st.lists(st.booleans(), min_size=23, max_size=23),
        st.randoms(use_true_random=False),
        st.lists(st.integers(0, 2**64 - 1), max_size=8),
    )
    @settings(max_examples=200, deadline=None)
    def test_find_matches_a_linear_scan(self, points, mapped, rng, extra):
        """Bisection finds exactly what a scan of every region finds.

        Consecutive boundary points delimit either a region or a gap,
        so maps have adjacent regions, gaps of every width and regions
        reaching the top of the 64-bit space; regions are added in a
        random order.
        """
        points.sort()
        spans = list(zip(points, points[1:]))
        regions = [Region("r%d" % i, start, end, RegionKind.HEAP)
                   for i, (start, end) in enumerate(spans) if mapped[i]]
        order = list(regions)
        rng.shuffle(order)
        vmmap = VirtualMemoryMap(order)

        def scan(addr):
            for region in regions:
                if region.start <= addr < region.end:
                    return region
            return None

        probes = {0, points[0], max(points[0] - 1, 0), 2**63, 2**64 - 1}
        for start, end in spans:
            probes.update((start, end - 1, end, (start + end) // 2))
        probes.update(extra)
        for addr in sorted(probes):
            if addr < 2**64:
                assert vmmap.find(addr) is scan(addr), hex(addr)

    def test_app_region_has_minimum_text_span(self):
        vmmap = default_memory_map(1, APP_CODE_BASE + 0x10)
        region = vmmap.find(APP_CODE_BASE)
        assert region.end - region.start >= 0x20000

    def test_stack_addresses_are_per_thread_disjoint(self):
        vmmap = default_memory_map(4, APP_CODE_BASE + 0x100)
        regions = [vmmap.stack_region_of_thread(t) for t in range(4)]
        for i in range(4):
            for j in range(i + 1, 4):
                assert (regions[i].end <= regions[j].start
                        or regions[j].end <= regions[i].start)


class TestAllocator:
    def test_default_alignment_is_sixteen(self):
        allocator = Allocator()
        addr = allocator.malloc(100)
        assert addr % 16 == 0

    def test_sixteen_byte_alignment_rarely_line_aligned(self):
        """The lreg situation: a 64-byte struct isn't line-aligned."""
        allocator = Allocator()
        addr = allocator.malloc(256)
        assert addr % 64 == CHUNK_HEADER_SIZE

    def test_explicit_line_alignment(self):
        allocator = Allocator()
        allocator.malloc(24)  # misalign the bump pointer
        addr = allocator.malloc(128, align=64)
        assert addr % 64 == 0

    def test_allocations_never_overlap(self):
        allocator = Allocator()
        spans = []
        for size in (3, 64, 100, 1, 8192, 17):
            addr = allocator.malloc(size)
            spans.append((addr, addr + size))
        spans.sort()
        for (s1, e1), (s2, _e2) in zip(spans, spans[1:]):
            assert e1 <= s2

    @given(st.lists(st.integers(1, 4096), min_size=1, max_size=40))
    @settings(max_examples=30, deadline=None)
    def test_no_overlap_property(self, sizes):
        allocator = Allocator()
        spans = sorted(
            (allocator.malloc(size), size) for size in sizes
        )
        for (a1, s1), (a2, _s2) in zip(spans, spans[1:]):
            assert a1 + s1 <= a2

    def test_base_offset_shifts_layout(self):
        plain = Allocator().malloc(64)
        shifted = Allocator(base_offset=64).malloc(64)
        assert shifted == plain + 64

    def test_bad_base_offset_rejected(self):
        with pytest.raises(AllocationError):
            Allocator(base_offset=5000)

    def test_bad_sizes_and_alignments_rejected(self):
        allocator = Allocator()
        with pytest.raises(AllocationError):
            allocator.malloc(0)
        with pytest.raises(AllocationError):
            allocator.malloc(8, align=3)

    def test_heap_exhaustion(self):
        allocator = Allocator(heap_size=4096)
        with pytest.raises(AllocationError):
            allocator.malloc(1 << 20)

    def test_free_and_double_free(self):
        allocator = Allocator()
        addr = allocator.malloc(32)
        allocator.free(addr)
        with pytest.raises(AllocationError):
            allocator.free(addr)

    def test_labels_resolve_interior_addresses(self):
        allocator = Allocator()
        addr = allocator.malloc(128, label="lreg_args")
        assert allocator.label_of(addr + 100) == "lreg_args"
        assert allocator.label_of(addr + 1000) == ""

    def test_bytes_in_use_tracks_live_allocations(self):
        allocator = Allocator()
        a = allocator.malloc(100)
        allocator.malloc(50)
        assert allocator.bytes_in_use() == 150
        allocator.free(a)
        assert allocator.bytes_in_use() == 50
