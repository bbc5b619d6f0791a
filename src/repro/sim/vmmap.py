"""Virtual memory map: the ``/proc/<pid>/maps`` analog.

LASERDETECT's first pipeline stage (Section 4.1) classifies each HITM
record's PC as application / library / other code by parsing the
process's memory map, and drops records whose data address falls on a
thread stack.  This module provides that map for simulated processes.
"""

import enum
from bisect import bisect_right
from typing import List, Optional

__all__ = [
    "RegionKind",
    "Region",
    "VirtualMemoryMap",
    "default_memory_map",
    "APP_CODE_BASE",
    "LIB_CODE_BASE",
    "GLOBALS_BASE",
    "HEAP_BASE",
    "STACK_TOP",
    "STACK_SIZE",
    "KERNEL_BASE",
]


class RegionKind(enum.Enum):
    APP_CODE = "app_code"
    LIB_CODE = "lib_code"
    GLOBALS = "globals"
    HEAP = "heap"
    STACK = "stack"
    KERNEL = "kernel"


# Canonical layout of a simulated 64-bit process.
APP_CODE_BASE = 0x0000_0000_0040_0000
LIB_CODE_BASE = 0x0000_7F00_0000_0000
GLOBALS_BASE = 0x0000_0000_0060_0000
HEAP_BASE = 0x0000_0000_1000_0000
STACK_TOP = 0x0000_7FFF_FF00_0000
STACK_SIZE = 0x0010_0000  # 1 MiB per thread
KERNEL_BASE = 0xFFFF_8000_0000_0000


class Region:
    """One mapped address range ``[start, end)``."""

    __slots__ = ("name", "start", "end", "kind")

    def __init__(self, name: str, start: int, end: int, kind: RegionKind):
        if end <= start:
            raise ValueError("empty region %r" % name)
        self.name = name
        self.start = start
        self.end = end
        self.kind = kind

    def __repr__(self):
        return "<Region %s %#x-%#x %s>" % (
            self.name,
            self.start,
            self.end,
            self.kind.value,
        )


class VirtualMemoryMap:
    """An ordered collection of disjoint regions, searched by address."""

    def __init__(self, regions: Optional[List[Region]] = None):
        self._regions: List[Region] = []
        #: ``_regions[i].start``, kept beside the regions for bisection.
        self._starts: List[int] = []
        for region in regions or []:
            self.add_region(region)

    def add_region(self, region: Region) -> None:
        for existing in self._regions:
            if region.start < existing.end and existing.start < region.end:
                raise ValueError(
                    "region %r overlaps %r" % (region.name, existing.name)
                )
        index = bisect_right(self._starts, region.start)
        self._regions.insert(index, region)
        self._starts.insert(index, region.start)

    def regions(self) -> List[Region]:
        return list(self._regions)

    def find(self, addr: int) -> Optional[Region]:
        """The region containing ``addr``, or None if unmapped.

        The regions are sorted and disjoint, so only the last one
        starting at or below ``addr`` can contain it.
        """
        index = bisect_right(self._starts, addr) - 1
        if index >= 0:
            region = self._regions[index]
            if addr < region.end:
                return region
        return None

    def stack_region_of_thread(self, thread_id: int) -> Optional[Region]:
        name = "stack:%d" % thread_id
        for region in self._regions:
            if region.name == name:
                return region
        return None


#: Minimum extent of the app text region.  Real binaries are far larger
#: than their contention hot spots; the imprecision model scatters wrong
#: PCs across the whole text region, so this span controls how diluted
#: that noise is (a tiny region would concentrate noise onto hot lines).
MIN_APP_TEXT_SPAN = 0x0002_0000


def default_memory_map(
    num_threads: int,
    app_code_end: int,
    heap_size: int = 0x0100_0000,
    globals_size: int = 0x0010_0000,
    lib_code_size: int = 0x0010_0000,
) -> VirtualMemoryMap:
    """Build the standard simulated process layout.

    Each thread gets a dedicated 1 MiB stack below ``STACK_TOP``.
    """
    vmmap = VirtualMemoryMap()
    app_end = max(app_code_end, APP_CODE_BASE + MIN_APP_TEXT_SPAN)
    vmmap.add_region(Region("app", APP_CODE_BASE, app_end, RegionKind.APP_CODE))
    vmmap.add_region(Region("libc", LIB_CODE_BASE, LIB_CODE_BASE + lib_code_size, RegionKind.LIB_CODE))
    vmmap.add_region(Region("globals", GLOBALS_BASE, GLOBALS_BASE + globals_size, RegionKind.GLOBALS))
    vmmap.add_region(Region("heap", HEAP_BASE, HEAP_BASE + heap_size, RegionKind.HEAP))
    vmmap.add_region(Region("kernel", KERNEL_BASE, KERNEL_BASE + 0x1000_0000, RegionKind.KERNEL))
    for tid in range(num_threads):
        top = STACK_TOP - tid * 2 * STACK_SIZE
        vmmap.add_region(Region("stack:%d" % tid, top - STACK_SIZE, top, RegionKind.STACK))
    return vmmap
