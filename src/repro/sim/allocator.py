"""Simulated heap allocator.

Cache contention "can even arise invisibly in the program due to the
opaque decisions of the memory allocator" (Section 1).  This allocator
reproduces the relevant glibc behaviour: a bump allocator whose chunks
carry a 16-byte header and whose user pointers are 16-byte aligned by
default — so a 64-byte struct array is generally *not* 64-byte aligned
and may straddle cache lines (the `lreg_args` situation of Figure 2).

``base_offset`` shifts the whole heap by a small amount; the LASER
detector's fork of the application perturbs the environment and hence
the heap start, which is how the paper explains ``lu_ncb`` getting 30%
faster under LASER "due to a coincidental change in memory layout".
"""

from typing import Dict, List, Tuple

from repro.errors import AllocationError
from repro.sim.vmmap import HEAP_BASE, HEAP_SIZE

__all__ = ["Allocator", "CHUNK_HEADER_SIZE", "DEFAULT_ALIGNMENT"]

#: glibc malloc chunk header (size + flags on 64-bit).
CHUNK_HEADER_SIZE = 16

#: Default alignment of returned user pointers.
DEFAULT_ALIGNMENT = 16


class Allocator:
    """Bump allocator over the simulated heap region."""

    def __init__(self, heap_size: int = HEAP_SIZE, base_offset: int = 0):
        if base_offset < 0 or base_offset >= 4096:
            raise AllocationError("base_offset must be in [0, 4096)")
        self.heap_end = HEAP_BASE + heap_size
        self._next = HEAP_BASE + base_offset + CHUNK_HEADER_SIZE
        self._live: Dict[int, int] = {}  # addr -> size
        self._labels: Dict[int, str] = {}

    def malloc(self, size: int, align: int = DEFAULT_ALIGNMENT, label: str = "") -> int:
        """Allocate ``size`` bytes; returns the user address.

        ``align`` defaults to 16 as in glibc; pass 64 to model
        ``posix_memalign`` / the manual cache-line-alignment fixes from
        the paper's case studies.
        """
        if size <= 0:
            raise AllocationError("malloc size must be positive: %d" % size)
        if align <= 0 or (align & (align - 1)) != 0:
            raise AllocationError("alignment must be a power of two: %d" % align)
        addr = self._next
        if addr % align:
            addr += align - (addr % align)
        if addr + size > self.heap_end:
            raise AllocationError(
                "out of simulated heap allocating %d bytes" % size
            )
        self._next = addr + size + CHUNK_HEADER_SIZE
        self._live[addr] = size
        if label:
            self._labels[addr] = label
        return addr

    def free(self, addr: int) -> None:
        """Release an allocation (bump allocator: bookkeeping only)."""
        if addr not in self._live:
            raise AllocationError("free of unallocated address %#x" % addr)
        del self._live[addr]
        self._labels.pop(addr, None)

    def live_allocations(self) -> List[Tuple[int, int]]:
        """Sorted list of live (addr, size) pairs."""
        return sorted(self._live.items())

    def label_of(self, addr: int) -> str:
        """Allocation-site label covering ``addr``, or '' if none."""
        for base, size in self._live.items():
            if base <= addr < base + size:
                return self._labels.get(base, "")
        return ""

    def bytes_in_use(self) -> int:
        return sum(self._live.values())
