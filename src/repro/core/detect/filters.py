"""Event filtering: the first stages of the detection pipeline (Section 4.1).

When a HITM record arrives, its PC is classified by parsing the
application's virtual memory map (the ``/proc/<pid>/maps`` analog);
records whose PC does not come from the application or its libraries are
dropped as spurious.  Records whose *data address* lies on a thread
stack are also dropped, as stacks "are unlikely to be shared between
threads and thus unlikely to be sources of cache contention."
"""

from repro.pebs.events import StrippedRecord
from repro.sim.vmmap import RegionKind, VirtualMemoryMap

__all__ = ["RecordFilter"]


#: Region-kind codes used by the vectorized classifier (indices into
#: the one-array-per-map tables; ``-1`` = unmapped).
_KIND_CODES = {kind: code for code, kind in enumerate(RegionKind)}
_APP_CODE = _KIND_CODES[RegionKind.APP_CODE]
_LIB_CODE = _KIND_CODES[RegionKind.LIB_CODE]
_STACK_CODE = _KIND_CODES[RegionKind.STACK]


class RecordFilter:
    """Memory-map based record filtering."""

    def __init__(self, vmmap: VirtualMemoryMap):
        self.vmmap = vmmap
        self.dropped_bad_pc = 0
        self.dropped_stack_addr = 0
        self.passed = 0
        # SoA region tables for admit_batch, built on first batch (the
        # map's region set is fixed once the machine is composed).
        self._tables = None

    def admit(self, record: StrippedRecord) -> bool:
        """True if ``record`` survives all filter stages."""
        if not self.vmmap.is_application_or_library_code(record.pc):
            self.dropped_bad_pc += 1
            return False
        if self.vmmap.is_stack_address(record.data_addr):
            self.dropped_stack_addr += 1
            return False
        self.passed += 1
        return True

    # ------------------------------------------------------------------
    # Struct-of-arrays path (engine ``numpy``)
    # ------------------------------------------------------------------

    def _region_tables(self, np):
        """(starts, ends, kinds) arrays for the map."""
        if self._tables is None:
            regions = self.vmmap.regions()
            regions.sort(key=lambda r: r.start)
            starts = np.fromiter((r.start for r in regions), np.uint64,
                                 count=len(regions))
            ends = np.fromiter((r.end for r in regions), np.uint64,
                               count=len(regions))
            kinds = np.fromiter((_KIND_CODES[r.kind] for r in regions),
                                np.int64, count=len(regions))
            self._tables = (starts, ends, kinds)
        return self._tables

    def _classify_batch(self, values, np):
        """Region-kind code per address (``-1`` = unmapped)."""
        starts, ends, kinds = self._region_tables(np)
        slot = np.searchsorted(starts, values, side="right") - 1
        clipped = np.maximum(slot, 0)
        mapped = (slot >= 0) & (values < ends[clipped])
        return np.where(mapped, kinds[clipped], -1)

    def admit_batch(self, pc, addr, np):
        """Vectorized :meth:`admit` over pc/addr columns.

        Returns the admitted mask; charges each record to the same
        (first-failing) drop counter the scalar stage would, so the
        filter's accounting is engine-invariant.
        """
        pc_kind = self._classify_batch(pc, np)
        addr_kind = self._classify_batch(addr, np)
        app = (pc_kind == _APP_CODE) | (pc_kind == _LIB_CODE)
        stack = app & (addr_kind == _STACK_CODE)
        admitted = app & ~stack
        self.dropped_bad_pc += int((~app).sum())
        self.dropped_stack_addr += int(stack.sum())
        self.passed += int(admitted.sum())
        return admitted

    @property
    def total_seen(self) -> int:
        return self.passed + self.dropped_bad_pc + self.dropped_stack_addr
