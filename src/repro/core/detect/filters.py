"""Event filtering: the first stages of the detection pipeline (Section 4.1).

When a HITM record arrives, its PC is classified by parsing the
application's virtual memory map (the ``/proc/<pid>/maps`` analog);
records whose PC does not come from the application or its libraries are
dropped as spurious.  Records whose *data address* lies on a thread
stack are also dropped, as stacks "are unlikely to be shared between
threads and thus unlikely to be sources of cache contention."
"""

from repro.pebs.events import PebsRecord
from repro.sim.vmmap import RegionKind, VirtualMemoryMap

__all__ = ["RecordFilter"]

_CODE_KINDS = (RegionKind.APP_CODE, RegionKind.LIB_CODE)


class RecordFilter:
    """Memory-map based record filtering (a pure function of the map)."""

    def __init__(self, vmmap: VirtualMemoryMap):
        self.vmmap = vmmap

    def admit(self, record: PebsRecord) -> bool:
        """True if ``record`` survives all filter stages."""
        find = self.vmmap.find
        region = find(record.pc)
        if region is None or region.kind not in _CODE_KINDS:
            return False
        region = find(record.data_addr)
        return region is None or region.kind is not RegionKind.STACK
