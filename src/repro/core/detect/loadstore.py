"""Load/store set extraction: the detector's binary analysis (Section 4.3).

"We analyze the application binary at runtime, to construct load and
store sets identifying load PCs and store PCs and their sizes.  These
sets are then provided as inputs to the detector."  On x86 an
instruction can be both a load and a store (our CMPXCHG/XADD); the
detector treats those as both, which the paper notes is a potential
source of inaccuracy.
"""

from typing import Dict, Optional

from repro.isa.program import Program

__all__ = ["MemoryOpInfo", "LoadStoreSets"]


class MemoryOpInfo:
    """What the binary analysis knows about one memory-op PC."""

    __slots__ = ("pc", "is_load", "is_store", "size")

    def __init__(self, pc: int, is_load: bool, is_store: bool, size: int):
        self.pc = pc
        self.is_load = is_load
        self.is_store = is_store
        self.size = size

    def __repr__(self):
        kind = "rmw" if (self.is_load and self.is_store) else (
            "load" if self.is_load else "store"
        )
        return "<MemOp %#x %s %dB>" % (self.pc, kind, self.size)


class LoadStoreSets:
    """PC -> memory-op metadata, built from the program binary."""

    def __init__(self, ops: Dict[int, MemoryOpInfo]):
        self._ops = ops

    @classmethod
    def from_program(cls, program: Program) -> "LoadStoreSets":
        ops: Dict[int, MemoryOpInfo] = {}
        for inst in program.all_instructions():
            if inst.is_memory_op:
                ops[inst.pc] = MemoryOpInfo(
                    inst.pc, inst.is_load, inst.is_store, inst.size
                )
        return cls(ops)

    def lookup(self, pc: int) -> Optional[MemoryOpInfo]:
        """Metadata for ``pc``, or None if it is not a memory op."""
        return self._ops.get(pc)

    def __len__(self):
        return len(self._ops)

    def __contains__(self, pc: int) -> bool:
        return pc in self._ops
