"""Programs: per-thread instruction lists plus debug information.

A :class:`Program` is the unit the machine executes and LASERREPAIR
rewrites.  It owns one :class:`ThreadCode` per simulated thread; after
assembly each instruction has a virtual PC inside the simulated binary's
code region, and a :class:`SourceLocation` acting as debug info (the
analog of DWARF line tables that LASERDETECT uses to aggregate HITM
records per source line, Section 4.2).
"""

from typing import Dict, Iterable, List, Optional

from repro.errors import AssemblyError
from repro.isa.instructions import Instruction

__all__ = ["SourceLocation", "ThreadCode", "Program", "PC_STRIDE"]

#: Virtual-address stride between consecutive instructions.  Using 4
#: rather than 1 lets the imprecision model produce "adjacent PC" errors
#: that are distinct addresses, as on real hardware.
PC_STRIDE = 4


class SourceLocation:
    """A (file, line) pair, the granularity of LASERDETECT's reports."""

    __slots__ = ("file", "line")

    def __init__(self, file: str, line: int):
        self.file = file
        self.line = line

    def __eq__(self, other):
        return (
            isinstance(other, SourceLocation)
            and self.file == other.file
            and self.line == other.line
        )

    def __lt__(self, other):
        return (self.file, self.line) < (other.file, other.line)

    def __hash__(self):
        return hash((self.file, self.line))

    def __repr__(self):
        return "%s:%d" % (self.file, self.line)


class ThreadCode:
    """The instruction stream of one thread."""

    def __init__(self, name: str, instructions: List[Instruction], labels: Dict[str, int]):
        self.name = name
        self.instructions = instructions
        self.labels = labels

    def __len__(self):
        return len(self.instructions)


class Program:
    """A whole multithreaded program.

    Attributes:
        name: program name (the benchmark name).
        threads: one :class:`ThreadCode` per thread, in thread-id order.
        code_base: virtual base address of the app code region.
    """

    def __init__(self, name: str, threads: List[ThreadCode], code_base: int = 0x400000):
        self.name = name
        self.threads = threads
        self.code_base = code_base
        self._pc_map: Dict[int, Instruction] = {}
        self._assign_pcs()

    # ------------------------------------------------------------------
    # PC assignment / lookup
    # ------------------------------------------------------------------

    def _assign_pcs(self) -> None:
        pc = self.code_base
        self._pc_map.clear()
        for thread in self.threads:
            for inst in thread.instructions:
                inst.pc = pc
                self._pc_map[pc] = inst
                pc += PC_STRIDE
        self._code_end = pc

    @property
    def code_end(self) -> int:
        """One past the last instruction's virtual address."""
        return self._code_end

    def instruction_at(self, pc: int) -> Optional[Instruction]:
        """Return the instruction at virtual address ``pc``, or None."""
        return self._pc_map.get(pc)

    def all_instructions(self) -> Iterable[Instruction]:
        for thread in self.threads:
            for inst in thread.instructions:
                yield inst

    def all_pcs(self) -> List[int]:
        return sorted(self._pc_map)

    # ------------------------------------------------------------------
    # Debug info
    # ------------------------------------------------------------------

    def location_of_pc(self, pc: int) -> Optional[SourceLocation]:
        """Map a PC to its source location (debug-info lookup)."""
        inst = self._pc_map.get(pc)
        if inst is None:
            return None
        return inst.loc

    def pcs_for_location(self, loc: SourceLocation) -> List[int]:
        """All PCs whose debug info maps to ``loc``."""
        return [pc for pc, inst in self._pc_map.items() if inst.loc == loc]

    def locations(self) -> List[SourceLocation]:
        """Every distinct source location in the program."""
        seen = set()
        for inst in self.all_instructions():
            if inst.loc is not None:
                seen.add(inst.loc)
        return sorted(seen)

    # ------------------------------------------------------------------
    # Rewriting support
    # ------------------------------------------------------------------

    def with_thread_code(self, thread_index: int, code: ThreadCode) -> "Program":
        """Return a new Program with one thread's code replaced.

        Used by LASERREPAIR: the rewritten program gets fresh PCs, like a
        Pin code cache.
        """
        if not 0 <= thread_index < len(self.threads):
            raise AssemblyError("no thread %d in %s" % (thread_index, self.name))
        threads = list(self.threads)
        threads[thread_index] = code
        return Program(self.name, threads, code_base=self.code_base)

    @property
    def num_threads(self) -> int:
        return len(self.threads)

    def __repr__(self):
        return "<Program %s threads=%d insns=%d>" % (
            self.name,
            len(self.threads),
            sum(len(t) for t in self.threads),
        )
