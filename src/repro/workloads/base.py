"""Workload definitions: programs plus ground-truth metadata.

A :class:`Workload` builds an ISA :class:`Program` and the heap layout
it runs against.  Because address-layout decisions are part of the bug
being studied (false sharing "can even arise invisibly ... due to the
opaque decisions of the memory allocator"), the workload allocates its
data through a real :class:`Allocator` instance whose ``heap_offset``
models environment-dependent layout shifts, and bakes the resulting
addresses into the program it emits.

Ground truth for the accuracy experiments lives here too: each workload
lists its known performance bugs (source location + actual contention
type), whether the bug is significant enough to merit automatic repair,
and the workload's compatibility with Sheriff (Table 1's ``x`` and ``i``
entries).
"""

import enum
from typing import List, Optional, Tuple

from repro.core.detect.report import ContentionClass
from repro.isa.program import Program, SourceLocation
from repro.sim.allocator import Allocator

__all__ = ["BugRecord", "BuiltWorkload", "SheriffSupport", "Workload"]


class SheriffSupport(enum.Enum):
    """How a workload fares under Sheriff (Section 7.3)."""

    OK = "ok"
    CRASH = "crash"              # "The remaining workloads encounter runtime errors"
    INCOMPATIBLE = "incompatible"  # spin locks / OpenMP etc.


class BugRecord:
    """One known performance bug (an entry of the paper's database).

    A bug may span several source lines (e.g. the five field updates of
    ``linear_regression``'s inner loop): a detector "finds" the bug if it
    reports any of them, and reported lines inside the set are never
    false positives.
    """

    def __init__(
        self,
        locations: List[SourceLocation],
        kind: ContentionClass,
        description: str,
        significant: bool = False,
        sheriff_detects: bool = False,
        vtune_detects: bool = True,
    ):
        if not locations:
            raise ValueError("a bug needs at least one source location")
        self.locations = list(locations)
        self.kind = kind
        self.description = description
        #: Whether fixing it yields a measurable speedup (Section 7.4.3
        #: bugs exist but fixing them does not move runtime).
        self.significant = significant
        #: Whether Sheriff-Detect's mechanism can see it at all.
        self.sheriff_detects = sheriff_detects
        #: Whether a HITM-location profiler (VTune) reports the line.
        self.vtune_detects = vtune_detects

    @property
    def primary_location(self) -> SourceLocation:
        return self.locations[0]

    def covers(self, location: SourceLocation) -> bool:
        return location in self.locations

    def __repr__(self):
        return "<Bug %s %s%s>" % (
            self.primary_location,
            self.kind.value,
            " significant" if self.significant else "",
        )


class BuiltWorkload:
    """A concrete program + heap layout, ready to run."""

    def __init__(self, program: Program, allocator: Allocator,
                 init_writes: Optional[List[Tuple[int, int, int]]] = None):
        self.program = program
        self.allocator = allocator
        #: (addr, value, size) initial memory image, applied before run
        #: (static data / pre-main initialization; no coherence traffic).
        self.init_writes = init_writes or []

    def apply_init(self, machine) -> None:
        for addr, value, size in self.init_writes:
            machine.memory.write(addr, value, size)


class Workload:
    """Base class: subclasses override :meth:`build` (and metadata)."""

    #: Benchmark name as it appears in the paper's tables.
    name: str = "abstract"
    #: Suite: "phoenix", "parsec" or "splash2x".
    suite: str = "none"
    #: Number of threads (== cores used).
    num_threads: int = 4
    #: Known performance bugs (empty for clean benchmarks).
    bugs: List[BugRecord] = []
    #: Sheriff compatibility verdict (Table 1), for the native input.
    sheriff_support: SheriffSupport = SheriffSupport.OK
    #: Whether Sheriff runs with the reduced (simlarge) input even though
    #: it crashes on the native one — the "*" benchmarks of Figure 14.
    sheriff_reduced_input_ok: bool = False
    #: Relative nominal size; the experiments scale iteration counts by
    #: this to keep suite-wide sweeps fast.
    default_scale: float = 1.0

    def build(self, heap_offset: int = 0, seed: int = 0,
              scale: float = 1.0) -> BuiltWorkload:
        """Construct the program against a heap shifted by ``heap_offset``."""
        raise NotImplementedError

    def build_fixed(self, heap_offset: int = 0, seed: int = 0,
                    scale: float = 1.0) -> Optional[BuiltWorkload]:
        """The manually-fixed variant from the paper's case studies.

        Returns None when no manual fix exists for this workload.
        """
        return None

    def bug_locations(self) -> List[SourceLocation]:
        out = []
        for bug in self.bugs:
            out.extend(bug.locations)
        return out

    def __repr__(self):
        return "<Workload %s/%s bugs=%d>" % (self.suite, self.name, len(self.bugs))


def iterations(base: int, scale: float, minimum: int = 8) -> int:
    """Scale an iteration count, keeping it a usable size."""
    return max(minimum, int(base * scale))
