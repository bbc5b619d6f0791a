"""Hardware transactional memory model (Intel RTM analog).

LASERREPAIR flushes its coalescing software store buffer inside one
hardware transaction so that the flush is **strongly atomic**: no remote
thread can observe a subset of the buffered stores, which is what makes
a coalescing SSB TSO-compliant (Section 5.5).

The model executes a whole transaction in a single machine step, so
conflicts with concurrent accesses cannot arise mid-transaction by
construction; the remaining abort cause is **capacity** — a transaction
touching more distinct cache lines than the L1 associativity allows
aborts, exactly the overflow the paper's pre-emptive 8-entry flush
avoids.
"""

from typing import Iterable, List, Tuple

from repro._constants import CACHE_LINE_SIZE, L1_ASSOCIATIVITY
from repro.errors import HtmAbort
from repro.obs.trace import NULL_TRACER
from repro.sim.coherence import CoherenceDirectory
from repro.sim.memory import Memory

__all__ = ["HardwareTransactionalMemory"]

#: A write set entry: (address, value, size).
WriteEntry = Tuple[int, int, int]


class HardwareTransactionalMemory:
    """Executes atomic write sets against memory + coherence."""

    def __init__(self, memory: Memory, directory: CoherenceDirectory,
                 capacity_lines: int = L1_ASSOCIATIVITY, injector=None,
                 tracer=None, clock=None):
        self.memory = memory
        self.directory = directory
        self.capacity_lines = capacity_lines
        #: Optional :class:`repro.faults.FaultInjector`; hosts the
        #: ``htm.abort`` site (conflict abort storms).
        self.injector = injector
        #: Event tracer + cycle source for the begin/commit/abort
        #: events (the machine wires its own clock in).
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.clock = clock or (lambda: self.directory.now)
        self.commits = 0
        self.aborts = 0

    def execute_atomically(self, core: int, writes: Iterable[WriteEntry]) -> int:
        """Commit ``writes`` as one transaction; returns cycle cost.

        Raises :class:`HtmAbort` on capacity overflow (or an injected
        conflict), leaving memory untouched (aborted transactions roll
        back completely).
        """
        writes = list(writes)
        tracer = self.tracer
        traced = tracer.enabled
        lines = set()
        for addr, _value, size in writes:
            first = addr // CACHE_LINE_SIZE
            last = (addr + size - 1) // CACHE_LINE_SIZE
            lines.update(range(first, last + 1))
        if traced:
            tracer.emit("htm.begin", self.clock(), core=core,
                        writes=len(writes), lines=len(lines))
        if len(lines) > self.capacity_lines:
            self.aborts += 1
            if traced:
                tracer.emit("htm.abort", self.clock(), core=core,
                            reason="capacity", lines=len(lines))
            raise HtmAbort(
                "capacity: %d lines > %d ways" % (len(lines), self.capacity_lines),
                conflict_line=max(lines) if lines else None,
                abort_count=self.aborts,
            )
        if self.injector is not None and self.injector.fires("htm.abort"):
            self.aborts += 1
            if traced:
                tracer.emit("htm.abort", self.clock(), core=core,
                            reason="conflict", lines=len(lines))
            raise HtmAbort(
                "conflict: injected remote access to the write set",
                conflict_line=min(lines) if lines else None,
                abort_count=self.aborts,
            )
        latency = 0
        for addr, value, size in writes:
            latency += self.directory.access(core, addr, size, is_write=True)[0]
            self.memory.write(addr, value, size)
        self.commits += 1
        if traced:
            tracer.emit("htm.commit", self.clock(), core=core,
                        writes=len(writes), lines=len(lines),
                        latency=latency)
        return latency

    @staticmethod
    def split_for_capacity(writes: List[WriteEntry], capacity_lines: int) -> List[List[WriteEntry]]:
        """Partition a write set into chunks that each fit in capacity.

        Used by the SSB's fallback path when a flush grew beyond the HTM
        capacity despite the pre-emptive flush policy (can happen if a
        single basic block stores to many lines before any flush point).
        The chunks preserve insertion order so the fallback is still
        FIFO at chunk granularity.
        """
        chunks: List[List[WriteEntry]] = []
        current: List[WriteEntry] = []
        current_lines = set()
        for entry in writes:
            addr, _value, size = entry
            first = addr // CACHE_LINE_SIZE
            last = (addr + size - 1) // CACHE_LINE_SIZE
            entry_lines = set(range(first, last + 1))
            if current and len(current_lines | entry_lines) > capacity_lines:
                chunks.append(current)
                current = []
                current_lines = set()
            current.append(entry)
            current_lines |= entry_lines
        if current:
            chunks.append(current)
        return chunks
