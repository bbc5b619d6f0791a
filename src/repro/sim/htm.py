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

The model keeps no clock: the caller passes the current machine cycle
with each transaction, and the begin/commit/abort trace events carry
it.
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
                 injector=None, tracer=None):
        self.memory = memory
        self.directory = directory
        #: Optional :class:`repro.faults.FaultInjector`; hosts the
        #: ``htm.abort`` site (conflict abort storms).
        self.injector = injector
        #: Event tracer for the begin/commit/abort events.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.commits = 0
        self.aborts = 0

    def execute_atomically(self, core: int, writes: Iterable[WriteEntry],
                           cycle: int) -> int:
        """Commit ``writes`` as one transaction at ``cycle``; returns cost.

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
            tracer.emit("htm.begin", cycle, core=core,
                        writes=len(writes), lines=len(lines))
        if len(lines) > L1_ASSOCIATIVITY:
            self.aborts += 1
            if traced:
                tracer.emit("htm.abort", cycle, core=core,
                            reason="capacity", lines=len(lines))
            raise HtmAbort("capacity: %d lines > %d ways"
                           % (len(lines), L1_ASSOCIATIVITY))
        if self.injector is not None and self.injector.fires("htm.abort"):
            self.aborts += 1
            if traced:
                tracer.emit("htm.abort", cycle, core=core,
                            reason="conflict", lines=len(lines))
            raise HtmAbort("conflict: injected remote access to the write set")
        latency = 0
        for addr, value, size in writes:
            latency += self.directory.access(core, addr, size, is_write=True)[0]
            self.memory.write(addr, value, size)
        self.commits += 1
        if traced:
            tracer.emit("htm.commit", cycle, core=core,
                        writes=len(writes), lines=len(lines),
                        latency=latency)
        return latency

    @staticmethod
    def split_for_capacity(writes: List[WriteEntry]) -> List[List[WriteEntry]]:
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
            if current and len(current_lines | entry_lines) > L1_ASSOCIATIVITY:
                chunks.append(current)
                current = []
                current_lines = set()
            current.append(entry)
            current_lines |= entry_lines
        if current:
            chunks.append(current)
        return chunks
