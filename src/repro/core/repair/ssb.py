"""The software store buffer (Sections 5.1 and 5.5).

Stores redirected into the SSB land in a thread-private byte map instead
of shared memory, deferring cache coherence exactly as a hardware store
buffer does.  A byte-granular bitmap (here: the byte map itself) handles
unaligned accesses.  The buffer **coalesces** — one piece of storage per
memory location — which is the only practical implementation but permits
non-TSO reorderings if flushed piecemeal; therefore a flush executes as
one hardware transaction, making it strongly atomic (no remote thread
can observe a subset of the buffered stores).

If a flush nevertheless exceeds HTM capacity (the pre-emptive flush at 8
cache lines normally prevents this), the fallback splits the write set
into capacity-sized chunks committed in FIFO order — still far stronger
than per-entry writeback.

A transaction can also abort for reasons unrelated to capacity —
conflicts, interrupts — and a persistently-aborting HTM must not wedge
the flush path.  The buffer therefore keeps a FIFO log of the raw
stores alongside the coalesced byte map; after
``HTM_ABORT_FALLBACK_THRESHOLD`` *consecutive* aborts it permanently stops
using the HTM and writes the log back **per store, in program order**.
That is the non-coalesced writeback the paper rejects as slow — but it
is TSO-correct without any transaction (each thread's stores become
visible in program order), which is exactly the property the graceful
degradation path must preserve.
"""

from typing import List, Tuple

from repro._constants import (
    CACHE_LINE_SIZE,
    HTM_ABORT_FALLBACK_THRESHOLD,
    L1_ASSOCIATIVITY,
)
from repro.errors import HtmAbort
from repro.sim.htm import HardwareTransactionalMemory

__all__ = ["SoftwareStoreBuffer", "SsbStats"]


class SsbStats:
    """Counters for one thread's SSB."""

    __slots__ = ("puts", "full_hits", "partial_hits", "misses", "flushes",
                 "flushed_entries", "htm_aborts", "misspeculations",
                 "fallback_activations", "fallback_stores")

    def __init__(self):
        self.puts = 0
        self.full_hits = 0
        self.partial_hits = 0
        self.misses = 0
        self.flushes = 0
        self.flushed_entries = 0
        self.htm_aborts = 0
        self.misspeculations = 0
        self.fallback_activations = 0
        self.fallback_stores = 0


class SoftwareStoreBuffer:
    """Thread-private coalescing store buffer."""

    def __init__(self, machine, core_id: int,
                 preflush_lines: int = L1_ASSOCIATIVITY):
        self.machine = machine
        self.core_id = core_id
        self.preflush_lines = preflush_lines
        self._bytes = {}  # addr -> byte value
        self._lines = set()
        #: Program-order log of raw stores since the last flush; the
        #: source of truth for the non-coalesced fallback path.
        self._fifo: List[Tuple[int, int, int]] = []
        self.consecutive_aborts = 0
        #: Once True, every flush bypasses the HTM (per-store writeback).
        self.fallback_active = False
        self.stats = SsbStats()

    # ------------------------------------------------------------------
    # Store path (Figure 6, top)
    # ------------------------------------------------------------------

    def put(self, addr: int, value: int, size: int) -> None:
        data = self._bytes
        for i in range(size):
            byte_addr = addr + i
            data[byte_addr] = (value >> (8 * i)) & 0xFF
            self._lines.add(byte_addr // CACHE_LINE_SIZE)
        self._fifo.append((addr, value, size))
        self.stats.puts += 1

    def empty(self) -> bool:
        return not self._bytes

    def should_preflush(self) -> bool:
        """Pre-emptive flush at the L1 associativity (Section 5.5).

        Triggering *at* the bound (not one past it) keeps every
        pre-emptive flush within HTM capacity.
        """
        return len(self._lines) >= self.preflush_lines

    # ------------------------------------------------------------------
    # Load path (Figure 6, bottom)
    # ------------------------------------------------------------------

    def contains(self, addr: int, size: int) -> bool:
        """True if every byte of the access is buffered."""
        data = self._bytes
        return all((addr + i) in data for i in range(size))

    def may_alias(self, addr: int, size: int) -> bool:
        """True if any byte of the access is buffered (alias check)."""
        data = self._bytes
        return any((addr + i) in data for i in range(size))

    def load_through(self, core, inst, addr: int, size: int) -> Tuple[int, int]:
        """SSB-aware load; returns (value, memory latency).

        A fully-buffered load is served without touching shared memory —
        this is where the SSB removes coherence traffic.  Partially
        buffered loads read memory and overlay the buffered bytes.
        """
        data = self._bytes
        buffered = [data.get(addr + i) for i in range(size)]
        if all(b is not None for b in buffered):
            self.stats.full_hits += 1
            value = 0
            for i, byte in enumerate(buffered):
                value |= byte << (8 * i)
            return value, 0
        value, latency = self.machine.mem_read(core, inst, addr, size)
        if any(b is not None for b in buffered):
            self.stats.partial_hits += 1
            for i, byte in enumerate(buffered):
                if byte is not None:
                    value = (value & ~(0xFF << (8 * i))) | (byte << (8 * i))
        else:
            self.stats.misses += 1
        return value, latency

    # ------------------------------------------------------------------
    # Flush (Section 5.5)
    # ------------------------------------------------------------------

    def _coalesced_writes(self) -> List[Tuple[int, int, int]]:
        """Merge buffered bytes into (addr, value, size<=8) runs."""
        writes = []
        addresses = sorted(self._bytes)
        run_start = None
        run_bytes: List[int] = []
        previous = None
        for addr in addresses:
            if run_start is not None and addr == previous + 1 and len(run_bytes) < 8:
                run_bytes.append(self._bytes[addr])
            else:
                if run_start is not None:
                    writes.append(self._pack_run(run_start, run_bytes))
                run_start = addr
                run_bytes = [self._bytes[addr]]
            previous = addr
        if run_start is not None:
            writes.append(self._pack_run(run_start, run_bytes))
        return writes

    @staticmethod
    def _pack_run(start: int, run_bytes: List[int]) -> Tuple[int, int, int]:
        value = 0
        for i, byte in enumerate(run_bytes):
            value |= byte << (8 * i)
        return (start, value, len(run_bytes))

    def flush(self, core_id: int) -> int:
        """Write everything back; atomically when the HTM cooperates."""
        if not self._bytes:
            self._fifo.clear()
            return 0
        if self.fallback_active:
            return self._flush_per_store(core_id)
        writes = self._coalesced_writes()
        latency_model = self.machine.latency
        latency = latency_model.ssb_flush_base
        latency += latency_model.ssb_flush_entry * len(writes)
        htm: HardwareTransactionalMemory = self.machine.htm
        try:
            latency += htm.execute_atomically(core_id, writes)
            self.consecutive_aborts = 0
        except HtmAbort:
            self.stats.htm_aborts += 1
            self.consecutive_aborts += 1
            if self.consecutive_aborts >= HTM_ABORT_FALLBACK_THRESHOLD:
                latency += self._activate_fallback()
                return latency + self._flush_per_store(core_id)
            # Capacity fallback: commit in capacity-sized FIFO chunks.
            chunks = htm.split_for_capacity(writes, htm.capacity_lines)
            for index, chunk in enumerate(chunks):
                latency += latency_model.ssb_flush_base
                try:
                    latency += htm.execute_atomically(core_id, chunk)
                except HtmAbort:
                    # The chunks abort too (an abort storm, not mere
                    # capacity).  Give up on the HTM and write this and
                    # every remaining chunk back entry by entry — the
                    # committed prefix stays FIFO-ordered.
                    self.stats.htm_aborts += 1
                    self.consecutive_aborts += 1
                    latency += self._activate_fallback()
                    for remaining in chunks[index:]:
                        latency += self._write_entries(core_id, remaining)
                    break
        self.stats.flushes += 1
        self.stats.flushed_entries += len(writes)
        self._clear()
        return latency

    def _activate_fallback(self) -> int:
        self.fallback_active = True
        self.stats.fallback_activations += 1
        return 0

    def _flush_per_store(self, core_id: int) -> int:
        """Replay the FIFO store log, one store at a time, in order.

        No transaction, no coalescing: each store becomes globally
        visible in program order, so TSO holds without the HTM.
        """
        latency = self.machine.latency.ssb_flush_base
        latency += self._write_entries(core_id, self._fifo)
        self.stats.flushes += 1
        self.stats.flushed_entries += len(self._fifo)
        self._clear()
        return latency

    def _write_entries(self, core_id: int,
                       entries: List[Tuple[int, int, int]]) -> int:
        """Write (addr, value, size) entries back directly, in order."""
        machine = self.machine
        per_entry = machine.latency.ssb_flush_entry
        latency = 0
        for addr, value, size in entries:
            result = machine.directory.access(core_id, addr, size, is_write=True)
            latency += result.latency + per_entry
            machine.memory.write(addr, value, size)
            self.stats.fallback_stores += 1
        return latency

    def _clear(self) -> None:
        self._bytes.clear()
        self._lines.clear()
        self._fifo.clear()

    def note_misspeculation(self) -> None:
        """Record that a speculative alias check failed (Section 5.3)."""
        self.stats.misspeculations += 1
