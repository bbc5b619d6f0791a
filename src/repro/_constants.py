"""Global machine constants shared by the simulator, PMU and LASER.

The numbers model the paper's evaluation platform: a 4-core Intel Core
i7-4770K (Haswell) with 64-byte cache lines and 8-way L1 data caches.
Latencies are expressed in core cycles and are deliberately round: the
reproduction targets the *shape* of the paper's results, not absolute
nanoseconds.

This module is the one home of the simulated machine's latencies: the
interpreter, the compiled traces, the coherence directory, the store
buffer and the Sheriff baseline read them from here, and no object
carries a copy.
"""

#: Cache line size in bytes (Section 2: "typically 64 bytes").
CACHE_LINE_SIZE = 64

#: Number of cores on the evaluation machine (Section 7).
NUM_CORES = 4

#: L1 data cache associativity; LASERREPAIR pre-emptively flushes the SSB
#: beyond this many entries to avoid HTM capacity aborts (Section 5.5).
L1_ASSOCIATIVITY = 8

#: Simulated clock: cycles per simulated second.  Rate thresholds in the
#: paper are HITMs per wall-clock second on a 3.4 GHz part; our simulated
#: programs are far shorter than the paper's >1 minute runs, so we define
#: a proportionally smaller simulated second.  All HITMs/sec thresholds in
#: this repository are measured against this clock.
CYCLES_PER_SECOND = 1_000_000

# ---------------------------------------------------------------------------
# Timing model (cycles).  Ratios follow published Haswell figures: an L1
# hit costs ~4 cycles while a cross-core cache-to-cache transfer of a
# Modified line (a HITM) costs ~60-70 cycles.
# ---------------------------------------------------------------------------

#: Cost of an arithmetic / move / branch instruction.
ALU_LATENCY = 1

#: Load/store hitting the local L1 in a usable state.
L1_HIT_LATENCY = 2

#: Read miss served by a clean copy in another cache (no HITM).
SHARED_FILL_LATENCY = 30

#: Upgrade of a locally Shared line to Modified (invalidation round).
UPGRADE_LATENCY = 30

#: Cache-to-cache transfer of a line Modified in a remote cache (a HITM).
HITM_LATENCY = 90

#: Miss served from memory (no cache holds the line).
MEMORY_LATENCY = 120

#: Extra cost of an atomic read-modify-write beyond its memory access.
ATOMIC_EXTRA_LATENCY = 10

#: Cost of a memory fence.
FENCE_LATENCY = 5

#: Cost of a spin-wait ``pause`` hint.
PAUSE_LATENCY = 8

# ---------------------------------------------------------------------------
# Software store buffer costs (Section 5.5): the SSB trades per-access
# *software* latency (a hash-table operation inside Pin-instrumented
# code) for the elimination of coherence stalls.  "The SSB has higher
# latency, but better space-efficiency, than hardware store buffers" —
# these costs are deliberately close to the HITM latency they displace,
# which is why automatic repair wins modestly (Figure 11: 1.16x-1.19x)
# while manual source fixes win hugely (5.8x-16.9x).
# ---------------------------------------------------------------------------

#: Cycles for a store redirected into the SSB (hash-table insert in
#: instrumented code).
SSB_STORE_LATENCY = 42

#: Cycles for a load that must consult the SSB.
SSB_LOAD_LATENCY = 34

#: Fixed cost of an SSB flush (HTM begin/commit plus table walk).
SSB_FLUSH_BASE_LATENCY = 150

#: Per-entry cost of writing back one SSB entry during a flush.
SSB_FLUSH_ENTRY_LATENCY = 10

#: Cost of a speculative-alias check inserted between a load address def
#: and its use (Section 5.3).
ALIAS_CHECK_LATENCY = 8

#: Per-instruction tax on threads running inside the dynamic binary
#: instrumentation framework's code cache (Pin JIT overhead).
PIN_TAX_LATENCY = 2

# ---------------------------------------------------------------------------
# PMU / driver costs (Section 6, Section 7.2).
# ---------------------------------------------------------------------------

#: Microcode-assist cost charged to the triggering core for materializing
#: one PEBS record.
PEBS_RECORD_COST = 250

#: Cost of the driver's buffer-full interrupt (drain + reconfigure).
DRIVER_INTERRUPT_COST = 4_000

#: Number of PEBS records in a per-core buffer before the driver takes an
#: interrupt to drain it.
PEBS_BUFFER_RECORDS = 64

#: Capacity of the driver's detector-facing outbox (the kernel device's
#: internal buffer), in stripped records.  A healthy detector drains the
#: outbox every check interval, which leaves it far below this bound;
#: the bound matters when the detector stalls — the driver then drops
#: new records (with accounting) instead of growing without limit.
DRIVER_OUTBOX_CAPACITY = 65_536

#: Consecutive HTM aborts a software store buffer tolerates before it
#: abandons transactional coalesced flushes and falls back to
#: non-coalesced per-store writeback in program order (TSO-preserving,
#: just slower) — the RTM idiom of retrying a few times and then taking
#: the fallback path.
HTM_ABORT_FALLBACK_THRESHOLD = 3

#: Detector-side processing cost per record, in cycles; the detector runs
#: on a spare core so this only contributes to LASER CPU-time accounting,
#: not application slowdown (Figure 12).
DETECTOR_RECORD_COST = 120
