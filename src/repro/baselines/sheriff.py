"""Sheriff baseline: the threads-as-processes execution model.

Sheriff [18] "places each thread into its own private address space,
sending updates between threads on synchronization operations."  We
implement that execution model directly on the simulator:

* every thread writes into a **private overlay** instead of shared
  memory (so false sharing physically cannot occur — which is why
  Sheriff-Protect fixes histogram' and linear_regression "even though
  Sheriff-Detect does not detect anything");
* synchronization operations (atomics, fences, thread exit) **commit**
  the overlay: the diff-and-merge cost of Sheriff's twin-page machinery
  is charged per dirtied page, which is what makes
  synchronization-intensive workloads (water_nsquared) collapse;
* remote writes become visible only at the writer's next commit.  A
  thread spinning on a plain load of a flag that its producer never
  synchronizes will spin forever — workloads relying on racy flag
  hand-offs livelock, which surfaces as the runtime errors ("x") of
  Table 1;
* **Sheriff-Detect** additionally write-protects pages each sampling
  epoch, so the first store to a page per epoch takes a protection
  fault.

Compatibility is enforced from each workload's metadata (Section 7.3:
spin-lock/OpenMP users are incompatible; many others crash), and
Sheriff-Detect's *detection* output — allocation sites, not source
lines — is reproduced from the same metadata, since it depends on
Sheriff-internal thresholds the paper does not specify.  Timing is
fully emergent from the execution model above.

Sheriff does not preserve TSO (Section 5: its twin-page mechanism
cannot detect silent stores, and multi-byte atomic stores can appear
byte-granular); we model the performance consequences, not the
memory-model violations.
"""

import enum
from typing import Dict, List, Set

from repro._constants import L1_HIT_LATENCY
from repro.errors import SheriffCrash, SheriffIncompatible, SimulationError
from repro.sim.machine import Machine
from repro.sim.memory import PAGE_SIZE
from repro.workloads.base import SheriffSupport

__all__ = ["SheriffMode", "SheriffMachine", "SheriffResult", "run_sheriff"]

#: Fixed cost of one commit (signal handling + twin-page bookkeeping).
SYNC_BASE_COST = 800

#: Per-dirty-page diff-and-merge cost at a commit.
PAGE_MERGE_COST = 600

#: Sheriff-Detect: cost of the write-protection fault taken on the first
#: store to a page in each sampling epoch.
WRITE_FAULT_COST = 1_500

#: Sheriff-Detect: sampling epoch length in cycles.
DETECT_EPOCH_CYCLES = 25_000


class SheriffMode(enum.Enum):
    DETECT = "sheriff-detect"
    PROTECT = "sheriff-protect"


class SheriffMachine(Machine):
    """A machine running under Sheriff's execution model."""

    def __init__(self, program, mode: SheriffMode, **kwargs):
        super().__init__(program, **kwargs)
        self.mode = mode
        self._overlays: List[Dict[int, int]] = [
            {} for _ in range(len(self.cores))
        ]
        self._dirty_pages: List[Set[int]] = [set() for _ in self.cores]
        self._faulted_pages: List[Set[int]] = [set() for _ in self.cores]
        self._next_epoch = DETECT_EPOCH_CYCLES
        self.sync_commits = 0
        self.pages_merged = 0
        self.write_faults = 0

    # ------------------------------------------------------------------
    # Memory routing: private overlays, no coherence
    # ------------------------------------------------------------------

    def mem_read(self, core, inst, addr: int, size: int):
        if inst.is_fence:
            # The sync op itself operates on shared memory (the overlay
            # was committed by fence_extra just before).
            value = self.memory.read(addr, size)
            return value, L1_HIT_LATENCY
        overlay = self._overlays[core.core_id]
        value = self.memory.read(addr, size)
        for i in range(size):
            byte = overlay.get(addr + i)
            if byte is not None:
                value = (value & ~(0xFF << (8 * i))) | (byte << (8 * i))
        return value, L1_HIT_LATENCY

    def mem_write(self, core, inst, addr: int, value: int, size: int) -> int:
        if inst.is_fence:
            self.memory.write(addr, value, size)
            return L1_HIT_LATENCY
        latency = L1_HIT_LATENCY
        cid = core.core_id
        if self.mode is SheriffMode.DETECT:
            if self.cycle >= self._next_epoch:
                # New sampling epoch: pages are re-protected everywhere.
                for faulted in self._faulted_pages:
                    faulted.clear()
                self._next_epoch = self.cycle + DETECT_EPOCH_CYCLES
            page = addr // PAGE_SIZE
            if page not in self._faulted_pages[cid]:
                self._faulted_pages[cid].add(page)
                self.write_faults += 1
                latency += WRITE_FAULT_COST
        overlay = self._overlays[cid]
        for i in range(size):
            overlay[addr + i] = (value >> (8 * i)) & 0xFF
            self._dirty_pages[cid].add((addr + i) // PAGE_SIZE)
        return latency

    # ------------------------------------------------------------------
    # Synchronization: diff and merge
    # ------------------------------------------------------------------

    def fence_extra(self, core) -> int:
        cid = core.core_id
        overlay = self._overlays[cid]
        if not overlay and not self._dirty_pages[cid]:
            return SYNC_BASE_COST
        for addr, byte in overlay.items():
            self.memory.write(addr, byte, 1)
        pages = len(self._dirty_pages[cid])
        overlay.clear()
        self._dirty_pages[cid].clear()
        self.sync_commits += 1
        self.pages_merged += pages
        return SYNC_BASE_COST + PAGE_MERGE_COST * pages


class SheriffResult:
    """Outcome of one workload run under a Sheriff scheme."""

    def __init__(self, mode: SheriffMode, cycles: int,
                 machine: SheriffMachine, reduced_input: bool,
                 reported_sites: List[str]):
        self.mode = mode
        self.cycles = cycles
        self.machine = machine
        self.reduced_input = reduced_input
        #: Sheriff-Detect reports *allocation sites* ("it only identifies
        #: the allocation site of the falsely-shared object"), never
        #: source lines.
        self.reported_sites = reported_sites

    def __repr__(self):
        return "<SheriffResult %s cycles=%d sites=%d>" % (
            self.mode.value, self.cycles, len(self.reported_sites),
        )


def run_sheriff(workload, mode: SheriffMode, seed: int = 0,
                scale: float = 1.0, allow_reduced_input: bool = True,
                max_cycles: int = 8_000_000) -> SheriffResult:
    """Run a workload under Sheriff-Detect or Sheriff-Protect.

    Raises :class:`SheriffIncompatible` / :class:`SheriffCrash` per the
    workload's documented compatibility (and on emergent livelock of the
    private-address-space visibility model).
    """
    if workload.sheriff_support is SheriffSupport.INCOMPATIBLE:
        raise SheriffIncompatible(
            "%s uses constructs Sheriff does not support" % workload.name
        )
    reduced = False
    if workload.sheriff_support is SheriffSupport.CRASH:
        if not (allow_reduced_input and workload.sheriff_reduced_input_ok):
            raise SheriffCrash("%s: runtime error under Sheriff" % workload.name)
        reduced = True
        scale = scale * 0.5

    built = workload.build(heap_offset=0, seed=seed, scale=scale)
    machine = SheriffMachine(built.program, mode, seed=seed,
                             allocator=built.allocator)
    built.apply_init(machine)
    try:
        result = machine.run(max_cycles=max_cycles)
    except SimulationError:
        raise SheriffCrash(
            "%s: livelock under Sheriff's visibility model" % workload.name
        )
    if not result.finished:
        raise SheriffCrash(
            "%s: livelock under Sheriff's visibility model" % workload.name
        )

    reported_sites: List[str] = []
    if mode is SheriffMode.DETECT:
        for bug in workload.bugs:
            if bug.sheriff_detects:
                reported_sites.append(_allocation_site_for(workload, bug))
        reported_sites.extend(getattr(workload, "sheriff_fp_sites", []))
    return SheriffResult(mode, result.cycles, machine, reduced, reported_sites)


def _allocation_site_for(workload, bug) -> str:
    """Sheriff's report granularity: the object's allocation site."""
    return "malloc-wrapper: %s" % bug.primary_location.file
