"""The multicore machine: event loop, memory routing, PMU hooks.

The machine binds together memory, the coherence directory, the HTM and
one :class:`Core` per program thread, and advances them with a simple
discrete-event loop: the core with the earliest ready-time executes its
next instruction, whose latency (coherence stalls included) pushes its
ready-time forward.  HITM events observed by the coherence model are
forwarded to an ``on_hitm`` hook — this is where the PMU (or a
VTune-style profiler) taps in, and the hook's return value is charged to
the triggering core as extra stall cycles, which is how profiling
overhead becomes visible in simulated runtime.
"""

import heapq
from itertools import repeat
from typing import Callable, List, Optional

from repro._constants import NUM_CORES
from repro.accel import resolve_sim_engine
from repro.errors import SimulationError
from repro.isa.program import Program
from repro.obs.trace import NULL_TRACER
from repro.rng import RngStreams, binary_draws
from repro.sim.allocator import Allocator
from repro.sim.coherence import CoherenceDirectory
from repro.sim.core import Core, CoreState
from repro.sim.htm import HardwareTransactionalMemory
from repro.sim.memory import Memory
from repro.sim.trace import CompiledTrace
from repro.sim.vmmap import STACK_SIZE, STACK_TOP, default_memory_map

__all__ = ["Machine", "RunResult"]

#: Signature of the HITM hook: (core_id, inst, addr, is_write, cycle) -> extra cycles.
HitmHook = Callable[[int, object, int, bool, int], int]

#: Signature of the memory-op hook used by heavyweight profilers.
MemOpHook = Callable[[int, object, int], int]

#: What a parked spin-wait adds per instruction on a machine without
#: jitter: nothing, and the stream stays untouched.
_NO_JITTER = repeat(0).__next__


class RunResult:
    """Outcome of a machine run (or a resumable slice of one)."""

    def __init__(self, machine: "Machine", cycles: int, finished: bool):
        self.cycles = cycles
        self.finished = finished
        self.hitm_count = machine.directory.hitm_count
        self.instructions = sum(core.stats.instructions
                                for core in machine.cores)

    @property
    def hitm_rate_per_second(self) -> float:
        """HITMs per simulated second (see CYCLES_PER_SECOND)."""
        from repro._constants import CYCLES_PER_SECOND

        if self.cycles == 0:
            return 0.0
        return self.hitm_count * CYCLES_PER_SECOND / self.cycles

    def __repr__(self):
        return "<RunResult cycles=%d insns=%d hitms=%d%s>" % (
            self.cycles,
            self.instructions,
            self.hitm_count,
            "" if self.finished else " PAUSED",
        )


class Machine:
    """A simulated multicore executing one multithreaded program."""

    def __init__(
        self,
        program: Program,
        seed: int = 0,
        num_cores: int = NUM_CORES,
        jitter: bool = True,
        allocator: Optional[Allocator] = None,
        fault_injector=None,
        tracer=None,
        engine: str = "auto",
    ):
        if program.num_threads > num_cores:
            raise SimulationError(
                "program %s needs %d threads but machine has %d cores"
                % (program.name, program.num_threads, num_cores)
            )
        self.program = program
        self.rng = RngStreams(seed)
        self.memory = Memory()
        self.vmmap = default_memory_map(program.num_threads, program.code_end)
        self.allocator = allocator or Allocator()
        self.directory = CoherenceDirectory()
        #: Structured event tracer (``repro.obs.trace``); the shared
        #: NULL_TRACER when observability is off, so instrumentation
        #: sites can test ``tracer.enabled`` unconditionally.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.htm = HardwareTransactionalMemory(
            self.memory, self.directory, injector=fault_injector,
            tracer=self.tracer,
        )
        self.cores: List[Core] = []
        for tid, thread in enumerate(program.threads):
            core = Core(tid, self, thread.instructions)
            core.registers[14] = tid
            core.registers[15] = STACK_TOP - tid * 2 * STACK_SIZE - 4096
            self.cores.append(core)
        self.cycle = 0
        self.jitter = jitter
        self._jitter_rng = self.rng.stream("interleave")
        #: One interleave jitter draw, ``randrange(0, 2)`` of the
        #: stream above, per call; both engines draw from it.
        self._jitter = binary_draws(self._jitter_rng).__next__
        #: Simulator engine: "trace" runs precompiled basic-block
        #: traces with interpreter fallback at every slow/interaction
        #: point; "interp" is the legacy per-instruction loop.  Both are
        #: bit-identical in every observable (golden-pinned).
        self.engine = resolve_sim_engine(engine)
        # The trace engine may inline L1-hit loads/stores only when
        # memory routing is the base machine's: execution-model
        # baselines (e.g. Sheriff's diff-and-merge) override mem_read /
        # mem_write, and every access must go through their overlays.
        self._fast_mem_ok = (
            type(self).mem_read is Machine.mem_read
            and type(self).mem_write is Machine.mem_write
        )
        #: PMU / profiler hooks (None = free execution).
        self.on_hitm: Optional[HitmHook] = None
        self.on_memory_op: Optional[MemOpHook] = None

    def fence_extra(self, core: Core) -> int:
        """Hook: extra cycles charged at fences / atomics / thread exit.

        The base machine charges nothing; execution-model baselines
        (Sheriff's threads-as-processes diff-and-merge) override this.
        """
        return 0

    # ------------------------------------------------------------------
    # Memory routing (called by cores)
    # ------------------------------------------------------------------

    def mem_read(self, core: Core, inst, addr: int, size: int):
        """Coherent read; returns (value, latency)."""
        self.directory.now = self.cycle
        latency, hitm = self.directory.access(core.core_id, addr, size,
                                              is_write=False)
        if hitm:
            latency += self._fire_hitm(core, inst, addr, is_write=False)
        if self.on_memory_op is not None:
            latency += self._fire_memop(core, inst)
        value = self.memory.read(addr, size)
        return value, latency

    def mem_write(self, core: Core, inst, addr: int, value: int, size: int) -> int:
        """Coherent write; returns latency."""
        self.directory.now = self.cycle
        latency, hitm = self.directory.access(core.core_id, addr, size,
                                              is_write=True)
        if hitm:
            latency += self._fire_hitm(core, inst, addr, is_write=True)
        if self.on_memory_op is not None:
            latency += self._fire_memop(core, inst)
        self.memory.write(addr, value, size)
        return latency

    def _fire_hitm(self, core: Core, inst, addr: int, is_write: bool) -> int:
        if self.on_hitm is None:
            return 0
        extra = self.on_hitm(core.core_id, inst, addr, is_write, self.cycle)
        if extra:
            core.stats.pmu_stall_cycles += extra
        return extra

    def _fire_memop(self, core: Core, inst) -> int:
        extra = self.on_memory_op(core.core_id, inst, self.cycle)
        if extra:
            core.stats.pmu_stall_cycles += extra
        return extra

    # ------------------------------------------------------------------
    # Event loop (resumable: LASERREPAIR attaches mid-run, like Pin)
    # ------------------------------------------------------------------

    def _init_ready_heap(self) -> None:
        self._ready: List = []  # (ready_time, core_id)
        self._finish_time = 0
        for core in self.cores:
            if core.state is CoreState.RUNNING:
                heapq.heappush(self._ready, (0, core.core_id))

    def run(self, until_cycle: Optional[int] = None,
            max_cycles: int = 200_000_000) -> RunResult:
        """Advance the machine; resumable.

        With ``until_cycle`` set, execution pauses once the global clock
        passes it (state is retained; call ``run`` again to resume) —
        this is the window mechanism the LASER system uses for periodic
        detection checks and online repair attach.  ``max_cycles`` is a
        livelock backstop.  perfbench's traced pass times the machine by
        wrapping this method by name (``perfbench/layers.py``).
        """
        if self.engine == "trace":
            return self._run_slice_traced(until_cycle, max_cycles)
        return self._run_slice(until_cycle, max_cycles)

    def _run_slice(self, until_cycle: Optional[int],
                   max_cycles: int) -> RunResult:
        if not hasattr(self, "_ready"):
            self._init_ready_heap()
        ready = self._ready
        jitter = self._jitter
        use_jitter = self.jitter
        tracer = self.tracer
        if tracer.enabled:
            tracer.emit("machine.slice", self.cycle, ph="B",
                        until=until_cycle)
        limit = min(until_cycle, max_cycles) if until_cycle is not None else max_cycles
        while ready:
            time = ready[0][0]
            if time > limit:
                self.cycle = time
                if until_cycle is not None and time <= max_cycles:
                    if tracer.enabled:
                        tracer.emit("machine.slice", time, ph="E")
                    return RunResult(self, time, finished=False)
                raise SimulationError(
                    "machine exceeded max_cycles=%d (livelock?)" % max_cycles
                )
            time, core_id = heapq.heappop(ready)
            self.cycle = time
            core = self.cores[core_id]
            latency = core.step()
            if use_jitter:
                latency += jitter()
            next_time = time + max(1, latency)
            if core.state is CoreState.RUNNING:
                heapq.heappush(ready, (next_time, core_id))
            else:
                self._finish_time = max(self._finish_time, next_time)
        self.cycle = max(self.cycle, self._finish_time)
        if tracer.enabled:
            tracer.emit("machine.slice", self.cycle, ph="E", finished=True)
        return RunResult(self, self.cycle, finished=True)

    def _trace_for(self, core: Core) -> CompiledTrace:
        """The compiled trace matching the core's current code + tax.

        A core keeps one trace.  Attach and detach swap the code and the
        SSB together (``replace_code`` drops the trace), and the trace is
        rebuilt here whenever its instruction list or its pin-tax flag
        no longer matches the core, so a repair attach or detach mid-run
        can never execute a stale block.
        """
        taxed = core.ssb is not None
        trace = core._trace
        if (trace is None or trace.insts is not core.instructions
                or trace.taxed is not taxed):
            trace = core._trace = CompiledTrace(
                core.instructions, taxed, self.jitter, self._fast_mem_ok,
            )
        return trace

    def _run_slice_traced(self, until_cycle: Optional[int],
                          max_cycles: int) -> RunResult:
        """Event loop backed by the precompiled-trace engine.

        Identical event semantics to ``_run_slice``: the scheduling
        order, jitter draws (one per instruction, from the same stream,
        in pick order), latency charging and pause/livelock checks are
        all preserved.  What differs is implementation only:

        * Ready cores are encoded ints ``(time << shift) | core_id``,
          whose order is exactly the heap's ``(time, core_id)`` order, in
          a list kept sorted (C timsort over one int per core) plus a
          sentinel timed past every limit.  The pick is ``active[0]`` and
          the runner-up that bounds its burst ``active[1]``.  A finished
          run leaves the sentinel first, so it enters the pause branch,
          which rebuilds the tuple heap for resume and ``finished``.  A
          core whose step raises is ``active[0]``: the unwind rebuilds
          the heap without it, as the interpreter's pop leaves it.
        * After selecting a core, it executes a *burst* of compiled
          instructions while its local time ``t`` stays within ``lb`` —
          the largest time at which ``(t, core_id)`` would still win the
          next selection (strictly before the runner-up, or tied with a
          lower core id).  Cross-core effects are impossible inside a
          burst (compiled blocks touch only local state and L1 hits), so
          the other cores' ready times stay valid throughout.
        * Bursts pick one of two compiled shapes by horizon: block
          functions amortize their prologue over long straight-line
          runs (serial phases), while single-instruction *micro*
          functions with a minimal calling convention serve the 1–2
          instruction horizons of lock-step parallel phases.  Both
          count each instruction they run per pc in the core's trace;
          the traces add their counts into CoreStats at every slice
          exit, error unwinds included (sums commute, and nothing reads
          core stats inside a slice).  Micro entries of HALT and of the
          end of the stream return -1, which hands the core to the
          reference pop.
        * A core picked in a spin-wait parks when
          ``CompiledTrace.park`` allows it.  A parked pick runs the
          loop inline while ``t <= lb``: each instruction bumps its
          pc's count and adds latency, pin tax and a jitter draw (none
          without jitter); registers stay as they are.  At the LOAD
          the core stamps ``directory.now`` and unparks if it no
          longer holds the flag's line, and the burst runs the LOAD as
          a miss, HITM and PMU hook included.  Parked state lives in
          this slice only.
        """
        if not hasattr(self, "_ready"):
            self._init_ready_heap()
        jit = self._jitter
        use_jitter = self.jitter
        park_jit = jit if use_jitter else _NO_JITTER
        tracer = self.tracer
        if tracer.enabled:
            tracer.emit("machine.slice", self.cycle, ph="B",
                        until=until_cycle)
        limit = min(until_cycle, max_cycles) if until_cycle is not None else max_cycles
        cores = self.cores
        ncores = len(cores)
        directory = self.directory
        dl = directory._lines
        pages = self.memory._pages
        shift = max(3, (ncores - 1).bit_length())
        cid_mask = (1 << shift) - 1
        huge = (max_cycles + 16) << shift
        active = sorted([huge] + [(t << shift) | c for t, c in self._ready])
        # Per-core dispatch state, hoisted for the slice: (table, micro,
        # leader flags, registers, counts, spin-waits, weights) of every
        # queued core.  Safe to cache because code swaps and SSB
        # attach/detach (``replace_code``) only happen from services,
        # which run between slices.
        tstate: List = [None] * ncores
        used: List = []  # (trace, its core's stats) per queued core
        for entry in active[:-1]:
            core = cores[entry & cid_mask]
            trace = self._trace_for(core)
            used.append((trace, core.stats))
            tstate[core.core_id] = (trace.table, trace.micro, trace.leaders,
                                    core.registers, trace.counts,
                                    trace.spins, trace._weights)
        # (flag line holders, LOAD pc, next pcs) per parked core.
        parked: List = [None] * ncores

        def flush_counts():
            for trace, stats in used:
                trace.flush_counts(stats)

        try:
            while True:
                m1 = active[0]
                time = m1 >> shift
                if time > limit:
                    # A pause, the livelock backstop, or only the
                    # sentinel left.  Removing one entry equal to the
                    # sentinel leaves the real entries, still sorted.
                    active.remove(huge)
                    self._ready = [(e >> shift, e & cid_mask) for e in active]
                    if not active:
                        break
                    time = active[0] >> shift
                    self.cycle = time
                    if until_cycle is not None and time <= max_cycles:
                        flush_counts()
                        if tracer.enabled:
                            tracer.emit("machine.slice", time, ph="E")
                        return RunResult(self, time, finished=False)
                    raise SimulationError(
                        "machine exceeded max_cycles=%d (livelock?)"
                        % max_cycles
                    )
                core_id = m1 & cid_mask
                core = cores[core_id]
                table, micro, lflags, regs, cnt, spins, wts = tstate[core_id]
                pc2 = core.pc_index
                # Largest t with ((t << shift) | core_id) < runner-up.
                lb = (active[1] - core_id - 1) >> shift
                if lb > limit:
                    lb = limit
                t2 = time
                if spins is not None:
                    pk = parked[core_id]
                    if pk is None:
                        park = spins[pc2]
                        if park is not None:
                            pk = parked[core_id] = park(self, core_id, regs)
                    if pk is not None:
                        # Parked: run the loop's instructions with no
                        # micro call while the core holds the flag line.
                        held, s, nxt = pk
                        while t2 <= lb:
                            if pc2 == s:
                                directory.now = t2
                                if core_id not in held:
                                    # Unpark before the load: the burst
                                    # below runs it as a miss.
                                    parked[core_id] = None
                                    break
                            cnt[pc2] += 1
                            t2 += wts[pc2] + park_jit()
                            pc2 = nxt[pc2]
                        else:
                            core.pc_index = pc2
                            active[0] = (t2 << shift) | core_id
                            active.sort()
                            continue
                # Burst: execute while this core's time still wins the
                # next selection (t2 <= lb holds at each loop head).
                # Long horizons at a basic-block leader run a block
                # function; everything else takes one micro step (inline
                # fast body, or an interpreter-exact ``core.step()``
                # inside the micro function for slow ops) — so the burst
                # flows through memory misses, atomics and SSB ops
                # without returning to the scheduler.
                while True:
                    if lflags[pc2] and lb - t2 >= 4:
                        pc3, t3 = table[pc2](core, regs, t2, lb, jit, dl,
                                             pages, self, cnt)
                        if t3 != t2:
                            pc2, t2 = pc3, t3
                            if t2 > lb:
                                break
                            continue
                        # Entry bail (memory op needing the full
                        # coherence path): fall through to the micro
                        # step, which handles it exactly.
                    v = micro[pc2](regs, t2, jit, core, dl, pages, cnt)
                    if v < 0:
                        break  # HALT or end of stream: the pop below.
                    t2 = v >> 21  # _MICRO_PC_BITS
                    pc2 = v & 0x1FFFFF
                    if t2 > lb:
                        break
                if t2 != time:
                    # Progress: requeue at the burst's end time.  (Every
                    # executed instruction advances time — latencies are
                    # >= 1 — so no-progress means nothing ran.)
                    core.pc_index = pc2
                    active[0] = (t2 << shift) | core_id
                    active.sort()
                    continue
                self.cycle = time
                latency = core.step()
                if use_jitter:
                    latency += jit()
                next_time = time + max(1, latency)
                if core.state is CoreState.RUNNING:
                    active[0] = (next_time << shift) | core_id
                    active.sort()
                else:
                    del active[0]
                    self._finish_time = max(self._finish_time, next_time)
        except BaseException:
            flush_counts()
            if huge in active:
                # A core's step raised (the livelock raise has already
                # taken the sentinel out and set the queue).  Like the
                # interpreter's pop, leave every other core queued at
                # its current time and drop the one that raised.
                active.remove(huge)
                self._ready = [(e >> shift, e & cid_mask)
                               for e in active[1:]]
            raise
        flush_counts()
        self.cycle = max(self.cycle, self._finish_time)
        if tracer.enabled:
            tracer.emit("machine.slice", self.cycle, ph="E", finished=True)
        return RunResult(self, self.cycle, finished=True)

    @property
    def finished(self) -> bool:
        return hasattr(self, "_ready") and not self._ready
