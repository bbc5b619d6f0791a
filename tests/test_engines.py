"""Engine bit-identity: the execution plane is observationally invisible.

The simulator engines (``repro.accel``) change *how* a program runs —
precompiled traces vs the per-instruction interpreter — and must never
change *what* it computes.  This module pins that contract three ways:

* the golden grid (``tests/golden/run_built_golden.json``) replayed
  under both simulator engines, byte-for-byte;
* every registry workload plus the racy variants replayed under both
  simulator engines;
* a differential test running hypothesis-generated multi-threaded
  programs on ``Machine(engine="interp")`` and ``engine="trace"`` and
  comparing the whole machine state at every pause, after a
  ``SimulationError`` too, and the event trace of a traced subset.

The record plane and the detection pipeline have one implementation,
so a monitored run imports nothing beyond the standard library.
"""

import os
import random
import subprocess
import sys
from collections import Counter
from itertools import islice
from operator import eq, ge, lt, ne

import pytest
from hypothesis import HealthCheck, event, given, settings, strategies as st

sys.path.insert(0, os.path.dirname(__file__))

from golden_runbuilt import assert_cell_matches, golden_cells, load_golden  # noqa: E402

from repro.accel import resolve_sim_engine  # noqa: E402
from repro.core.config import LaserConfig  # noqa: E402
from repro.core.laser import Laser  # noqa: E402
from repro.core.repair.ssb import SoftwareStoreBuffer  # noqa: E402
from repro.errors import SimulationError  # noqa: E402
from repro.isa.assembler import Assembler  # noqa: E402
from repro.isa.instructions import Instruction, Opcode, imm, reg  # noqa: E402
from repro.isa.program import Program  # noqa: E402
from repro.obs.trace import EventTracer  # noqa: E402
from repro.rng import binary_draws  # noqa: E402
from repro.sim.core import Core, CoreStats  # noqa: E402
from repro.sim.machine import Machine  # noqa: E402
from repro.sim.trace import CompiledTrace  # noqa: E402
from repro.workloads import get_workload, workload_names  # noqa: E402

SIM_ENGINES = ["interp", "trace"]


# ----------------------------------------------------------------------
# Golden matrix: every engine combination replays the committed pins
# ----------------------------------------------------------------------

@pytest.mark.services
@pytest.mark.parametrize("sim_engine", SIM_ENGINES)
def test_golden_grid_is_engine_invariant(sim_engine, monkeypatch):
    """All golden cells must be byte-identical under both engines."""
    from golden_runbuilt import collect_cell

    monkeypatch.setenv("LASER_SIM_ENGINE", sim_engine)
    assert resolve_sim_engine("auto") == sim_engine
    golden = load_golden()
    cells = golden_cells()
    assert len(golden) == len(cells)
    for want in golden:
        got = collect_cell(want["workload"], want["seed"], want["schedule"])
        assert_cell_matches(got, want)


@pytest.mark.parametrize("sim_engine", SIM_ENGINES)
def test_run_health_reports_resolved_engines(sim_engine, monkeypatch):
    """RunHealth carries engine provenance without entering as_dict."""
    monkeypatch.setenv("LASER_SIM_ENGINE", sim_engine)
    result = Laser(LaserConfig()).run_workload(get_workload("histogram'"))
    assert result.health.sim_engine == sim_engine
    assert "sim_engine" not in result.health.as_dict()


def test_engine_resolution_rejects_unknown_names(monkeypatch):
    with pytest.raises(ValueError):
        resolve_sim_engine("jit")
    monkeypatch.setenv("LASER_SIM_ENGINE", "jit")
    with pytest.raises(ValueError):
        resolve_sim_engine("auto")


#: Modules a default monitored run never executes, so never imports:
#: numpy (one scalar record plane), the sweep's process pool, and the
#: race certifier with the analyses only it uses (``race_gate`` is off).
_UNUSED_BY_A_RUN = ("numpy", "multiprocessing", "concurrent.futures.process",
                    "repro.static.race", "repro.static.mhp",
                    "repro.static.predict", "repro.static.lockset")


def test_a_monitored_run_imports_no_numpy():
    """A run imports only what it uses, numpy included, installed or not.

    The fresh interpreter imports what perfbench's set-up imports, then
    runs one monitored workload.
    """
    code = (
        "import sys\n"
        "import repro.core, repro.experiments.accuracy\n"
        "import repro.experiments.runner, repro.faults, repro.workloads\n"
        "from repro.core import Laser, LaserConfig\n"
        "from repro.workloads import get_workload\n"
        "result = Laser(LaserConfig()).run_workload(\n"
        "    get_workload(\"histogram'\"), scale=0.25)\n"
        "assert result.pipeline.stats.records_seen > 0\n"
        "print(sorted(set(sys.argv[1:]) & set(sys.modules)))\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    out = subprocess.run([sys.executable, "-c", code, *_UNUSED_BY_A_RUN],
                         env=dict(os.environ, PYTHONPATH=src), check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "[]"


# ----------------------------------------------------------------------
# Registry replay: every workload under both simulator engines
# ----------------------------------------------------------------------

def _stats(core):
    return {slot: getattr(core.stats, slot) for slot in CoreStats.__slots__}


def _replay(name, sim_engine, monkeypatch):
    monkeypatch.setenv("LASER_SIM_ENGINE", sim_engine)
    result = Laser(LaserConfig()).run_workload(get_workload(name), scale=0.25)
    assert result.health.sim_engine == sim_engine
    return {
        "cycles": result.cycles,
        "repaired": result.repaired,
        "report": result.report.render(),
        "health": result.health.as_dict(),
        "core_stats": [_stats(core) for core in result.machine.cores],
    }


@pytest.mark.services
@pytest.mark.parametrize(
    "name", workload_names() + ["racy_counter", "racy_handoff"])
def test_registry_replays_identically_under_both_sim_engines(name,
                                                             monkeypatch):
    """LASER on, seed 0, scale 0.25: the trace engine changes nothing."""
    assert _replay(name, "trace", monkeypatch) == \
        _replay(name, "interp", monkeypatch)


def test_streams_too_long_for_micro_pcs_match_interpreter(monkeypatch):
    """A stream past the micro pc field runs on blocks and the pop alone.

    Shrinking the field to 3 bits makes every thread of a real workload
    too long for it: each micro entry must then hand the core to the
    scheduler's pop, and the run must stay the interpreter's.
    """
    import repro.sim.trace as trace_module

    monkeypatch.setattr(trace_module, "_MICRO_PC_MASK", 7)

    def run(engine):
        built = get_workload("linear_regression").build(
            heap_offset=0, seed=0, scale=0.25)
        machine = Machine(built.program, seed=0, allocator=built.allocator,
                          engine=engine)
        built.apply_init(machine)
        slices = []
        for until in (20_000, None):
            result = machine.run(until_cycle=until)
            slices.append((result.cycles, result.finished,
                           [_stats(core) for core in machine.cores],
                           machine._jitter_rng.getstate()))
        assert not slices[0][1] and slices[1][1]
        return machine, slices

    machine, got = run("trace")
    for core in machine.cores:
        assert len(core.instructions) > 7
        assert all(fn is trace_module._to_pop for fn in core._trace.micro)
    assert got == run("interp")[1]


# ----------------------------------------------------------------------
# The jitter stream and parked spin-waits
# ----------------------------------------------------------------------

@pytest.mark.parametrize("seed", [0, 1, 13, 2**40 + 7])
def test_jitter_stream_matches_randrange(seed):
    """The buffered stream is ``randrange(0, 2)``, draw for draw.

    4,096-word batches keep at most 4,096 draws each, so 20,000 draws
    span at least four batches.  One-word batches leave the ``Random``
    exactly where ``randrange`` does after every draw, and no batch is
    drawn before the first draw.
    """
    reference = random.Random(seed)
    want = [reference.randrange(0, 2) for _ in range(20_000)]
    assert list(islice(binary_draws(random.Random(seed)), 20_000)) == want

    rng, reference = random.Random(seed), random.Random(seed)
    draws = binary_draws(rng, words=1)
    assert rng.getstate() == reference.getstate()
    for _ in range(200):
        assert next(draws) == reference.randrange(0, 2)
        assert rng.getstate() == reference.getstate()


def test_kmeans_spin_waits_stay_parked(monkeypatch):
    """Parking carries kmeans' flag hand-offs; it must not switch off.

    Every PAUSE of kmeans sits in a ``load; bcc; pause; jmp`` wait, and
    a monitored run at scale 0.25 retires tens of thousands of
    instructions there.  The compiled functions of those pcs may run
    only a few percent of them: the misses after each hand-off, and
    the first trip of each wait.
    """
    workload = get_workload("kmeans")
    retired = Counter()
    step = Core.step

    def counted_step(core):
        retired[core.core_id, core.pc_index] += 1
        return step(core)

    monkeypatch.setattr(Core, "step", counted_step)
    monkeypatch.setenv("LASER_SIM_ENGINE", "interp")
    want = Laser(LaserConfig()).run_workload(workload, scale=0.25)
    monkeypatch.setattr(Core, "step", step)

    in_loops = 0
    for core in want.machine.cores:
        insts = core.instructions
        spins = CompiledTrace(insts, False, True, True).spins or ()
        loop = [i for i, spin in enumerate(spins) if spin is not None]
        pauses = sum(inst.op is Opcode.PAUSE for inst in insts)
        assert pauses and len(loop) == 4 * pauses
        in_loops += sum(retired[core.core_id, i] for i in loop)

    calls = Counter()

    def counting(resolve, table):
        def wrapped(self, i):
            fn = resolve(self, i)
            if fn is None or self.spins is None or self.spins[i] is None:
                return fn

            def counted(*args):
                calls[table] += 1
                return fn(*args)

            getattr(self, table)[i] = counted
            return counted
        return wrapped

    monkeypatch.setattr(CompiledTrace, "resolve",
                        counting(CompiledTrace.resolve, "table"))
    monkeypatch.setattr(CompiledTrace, "resolve_micro",
                        counting(CompiledTrace.resolve_micro, "micro"))
    monkeypatch.setenv("LASER_SIM_ENGINE", "trace")
    got = Laser(LaserConfig()).run_workload(workload, scale=0.25)
    assert got.cycles == want.cycles
    assert in_loops > 20_000
    assert sum(calls.values()) < 0.05 * in_loops, (calls, in_loops)


# ----------------------------------------------------------------------
# Differential programs: trace engine vs interpreter on generated code
# ----------------------------------------------------------------------

#: Base of the 1-3 shared lines.  The second line ends a page, so an
#: access straddling out of it crosses a page boundary as well.
_SHARED = 0x10000F80
#: Base of thread ``tid``'s two private lines, at ``_PRIVATE + tid *
#: 0x10000``.  The first ends a page, so straddling accesses cross pages.
_PRIVATE = 0x20000FC0
_SIZES = (1, 2, 4, 8)
_ALU_OPS = ("add", "sub", "mul", "and_", "or_", "xor", "shl", "shr")
_BRANCH_OPS = ("beq", "bne", "blt", "bge")

# r0-r7 carry data; r8/r9 hold the shared/private bases, r10 counts
# loop trips.  Small values double as shift counts past 63.  Strategies
# are built once here: building one per draw costs more than the draw.
_regs = st.integers(0, 7).map("r{}".format)
_small_values = st.integers(-4, 130)
_large_values = st.integers(0, 2**64 - 1)
_values = _small_values | _large_values
_sources = st.one_of(_regs, _values)
_operands = st.one_of(st.integers(0, 7).map(reg), _small_values.map(imm),
                      _large_values.map(imm))
_divisors = st.integers(1, 9) | st.integers(1, 2**64 - 1)
_sizes = st.sampled_from(_SIZES)
_line_of = {n: st.integers(0, n - 1) for n in (1, 2, 3)}
#: Offsets within a line: the edges where a ``size``-byte access just
#: fits or just straddles, and anywhere.
_within = {size: st.one_of(st.sampled_from((0, 63, 64 - size, 65 - size)),
                           st.integers(0, 63)) for size in _SIZES}
_small = st.integers(1, 3)
_one_in_five = st.integers(0, 4)
_simple_kinds = st.sampled_from(("mov", "alu", "alu", "pause", "nop"))
_alu_ops = st.sampled_from(_ALU_OPS)
_branch_ops = st.sampled_from(_BRANCH_OPS)
_memory_kinds = st.sampled_from(("load", "load", "store", "addm"))
_slow_kinds = st.sampled_from(("xadd", "fence", "div"))
#: Core 0 with a store buffer attached also stores to the shared lines
#: through it (the assembler has no SSB pseudo-ops; the rewriter emits
#: them as plain Instructions too).
_ssb_slow_kinds = st.sampled_from(("xadd", "fence", "div", "ssb_store",
                                   "ssb_store", "ssb_store", "ssb_flush"))
_item_kinds = st.sampled_from(("simple", "memory", "memory", "slow",
                               "branch", "loop", "spin", "signal"))
#: The item kinds of a thread that may not spin-wait.
_no_spin_kinds = st.sampled_from(("simple", "memory", "memory", "slow",
                                  "branch", "loop", "signal"))
#: A spin-wait's exit test, ``passes(flag, value)``, by branch op.
_PASSES = {"beq": eq, "bne": ne, "blt": lt, "bge": ge}
#: Every exit ``(branch op, value)`` that some flag value 0-4 passes.
_ALL_EXITS = [(op, value) for op in _BRANCH_OPS for value in range(4)
              if any(_PASSES[op](flag, value) for flag in range(5))]
#: The exit of a case's spin-waits: mostly once the flag turns nonzero,
#: sometimes a test that may already hold at entry.
_exits = st.sampled_from((("bne", 0), ("bne", 0), ("bge", 1), ("beq", 0),
                          ("blt", 2))) | st.sampled_from(_ALL_EXITS)
#: For each exit, the flag values 0-4 that pass it: what a release
#: stores.
_releases = {exit: st.sampled_from([flag for flag in range(5)
                                    if _PASSES[exit[0]](flag, exit[1])])
             for exit in _ALL_EXITS}
#: Another register than the one drawn, as an offset from it.
_other_reg = st.integers(1, 7)
#: Which later thread releases a spin-wait, as an offset among them.
_releasers = st.integers(0, 7)
_signal_kinds = st.sampled_from(("store", "addm", "xadd"))
_signal_values = st.integers(1, 3) | _values
#: The byte of a ``size``-byte flag a signal starts at.
_flag_bytes = {size: st.integers(0, size - 1) for size in _SIZES}
#: How many of the items after a loop form its body.
_loop_bodies = st.integers(1, 4)
#: How many of a thread's four drawn register moves open it.
_movs = st.integers(0, 4)
#: Where a spin-wait is entered: its LOAD, or (jumped to) the branch,
#: the PAUSE or the JMP.
_entries = st.sampled_from((0, 0, 0, 1, 2, 3))
#: A spin-wait whose flag never changes runs until this backstop.
_MAX_CYCLES = 8_000
#: Top-level items one case draws at most, across all its threads.
_CASE_ITEMS = 16


class _Thread:
    """Assembler state while one generated thread is drawn.

    ``flag`` is the case's (offset from the shared base, size) of the
    word its spin-waits wait on and its signals write, and ``exit`` the
    ``(branch op, value)`` test on which every spin-wait of the case
    leaves.  ``releases`` lists a ``(releaser, value)`` pair per
    spin-wait drawn (``_cases`` stores them), or is ``None`` in a
    thread that may not spin-wait.
    """

    def __init__(self, draw, tid, lines, ssb, flag, exit, may_spin):
        self.draw = draw
        self.asm = Assembler("t%d" % tid)
        self.lines = lines
        self.ssb = ssb
        self.flag = flag
        self.exit = exit
        self.releases = [] if may_spin else None
        self.labels = 0
        self.pending = []  # (top-level item index, forward label)

    def place_labels(self, index=None):
        """Place the forward labels due by item ``index`` (None: all)."""
        due = [lb for at, lb in self.pending if index is None or at <= index]
        self.pending = [(at, lb) for at, lb in self.pending
                        if index is not None and at > index]
        for label in due:
            self.asm.label(label)

    def label(self):
        self.labels += 1
        return "L%d" % self.labels

    def offset(self, lines, size):
        return 64 * self.draw(_line_of[lines]) + self.draw(_within[size])


class _Op:
    """Every field a simple, memory or slow op reads, drawn in one order.

    Hypothesis mutates a case by copying one draw's choices over
    another's of the same strategy.  If an op drew only the fields its
    kind reads, a copied kind that reads more would shift every later
    draw, and the case would run out of choices: an invalid example.
    So every op draws the same fields whatever its kind, and so does
    every item (``_Item``).
    """

    def __init__(self, th):
        draw = th.draw
        self.simple = draw(_simple_kinds)
        self.alu = draw(_alu_ops)
        self.memory = draw(_memory_kinds)
        self.slow = draw(_ssb_slow_kinds if th.ssb else _slow_kinds)
        self.size = size = draw(_sizes)
        self.shared = draw(st.booleans())
        self.immediate = draw(_one_in_five) == 0
        self.shared_off = th.offset(th.lines, size)
        self.private_off = th.offset(2, size)
        self.rd = draw(_regs)
        self.rs = draw(_regs)
        self.a = draw(_sources)
        self.b = draw(_sources)
        self.reg_divisor = draw(_one_in_five) == 0
        self.divisor = draw(_divisors)
        self.operand = draw(_operands)


class _Item:
    """One item's kind and the fields of every kind (see ``_Op``)."""

    def __init__(self, th, kinds):
        draw = th.draw
        self.kind = draw(kinds)
        self.op = _Op(th)
        # What the item emits inside a loop's body.
        self.in_loop = draw(_loop_items)
        # A forward branch.
        self.jmp = draw(_one_in_five) == 0
        self.branch = draw(_branch_ops)
        self.skip = draw(_small)
        # A loop: its trip count, body length and back-edge shape.
        self.trips = draw(_small)
        self.body = draw(_loop_bodies)
        self.bne = draw(st.booleans())
        # A spin-wait and its release.
        self.entry = draw(_entries)
        self.other = draw(st.booleans())
        self.other_reg = draw(_other_reg)
        self.releaser = draw(_releasers)
        self.release = draw(_releases[th.exit])
        # A signal.
        self.at = draw(_flag_bytes[th.flag[1]])
        self.signal = draw(_signal_kinds)
        self.value = draw(_signal_values)


def _emit_simple(th, op):
    asm = th.asm
    if op.simple == "mov":
        asm.mov(op.rd, op.a)
    elif op.simple == "alu":
        getattr(asm, op.alu)(op.rd, op.a, op.b)
    else:
        getattr(asm, op.simple)()


def _emit_memory(th, op):
    if op.shared:
        base, off = _SHARED if op.immediate else "r8", op.shared_off
    else:
        base, off = "r9", op.private_off
    if op.memory == "load":
        th.asm.load(op.rd, base, offset=off, size=op.size)
    else:
        getattr(th.asm, op.memory)(base, op.a, offset=off, size=op.size)


def _emit_slow(th, op):
    """Opcodes without a template: the interpreter runs them."""
    asm, size = th.asm, op.size
    if op.slow == "xadd":
        asm.xadd(op.rd, "r8", op.a, offset=op.shared_off, size=size)
    elif op.slow == "fence":
        asm.fence()
    elif op.slow == "div":
        # A register divisor may hold zero: the division then raises
        # mid-burst, and both engines must stop in the same state.
        asm.div(op.rd, op.a, op.rs if op.reg_divisor else op.divisor)
    elif op.slow == "ssb_store":
        asm._emit(Instruction(Opcode.SSB_STORE, a=reg(8), b=op.operand,
                              size=size, offset=op.shared_off))
    else:
        asm._emit(Instruction(Opcode.SSB_FLUSH))


def _emit_forward_branch(th, item, index):
    asm, op = th.asm, item.op
    label = th.label()
    if item.jmp:
        asm.jmp(label)
    else:
        getattr(asm, item.branch)(op.rd, op.a, label)
    th.pending.append((index + item.skip, label))


def _emit_loop(th, item, body):
    """A bounded loop around ``body``, the items that follow it.

    Its back edge is the entry of the body's block.  Each body item is
    an op (``_Item.in_loop``).
    """
    asm = th.asm
    top = th.label()
    asm.mov("r10", item.trips)
    asm.label(top)
    for inner in body:
        inner.in_loop(th, inner.op)
    asm.sub("r10", "r10", 1)
    if item.bne:
        asm.bne("r10", 0, top)
    else:
        done = th.label()
        asm.beq("r10", 0, done)
        asm.jmp(top)
        asm.label(done)


_loop_items = st.sampled_from((_emit_simple, _emit_memory, _emit_memory,
                               _emit_slow))


def _emit_spin(th, item):
    """A ``load; bcc out; pause; jmp load`` wait on the case's flag.

    The LOAD takes the flag through ``r8`` or an immediate address, and
    the exit compares it with the case's value as an immediate or in
    another register.  A wait entered in its middle first reads the
    flag's line, so the core may hold it, and sets the loaded register
    to a drawn value that may disagree with memory.  A later thread
    stores a value the exit passes (``_cases``).
    """
    asm, op = th.asm, item.op
    off, size = th.flag
    branch, value = th.exit
    th.releases.append((item.releaser, item.release))
    rd = op.rd
    base = _SHARED if op.immediate else "r8"
    top, out = th.label(), th.label()
    mids = [th.label() for _ in range(3)]
    entry = item.entry
    if entry:
        asm.load(op.rs, "r8", offset=off & ~63, size=8)
        asm.mov(rd, op.a)
    if item.other:
        other = "r%d" % ((int(rd[1:]) + item.other_reg) % 8)
        asm.mov(other, value)
        value = other
    if entry:
        asm.jmp(mids[entry - 1])
    asm.label(top)
    asm.load(rd, base, offset=off, size=size)
    asm.label(mids[0])
    getattr(asm, branch)(rd, value, out)
    asm.label(mids[1])
    asm.pause()
    asm.label(mids[2])
    asm.jmp(top)
    asm.label(out)


def _emit_signal(th, item):
    """A store, RMW or XADD starting inside the flag.

    Its size is drawn apart from the flag's, so on a flag that straddles
    two lines it may write the second line alone.
    """
    asm, op = th.asm, item.op
    at = th.flag[0] + item.at
    if item.signal == "xadd":
        asm.xadd(op.rd, "r8", item.value, offset=at, size=op.size)
    else:
        getattr(asm, item.signal)("r8", item.value, offset=at, size=op.size)


_OPS = {"simple": _emit_simple, "memory": _emit_memory, "slow": _emit_slow}


def _draw_thread(draw, tid, items, *args):
    """``items`` items of one thread, every forward label placed, no HALT."""
    th = _Thread(draw, tid, *args)
    asm = th.asm
    asm.mov("r8", _SHARED)
    asm.mov("r9", _PRIVATE + tid * 0x10000)
    movs = draw(_movs)
    for rd, value in [(draw(_regs), draw(_values)) for _ in range(4)][:movs]:
        asm.mov(rd, value)
    kinds = _no_spin_kinds if th.releases is None else _item_kinds
    drawn = [_Item(th, kinds) for _ in range(items)]
    index = 0
    while index < items:
        # A label due inside a loop's body lands after the loop.
        th.place_labels(index)
        item = drawn[index]
        index += 1
        if item.kind == "branch":
            _emit_forward_branch(th, item, index - 1)
        elif item.kind == "loop":
            body = drawn[index:index + item.body]
            index += len(body)
            _emit_loop(th, item, body)
        elif item.kind in _OPS:
            _OPS[item.kind](th, item.op)
        elif item.kind == "spin":
            _emit_spin(th, item)
        else:
            _emit_signal(th, item)
    th.place_labels()
    return th


class _Case:
    def __init__(self, threads, **settings):
        self.program = Program("fuzz", threads)
        self.__dict__.update(settings)

    def __repr__(self):
        code = "\n".join(
            "  t%d: %r" % (tid, thread.instructions)
            for tid, thread in enumerate(self.program.threads))
        knobs = {k: v for k, v in self.__dict__.items() if k != "program"}
        return "_Case(%r\n%s)" % (knobs, code)


@st.composite
def _cases(draw):
    """A case whose every spin-wait has a release.

    The last thread does not spin-wait.  For each spin-wait of thread
    ``t``, a thread after ``t`` stores a value that passes the exit
    after its last item, where every path through it goes.  Each thread
    reaches its end, the last first, unless a write to the flag after
    the release fails the exit again, or a division raises.

    The thread count comes first and the case's items second, at most
    ``_CASE_ITEMS`` of them, which the threads split.  Each item draws
    the same choices whatever its kind (``_Op``), so a mutation that
    copies one thread's item count or one item's kind over another's
    leaves the number of choices the case draws unchanged.
    """
    count = draw(st.integers(1, 9))
    items = draw(st.integers(count, min(8 * count, _CASE_ITEMS)))
    pauses = [draw(st.integers(1, 3000)) for _ in range(4)]
    knobs = dict(
        ssb=draw(st.booleans()),
        jitter=draw(st.booleans()),
        traced=draw(_one_in_five) == 0,
        seed=draw(st.integers(0, 3)),
        hitm_stall=draw(st.sampled_from((0, 1, 40))),
        memop_stall=draw(st.none() | st.integers(0, 3)),
        pauses=sorted(pauses[:draw(st.integers(0, 4))]),
    )
    lines = draw(st.integers(1, 3))
    size = draw(_sizes)
    flag = (64 * draw(_line_of[lines]) + draw(_within[size]), size)
    exit = draw(_exits)
    threads = []
    for tid in range(count):
        later = count - 1 - tid
        # 1-8 items per thread; the last takes what the others left.
        mine = draw(st.integers(max(1, items - 8 * later),
                                min(8, items - later))) if later else items
        items -= mine
        threads.append(_draw_thread(draw, tid, mine, lines,
                                    knobs["ssb"] and tid == 0, flag, exit,
                                    later > 0))
    for tid, th in enumerate(threads):
        for releaser, value in th.releases or ():
            releaser = threads[tid + 1 + releaser % (count - 1 - tid)]
            releaser.asm.store("r8", value, offset=flag[0], size=size)
    for th in threads:
        th.asm.halt()
    return _Case([th.asm.build() for th in threads], **knobs)


def _machine_state(machine, result, log):
    """Everything a slice leaves behind.

    ``result`` is the slice's RunResult, or the ``SimulationError`` it
    raised.
    """
    directory = machine.directory
    ssb = machine.cores[0].ssb
    if isinstance(result, SimulationError):
        head = {"cycles": machine.cycle, "error": str(result)}
    else:
        head = {"cycles": (result.cycles, result.finished, machine.cycle)}
    return {
        **head,
        "ready": sorted(getattr(machine, "_ready", [])),
        "registers": [list(core.registers) for core in machine.cores],
        "pcs": [(core.pc_index, core.state) for core in machine.cores],
        "stats": [_stats(core) for core in machine.cores],
        "pages": {k: bytes(v) for k, v in machine.memory._pages.items()},
        "lines": {k: dict(v) for k, v in directory._lines.items()},
        "line_busy_until": dict(directory._line_busy_until),
        "hitm": directory.hitm_count,
        "directory_now": directory.now,
        "htm": (machine.htm.commits, machine.htm.aborts),
        "ssb": None if ssb is None else (
            dict(ssb._bytes),
            [getattr(ssb.stats, slot) for slot in ssb.stats.__slots__]),
        "jitter_rng": machine._jitter_rng.getstate(),
        "hook_log": list(log),
    }


def _run_case(case, engine, tracer=None):
    """Per-slice machine states of one case under one engine.

    ``num_cores`` is at least the default 4; the scheduler's core-id
    field is sized by the thread count, so 1-9 threads run it at both
    its 3-bit and 4-bit widths.  The jitter stream is refilled one
    32-bit word at a time, so the state of the ``Random`` under it
    pins the number of draws taken after every slice.
    """
    machine = Machine(case.program, seed=case.seed, jitter=case.jitter,
                      num_cores=max(4, case.program.num_threads),
                      tracer=tracer, engine=engine)
    machine._jitter = binary_draws(machine._jitter_rng, words=1).__next__
    log = []

    def on_hitm(core_id, inst, addr, is_write, cycle):
        log.append(("hitm", core_id, inst.pc, addr, is_write, cycle))
        return case.hitm_stall if len(log) % 2 else 0

    def on_memory_op(core_id, inst, cycle):
        log.append(("memop", core_id, inst.pc, cycle))
        return case.memop_stall

    machine.on_hitm = on_hitm
    if case.memop_stall is not None:
        machine.on_memory_op = on_memory_op
    states = []
    try:
        if case.ssb:
            # Every core runs its first instruction (a MOV) at cycle 0.
            # Then the store buffer attaches with no code swap, so the
            # trace engine must rebuild core 0's trace with the pin tax.
            states.append(_machine_state(machine, machine.run(
                until_cycle=0, max_cycles=_MAX_CYCLES), log))
            machine.cores[0].ssb = SoftwareStoreBuffer(machine, core_id=0)
        for until in case.pauses:
            states.append(_machine_state(machine, machine.run(
                until_cycle=until, max_cycles=_MAX_CYCLES), log))
        states.append(_machine_state(
            machine, machine.run(max_cycles=_MAX_CYCLES), log))
    except SimulationError as error:
        states.append(_machine_state(machine, error, log))
    return states


def _events(tracer):
    return [item.as_dict() for item in tracer.events()]


def _ending(states):
    """How a case's last slice ended: finished, backstop or raised."""
    error = states[-1].get("error")
    if error is None:
        return "finished"
    return "backstop" if "max_cycles" in error else "raised"


def _assert_same_slices(got, want):
    assert len(got) == len(want)
    for index, (g, w) in enumerate(zip(got, want)):
        assert g.keys() == w.keys(), "slice %d ends differently" % index
        for key in w:
            assert g[key] == w[key], "slice %d differs in %s" % (index, key)


@settings(max_examples=500, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_cases())
def test_trace_engine_matches_interpreter_on_generated_programs(case):
    """Every slice of a generated program leaves identical machine state.

    The programs run on 1-9 threads and mix every templated opcode
    (register-count shifts included) with accesses of 1/2/4/8 bytes
    that straddle lines and pages, bounded loops, untemplated
    XADD/FENCE/DIV (a register divisor may be zero, so a slice can
    raise mid-burst), spin-waits that a later thread releases, and, on
    core 0 with a store buffer attached after cycle 0, SSB stores to
    the shared lines and SSB flushes (whose coherence transitions read
    ``directory.now``).  On a traced subset the interpreter runs under
    an ``EventTracer``, and so does a second trace-engine run: tracing
    must not move its state, and its events must equal the
    interpreter's.  Each case's ending is an event
    (``--hypothesis-show-statistics``); few should reach the backstop.
    """
    interp_tracer = EventTracer() if case.traced else None
    want = _run_case(case, "interp", interp_tracer)
    event("ending: " + _ending(want))
    got = _run_case(case, "trace")
    _assert_same_slices(got, want)
    if case.traced:
        tracer = EventTracer()
        _assert_same_slices(_run_case(case, "trace", tracer), got)
        assert _events(tracer) == _events(interp_tracer)
