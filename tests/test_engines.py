"""Engine bit-identity: the execution plane is observationally invisible.

The acceleration engines (``repro.accel``) change *how* the hot paths
run — struct-of-arrays numpy kernels vs scalar loops for the record
plane, precompiled traces vs the per-instruction interpreter for the
simulator — and must never change *what* they compute.  This module
pins that contract five ways:

* the golden grid (``tests/golden/run_built_golden.json``) replayed
  under every engine combination, byte-for-byte;
* every registry workload plus the racy variants replayed under both
  simulator engines;
* a differential test running hypothesis-generated multi-threaded
  programs on ``Machine(engine="interp")`` and ``engine="trace"`` and
  comparing the whole machine state at every pause, after a
  ``SimulationError`` too, and the event trace of a traced subset;
* hypothesis property tests driving the vectorized detection kernels
  against their scalar twins on adversarial random batches;
* a whole-pipeline equivalence check on randomized record streams
  (state_dict byte equality, which covers counters, dict insertion
  order and JSON-serializability of every accumulated value).
"""

import json
import os
import random
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

sys.path.insert(0, os.path.dirname(__file__))

from golden_runbuilt import assert_cell_matches, golden_cells, load_golden  # noqa: E402

from repro.accel import numpy_available, resolve_engine, resolve_sim_engine  # noqa: E402
from repro.core.config import LaserConfig  # noqa: E402
from repro.core.detect.linemodel import CacheLineModel, SharingType  # noqa: E402
from repro.core.laser import Laser  # noqa: E402
from repro.core.repair.ssb import SoftwareStoreBuffer  # noqa: E402
from repro.errors import SimulationError  # noqa: E402
from repro.isa.assembler import Assembler  # noqa: E402
from repro.isa.instructions import Instruction, Opcode, imm, reg  # noqa: E402
from repro.isa.program import Program  # noqa: E402
from repro.obs.trace import EventTracer  # noqa: E402
from repro.sim.core import CoreStats  # noqa: E402
from repro.sim.machine import Machine  # noqa: E402
from repro.workloads import get_workload, workload_names  # noqa: E402

np = pytest.importorskip("numpy") if numpy_available() else None

ENGINE_COMBOS = [
    ("python", "interp"),
    ("python", "trace"),
    ("numpy", "interp"),
    ("numpy", "trace"),
]

_SHARING_CODE = {
    SharingType.NONE: 0,
    SharingType.TRUE_SHARING: 1,
    SharingType.FALSE_SHARING: 2,
}


def _needs_numpy(engine):
    if engine == "numpy" and not numpy_available():
        pytest.skip("numpy not installed; numpy-engine cells skipped")


# ----------------------------------------------------------------------
# Golden matrix: every engine combination replays the committed pins
# ----------------------------------------------------------------------

@pytest.mark.services
@pytest.mark.parametrize("engine,sim_engine", ENGINE_COMBOS)
def test_golden_grid_is_engine_invariant(engine, sim_engine, monkeypatch):
    """All golden cells must be byte-identical under every engine."""
    from golden_runbuilt import collect_cell

    _needs_numpy(engine)
    monkeypatch.setenv("LASER_ENGINE", engine)
    monkeypatch.setenv("LASER_SIM_ENGINE", sim_engine)
    assert resolve_engine("auto") == engine
    assert resolve_sim_engine("auto") == sim_engine
    golden = load_golden()
    cells = golden_cells()
    assert len(golden) == len(cells)
    for want in golden:
        got = collect_cell(want["workload"], want["seed"], want["schedule"])
        assert_cell_matches(got, want)


@pytest.mark.parametrize("engine,sim_engine", ENGINE_COMBOS)
def test_run_health_reports_resolved_engines(engine, sim_engine, monkeypatch):
    """RunHealth carries engine provenance without entering as_dict."""
    _needs_numpy(engine)
    monkeypatch.setenv("LASER_ENGINE", engine)
    monkeypatch.setenv("LASER_SIM_ENGINE", sim_engine)
    result = Laser(LaserConfig()).run_workload(get_workload("histogram'"))
    assert result.health.engine == engine
    assert result.health.sim_engine == sim_engine
    assert "engine" not in result.health.as_dict()
    assert "sim_engine" not in result.health.as_dict()


def test_engine_resolution_rejects_unknown_names(monkeypatch):
    with pytest.raises(ValueError):
        resolve_engine("fortran")
    with pytest.raises(ValueError):
        resolve_sim_engine("jit")
    monkeypatch.setenv("LASER_ENGINE", "fortran")
    with pytest.raises(ValueError):
        resolve_engine("auto")


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
_values = st.one_of(st.integers(-4, 130), st.integers(0, 2**64 - 1))
_sources = st.one_of(_regs, _values)
_operands = st.integers(0, 7).map(reg) | _values.map(imm)
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
                               "branch", "loop"))


class _Thread:
    """Assembler state while one generated thread is drawn."""

    def __init__(self, draw, tid, lines, ssb):
        self.draw = draw
        self.asm = Assembler("t%d" % tid)
        self.lines = lines
        self.ssb = ssb
        self.labels = 0
        self.pending = []  # (top-level item index, forward label)

    def label(self):
        self.labels += 1
        return "L%d" % self.labels

    def offset(self, lines, size):
        return 64 * self.draw(_line_of[lines]) + self.draw(_within[size])


def _emit_simple(th):
    draw, asm = th.draw, th.asm
    kind = draw(_simple_kinds)
    if kind == "mov":
        asm.mov(draw(_regs), draw(_sources))
    elif kind == "alu":
        getattr(asm, draw(_alu_ops))(draw(_regs), draw(_sources),
                                     draw(_sources))
    else:
        getattr(asm, kind)()


def _emit_memory(th):
    draw, asm = th.draw, th.asm
    size = draw(_sizes)
    if draw(st.booleans()):
        base, off = "r8", th.offset(th.lines, size)
        if draw(_one_in_five) == 0:
            base = _SHARED  # an immediate address
    else:
        base, off = "r9", th.offset(2, size)
    kind = draw(_memory_kinds)
    if kind == "load":
        asm.load(draw(_regs), base, offset=off, size=size)
    else:
        getattr(asm, kind)(base, draw(_sources), offset=off, size=size)


def _emit_slow(th):
    """Opcodes without a template: the interpreter runs them."""
    draw, asm = th.draw, th.asm
    kind = draw(_ssb_slow_kinds if th.ssb else _slow_kinds)
    size = draw(_sizes)
    if kind == "xadd":
        asm.xadd(draw(_regs), "r8", draw(_sources),
                 offset=th.offset(th.lines, size), size=size)
    elif kind == "fence":
        asm.fence()
    elif kind == "div":
        # A register divisor may hold zero: the division then raises
        # mid-burst, and both engines must stop in the same state.
        divisor = draw(_regs) if draw(_one_in_five) == 0 else draw(_divisors)
        asm.div(draw(_regs), draw(_sources), divisor)
    elif kind == "ssb_store":
        asm._emit(Instruction(Opcode.SSB_STORE, a=reg(8), b=draw(_operands),
                              size=size, offset=th.offset(th.lines, size)))
    else:
        asm._emit(Instruction(Opcode.SSB_FLUSH))


def _emit_forward_branch(th, index):
    draw, asm = th.draw, th.asm
    label = th.label()
    if draw(_one_in_five) == 0:
        asm.jmp(label)
    else:
        getattr(asm, draw(_branch_ops))(draw(_regs), draw(_sources), label)
    th.pending.append((index + draw(_small), label))


def _emit_loop(th):
    """A bounded loop; its back edge is the entry of the body's block."""
    draw, asm = th.draw, th.asm
    top = th.label()
    asm.mov("r10", draw(_small))
    asm.label(top)
    for _ in range(draw(st.integers(1, 4))):
        draw(_loop_items)(th)
    asm.sub("r10", "r10", 1)
    if draw(st.booleans()):
        asm.bne("r10", 0, top)
    else:
        done = th.label()
        asm.beq("r10", 0, done)
        asm.jmp(top)
        asm.label(done)


_loop_items = st.sampled_from((_emit_simple, _emit_memory, _emit_memory,
                               _emit_slow))


@st.composite
def _threads(draw, tid, lines, ssb):
    th = _Thread(draw, tid, lines, ssb)
    asm = th.asm
    asm.mov("r8", _SHARED)
    asm.mov("r9", _PRIVATE + tid * 0x10000)
    for _ in range(draw(st.integers(0, 4))):
        asm.mov(draw(_regs), draw(_values))
    for index in range(draw(st.integers(1, 8))):
        for label in [lb for at, lb in th.pending if at == index]:
            asm.label(label)
        kind = draw(_item_kinds)
        if kind == "branch":
            _emit_forward_branch(th, index)
        else:
            {"simple": _emit_simple, "memory": _emit_memory,
             "slow": _emit_slow, "loop": _emit_loop}[kind](th)
    for label in [lb for at, lb in th.pending if at > index]:
        asm.label(label)
    asm.halt()
    return asm.build()


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
    lines = draw(st.integers(1, 3))
    ssb = draw(st.booleans())
    threads = [draw(_threads(tid, lines, ssb and tid == 0))
               for tid in range(draw(st.integers(1, 9)))]
    return _Case(
        threads, ssb=ssb, jitter=draw(st.booleans()),
        traced=draw(_one_in_five) == 0,
        seed=draw(st.integers(0, 3)),
        hitm_stall=draw(st.sampled_from((0, 1, 40))),
        memop_stall=draw(st.none() | st.integers(0, 3)),
        pauses=sorted(draw(st.lists(st.integers(1, 3000), max_size=4))),
    )


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
        "hitm": (directory.hitm_count, directory.load_hitm_count,
                 directory.store_hitm_count,
                 directory.serialization_stall_cycles),
        "directory_now": directory.now,
        "stalls": machine.injected_stall_cycles,
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
    its 3-bit and 4-bit widths.
    """
    machine = Machine(case.program, seed=case.seed, jitter=case.jitter,
                      num_cores=max(4, case.program.num_threads),
                      tracer=tracer, engine=engine)
    if case.ssb:
        machine.cores[0].ssb = SoftwareStoreBuffer(machine, core_id=0)
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
        for until in case.pauses:
            states.append(_machine_state(
                machine, machine.run(until_cycle=until), log))
        states.append(_machine_state(machine, machine.run(), log))
    except SimulationError as error:
        states.append(_machine_state(machine, error, log))
    return states


def _events(tracer):
    return [event.as_dict() for event in tracer.events()]


def _assert_same_slices(got, want):
    assert len(got) == len(want)
    for index, (g, w) in enumerate(zip(got, want)):
        assert g.keys() == w.keys(), "slice %d ends differently" % index
        for key in w:
            assert g[key] == w[key], "slice %d differs in %s" % (index, key)


@settings(max_examples=500, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(_cases())
def test_trace_engine_matches_interpreter_on_generated_programs(case):
    """Every slice of a generated program leaves identical machine state.

    The programs run on 1-9 threads and mix every templated opcode
    (register-count shifts included) with accesses of 1/2/4/8 bytes
    that straddle lines and pages, bounded loops, untemplated
    XADD/FENCE/DIV (a register divisor may be zero, so a slice can
    raise mid-burst) and, on core 0 with a store buffer attached, SSB
    stores to the shared lines and SSB flushes (whose coherence
    transitions read ``directory.now``).  On a traced subset the
    interpreter runs under an ``EventTracer``, and so does a second
    trace-engine run: tracing must not move its state, and its events
    must equal the interpreter's.
    """
    interp_tracer = EventTracer() if case.traced else None
    want = _run_case(case, "interp", interp_tracer)
    got = _run_case(case, "trace")
    _assert_same_slices(got, want)
    if case.traced:
        tracer = EventTracer()
        _assert_same_slices(_run_case(case, "trace", tracer), got)
        assert _events(tracer) == _events(interp_tracer)


# ----------------------------------------------------------------------
# Property tests: vectorized kernels vs their scalar twins
# ----------------------------------------------------------------------

# A handful of cache lines so random batches collide constantly (the
# sequential-per-line chain is the hard part of the vectorization).
_access = st.tuples(
    st.integers(min_value=0, max_value=4 * 64 - 1),   # addr in 4 lines
    st.integers(min_value=1, max_value=64),           # size (may straddle)
    st.booleans(),                                    # is_write
)


@pytest.mark.skipif(not numpy_available(), reason="numpy not installed")
@settings(max_examples=200, deadline=None)
@given(st.lists(_access, min_size=0, max_size=64),
       st.lists(_access, min_size=0, max_size=64))
def test_linemodel_batch_matches_scalar(first, second):
    """observe_batch == observe, access by access, across two batches.

    Two consecutive batches exercise the head-chaining path: the second
    batch's group heads must pick up previous-access state the first
    batch stored in the line table.
    """
    scalar = CacheLineModel()
    vector = CacheLineModel()
    for batch in (first, second):
        want = [_SHARING_CODE[scalar.observe(a, s, w)] for a, s, w in batch]
        if batch:
            addr = np.array([a for a, _, _ in batch], np.uint64)
            size = np.array([s for _, s, _ in batch], np.int64)
            write = np.array([w for _, _, w in batch], np.bool_)
            got = vector.observe_batch(addr, size, write, np)
            assert list(got) == want
        assert scalar.state_dict() == vector.state_dict()
    assert json.dumps(scalar.state_dict()) == json.dumps(vector.state_dict())


@pytest.mark.skipif(not numpy_available(), reason="numpy not installed")
@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2**32))
def test_pipeline_batch_matches_scalar_on_random_records(seed):
    """Whole-pipeline equivalence on a random record stream.

    The same records flow through a scalar pipeline one by one and
    through a numpy pipeline as one batch; every accumulated statistic
    (admission counters, per-line aggregation, line-model state, the
    per-location TS/FS scatter) must serialize to identical bytes.
    """
    from repro.core.detect.pipeline import DetectionPipeline
    from repro.pebs.events import StrippedRecord

    built = get_workload("histogram'").build(heap_offset=0, seed=0, scale=1.0)
    machine = Machine(built.program, seed=0, allocator=built.allocator)
    rng = random.Random(seed)
    pcs = built.program.all_pcs()
    heap = 0x1000_0000
    records = []
    for i in range(rng.randrange(0, 96)):
        if rng.random() < 0.8:
            pc = rng.choice(pcs)
        else:
            pc = rng.randrange(0, 2**47)   # skid noise, any region
        addr = heap + rng.randrange(0, 1024)
        records.append(StrippedRecord(
            pc=pc, data_addr=addr, core=rng.randrange(4), cycle=i,
            seq=i, weight=rng.choice((1, 1, 1, 2, 4)),
        ))

    scalar = DetectionPipeline(built.program, machine.vmmap, 1000,
                               engine="python")
    vector = DetectionPipeline(built.program, machine.vmmap, 1000,
                               engine="numpy" if numpy_available()
                               else "python")
    for record in records:
        scalar.process([record])
    vector.process(records)
    assert json.dumps(scalar.state_dict(), sort_keys=True) == \
        json.dumps(vector.state_dict(), sort_keys=True)
    assert scalar.stats.records_admitted == vector.stats.records_admitted
    assert scalar.stats.undecodable_pcs == vector.stats.undecodable_pcs


# ----------------------------------------------------------------------
# Batch plumbing: RecordBatch merge/dedup vs the scalar code paths
# ----------------------------------------------------------------------

@pytest.mark.obs
@pytest.mark.skipif(not numpy_available(), reason="numpy not installed")
def test_numpy_engine_hot_path_floor():
    """The vectorized pipeline must stay >= 5x the scalar loop.

    Measured on a large synthetic batch (the hot path the refactor
    targets — per-poll batches on the small bench workloads sit below
    ``_BATCH_MIN`` and deliberately take the scalar path).  Same-host
    ratio of best-of-5 runs, so runner speed cancels out; the two
    engines' repetitions alternate, so a slow phase of a shared host
    slows both sides rather than one.
    """
    import time

    from repro.core.detect.pipeline import DetectionPipeline
    from repro.pebs.events import StrippedRecord

    built = get_workload("histogram'").build(heap_offset=0, seed=0,
                                             scale=1.0)
    machine = Machine(built.program, seed=0, allocator=built.allocator)
    rng = random.Random(0)
    pcs = built.program.all_pcs()
    n = 65536
    records = [
        StrippedRecord(pc=rng.choice(pcs),
                       data_addr=0x1000_0000 + rng.randrange(0, 1024),
                       core=rng.randrange(4), cycle=i, seq=i, weight=1)
        for i in range(n)
    ]

    def rate(engine):
        pipeline = DetectionPipeline(built.program, machine.vmmap, 1000,
                                     engine=engine)
        t0 = time.perf_counter()
        pipeline.process(records)
        return n / (time.perf_counter() - t0)

    scalar = vector = 0.0
    for _ in range(5):
        scalar = max(scalar, rate("python"))
        vector = max(vector, rate("numpy"))
    assert vector >= 5.0 * scalar, (
        "numpy engine %.0f recs/s is only %.1fx the scalar %.0f recs/s "
        "(floor: 5x)" % (vector, vector / scalar, scalar)
    )


@pytest.mark.skipif(not numpy_available(), reason="numpy not installed")
@settings(max_examples=100, deadline=None)
@given(st.lists(
    st.tuples(st.integers(0, 2**40), st.integers(0, 2**40),
              st.integers(0, 3), st.integers(0, 10_000)),
    min_size=0, max_size=80,
))
def test_record_batch_merge_matches_python_sort(rows):
    from repro.pebs.batch import RecordBatch
    from repro.pebs.events import StrippedRecord

    records = [StrippedRecord(pc=pc, data_addr=addr, core=core, cycle=cyc,
                              seq=i, weight=1)
               for i, (pc, addr, core, cyc) in enumerate(rows)]
    want = sorted(records, key=lambda r: (r.cycle, r.core, r.pc))
    got = RecordBatch(list(records), "numpy").sorted_merge().records
    assert [(r.cycle, r.core, r.pc, r.seq) for r in got] == \
        [(r.cycle, r.core, r.pc, r.seq) for r in want]
