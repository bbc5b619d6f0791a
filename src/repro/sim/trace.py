"""Precompiled-trace execution engine for the simulator hot path.

The reference interpreter (`Core.step` driven by `Machine._run_slice`)
pays full Python dispatch per instruction: an enum compare chain,
operand ``value_of`` calls and a dict lookup for ALU lambdas.  This
module compiles a core's instruction stream into generated Python
functions instead, with operands folded into literals and latencies
charged as constants from ``repro._constants`` (a core with an SSB
attached runs a trace with the pin tax added).

**One template per opcode.**  ``_TEMPLATES`` maps each compilable
opcode (MOV, the ALU ops, SHL/SHR, the four conditional branches, JMP,
PAUSE, NOP, LOAD, STORE, ADDM) to a function of one instruction that
returns its compiled semantics as a ``_Template`` of three parts:

* *guards*: ``(setup, condition)`` pairs whose conditions together say
  an L1 hit is legal: no ``on_memory_op`` hook, no line straddle, and a
  MESI state that needs no coherence transition;
* *body*: the statements that execute the instruction once every guard
  holds (inline hits stamp ``directory.now``, as the interpreter's
  ``mem_read``/``mem_write`` do on every access);
* *branch*: ``(condition, target)``, the condition ``None`` for an
  unconditional jump, or ``None`` for plain fallthrough.

An instruction's latency depends on its opcode alone (``_latency``:
compiled memory ops are L1 hits), so a trace computes every templated
pc's *weight*, latency plus pin tax, once as it is built.  Compiled
code adds the weight to the core's time, and ``flush_counts`` to
``busy_cycles``.

**Two renderers** turn templates into code.  ``_render_block`` compiles
the extended basic block at a leader into one loop: a failed guard
ends the block before the instruction, and a branch back to the entry
becomes ``continue``.  ``_render_micro`` compiles one instruction: its
guards nest, and when one fails control falls through to an exact
``core.step()`` tail.  That tail alone is the micro function of every
opcode without a template (DIV, atomics, fences, SSB pseudo-ops,
ALIAS_CHECK), so micro functions run slow instructions themselves.
Compiled code does not touch CoreStats: a block, like a micro fast path,
bumps each instruction's slot of the trace's ``counts`` list as it runs
it.  Only ``Core.step`` and the trace's ``flush_counts``, which adds the
counts and their weights in when the scheduler leaves the slice, write
CoreStats' ``instructions`` and ``busy_cycles``.

**Tables with no holes.**  Every entry of a trace's block and micro
tables is callable: a stub compiles the real function on first call
(``resolve``/``resolve_micro``), stores it in the table and forwards
the call.  HALT's micro entry and one extra entry past the end of the
stream return -1, which sends the core to the scheduler's pop.

**Spin-waits.**  ``CompiledTrace`` also finds each ``load; bcc out;
pause; jmp load`` loop, and compiles nothing for it: the scheduler
parks a core in such a loop while the core holds the flag's line
(``CompiledTrace.spins``, ``CompiledTrace.park``), and runs the loop's
instructions itself, counting them and adding their weights (see
``Machine._run_slice_traced``).

**One jitter stream.**  Every instruction draws its interleave jitter
by calling ``jit()``, the machine's ``binary_draws`` stream: the draws
of ``randrange(0, 2)`` on the machine's ``"interleave"`` Random,
expanded 4,096 words at a time.  The interpreter draws from the same
stream after each ``Core.step``, so both engines take the same draws in
the same order.  The result is bit-identical simulation state
(registers, memory, MESI states, stats, RNG stream, event order) at a
fraction of the host time.
"""

from functools import partial
from operator import eq, ge, lt, mul, ne
from typing import List, NamedTuple, Optional, Tuple

from repro._constants import (
    ALU_LATENCY,
    L1_HIT_LATENCY,
    PAUSE_LATENCY,
    PIN_TAX_LATENCY,
)
from repro.isa.instructions import BRANCH_OPS, Instruction, Opcode
from repro.sim.cache import LineState

__all__ = ["CompiledTrace"]

#: A micro function returns ``(time << 21) | next_pc``, or -1 to send
#: the core to the scheduler's pop.  Micro functions (one instruction,
#: minimal calling convention) serve the short-horizon bursts of
#: lock-step parallel phases, where block functions would pay their
#: full prologue/epilogue for a single instruction; 21 bits of pc bound
#: the stream length the micro path supports (the machine's decode
#: spells the width as literals).  A longer stream gets -1 in every
#: micro entry, so blocks and the interpreter run it.
_MICRO_PC_BITS = 21
_MICRO_PC_MASK = (1 << _MICRO_PC_BITS) - 1

#: Maximum instructions included in one compiled block.  Kept small:
#: per-entry windows overlap (entry e and e+1 compile nearly the same
#: run), so the cap bounds total compile cost, and the machine's
#: trampoline chains consecutive blocks within a burst so a small cap
#: costs almost nothing at execution time.
BLOCK_CAP = 16

#: Global (signature -> function) cache shared across traces and
#: machines, keyed by the instruction window's content plus the
#: jitter and pin-tax flags, so repeated runs and identical thread
#: bodies share the compilation cost.  Cleared wholesale if it ever
#: grows past the cap (programs are a few hundred instructions, so in
#: practice it never does).
_BLOCK_CACHE: dict = {}
_CACHE_MAX = 8192

_WORD_MASK = 0xFFFFFFFFFFFFFFFF

#: One interleave jitter draw from the machine's stream.
_JITTER = " + jit()"

#: The interpreter's mem_read/mem_write stamp directory.now on every
#: access, hits included; serialization stalls charged to later
#: transitions (e.g. an SSB flush) read it.
_STAMP = "mach.directory.now = t"


class _Template(NamedTuple):
    """One instruction's compiled semantics (see the module docstring)."""

    guards: Tuple[Tuple[Optional[str], Optional[str]], ...] = ()
    body: Tuple[str, ...] = ()
    branch: Optional[Tuple[Optional[str], int]] = None


def _val(operand) -> str:
    """Source for ``operand.value_of(regs)`` (raw, unmasked)."""
    if operand.is_reg:
        return "regs[%d]" % operand.value
    return repr(operand.value)


def _addr(inst: Instruction) -> str:
    """Source for ``inst.a.value_of(regs) + inst.offset``."""
    if not inst.a.is_reg:
        return repr(inst.a.value + inst.offset)
    if inst.offset:
        return "(regs[%d] + %d)" % (inst.a.value, inst.offset)
    return "regs[%d]" % inst.a.value


def _mov(inst: Instruction) -> _Template:
    if inst.a.is_reg:
        src = "regs[%d] & %d" % (inst.a.value, _WORD_MASK)
    else:
        src = "%d" % (inst.a.value & _WORD_MASK)
    return _Template(body=("regs[%d] = %s" % (inst.rd, src),))


def _alu(symbol: str, inst: Instruction) -> _Template:
    b = inst.b
    if symbol in ("<<", ">>"):
        # Shift counts wrap at the word size, as in the interpreter.
        count = "(regs[%d] & 63)" % b.value if b.is_reg else "%d" % (b.value & 63)
    else:
        count = _val(b)
    return _Template(body=("regs[%d] = (%s %s %s) & %d" % (
        inst.rd, _val(inst.a), symbol, count, _WORD_MASK),))


def _branch(symbol: str, inst: Instruction) -> _Template:
    cond = "%s %s %s" % (_val(inst.a), symbol, _val(inst.b))
    return _Template(branch=(cond, inst.target))


def _jmp(inst: Instruction) -> _Template:
    return _Template(branch=(None, inst.target))


def _no_op(inst: Instruction) -> _Template:
    """PAUSE and NOP: nothing but their latency."""
    return _Template()


def _mem_guards(inst: Instruction, state_setup: str, state_hit: str):
    """The hook, straddle and MESI guards shared by LOAD/STORE/ADDM."""
    straddle = "(a0 & 63) <= %d" % (64 - inst.size) if inst.size > 1 else None
    return ((None, "mach.on_memory_op is None"),
            ("a0 = " + _addr(inst), straddle),
            (state_setup, state_hit))


def _load(inst: Instruction) -> _Template:
    # A read hits in any non-Invalid state; the directory never stores
    # Invalid explicitly, so membership is the whole test, and a hit
    # causes no MESI transition.
    return _Template(
        guards=_mem_guards(inst, "_s = dl.get(a0 >> 6)",
                           "_s is not None and cid in _s"),
        body=(_STAMP, "_pg = pages.get(a0 >> 12)", "o = a0 & 4095",
              "regs[%d] = 0 if _pg is None else fb(_pg[o:o + %d], 'little')"
              % (inst.rd, inst.size)),
    )


def _write_hit(inst: Instruction, data: str) -> _Template:
    """A write hits in M, or in E with a silent E->M upgrade."""
    return _Template(
        guards=_mem_guards(
            inst,
            "_s = dl.get(a0 >> 6); _w = _s.get(cid) if _s is not None else None",
            "_w is _M or _w is _E"),
        body=("if _w is not _M: _s[cid] = _M", _STAMP, "_pi = a0 >> 12",
              "_pg = pages.get(_pi)",
              "if _pg is None: _pg = pages[_pi] = bytearray(4096)",
              "o = a0 & 4095", "_pg[o:o + %d] = %s" % (inst.size, data)),
    )


def _store(inst: Instruction) -> _Template:
    size, b = inst.size, inst.b
    mask = (1 << (8 * size)) - 1
    if b.is_reg:
        data = "(regs[%d] & %d).to_bytes(%d, 'little')" % (b.value, mask, size)
    else:
        data = repr((b.value & mask).to_bytes(size, "little"))
    return _write_hit(inst, data)


def _addm(inst: Instruction) -> _Template:
    # A plain load+store pair at one PC: the read is an L1 hit in M or
    # E, the write upgrades E->M.
    size = inst.size
    data = "((fb(_pg[o:o + %d], 'little') + %s) & %d).to_bytes(%d, 'little')" % (
        size, _val(inst.b), (1 << (8 * size)) - 1, size)
    return _write_hit(inst, data)


#: The template table: opcode -> (template, operands it needs).  An
#: instruction compiles only when every listed operand is present, its
#: ``target`` is a resolved index, and (memory ops) its size is 1-8
#: bytes on a machine whose memory routing is the base machine's.
_TEMPLATES = {
    Opcode.MOV: (_mov, ("rd", "a")),
    Opcode.ADD: (partial(_alu, "+"), ("rd", "a", "b")),
    Opcode.SUB: (partial(_alu, "-"), ("rd", "a", "b")),
    Opcode.MUL: (partial(_alu, "*"), ("rd", "a", "b")),
    Opcode.AND: (partial(_alu, "&"), ("rd", "a", "b")),
    Opcode.OR: (partial(_alu, "|"), ("rd", "a", "b")),
    Opcode.XOR: (partial(_alu, "^"), ("rd", "a", "b")),
    Opcode.SHL: (partial(_alu, "<<"), ("rd", "a", "b")),
    Opcode.SHR: (partial(_alu, ">>"), ("rd", "a", "b")),
    Opcode.BEQ: (partial(_branch, "=="), ("a", "b", "target")),
    Opcode.BNE: (partial(_branch, "!="), ("a", "b", "target")),
    Opcode.BLT: (partial(_branch, "<"), ("a", "b", "target")),
    Opcode.BGE: (partial(_branch, ">="), ("a", "b", "target")),
    Opcode.JMP: (_jmp, ("target",)),
    Opcode.PAUSE: (_no_op, ()),
    Opcode.NOP: (_no_op, ()),
    Opcode.LOAD: (_load, ("rd", "a", "size")),
    Opcode.STORE: (_store, ("a", "b", "size")),
    Opcode.ADDM: (_addm, ("a", "b", "size")),
}


def _template(inst: Instruction) -> _Template:
    return _TEMPLATES[inst.op][0](inst)


def _latency(op: Opcode) -> int:
    """Cycles of one compiled instruction, pin tax excluded.

    Compiled memory ops are L1 hits, so the opcode alone decides.
    """
    if op is Opcode.LOAD or op is Opcode.STORE:
        return L1_HIT_LATENCY
    if op is Opcode.ADDM:
        # The read and the write of the RMW, plus its add.
        return 2 * L1_HIT_LATENCY + ALU_LATENCY
    return PAUSE_LATENCY if op is Opcode.PAUSE else ALU_LATENCY


def _includable(inst: Instruction, fast_mem: bool) -> bool:
    """Does this instruction have a template it can be compiled from?"""
    row = _TEMPLATES.get(inst.op)
    if row is None:
        return False
    for name in row[1]:
        value = getattr(inst, name)
        if name == "target":
            if not isinstance(value, int):
                return False
        elif name == "size":
            if not (fast_mem and isinstance(value, int) and 1 <= value <= 8):
                return False
        elif value is None:
            return False
    return True


def _scan_window(insts: List[Instruction], entry: int, fast_mem: bool):
    """Indices of the extended basic block starting at ``entry``.

    The window extends through conditional branches (fallthrough stays
    in the block) and ends at an unconditional JMP (inclusive), a slow
    instruction (exclusive), the block cap, or the end of the stream.
    """
    out = []
    i = entry
    n = len(insts)
    while i < n and len(out) < BLOCK_CAP:
        inst = insts[i]
        if not _includable(inst, fast_mem):
            break
        out.append(i)
        if inst.op is Opcode.JMP:
            break
        i += 1
    return out


def _operand_sig(operand) -> Optional[tuple]:
    if operand is None:
        return None
    return (operand.is_reg, operand.value)


def _inst_sig(inst: Instruction) -> tuple:
    return (
        inst.op,
        inst.rd,
        _operand_sig(inst.a),
        _operand_sig(inst.b),
        inst.offset,
        inst.size,
        inst.target if isinstance(inst.target, int) else None,
    )


def _render_block(insts: List[Instruction], entry: int, window: List[int],
                  weights: List[int], use_jitter: bool) -> str:
    """Source of the block function for the window starting at ``entry``.

    The signature is ``_f(core, regs, t, lb, jit, dl, pages, mach,
    cnt)``: core, its register list, the current cycle, the burst
    bound, the machine's jitter draw, the coherence directory's
    line->states dict, the sparse page dict, the machine, and the per-pc
    counts of the caller's trace (an argument, because block functions
    are shared across traces).  It returns ``(next_pc_index, time)``.

    Instruction ``i`` runs only while ``t <= lb``, the same ``time >
    limit`` gate the event loop applies before each step, and adds its
    weight to ``t`` and one to ``cnt[i]``.  Every stop is one
    ``return``, which keeps the generated sources small enough to
    compile cheaply.
    """
    tpls = [(i, _template(insts[i])) for i in window]
    lines = ["def _f(core, regs, t, lb, jit, dl, pages, mach, cnt):"]
    if any(tpl.guards for _, tpl in tpls):
        lines.append("    cid = core.core_id")
    lines.append("    while True:")
    for i, tpl in tpls:
        stop = "return %d, t" % i
        code = ["if t > lb: " + stop]
        for setup, cond in tpl.guards:
            if setup:
                code.append(setup)
            if cond:
                code.append("if not (%s): %s" % (cond, stop))
        code += tpl.body
        code.append("t += %d%s; cnt[%d] += 1" % (
            weights[i], _JITTER if use_jitter else "", i))
        if tpl.branch is not None:
            cond, target = tpl.branch
            go = "continue" if target == entry else "return %d, t" % target
            code.append(go if cond is None else "if %s: %s" % (cond, go))
        lines += ["        " + line for line in code]
    last = tpls[-1][1].branch
    if last is None or last[0] is not None:
        lines.append("        return %d, t" % (window[-1] + 1))
    return "\n".join(lines)


def _micro_return(cost: int, nxt: int, use_jitter: bool) -> Tuple[str, ...]:
    return ("return ((t + %d%s) << 21) | %d" % (
        cost, _JITTER if use_jitter else "", nxt),)


def _step_tail(i: int, use_jitter: bool) -> Tuple[str, ...]:
    """The exact-interpreter fallback: one ``core.step()``.

    Reproduces the reference pop bit-for-bit: the machine clock is set to
    the instruction's scheduled time (the coherence directory and PMU
    hooks read it), the core's pc is synced (``step`` fetches through
    it, and sampling observes it), the interleave jitter is drawn
    *after* the step from the same stream position, and the advance is
    ``max(1, latency)``.  ``core.step()`` updates CoreStats itself, so
    the tail bumps no count.
    """
    head = ("core.pc_index = %d" % i, "core.machine.cycle = t",
            "L = core.step()")
    if use_jitter:
        head += ("L = L" + _JITTER,)
    return head + ("return ((t + (L if L > 0 else 1)) << 21) | core.pc_index",)


def _render_micro(inst: Optional[Instruction], i: int, cost: int,
                  use_jitter: bool) -> str:
    """Source of the micro function for instruction ``i``.

    The signature is ``_f(regs, t, jit, core, dl, pages, cnt)``; it
    returns ``(time << 21) | next_pc``.  Unlike block functions there is
    no loop and no burst-bound check: the caller guarantees the
    instruction's time is within the burst bound, and the fast path
    adds ``cost`` (the pc's weight) to ``t`` and bumps ``cnt[i]``, as a
    block does.  So a one-instruction step costs a fraction of a block
    call.  ``inst`` is ``None`` for an opcode without a template, whose
    micro function is the exact ``core.step()`` tail alone.
    """
    lines = ["def _f(regs, t, jit, core, dl, pages, cnt):"]
    if inst is not None:
        tpl = _template(inst)
        ind = "    "
        if tpl.guards:
            lines.append(ind + "mach = core.machine; cid = core.core_id")
        for setup, cond in tpl.guards:
            if setup:
                lines.append(ind + setup)
            if cond:
                lines.append(ind + "if %s:" % cond)
                ind += "    "
        code = list(tpl.body) + ["cnt[%d] += 1" % i]
        nxt = i + 1
        if tpl.branch is not None:
            cond, target = tpl.branch
            if cond is None:
                nxt = target
            else:
                code.append("if %s:" % cond)
                code += ["    " + line for line in _micro_return(
                    cost, target, use_jitter)]
        code += _micro_return(cost, nxt, use_jitter)
        lines += [ind + line for line in code]
        if not tpl.guards:
            return "\n".join(lines)
    # Reached when a guard fails (before any state is mutated or jitter
    # drawn), and the whole body of an untemplated opcode's function.
    lines += ["    " + line for line in _step_tail(i, use_jitter)]
    return "\n".join(lines)


def _compile(key: tuple, filename: str, render, *args):
    """The cached function for ``key``, rendering and compiling on a miss.

    ``filename`` names the generated code's shape (``<trace-block>`` or
    ``<trace-micro>``), so profilers can tell compiled code apart.
    """
    fn = _BLOCK_CACHE.get(key)
    if fn is None:
        namespace = {"_M": LineState.MODIFIED, "_E": LineState.EXCLUSIVE,
                     "fb": int.from_bytes}
        exec(compile(render(*args), filename, "exec"), namespace)
        fn = namespace["_f"]
        if len(_BLOCK_CACHE) >= _CACHE_MAX:
            _BLOCK_CACHE.clear()
        _BLOCK_CACHE[key] = fn
    return fn


#: The exits a spin-wait may test, as ``taken(a, b)``.
_TAKEN = {Opcode.BEQ: eq, Opcode.BNE: ne, Opcode.BLT: lt, Opcode.BGE: ge}


def _is_spin_wait(insts: List[Instruction], s: int, fast_mem: bool) -> bool:
    """Is ``insts[s:s + 4]`` a ``load; bcc out; pause; jmp load`` loop?

    The LOAD must be templated and must not load its own base register.
    """
    load, branch, pause, jump = insts[s:s + 4]
    return (load.op is Opcode.LOAD and _includable(load, fast_mem)
            and not (load.a.is_reg and load.a.value == load.rd)
            and branch.op in _TAKEN and _includable(branch, fast_mem)
            and not s <= branch.target <= s + 3
            and pause.op is Opcode.PAUSE
            and jump.op is Opcode.JMP and jump.target == s)


def _to_pop(regs, t, jit, core, dl, pages, cnt):
    """Micro entry of HALT and of the end of the stream.

    -1 sends the core to the scheduler's pop, whose ``core.step()``
    retires a HALT and raises past the last instruction.
    """
    return -1


class CompiledTrace:
    """Compiled block and micro tables for one instruction list.

    ``table[i]`` runs the block at leader ``i`` (``None`` off leaders,
    which the scheduler never calls), ``micro[i]`` runs instruction
    ``i``, and ``micro[len(insts)]`` is the end of the stream.  Entries
    start as stubs and compile on first call, because mid-block
    re-entry (after an interleave or a bail) is the common case in
    parallel phases, not the exception.  ``counts[i]`` is how often
    compiled code (a block, a micro fast path or a parked spin-wait) ran
    instruction ``i`` since the last ``flush_counts``.  ``spins[i]``
    parks a core in the spin-wait that pc ``i`` belongs to (``park``
    bound to its LOAD's pc; ``None`` elsewhere, and ``spins`` itself is
    ``None`` when the stream has no spin-wait).
    """

    __slots__ = ("insts", "taxed", "table", "micro", "leaders", "counts",
                 "spins", "_after", "_weights", "_use_jitter", "_fast_mem")

    def __init__(self, insts: List[Instruction], taxed: bool,
                 use_jitter: bool, fast_mem: bool):
        self.insts = insts
        #: Whether every instruction pays the DBI pin tax (an SSB is
        #: attached to the core).
        self.taxed = taxed
        n = len(insts)
        tax = PIN_TAX_LATENCY if taxed else 0
        self._use_jitter = use_jitter
        self._fast_mem = fast_mem
        # Basic-block leaders: the only entries worth a block function.
        # Compiling a block per *arbitrary* entry means every mid-block
        # re-entry (interleave, bail resume, slice pause) compiles its
        # own overlapping suffix window — quadratic compile cost per
        # basic block, which dominated short runs.  Non-leader entries
        # run micro steps until the next leader instead.  The end of the
        # stream is never flagged: no block starts there.
        flags = bytearray(n + 1)
        if insts:
            flags[0] = 1
        # What one compiled run of each pc adds to CoreStats'
        # ``busy_cycles``: its latency plus pin tax.  A pc with no
        # template keeps 0; its runs go through ``Core.step``.
        weights = self._weights = [0] * n
        for i, inst in enumerate(insts):
            if inst.op in BRANCH_OPS:
                if isinstance(inst.target, int) and 0 <= inst.target < n:
                    flags[inst.target] = 1
            if _includable(inst, fast_mem):
                weights[i] = _latency(inst.op) + tax
            elif i + 1 < n:
                # Resume point after an interpreter-executed slow op.
                flags[i + 1] = 1
        self.leaders = flags
        self.table: List = [self._block_stub(i) if flags[i] else None
                            for i in range(n)]
        fits = n <= _MICRO_PC_MASK  # else every entry goes to the pop
        self.micro: List = [self._micro_stub(i) if fits else _to_pop
                            for i in range(n)] + [_to_pop]
        self.counts = [0] * n
        self.spins = None
        # The pc after each pc of a spin-wait: its JMP goes to its LOAD.
        self._after = list(range(1, n + 1))
        for s in range(n - 3):
            if _is_spin_wait(insts, s, fast_mem):
                if self.spins is None:
                    self.spins = [None] * (n + 1)
                self._after[s + 3] = s
                self.spins[s:s + 4] = [partial(self.park, s)] * 4

    def _block_stub(self, entry: int):
        def stub(core, regs, t, *rest):
            fn = self.resolve(entry)
            # No block: unchanged time sends the caller to a micro step.
            return (entry, t) if fn is None else fn(core, regs, t, *rest)
        return stub

    def _micro_stub(self, i: int):
        def stub(*args):
            return self.resolve_micro(i)(*args)
        return stub

    def resolve(self, entry: int):
        """Compile the block at leader ``entry`` into the table.

        A leader whose own instruction has no template opens no block:
        it loses its leader flag, so the scheduler goes straight to the
        micro step there from then on.
        """
        insts = self.insts
        window = _scan_window(insts, entry, self._fast_mem)
        fn = None
        if window:
            key = (entry, self.taxed, self._use_jitter,
                   tuple(_inst_sig(insts[i]) for i in window))
            fn = _compile(key, "<trace-block>", _render_block, insts,
                          entry, window, self._weights, self._use_jitter)
        else:
            self.leaders[entry] = 0
        self.table[entry] = fn
        return fn

    def resolve_micro(self, i: int):
        """Compile the micro function at ``i`` into the micro table.

        HALT's entry is ``_to_pop`` (the scheduler's pop retires the
        core); templated ops compile to inline bodies, everything else
        to an exact ``core.step()`` call — so micro chains flow through
        slow instructions without returning to the scheduler.
        """
        inst = self.insts[i]
        if inst.op is Opcode.HALT:
            fn = _to_pop
        elif _includable(inst, self._fast_mem):
            key = ("m", i, self.taxed, self._use_jitter, _inst_sig(inst))
            fn = _compile(key, "<trace-micro>", _render_micro, inst, i,
                          self._weights[i], self._use_jitter)
        else:
            # Interpreter-exact micro: the source depends only on the
            # index and jitter flag, so one cache entry serves every
            # slow opcode at this index across traces and tax variants.
            fn = _compile(("ms", i, self._use_jitter), "<trace-micro>",
                          _render_micro, None, i, 0, self._use_jitter)
        self.micro[i] = fn
        return fn

    def park(self, s: int, machine, cid: int, regs):
        """``(holders, s, next pcs)`` if core ``cid`` may park, else None.

        ``s`` is the spin-wait's LOAD and ``holders`` its flag line's
        holder dict.  A parked core repeats the loop unchanged for as
        long as it holds that line: with no ``on_memory_op`` hook and no
        straddle the LOAD is an L1 hit that returns ``regs[rd]`` again,
        and the branch, not taken on these registers, stays not taken.
        Only a write changes the flag, and every write drops the other
        holders.
        """
        load, branch = self.insts[s], self.insts[s + 1]
        if machine.on_memory_op is not None:
            return None
        addr = load.a.value_of(regs) + load.offset
        if (addr & 63) + load.size > 64:
            return None
        held = machine.directory._lines.get(addr >> 6)
        if (held is None or cid not in held
                or regs[load.rd] != machine.memory.read(addr, load.size)
                or _TAKEN[branch.op](branch.a.value_of(regs),
                                     branch.b.value_of(regs))):
            return None
        return held, s, self._after

    def flush_counts(self, stats) -> None:
        """Add the per-pc counts into ``stats`` and zero them.

        ``busy_cycles`` grows by count x (latency + pin tax) per pc,
        which leaves out jitter as ``Core.step`` does.
        """
        counts = self.counts
        total = sum(counts)
        if total:
            stats.instructions += total
            stats.busy_cycles += sum(map(mul, counts, self._weights))
            counts[:] = [0] * len(counts)
