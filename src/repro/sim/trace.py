"""Precompiled-trace execution engine for the simulator hot path.

The legacy interpreter (`Core.step` driven by `Machine._run_slice`) pays
full Python dispatch per instruction: an enum compare chain, operand
``value_of`` calls, a dict lookup for ALU lambdas, and a ``randrange``
call for interleave jitter.  At ~4 µs/instruction that made ``sim.core``
95–99% of host self-time on every workload (``python -m repro.obs
profile``).

This module compiles each *entry index* of a core's instruction stream
into a straight-line Python function covering the extended basic block
starting there.  The generated code:

* resolves operands at compile time (register indices and folded
  immediates become literals),
* charges latency with compile-time constants (pin-tax variants are
  separate traces, selected by whether an SSB is attached),
* draws interleave jitter inline — ``r = gb(2); while r >= 2: r =
  gb(2)`` is state-identical to ``Random.randrange(0, 2)`` (CPython's
  ``_randbelow_with_getrandbits`` with ``n.bit_length() == 2``), so the
  shared jitter stream advances exactly as under the interpreter,
* executes L1-hit loads/stores/ADDMs inline against the coherence
  directory's state dicts and the sparse page table, **bailing to the
  interpreter before executing** whenever the access could do anything
  beyond an L1 hit (line miss, straddle, remote state, a registered
  ``on_memory_op`` hook, or a Machine subclass that overrides memory
  routing),
* returns ``(next_pc, time)`` whenever the burst bound ``lb`` is
  reached, so the machine's event loop re-enters the ready heap at
  exactly the cycle the legacy loop would have.

Everything the block *cannot* prove cheap — DIV (may raise), fences,
atomics, HALT, SSB pseudo-ops, ALIAS_CHECK — is left to the legacy
interpreter: the block ends before the slow instruction and the
machine's trampoline performs a single ``core.step()`` for it.  The
result is bit-identical simulation state (registers, memory, MESI
states, stats, RNG stream, event order) at a fraction of the host time.

Compiled blocks are cached globally, keyed by the instruction window's
content signature plus the latency/jitter/tax parameters, so repeated
runs (sweeps, benches, fleets) and identical thread bodies share the
compilation cost.
"""

from typing import List, Optional

from repro.isa.instructions import Instruction, Opcode
from repro.sim.cache import LineState

__all__ = ["CompiledTrace", "_LAZY"]

#: Sentinel marking a table entry whose block has not been compiled yet.
_LAZY = object()

#: Bit layout of a micro function's return value: ``(time << 25) |
#: (jitter << 24) | (op_class << 21) | next_pc``.  Micro functions (one
#: instruction, minimal calling convention) serve the short-horizon
#: bursts of lock-step parallel phases, where block functions would pay
#: their full prologue/epilogue for a single instruction; 21 bits of pc
#: bound the program size the micro path supports (larger streams fall
#: back to blocks + interpreter).
_MICRO_PC_BITS = 21
_MICRO_PC_MASK = (1 << _MICRO_PC_BITS) - 1
#: op_class values reported to the scheduler's deferred stat counters.
_CLS_LOAD, _CLS_STORE, _CLS_LOADSTORE, _CLS_PAUSE = 1, 2, 3, 4
#: op_class 7 marks a *self-accounted* step: the micro function ran the
#: instruction through ``core.step()`` (which updates CoreStats itself),
#: so the scheduler must not add deferred counters for it.
_CLS_SELF = 7
_SELF_TAG = _CLS_SELF << _MICRO_PC_BITS

#: Maximum instructions included in one compiled block.  Kept small:
#: per-entry windows overlap (entry e and e+1 compile nearly the same
#: run), so the cap bounds total compile cost, and the machine's
#: trampoline chains consecutive blocks within a burst so a small cap
#: costs almost nothing at execution time.
BLOCK_CAP = 16

#: Global (block-signature -> function) cache shared across traces,
#: machines and processes' lifetimes; cleared wholesale if it ever grows
#: past the cap (programs are a few hundred instructions, so in practice
#: it never does).
_BLOCK_CACHE: dict = {}
_CACHE_MAX = 8192

_WORD_MASK = 0xFFFFFFFFFFFFFFFF

_ALU_BINOPS = {
    Opcode.ADD: "+",
    Opcode.SUB: "-",
    Opcode.MUL: "*",
    Opcode.AND: "&",
    Opcode.OR: "|",
    Opcode.XOR: "^",
}

_BRANCH_CMPS = {
    Opcode.BEQ: "==",
    Opcode.BNE: "!=",
    Opcode.BLT: "<",
    Opcode.BGE: ">=",
}

_FAST_MEM_OPS = frozenset({Opcode.LOAD, Opcode.STORE, Opcode.ADDM})


def _includable(inst: Instruction, fast_mem: bool) -> bool:
    """Can this instruction be compiled into a fast block?"""
    op = inst.op
    if op is Opcode.MOV:
        return inst.a is not None and inst.rd is not None
    if op in _ALU_BINOPS or op is Opcode.SHL or op is Opcode.SHR:
        return inst.a is not None and inst.b is not None and inst.rd is not None
    if op in _BRANCH_CMPS:
        return (inst.a is not None and inst.b is not None
                and isinstance(inst.target, int))
    if op is Opcode.JMP:
        return isinstance(inst.target, int)
    if op is Opcode.PAUSE or op is Opcode.NOP:
        return True
    if fast_mem and op in _FAST_MEM_OPS:
        if not isinstance(inst.size, int) or not 1 <= inst.size <= 8:
            return False
        if op is Opcode.LOAD:
            return inst.a is not None and inst.rd is not None
        return inst.a is not None and inst.b is not None
    return False


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


def _val_expr(operand) -> str:
    """Source for ``operand.value_of(regs)`` (raw, unmasked)."""
    if operand.is_reg:
        return "regs[%d]" % operand.value
    return repr(operand.value)


def _addr_expr(inst: Instruction) -> str:
    """Source for ``inst.a.value_of(regs) + inst.offset``."""
    if inst.a.is_reg:
        if inst.offset:
            return "(regs[%d] + %d)" % (inst.a.value, inst.offset)
        return "regs[%d]" % inst.a.value
    return repr(inst.a.value + inst.offset)


def _gen_source(insts: List[Instruction], entry: int, window: List[int],
                lat_alu: int, lat_l1: int, lat_pause: int, tax: int,
                use_jitter: bool) -> str:
    """Generate the block function's Python source.

    The function signature is ``_f(core, regs, t, lb, gb, dl, pages,
    mach)`` — core, its register list, the current cycle, the burst
    bound, the jitter stream's ``getrandbits``, the coherence
    directory's line->states dict, the sparse page dict, and the machine
    (consulted for the dynamic ``on_memory_op`` hook and to stamp
    ``directory.now`` on inline hits).  It returns
    ``(next_pc_index, time)``.

    The body is a single ``while True`` with one exit: every stop
    condition sets ``ret`` (the interpreter pc to resume at) and
    ``break``s to a shared stats-flush epilogue.  Branches whose target
    is the entry itself compile to ``continue`` — tight loops spin
    inside the function until the burst bound.  Keeping the per-exit
    code to two statements (instead of a full flush) is what makes the
    generated sources small enough to compile cheaply.
    """
    has_load = any(insts[i].op in (Opcode.LOAD, Opcode.ADDM) for i in window)
    has_store = any(insts[i].op in (Opcode.STORE, Opcode.ADDM) for i in window)
    has_pause = any(insts[i].op is Opcode.PAUSE for i in window)
    has_mem = has_load or has_store

    lines = ["def _f(core, regs, t, lb, gb, dl, pages, mach):"]
    emit = lines.append
    emit("    st = core.stats")
    if has_mem:
        emit("    cid = core.core_id")
    init = "    n = 0; bc = 0"
    if has_load:
        init += "; nl = 0"
    if has_store:
        init += "; ns = 0"
    if has_pause:
        init += "; npa = 0"
    emit(init)
    emit("    while True:")
    ind = "        "

    def stop(pc: int) -> str:
        return "ret = %d; break" % pc

    def charge(lat: int) -> List[str]:
        if use_jitter:
            return [
                "r = gb(2)",
                "while r >= 2: r = gb(2)",
                "t += %d + r; bc += %d; n += 1" % (lat, lat),
            ]
        return ["t += %d; bc += %d; n += 1" % (lat, lat)]

    def emit_mem_guard(inst: Instruction, i: int) -> None:
        """Bail-to-interpreter checks shared by LOAD/STORE/ADDM."""
        emit(ind + "a0 = %s" % _addr_expr(inst))
        if inst.size > 1:
            emit(ind + "if (a0 & 63) > %d or mach.on_memory_op is not None: %s"
                 % (64 - inst.size, stop(i)))
        else:
            emit(ind + "if mach.on_memory_op is not None: " + stop(i))

    def emit_write_state(i: int) -> None:
        """Require M (no-op) or E (upgrade to M) in our cache, else bail."""
        emit(ind + "_s = dl.get(a0 >> 6)")
        emit(ind + "_w = _s.get(cid) if _s is not None else None")
        emit(ind + "if _w is not _M:")
        emit(ind + "    if _w is not _E: " + stop(i))
        emit(ind + "    _s[cid] = _M")
        # The interpreter's mem_write stamps directory.now on every
        # access, hits included; serialization stalls charged to later
        # transitions (e.g. an SSB flush) read it.
        emit(ind + "mach.directory.now = t")

    def emit_page_create() -> None:
        emit(ind + "_pi = a0 >> 12")
        emit(ind + "_pg = pages.get(_pi)")
        emit(ind + "if _pg is None:")
        emit(ind + "    _pg = bytearray(4096)")
        emit(ind + "    pages[_pi] = _pg")

    jmp_terminated = False
    for i in window:
        inst = insts[i]
        op = inst.op
        # Execute instruction i only if its scheduled time is within the
        # burst bound — the same `time > limit` gate the event loop
        # applies before each step.
        emit(ind + "if t > lb: " + stop(i))

        if op is Opcode.MOV:
            if inst.a.is_reg:
                emit(ind + "regs[%d] = regs[%d] & %d"
                     % (inst.rd, inst.a.value, _WORD_MASK))
            else:
                emit(ind + "regs[%d] = %d"
                     % (inst.rd, inst.a.value & _WORD_MASK))
            for ln in charge(lat_alu + tax):
                emit(ind + ln)
        elif op in _ALU_BINOPS:
            emit(ind + "regs[%d] = (%s %s %s) & %d"
                 % (inst.rd, _val_expr(inst.a), _ALU_BINOPS[op],
                    _val_expr(inst.b), _WORD_MASK))
            for ln in charge(lat_alu + tax):
                emit(ind + ln)
        elif op is Opcode.SHL or op is Opcode.SHR:
            shift = "<<" if op is Opcode.SHL else ">>"
            if inst.b.is_reg:
                count = "(regs[%d] & 63)" % inst.b.value
            else:
                count = "%d" % (inst.b.value & 63)
            emit(ind + "regs[%d] = ((%s %s %s)) & %d"
                 % (inst.rd, _val_expr(inst.a), shift, count, _WORD_MASK))
            for ln in charge(lat_alu + tax):
                emit(ind + ln)
        elif op in _BRANCH_CMPS:
            for ln in charge(lat_alu + tax):
                emit(ind + ln)
            cond = "%s %s %s" % (
                _val_expr(inst.a), _BRANCH_CMPS[op], _val_expr(inst.b))
            if inst.target == entry:
                emit(ind + "if %s: continue" % cond)
            else:
                emit(ind + "if %s: %s" % (cond, stop(inst.target)))
        elif op is Opcode.JMP:
            for ln in charge(lat_alu + tax):
                emit(ind + ln)
            if inst.target == entry:
                emit(ind + "continue")
            else:
                emit(ind + stop(inst.target))
            jmp_terminated = True
        elif op is Opcode.PAUSE:
            for ln in charge(lat_pause + tax):
                emit(ind + ln)
            emit(ind + "npa += 1")
        elif op is Opcode.NOP:
            for ln in charge(lat_alu + tax):
                emit(ind + ln)
        elif op is Opcode.LOAD:
            emit_mem_guard(inst, i)
            # Read hit requires any non-Invalid state in our cache; the
            # directory never stores Invalid explicitly, so membership
            # is the whole test.  Hits cause no MESI transition.
            emit(ind + "_s = dl.get(a0 >> 6)")
            emit(ind + "if _s is None or cid not in _s: " + stop(i))
            emit(ind + "mach.directory.now = t")
            emit(ind + "_pg = pages.get(a0 >> 12)")
            emit(ind + "o = a0 & 4095")
            emit(ind + "regs[%d] = 0 if _pg is None else "
                       "fb(_pg[o:o + %d], 'little')" % (inst.rd, inst.size))
            for ln in charge(lat_l1 + tax):
                emit(ind + ln)
            emit(ind + "nl += 1")
        elif op is Opcode.STORE:
            emit_mem_guard(inst, i)
            emit_write_state(i)
            emit_page_create()
            emit(ind + "o = a0 & 4095")
            size_mask = (1 << (8 * inst.size)) - 1
            if inst.b.is_reg:
                emit(ind + "_pg[o:o + %d] = (regs[%d] & %d)"
                           ".to_bytes(%d, 'little')"
                     % (inst.size, inst.b.value, size_mask, inst.size))
            else:
                payload = (inst.b.value & size_mask).to_bytes(
                    inst.size, "little")
                emit(ind + "_pg[o:o + %d] = %r" % (inst.size, payload))
            for ln in charge(lat_l1 + tax):
                emit(ind + ln)
            emit(ind + "ns += 1")
        elif op is Opcode.ADDM:
            # Plain load+store pair at one PC: the read is an L1 hit in
            # M or E, the write upgrades E->M — both l1_hit latency.
            emit_mem_guard(inst, i)
            emit_write_state(i)
            emit_page_create()
            emit(ind + "o = a0 & 4095")
            size_mask = (1 << (8 * inst.size)) - 1
            emit(ind + "_pg[o:o + %d] = ((fb(_pg[o:o + %d], 'little') + %s)"
                       " & %d).to_bytes(%d, 'little')"
                 % (inst.size, inst.size, _val_expr(inst.b), size_mask,
                    inst.size))
            for ln in charge(2 * lat_l1 + lat_alu + tax):
                emit(ind + ln)
            emit(ind + "nl += 1")
            emit(ind + "ns += 1")
        else:  # pragma: no cover - scan admits only the ops above
            raise AssertionError("unexpected op in fast window: %r" % op)

    if not jmp_terminated:
        emit(ind + stop(window[-1] + 1))
    flush = "    st.instructions += n; st.busy_cycles += bc"
    if has_load:
        flush += "; st.loads += nl"
    if has_store:
        flush += "; st.stores += ns"
    if has_pause:
        flush += "; st.pauses += npa"
    emit(flush)
    emit("    return ret, t")
    return "\n".join(lines)


def _emit_step_tail(emit, i: int, use_jitter: bool, ind: str) -> None:
    """Emit the exact-interpreter fallback: one ``core.step()``.

    Reproduces the legacy pop bit-for-bit: the machine clock is set to
    the instruction's scheduled time (the coherence directory and PMU
    hooks read it), the core's pc is synced (``step`` fetches through
    it, and sampling observes it), the interleave jitter is drawn
    *after* the step from the same stream position, and the advance is
    ``max(1, latency)``.  ``core.step()`` updates CoreStats itself, so
    the return is tagged ``_CLS_SELF`` to skip the deferred counters.
    """
    emit(ind + "core.pc_index = %d" % i)
    emit(ind + "m = core.machine")
    emit(ind + "m.cycle = t")
    emit(ind + "L = core.step()")
    if use_jitter:
        emit(ind + "r = gb(2)")
        emit(ind + "while r >= 2: r = gb(2)")
        emit(ind + "L = L + r")
        emit(ind + "return ((t + (L if L > 0 else 1)) << 25) | (r << 24)"
             " | %d | core.pc_index" % _SELF_TAG)
    else:
        emit(ind + "return ((t + (L if L > 0 else 1)) << 25)"
             " | %d | core.pc_index" % _SELF_TAG)


def _gen_step_micro_source(i: int, use_jitter: bool) -> str:
    """Micro function that simply runs instruction ``i`` on the
    interpreter (exact semantics for atomics, fences, SSB pseudo-ops,
    DIV, ALIAS_CHECK — anything without an inline fast path)."""
    lines = ["def _m(regs, t, gb, core, dl, pages):"]
    _emit_step_tail(lines.append, i, use_jitter, "    ")
    return "\n".join(lines)


def _gen_micro_source(insts: List[Instruction], i: int, lat_alu: int,
                      lat_l1: int, lat_pause: int, tax: int,
                      use_jitter: bool) -> str:
    """Generate the single-instruction micro function at index ``i``.

    Signature ``_m(regs, t, gb, core, dl, pages)``; returns the encoded
    ``(time << 25) | (jitter << 24) | (op_class << 21) | next_pc``.
    Memory operations take an inline L1-hit fast path when legal
    (resident line, no straddle, no ``on_memory_op`` hook) and otherwise
    fall back to one exact ``core.step()`` (see ``_emit_step_tail``) —
    they never bail to the caller.  Unlike block functions there is no
    loop, no burst-bound check and no stats flush: the caller guarantees
    the instruction's time is within the burst bound and accumulates
    stats itself from the op class, so a one-instruction step costs a
    fraction of a block call.
    """
    inst = insts[i]
    op = inst.op
    lines = ["def _m(regs, t, gb, core, dl, pages):"]
    emit = lines.append

    def tail(lat: int, cls: int, nxt: int, ind: str) -> None:
        tag = (cls << _MICRO_PC_BITS) | nxt
        if use_jitter:
            emit(ind + "r = gb(2)")
            emit(ind + "while r >= 2: r = gb(2)")
            emit(ind + "return ((t + %d + r) << 25) | (r << 24) | %d"
                 % (lat, tag))
        else:
            emit(ind + "return ((t + %d) << 25) | %d" % (lat, tag))

    nxt = i + 1
    if op is Opcode.MOV:
        if inst.a.is_reg:
            emit("    regs[%d] = regs[%d] & %d"
                 % (inst.rd, inst.a.value, _WORD_MASK))
        else:
            emit("    regs[%d] = %d" % (inst.rd, inst.a.value & _WORD_MASK))
        tail(lat_alu + tax, 0, nxt, "    ")
    elif op in _ALU_BINOPS:
        emit("    regs[%d] = (%s %s %s) & %d"
             % (inst.rd, _val_expr(inst.a), _ALU_BINOPS[op],
                _val_expr(inst.b), _WORD_MASK))
        tail(lat_alu + tax, 0, nxt, "    ")
    elif op is Opcode.SHL or op is Opcode.SHR:
        shift = "<<" if op is Opcode.SHL else ">>"
        if inst.b.is_reg:
            count = "(regs[%d] & 63)" % inst.b.value
        else:
            count = "%d" % (inst.b.value & 63)
        emit("    regs[%d] = ((%s %s %s)) & %d"
             % (inst.rd, _val_expr(inst.a), shift, count, _WORD_MASK))
        tail(lat_alu + tax, 0, nxt, "    ")
    elif op in _BRANCH_CMPS:
        emit("    if %s %s %s:"
             % (_val_expr(inst.a), _BRANCH_CMPS[op], _val_expr(inst.b)))
        tail(lat_alu + tax, 0, inst.target, "        ")
        tail(lat_alu + tax, 0, nxt, "    ")
    elif op is Opcode.JMP:
        tail(lat_alu + tax, 0, inst.target, "    ")
    elif op is Opcode.PAUSE:
        tail(lat_pause + tax, _CLS_PAUSE, nxt, "    ")
    elif op is Opcode.NOP:
        tail(lat_alu + tax, 0, nxt, "    ")
    else:  # LOAD / STORE / ADDM (scan admits nothing else)
        # Fast path guards nest (hook, straddle, residency/state); any
        # failure falls through to the exact interpreter step below,
        # before any state is mutated or jitter drawn.
        emit("    if core.machine.on_memory_op is None:")
        emit("        cid = core.core_id")
        emit("        a0 = %s" % _addr_expr(inst))
        ind = "        "
        if inst.size > 1:
            emit("        if (a0 & 63) <= %d:" % (64 - inst.size))
            ind = "            "
        if op is Opcode.LOAD:
            emit(ind + "_s = dl.get(a0 >> 6)")
            emit(ind + "if _s is not None and cid in _s:")
            ind2 = ind + "    "
            # The interpreter's mem_read stamps directory.now on every
            # access, hits included; serialization stalls charged to
            # later transitions (e.g. an SSB flush) read it.
            emit(ind2 + "core.machine.directory.now = t")
            emit(ind2 + "_pg = pages.get(a0 >> 12)")
            emit(ind2 + "o = a0 & 4095")
            emit(ind2 + "regs[%d] = 0 if _pg is None else "
                 "fb(_pg[o:o + %d], 'little')" % (inst.rd, inst.size))
            tail(lat_l1 + tax, _CLS_LOAD, nxt, ind2)
        else:
            emit(ind + "_s = dl.get(a0 >> 6)")
            emit(ind + "_w = _s.get(cid) if _s is not None else None")
            emit(ind + "if _w is _M or _w is _E:")
            ind2 = ind + "    "
            emit(ind2 + "core.machine.directory.now = t")
            emit(ind2 + "if _w is not _M: _s[cid] = _M")
            emit(ind2 + "_pi = a0 >> 12")
            emit(ind2 + "_pg = pages.get(_pi)")
            emit(ind2 + "if _pg is None:")
            emit(ind2 + "    _pg = bytearray(4096)")
            emit(ind2 + "    pages[_pi] = _pg")
            emit(ind2 + "o = a0 & 4095")
            size_mask = (1 << (8 * inst.size)) - 1
            if op is Opcode.STORE:
                if inst.b.is_reg:
                    emit(ind2 + "_pg[o:o + %d] = (regs[%d] & %d)"
                         ".to_bytes(%d, 'little')"
                         % (inst.size, inst.b.value, size_mask, inst.size))
                else:
                    payload = (inst.b.value & size_mask).to_bytes(
                        inst.size, "little")
                    emit(ind2 + "_pg[o:o + %d] = %r" % (inst.size, payload))
                tail(lat_l1 + tax, _CLS_STORE, nxt, ind2)
            else:  # ADDM
                emit(ind2 + "_pg[o:o + %d] = ((fb(_pg[o:o + %d], 'little')"
                     " + %s) & %d).to_bytes(%d, 'little')"
                     % (inst.size, inst.size, _val_expr(inst.b), size_mask,
                        inst.size))
                tail(2 * lat_l1 + lat_alu + tax, _CLS_LOADSTORE, nxt, ind2)
        _emit_step_tail(emit, i, use_jitter, "    ")
    return "\n".join(lines)


def _exec_namespace() -> dict:
    return {
        "_M": LineState.MODIFIED,
        "_E": LineState.EXCLUSIVE,
        "fb": int.from_bytes,
    }


def _compile_window(insts: List[Instruction], entry: int, window: List[int],
                    lat_alu: int, lat_l1: int, lat_pause: int, tax: int,
                    use_jitter: bool):
    key = (
        entry,
        tax,
        use_jitter,
        lat_alu,
        lat_l1,
        lat_pause,
        tuple(_inst_sig(insts[i]) for i in window),
    )
    fn = _BLOCK_CACHE.get(key)
    if fn is None:
        source = _gen_source(insts, entry, window, lat_alu, lat_l1,
                             lat_pause, tax, use_jitter)
        namespace = _exec_namespace()
        exec(compile(source, "<trace-block>", "exec"), namespace)
        fn = namespace["_f"]
        if len(_BLOCK_CACHE) >= _CACHE_MAX:
            _BLOCK_CACHE.clear()
        _BLOCK_CACHE[key] = fn
    return fn


class CompiledTrace:
    """Lazy per-entry-index compilation table for one instruction list.

    ``table[i]`` is the compiled block function for entry index ``i``,
    ``None`` when instruction ``i`` must run on the legacy interpreter,
    or the ``_LAZY`` sentinel before first use.  Entries compile on
    demand because mid-block re-entry (after an interleave or a bail) is
    the common case in parallel phases, not the exception.
    """

    __slots__ = ("insts", "table", "micro", "leaders", "_lat_alu",
                 "_lat_l1", "_lat_pause", "_tax", "_use_jitter",
                 "_fast_mem")

    def __init__(self, insts: List[Instruction], latency, taxed: bool,
                 use_jitter: bool, fast_mem: bool):
        self.insts = insts
        self.table: List = [_LAZY] * len(insts)
        # Micro table: per-pc single-instruction functions for the
        # short-horizon scheduler path.  Streams too long for the pc
        # field of the encoded return value get no micro path (blocks
        # and the interpreter still cover them).
        if len(insts) <= _MICRO_PC_MASK:
            self.micro: List = [_LAZY] * len(insts)
        else:  # pragma: no cover - programs are a few hundred insns
            self.micro = [None] * len(insts)
        self._lat_alu = latency.alu
        self._lat_l1 = latency.l1_hit
        self._lat_pause = latency.pause
        self._tax = latency.pin_tax if taxed else 0
        self._use_jitter = use_jitter
        self._fast_mem = fast_mem
        # Basic-block leaders: the only entries worth a block function.
        # Compiling a block per *arbitrary* entry means every mid-block
        # re-entry (interleave, bail resume, slice pause) compiles its
        # own overlapping suffix window — quadratic compile cost per
        # basic block, which dominated short runs.  Non-leader entries
        # run micro steps until the next leader instead.
        flags = bytearray(len(insts) + 1)
        if insts:
            flags[0] = 1
        n = len(insts)
        for i, inst in enumerate(insts):
            op = inst.op
            if op in _BRANCH_CMPS or op is Opcode.JMP:
                if isinstance(inst.target, int) and 0 <= inst.target <= n:
                    flags[inst.target] = 1
            if not _includable(inst, fast_mem) and i + 1 <= n:
                # Resume point after an interpreter-executed slow op.
                flags[i + 1] = 1
        self.leaders = flags

    def resolve(self, entry: int):
        """Compile (or reject) the block at ``entry``; memoized."""
        if not self.leaders[entry]:
            self.table[entry] = None
            return None
        window = _scan_window(self.insts, entry, self._fast_mem)
        if not window:
            fn = None
        else:
            fn = _compile_window(
                self.insts, entry, window, self._lat_alu, self._lat_l1,
                self._lat_pause, self._tax, self._use_jitter,
            )
        self.table[entry] = fn
        return fn

    def resolve_micro(self, i: int):
        """Compile the micro function at ``i``; memoized.

        Every instruction gets a micro function except HALT (the
        scheduler's legacy pop handles the ready-queue removal): inline
        ops compile to fast bodies, everything else to an exact
        ``core.step()`` call — so micro chains flow through slow
        instructions without returning to the scheduler.
        """
        inst = self.insts[i]
        if inst.op is Opcode.HALT:
            fn = None
        elif _includable(inst, self._fast_mem):
            key = ("m", i, self._tax, self._use_jitter, self._lat_alu,
                   self._lat_l1, self._lat_pause, _inst_sig(inst))
            fn = _BLOCK_CACHE.get(key)
            if fn is None:
                source = _gen_micro_source(
                    self.insts, i, self._lat_alu, self._lat_l1,
                    self._lat_pause, self._tax, self._use_jitter,
                )
                namespace = _exec_namespace()
                exec(compile(source, "<trace-micro>", "exec"), namespace)
                fn = namespace["_m"]
                if len(_BLOCK_CACHE) >= _CACHE_MAX:
                    _BLOCK_CACHE.clear()
                _BLOCK_CACHE[key] = fn
        else:
            # Interpreter-exact micro: the source depends only on the
            # index and jitter flag, so one cache entry serves every
            # slow opcode at this index across traces and tax variants.
            key = ("ms", i, self._use_jitter)
            fn = _BLOCK_CACHE.get(key)
            if fn is None:
                source = _gen_step_micro_source(i, self._use_jitter)
                namespace = _exec_namespace()
                exec(compile(source, "<trace-micro>", "exec"), namespace)
                fn = namespace["_m"]
                if len(_BLOCK_CACHE) >= _CACHE_MAX:
                    _BLOCK_CACHE.clear()
                _BLOCK_CACHE[key] = fn
        self.micro[i] = fn
        return fn
