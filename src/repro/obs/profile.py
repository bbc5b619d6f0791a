"""Exact bytecode counts: where the host interpreter's work goes in a run.

perfbench (``perfbench/run.py``) is the measure of record for host
time, and its traced pass splits that time over layers.  Time on a
shared host moves by a few percent between identical runs; the number
of bytecodes a deterministic run executes repeats exactly, so a count
resolves a parent -> change shift that timing cannot.

:func:`count_bytecodes` runs a callable under the interpreter's own
instruction events -- ``sys.monitoring`` INSTRUCTION events where the
interpreter has them (3.12+), ``sys.settrace`` opcode events before --
and charges each bytecode to a row ``module:function`` of the ``repro``
package (the module path without ``repro.``, e.g.
``sim.machine:_run_slice_traced``).  Code compiled by
:mod:`repro.sim.trace` is charged to its filename, ``<trace-block>`` or
``<trace-micro>``.  Code outside the package (the standard library)
is charged to its nearest ``repro`` caller, so every row names code of
this project; bytecodes with no ``repro`` frame between them and the
counted callable go to ``<other>``.

Counting only observes: the counted run's simulated outputs equal an
uncounted run's.  It makes a run 15-80x slower, so count one cell or
one small run, never time one.  Bytecode differs between Python minor
versions: compare counts taken on one interpreter.

``python -m repro.obs profile <workload>`` prints a count per layer
(module), per function and per simulated instruction.
"""

import os
import sys
from typing import Callable, Dict, Optional, Tuple

import repro

__all__ = ["OTHER", "BytecodeProfile", "count_bytecodes"]

#: Bump on any backwards-incompatible change to the export layout.
PROFILE_SCHEMA = "laser-bytecode-profile/v1"

#: Row of the bytecodes that have no ``repro`` frame to be charged to.
OTHER = "<other>"

#: Function rows :meth:`BytecodeProfile.render` prints.
_TOP_ROWS = 25

#: Filenames ``repro.sim.trace`` compiles generated code under.
_GENERATED = ("<trace-block>", "<trace-micro>")

_PACKAGE_DIR = os.path.dirname(repro.__file__) + os.sep


def _row_of(code) -> Optional[str]:
    """The row a code object's bytecodes count in, ``None`` if foreign."""
    filename = code.co_filename
    if filename in _GENERATED:
        return filename
    if not (filename.startswith(_PACKAGE_DIR) and filename.endswith(".py")):
        return None
    parts = filename[len(_PACKAGE_DIR):-3].split(os.sep)
    if parts[-1] == "__init__":
        parts.pop()
    return "%s:%s" % (".".join(parts) or "repro", code.co_name)


class BytecodeProfile:
    """Bytecodes counted per row, with per-layer and per-instruction views.

    A row's layer is its module (the part before ``:``); ``<trace-block>``,
    ``<trace-micro>`` and ``<other>`` are layers of their own.
    """

    def __init__(self, counts: Dict[str, int]):
        self.counts = dict(counts)
        self.total = sum(self.counts.values())

    def layers(self) -> Dict[str, int]:
        """Bytecodes per layer."""
        out: Dict[str, int] = {}
        for row, count in self.counts.items():
            layer = row.split(":", 1)[0]
            out[layer] = out.get(layer, 0) + count
        return out

    def as_dict(self, instructions: int) -> dict:
        """Machine-readable counts of a run of ``instructions``."""
        return {
            "schema": PROFILE_SCHEMA,
            "python": "%d.%d.%d" % sys.version_info[:3],
            "total": self.total,
            "instructions": instructions,
            "per_instruction": round(self.total / instructions, 3),
            "layers": dict(sorted(self.layers().items())),
            "rows": dict(sorted(self.counts.items())),
        }

    def render(self, instructions: int) -> str:
        """Every layer, then the costliest rows, of a run of
        ``instructions`` simulated instructions."""
        lines = []
        for heading, table, limit in (("layer", self.layers(), None),
                                      ("function", self.counts, _TOP_ROWS)):
            ranked = sorted(table.items(), key=lambda kv: (-kv[1], kv[0]))
            lines.append("%-44s %12s %7s %9s" % (heading, "bytecodes",
                                                 "share", "per insn"))
            for name, count in ranked[:limit]:
                lines.append("%-44s %12d %6.2f%% %9.2f" % (
                    name, count, 100.0 * count / self.total,
                    count / instructions))
            if limit is not None and len(ranked) > limit:
                lines.append("... %d more rows" % (len(ranked) - limit))
            lines.append("")
        lines.append("total: %d bytecodes, %.2f per simulated instruction "
                     "(%d instructions)" % (self.total,
                                            self.total / instructions,
                                            instructions))
        return "\n".join(lines)


def count_bytecodes(fn: Callable[[], object]
                    ) -> Tuple[object, BytecodeProfile]:
    """Run ``fn()`` and count the bytecodes it executes.

    Returns ``(result, profile)``, so it can serve as perfbench's
    ``run_cell(..., monitor=count_bytecodes)``.  The trace function or
    monitoring tools in place before the call are left as they were,
    also when ``fn`` raises.  A count of zero means the interpreter
    delivered no events, which raises instead of reporting an empty
    profile.
    """
    counts: Dict[str, int] = {}
    if hasattr(sys, "monitoring"):
        result = _count_monitored(fn, counts)
    else:
        result = _count_traced(fn, counts)
    profile = BytecodeProfile(counts)
    if not profile.total:
        raise RuntimeError("counted no bytecodes: the interpreter "
                           "delivered no instruction events")
    return result, profile


class _Rows:
    """Row lookup per code object and, for foreign code, per caller.

    Keyed by ``id(code)``: a code object hashes its contents on every
    lookup (1 us on 3.11, 6 us on 3.12), once per bytecode on 3.12+.
    """

    def __init__(self, stop):
        #: The counting frame: the walk up from a foreign frame ends here.
        self.stop = stop
        self._rows: Dict[int, Optional[str]] = {}
        self._codes = []  # keeps every keyed code alive, so ids stay unique

    def of_code(self, code) -> Optional[str]:
        key = id(code)
        try:
            return self._rows[key]
        except KeyError:
            self._codes.append(code)
            row = self._rows[key] = _row_of(code)
            return row

    def of_frame(self, frame) -> str:
        """The row of ``frame``, or of its nearest ``repro`` caller."""
        while frame is not None and frame is not self.stop:
            row = self.of_code(frame.f_code)
            if row is not None:
                return row
            frame = frame.f_back
        return OTHER


def _count_traced(fn, counts):
    """``sys.settrace`` opcode events (Python 3.10-3.11)."""
    rows = _Rows(sys._getframe())
    tracers = {}

    def tracer_for(row):
        tally = [0]

        def local(frame, event, arg):
            if event == "opcode":
                tally[0] += 1
            return local

        tracers[row] = (local, tally)
        return tracers[row]

    def on_call(frame, event, arg):
        row = rows.of_frame(frame)
        frame.f_trace_opcodes = True
        frame.f_trace_lines = False
        return (tracers.get(row) or tracer_for(row))[0]

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        result = fn()
    finally:
        sys.settrace(previous)
    for row, (_local, tally) in tracers.items():
        if tally[0]:
            counts[row] = tally[0]
    return result


def _count_monitored(fn, counts):
    """``sys.monitoring`` INSTRUCTION events (Python 3.12+)."""
    mon = sys.monitoring
    tool = next((t for t in (mon.PROFILER_ID, *range(6))
                 if mon.get_tool(t) is None), None)
    if tool is None:
        raise RuntimeError("every sys.monitoring tool id is in use")
    here = sys._getframe()
    own = here.f_code
    rows = _Rows(here)
    get = counts.get

    def on_instruction(code, offset):
        if code is own:
            return  # this function's own frame, around the call of fn
        row = rows.of_code(code)
        if row is None:
            row = rows.of_frame(sys._getframe(1))
        counts[row] = get(row, 0) + 1

    mon.use_tool_id(tool, "repro.obs.profile")
    try:
        mon.register_callback(tool, mon.events.INSTRUCTION, on_instruction)
        mon.set_events(tool, mon.events.INSTRUCTION)
        result = fn()
    finally:
        mon.set_events(tool, mon.events.NO_EVENTS)
        mon.register_callback(tool, mon.events.INSTRUCTION, None)
        mon.free_tool_id(tool)
    return result
