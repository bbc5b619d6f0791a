"""Layer attribution for the traced run: wrappers, spans and self time.

The traced run wraps each layer's public entry points from outside the
package (no edit under ``src/``), so the simulated program is the same
one the untraced run measures.  Two kinds of boundary exist:

* **span** boundaries (a cell, a ``Machine.run`` slice, a service hook,
  a repair plan or attach, a checkpoint save) record one :class:`Span`
  per call;
* **hot** boundaries (``Core.step``, ``access``, ``on_hitm``,
  ``deliver``, journal ``append``, the store-buffer operations, ...)
  see 10^4-10^5 calls per cell, so each call only adds its count and
  self time to the enclosing span's ``hot`` table.

A boundary's self time is its duration minus the time its wrapped
children cover, so the self times of one cell add up to the cell's
duration exactly; the cell span's own self time is the part no layer
claimed (``unattributed``).

``Machine.mem_read`` / ``mem_write`` are deliberately *not* wrapped:
the trace engine inlines L1 hits only while those are the base
methods, so wrapping them would change the program being measured.
"""

import time
from typing import Callable, Dict, List, Tuple

__all__ = ["CELL", "Span", "Tracer", "entry_points", "installed",
           "layer_names", "layer_totals"]

#: Name of the root span of one traced cell.
CELL = "cell"

#: The six lifecycle services, by their ``Service.name``.
SERVICES = ("driver_poll", "detection", "repair", "resilience",
            "telemetry", "control")
SERVICE_HOOKS = ("on_start", "on_poll", "on_check_interval", "on_exit")


class Span:
    """One recorded boundary crossing (times in clock nanoseconds)."""

    __slots__ = ("sid", "layer", "op", "parent", "cell", "start", "end",
                 "child_ns", "hot")

    def __init__(self, sid: int, layer: str, op: str, parent: int, cell):
        self.sid = sid
        self.layer = layer
        self.op = op
        self.parent = parent
        self.cell = cell
        self.start = 0
        self.end = 0
        #: Time covered by wrapped children (spans and hot calls).
        self.child_ns = 0
        #: Hot-boundary calls made inside this span but outside any
        #: child span: ``layer -> [calls, self_ns]``.
        self.hot: Dict[str, List[int]] = {}

    @property
    def self_ns(self) -> int:
        return self.end - self.start - self.child_ns

    def as_dict(self) -> dict:
        return {
            "id": self.sid, "name": self.layer, "op": self.op,
            "parent": self.parent, "cell": self.cell,
            "start": self.start, "end": self.end, "self_ns": self.self_ns,
            "hot": {k: list(v) for k, v in sorted(self.hot.items())},
        }


class Tracer:
    """Spans and hot-boundary counters, kept in memory until written."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self.clock = clock
        self.spans: List[Span] = []
        #: Records waiting per driver poll, one entry per drain.
        self.batch_sizes: List[int] = []
        self._cell = None
        # Frames are ``[child_ns, hot_table]``; the base frame absorbs
        # calls made outside any span.
        self._frames: List[list] = [[0, {}]]
        self._open: List[int] = [-1]

    def span(self, layer: str, op: str, fn: Callable) -> Callable:
        """Wrap ``fn`` so every call records a span."""
        frames, open_, spans, clock = (self._frames, self._open,
                                       self.spans, self.clock)

        def wrapper(*args, **kwargs):
            outer = frames[-1]
            span = Span(len(spans), layer, op, open_[-1], self._cell)
            spans.append(span)
            frame = [0, span.hot]
            frames.append(frame)
            open_.append(span.sid)
            span.start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = clock()
                frames.pop()
                open_.pop()
                span.child_ns = frame[0]
                outer[0] += span.end - span.start

        return wrapper

    def hot(self, layer: str, fn: Callable) -> Callable:
        """Wrap ``fn`` so every call adds to the enclosing span's tally."""
        frames, clock = self._frames, self.clock

        def wrapper(*args, **kwargs):
            outer = frames[-1]
            frame = [0, outer[1]]
            frames.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                frames.pop()
                outer[0] += dt
                tally = frame[1].get(layer)
                if tally is None:
                    frame[1][layer] = [1, dt - frame[0]]
                else:
                    tally[0] += 1
                    tally[1] += dt - frame[0]

        return wrapper

    def sized(self, fn: Callable) -> Callable:
        """Wrap a driver drain so each poll's batch size is kept."""
        sizes = self.batch_sizes

        def drain(*args, **kwargs):
            batch = fn(*args, **kwargs)
            sizes.append(len(batch))
            return batch

        return drain

    def run_cell(self, cell_id, fn: Callable):
        """Run ``fn()`` as the root span of cell ``cell_id``.

        Returns ``(result, root_span)``.
        """
        first = len(self.spans)
        self._cell = cell_id
        try:
            result = self.span(CELL, CELL, fn)()
        finally:
            self._cell = None
        return result, self.spans[first]

    def spans_of(self, root: Span) -> List[Span]:
        """The spans recorded under ``root``'s cell (root included)."""
        return [s for s in self.spans[root.sid:] if s.cell == root.cell]


def layer_totals(spans: List[Span]) -> Tuple[Dict[str, List[int]], int, int]:
    """Per-layer ``[calls, self_ns]`` over the spans of one or more cells.

    Returns ``(totals, unattributed_ns, cell_ns)``: the cell spans' own
    self time is what no wrapped layer claimed.
    """
    totals: Dict[str, List[int]] = {}
    unattributed = cell_ns = 0
    for span in spans:
        if span.layer == CELL:
            unattributed += span.self_ns
            cell_ns += span.end - span.start
        else:
            tally = totals.setdefault(span.layer, [0, 0])
            tally[0] += 1
            tally[1] += span.self_ns
        for layer, (calls, self_ns) in span.hot.items():
            tally = totals.setdefault(layer, [0, 0])
            tally[0] += calls
            tally[1] += self_ns
    return totals, unattributed, cell_ns


def entry_points(workload) -> List[Tuple[str, str, object, str]]:
    """Every wrapped boundary as ``(layer, kind, owner, attribute)``.

    ``kind`` is ``"span"``, ``"hot"`` or ``"drain"`` (a hot boundary
    whose result is a poll's record batch).  ``workload`` is the
    registry program of the traced cell; its class's ``build`` is the
    ``workloads`` layer.
    """
    from repro.core.detect.pipeline import DetectionPipeline
    from repro.core.repair import manager
    from repro.core.repair.manager import LaserRepair
    from repro.core.repair.ssb import SoftwareStoreBuffer
    from repro.core.services import (ControlService, DetectionService,
                                     DriverPollService, RepairService,
                                     ResilienceService, TelemetryService)
    from repro.obs.telemetry import RunTelemetry
    from repro.pebs.driver import KernelDriver
    from repro.pebs.pmu import PerformanceMonitoringUnit
    from repro.resilience.checkpoint import CheckpointStore
    from repro.resilience.journal import RecordJournal
    from repro.sim.coherence import CoherenceDirectory
    from repro.sim.core import Core
    from repro.sim.htm import HardwareTransactionalMemory
    from repro.sim.machine import Machine
    from repro.sim.trace import CompiledTrace

    points = [
        ("sim.machine", "span", Machine, "run"),
        ("sim.trace", "hot", CompiledTrace, "__init__"),
        ("sim.trace", "hot", CompiledTrace, "resolve"),
        ("sim.trace", "hot", CompiledTrace, "resolve_micro"),
        ("sim.core", "hot", Core, "step"),
        ("sim.coherence", "hot", CoherenceDirectory, "access"),
        ("sim.htm", "hot", HardwareTransactionalMemory, "execute_atomically"),
        ("core.repair.ssb", "hot", SoftwareStoreBuffer, "put"),
        ("core.repair.ssb", "hot", SoftwareStoreBuffer, "flush"),
        ("core.repair.ssb", "hot", SoftwareStoreBuffer, "load_through"),
        ("core.repair", "span", LaserRepair, "plan"),
        ("core.repair", "span", LaserRepair, "attach"),
        ("core.repair", "hot", LaserRepair, "detach"),
        # The manager calls the verifier through its own module global.
        ("static.verify", "hot", manager, "verify_rewrite"),
        ("pebs.pmu", "hot", PerformanceMonitoringUnit, "on_hitm"),
        ("pebs.driver", "hot", KernelDriver, "deliver"),
        ("pebs.driver", "drain", KernelDriver, "flush_batch"),
        ("resilience.journal", "hot", RecordJournal, "append"),
        ("resilience.journal", "hot", RecordJournal, "batches_after"),
        ("resilience.journal", "hot", RecordJournal, "truncate_through"),
        ("resilience.checkpoint", "span", CheckpointStore, "save"),
        ("resilience.checkpoint", "hot", CheckpointStore, "load"),
        ("core.detect", "hot", DetectionPipeline, "process"),
        ("core.detect", "hot", DetectionPipeline, "roll_window"),
        ("core.detect", "hot", DetectionPipeline, "report"),
        ("core.detect", "hot", DetectionPipeline, "state_dict"),
        ("obs.telemetry", "hot", RunTelemetry, "close_window"),
        ("workloads", "hot", type(workload), "build"),
    ]
    services = {cls.name: cls for cls in (
        DriverPollService, DetectionService, RepairService,
        ResilienceService, TelemetryService, ControlService)}
    for name in SERVICES:
        for hook in SERVICE_HOOKS:
            points.append(("core.services." + name, "span",
                           services[name], hook))
    return points


def layer_names() -> List[str]:
    """Every attributed layer, in report order (no ``repro`` import)."""
    return ["sim.machine", "sim.trace", "sim.core", "sim.coherence",
            "sim.htm", "core.repair.ssb", "core.repair", "static.verify",
            "pebs.pmu", "pebs.driver", "resilience.journal",
            "resilience.checkpoint", "core.detect"] + [
        "core.services." + name for name in SERVICES] + [
        "obs.telemetry", "workloads"]


_ABSENT = object()


class installed:
    """Context manager: wrappers on every entry point, restored on exit."""

    def __init__(self, tracer: Tracer, points: list):
        self.tracer = tracer
        self.points = points
        self._saved: List[Tuple[object, str, object]] = []

    def __enter__(self) -> Tracer:
        tracer = self.tracer
        try:
            for layer, kind, owner, attr in self.points:
                fn = getattr(owner, attr)
                if kind == "span":
                    wrapped = tracer.span(layer, attr, fn)
                elif kind == "drain":
                    wrapped = tracer.hot(layer, tracer.sized(fn))
                else:
                    wrapped = tracer.hot(layer, fn)
                self._saved.append(
                    (owner, attr, vars(owner).get(attr, _ABSENT)))
                setattr(owner, attr, wrapped)
        except BaseException:
            self._restore()
            raise
        return tracer

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            if original is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
