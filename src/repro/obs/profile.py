"""Host-time profiler: where the *wall clock* goes during a run.

The simulator's own accounting (Figure 12, ``experiments.overhead``) is
in *simulated* cycles — it can say the kernel driver cost the monitored
application 2%, but it cannot say which Python code burned the host's
time producing that answer.  That blind spot is exactly what a
vectorization PR needs lit: before making the hot path 10x faster, one
must know whether the hot path is the simulator core, the PEBS drain,
or one of the six lifecycle services.

:class:`HostProfiler` is the same shape as the event tracer
(:mod:`repro.obs.trace`): a shared object every instrumented component
holds, guarded by ``profiler.enabled`` so a disabled profiler costs one
attribute load and a branch per site, and a process-wide
:data:`NULL_PROFILER` that never records.  Crucially the profiler only
*reads* the host clock — it never touches simulated cycles, RNG streams
or any component state, so a profiled run's simulated outputs are
bit-identical to an unprofiled one (regression-tested against the
golden pins).

Categories form a small tree keyed by *path*: the scheduler opens one
span per slice (``start``/``poll``/``check``/``exit``) and one nested
span per service, the machine opens ``sim.core`` around each run
slice, and the kernel driver opens ``pebs.drain`` around its full
drain.  ``begin``/``end`` maintain a stack; the time a span spends in
its children is subtracted, so the breakdown is *self time* — shares
sum to 100% of profiled wall time with no double counting.

Rendering: :func:`render_profile` is an ASCII flame-style table
(indentation is call-tree depth); :meth:`HostProfiler.as_dict` is the
machine-readable export behind ``python -m repro.obs profile --json``.
"""

import time
from typing import Dict, List, Optional, Tuple

__all__ = ["HostProfiler", "NULL_PROFILER", "render_profile"]

#: Bump on any backwards-incompatible change to the export layout.
PROFILE_SCHEMA = "laser-host-profile/v1"

#: Canonical leaf labels of the run kernel's profiled categories, in
#: scheduler slice order (the six services) plus the two hot sinks
#: outside the service fan-outs.  ``aggregate_shares`` reports these
#: even when zero, so the JSON export has a stable key set.
KERNEL_CATEGORIES = (
    "sim.core",
    "pebs.drain",
    "resilience",
    "driver_poll",
    "detection",
    "repair",
    "telemetry",
    "control",
)


class HostProfiler:
    """Stack-based self-time accumulator over ``time.perf_counter_ns``.

    ``begin(label)`` pushes a span; ``end()`` pops it and charges the
    elapsed time *minus the time spent in nested spans* to the span's
    path (the tuple of labels on the stack).  Paths keep parent context
    — ``("poll", "driver_poll", "pebs.drain")`` is a different row from
    ``("exit", "detection", "pebs.drain")`` — which is what makes the
    rendered table flame-shaped.
    """

    __slots__ = ("enabled", "_stack", "_self_ns", "_calls")

    def __init__(self, enabled: bool = True):
        #: Hot-path guard, same discipline as ``EventTracer.enabled``.
        self.enabled = enabled
        # Stack frames are [label, start_ns, child_ns] lists.
        self._stack: List[list] = []
        self._self_ns: Dict[Tuple[str, ...], int] = {}
        self._calls: Dict[Tuple[str, ...], int] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def begin(self, label: str) -> None:
        if not self.enabled:
            return
        self._stack.append([label, time.perf_counter_ns(), 0])

    def end(self) -> None:
        if not self.enabled:
            return
        if not self._stack:
            raise RuntimeError("profiler end() without a matching begin()")
        label, start_ns, child_ns = self._stack.pop()
        elapsed = time.perf_counter_ns() - start_ns
        path = tuple(frame[0] for frame in self._stack) + (label,)
        self._self_ns[path] = (
            self._self_ns.get(path, 0) + max(0, elapsed - child_ns)
        )
        self._calls[path] = self._calls.get(path, 0) + 1
        if self._stack:
            self._stack[-1][2] += elapsed

    # ------------------------------------------------------------------
    # Querying
    # ------------------------------------------------------------------

    @property
    def total_ns(self) -> int:
        """Profiled wall time: the sum of every path's self time."""
        return sum(self._self_ns.values())

    def paths(self) -> List[Tuple[str, ...]]:
        """Recorded paths, parents before children, siblings by cost."""
        ordered: List[Tuple[str, ...]] = []

        def visit(prefix: Tuple[str, ...]) -> None:
            children = sorted(
                {
                    path[: len(prefix) + 1]
                    for path in self._self_ns
                    if path[: len(prefix)] == prefix and len(path) > len(prefix)
                },
                key=lambda p: -self.subtree_ns(p),
            )
            for child in children:
                if child in self._self_ns:
                    ordered.append(child)
                visit(child)

        visit(())
        return ordered

    def subtree_ns(self, prefix: Tuple[str, ...]) -> int:
        """Self time of a path plus all of its descendants."""
        return sum(
            ns for path, ns in self._self_ns.items()
            if path[: len(prefix)] == prefix
        )

    def self_ns(self, path: Tuple[str, ...]) -> int:
        return self._self_ns.get(path, 0)

    def calls(self, path: Tuple[str, ...]) -> int:
        return self._calls.get(path, 0)

    def aggregate_shares(self) -> Dict[str, float]:
        """Self-time share per *leaf label*, merged across paths.

        The same service runs in several slices (poll/check/exit) and
        the PEBS drain nests under two different services; this view
        collapses those paths onto their leaf label — the per-service
        breakdown.  Every kernel category is present (zero when never
        entered) so the key set is stable across workloads.
        """
        total = self.total_ns
        merged: Dict[str, int] = {label: 0 for label in KERNEL_CATEGORIES}
        for path, ns in self._self_ns.items():
            merged[path[-1]] = merged.get(path[-1], 0) + ns
        if total <= 0:
            return {label: 0.0 for label in merged}
        return {label: ns / total for label, ns in merged.items()}

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------

    def as_dict(self) -> Dict:
        """Machine-readable breakdown (host-dependent; never committed
        as an equality-checked artifact)."""
        total = self.total_ns
        rows = []
        for path in self.paths():
            self_ns = self.self_ns(path)
            rows.append({
                "path": "/".join(path),
                "depth": len(path) - 1,
                "calls": self.calls(path),
                "self_ms": round(self_ns / 1e6, 3),
                "share": round(self_ns / total, 4) if total else 0.0,
            })
        return {
            "schema": PROFILE_SCHEMA,
            "total_ms": round(total / 1e6, 3),
            "rows": rows,
            "shares": {
                label: round(share, 4)
                for label, share in sorted(self.aggregate_shares().items())
            },
        }

    def __repr__(self):
        return "<HostProfiler %s %d paths, %.1f ms>" % (
            "on" if self.enabled else "off",
            len(self._self_ns), self.total_ns / 1e6,
        )


class _NullProfiler(HostProfiler):
    """The shared disabled profiler (same guard pattern as the tracer):
    a distinct type so flipping ``enabled`` on it cannot start charging
    a foreign run's spans into process-global state."""

    def __init__(self):
        super().__init__(enabled=False)

    def begin(self, label: str) -> None:
        return None

    def end(self) -> None:
        return None


#: Process-wide disabled profiler (never records).
NULL_PROFILER = _NullProfiler()


def render_profile(profiler: HostProfiler, width: int = 28,
                   title: Optional[str] = None) -> str:
    """ASCII flame-style self-time table.

    One row per recorded path, indented by depth; the bar scales to the
    costliest row's self time.  Shares are of total *profiled* host
    time, so the column sums to 100%.
    """
    paths = profiler.paths()
    if not paths:
        return "(no host-time samples recorded — profiling off?)"
    total = profiler.total_ns or 1
    peak = max(profiler.self_ns(path) for path in paths) or 1
    lines = []
    if title:
        lines.append(title)
    lines.append(
        "%-34s %8s %10s %7s  %s"
        % ("category (self time)", "calls", "ms", "share", "")
    )
    for path in paths:
        self_ns = profiler.self_ns(path)
        bar = "#" * int(round(width * self_ns / peak))
        label = "  " * (len(path) - 1) + path[-1]
        lines.append(
            "%-34s %8d %10.3f %6.1f%%  %s"
            % (label, profiler.calls(path), self_ns / 1e6,
               100.0 * self_ns / total, bar)
        )
    lines.append("profiled host time: %.3f ms" % (total / 1e6))
    return "\n".join(lines)
