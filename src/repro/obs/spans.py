"""Causal span tracing: from flat trace events to flow trees.

The event tracer (:mod:`repro.obs.trace`) answers *what happened*; this
module answers *why*.  It promotes the flat, emission-ordered event
stream into span trees with flow IDs that link each stage of the
detection-to-repair causal chain::

    driver.drain ─┐
    detect.batch ─┴→ detect.window_roll → detect.line_over_threshold
        → repair.trigger → repair.plan → repair.verify
        → repair.attach → repair.watchdog → repair.detach

so "which records caused this repair" is answerable from a single trace
load: every repair chain carries the windows that fed its threshold
crossings, the batches those windows ingested, and the journal sequence
range of the records in those batches.

The builder is a *pure derivation* over an already-recorded event list
— it runs after the fact and emits nothing, so it cannot perturb a run.
The one extra emission it wants, ``detect.batch`` (per-poll batch size
and journal seq range), is gated behind ``config.trace_spans`` because
any new default-on event would change the trace stream's golden SHA-256
pin; without it the chain still builds, just without per-batch seq
attribution.

Ordering caveat the builder is written around:
``detect.line_over_threshold`` events are stamped with the *report
duration* (``duration_cycles``), not the machine cycle, so causality is
recovered from emission order — never from timestamp sorting — and the
Chrome export re-anchors threshold spans to their window's end cycle.

Exports: :meth:`SpanTrace.to_chrome_trace` writes a Chrome
``trace_event`` document where every span is a complete ("X") slice and
every repair chain is one flow (``s``/``t``/``f`` arrows, loadable in
Perfetto); :meth:`SpanTrace.render` is the ASCII flow-tree view the CLI
prints.
"""

import json
from typing import Dict, List, Optional

from repro.obs.trace import chrome_lane

__all__ = ["Span", "SpanTrace", "build_spans"]

#: Events the builder consumes; everything else passes through untouched.
_CAUSAL_EVENTS = frozenset((
    "driver.drain", "detect.batch", "detect.window_roll",
    "detect.line_over_threshold", "repair.trigger", "repair.plan",
    "repair.verify", "repair.plan_rejected", "repair.attach",
    "repair.backoff", "repair.watchdog", "repair.detach",
    "repair.quarantine",
))


class Span:
    """One node of the causal tree: an event plus its consequences."""

    __slots__ = ("sid", "name", "cycle", "args", "children")

    def __init__(self, sid: int, name: str, cycle: int,
                 args: Optional[Dict]):
        self.sid = sid
        self.name = name
        #: The emitting component's timestamp — beware that threshold
        #: events carry the report duration here, not the run clock.
        self.cycle = cycle
        self.args = args or {}
        self.children: List["Span"] = []

    def label(self) -> str:
        """One-line human form (the render tree's node text)."""
        args = self.args
        if self.name == "detect.window_roll":
            return "window @%d (seen=%s admitted=%s)" % (
                self.cycle, args.get("records_seen", "?"),
                args.get("records_admitted", "?"))
        if self.name == "detect.batch":
            return "batch records=%s seq %s..%s" % (
                args.get("records", "?"), args["seq_lo"], args["seq_hi"])
        if self.name == "driver.drain":
            return "drain core=%s drained=%s dropped=%s" % (
                args.get("core", "?"), args.get("drained", "?"),
                args.get("dropped", 0))
        if self.name == "detect.line_over_threshold":
            return "threshold %s rate=%s" % (
                args.get("location", "?"), args.get("hitm_rate", "?"))
        if self.name == "repair.trigger":
            return "trigger @%d lines=%s pcs=%s" % (
                self.cycle, args.get("lines", "?"), args.get("pcs", "?"))
        if self.name == "repair.watchdog":
            return "watchdog @%d verdict=%s" % (
                self.cycle, args.get("verdict", "?"))
        if self.name == "repair.backoff":
            return "backoff reason=%s intervals=%s" % (
                args.get("reason", "?"), args.get("intervals", "?"))
        detail = " ".join(
            "%s=%s" % (k, v) for k, v in sorted(args.items())
        )
        return "%s @%d%s" % (self.name.split(".", 1)[1], self.cycle,
                             " " + detail if detail else "")

    def __repr__(self):
        return "<Span #%d %s @%d>" % (self.sid, self.name, self.cycle)


class _RepairChain:
    """One repair lifecycle: trigger through detach, plus provenance."""

    __slots__ = ("index", "trigger", "stages", "windows", "resolved")

    def __init__(self, index: int, trigger: Span):
        self.index = index
        self.trigger = trigger
        #: Lifecycle spans in emission order (trigger first).
        self.stages: List[Span] = [trigger]
        #: The window spans whose thresholds fed this trigger.
        self.windows: List[Span] = []
        self.resolved = False

    @property
    def outcome(self) -> str:
        names = [span.name for span in self.stages]
        if "repair.detach" in names:
            return "detached"
        if "repair.attach" in names:
            return "attached"
        if "repair.backoff" in names:
            last = self.stages[-1]
            return "backed off (%s)" % last.args.get("reason", "?")
        return "open"

    def records_behind(self) -> Dict:
        """How many records (and which journal seqs) caused this repair."""
        records = 0
        seq_lo: Optional[int] = None
        seq_hi: Optional[int] = None
        for window in self.windows:
            for child in window.children:
                if child.name != "detect.batch":
                    continue
                records += child.args.get("records", 0)
                lo, hi = child.args.get("seq_lo"), child.args.get("seq_hi")
                if lo is not None:
                    seq_lo = lo if seq_lo is None else min(seq_lo, lo)
                    seq_hi = hi if seq_hi is None else max(seq_hi, hi)
        return {"records": records, "seq_lo": seq_lo, "seq_hi": seq_hi,
                "windows": len(self.windows)}


class SpanTrace:
    """The causal view of one run: windows, repair chains, leftovers."""

    def __init__(self):
        #: Window spans, in roll order (children: drains, batches,
        #: thresholds).
        self.windows: List[Span] = []
        #: Repair chains, in trigger order.
        self.chains: List[_RepairChain] = []
        #: Causal spans that never found a parent (e.g. batches drained
        #: at exit after the last window rolled).
        self.orphans: List[Span] = []

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------

    def render(self, max_windows: int = 0) -> str:
        """ASCII flow-tree: windows, then each repair chain with its
        provenance line."""
        lines = [
            "causal spans: %d windows, %d repair chains, %d orphans"
            % (len(self.windows), len(self.chains), len(self.orphans))
        ]
        shown = self.windows
        elided = 0
        if max_windows and len(shown) > max_windows:
            elided = len(shown) - max_windows
            shown = shown[:max_windows]
        for window in shown:
            lines.append(window.label())
            for child in window.children:
                lines.append("  " + child.label())
        if elided:
            lines.append("(… %d more windows)" % elided)
        for chain in self.chains:
            behind = chain.records_behind()
            lines.append(
                "repair chain #%d (flow %d): %s"
                % (chain.index, chain.index + 1, chain.outcome)
            )
            for span in chain.stages:
                lines.append("  " + span.label())
            seq = ("" if behind["seq_lo"] is None else
                   ", seq %d..%d" % (behind["seq_lo"], behind["seq_hi"]))
            lines.append(
                "  caused by: %d window(s), %d record(s)%s"
                % (behind["windows"], behind["records"], seq)
            )
        for orphan in self.orphans:
            lines.append("orphan: " + orphan.label())
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Chrome trace_event export (flow arrows)
    # ------------------------------------------------------------------

    def to_chrome_trace(self) -> Dict:
        """The causal view as its own Chrome ``trace_event`` document.

        Every span is a complete ("X") slice; every repair chain is one
        flow whose arrows run batch → window → threshold → trigger →
        … → detach.  Threshold spans are re-anchored to their window's
        end cycle (their native timestamp is the report duration, which
        would scatter them across the timeline).
        """
        events: List[Dict] = []
        pids_seen = set()

        def slice_for(span: Span, ts: int, dur: int = 1) -> Dict:
            pid, tid = chrome_lane(span.name, span.args)
            pids_seen.add(pid)
            entry = {
                "name": span.name, "ph": "X", "ts": ts, "dur": max(1, dur),
                "pid": pid, "tid": tid,
            }
            if span.args:
                entry["args"] = dict(span.args)
            return entry

        anchors: Dict[int, Dict] = {}  # sid -> its slice entry
        for window in self.windows:
            window_cycles = window.args.get("window_cycles", 0) or 1
            start = max(0, window.cycle - window_cycles)
            entry = slice_for(window, start, window_cycles)
            anchors[window.sid] = entry
            events.append(entry)
            for child in window.children:
                ts = (window.cycle if child.name
                      == "detect.line_over_threshold" else child.cycle)
                child_entry = slice_for(child, ts)
                anchors[child.sid] = child_entry
                events.append(child_entry)
        for chain in self.chains:
            for span in chain.stages:
                entry = slice_for(span, span.cycle)
                anchors[span.sid] = entry
                events.append(entry)
        for orphan in self.orphans:
            entry = slice_for(orphan, orphan.cycle)
            anchors[orphan.sid] = entry
            events.append(entry)
        # One flow per repair chain: provenance first (batches, window,
        # thresholds of each contributing window), then the lifecycle.
        for chain in self.chains:
            flow_id = chain.index + 1
            hops: List[Dict] = []
            for window in chain.windows:
                for child in window.children:
                    if child.name == "detect.batch":
                        hops.append(anchors[child.sid])
                hops.append(anchors[window.sid])
                for child in window.children:
                    if child.name == "detect.line_over_threshold":
                        hops.append(anchors[child.sid])
            hops.extend(anchors[span.sid] for span in chain.stages)
            for position, anchor in enumerate(hops):
                ph = ("s" if position == 0
                      else "f" if position == len(hops) - 1 else "t")
                flow = {
                    "name": "repair-cause", "cat": "causal",
                    "ph": ph, "id": flow_id,
                    "ts": anchor["ts"], "pid": anchor["pid"],
                    "tid": anchor["tid"],
                }
                if ph == "f":
                    flow["bp"] = "e"  # bind to the enclosing slice
                events.append(flow)
        metadata = [
            {"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
             "args": {"name": name}}
            for pid, name in (
                (1, "application (simulated cores)"),
                (2, "LASER kernel driver"),
                (3, "LASER detector + repair"),
            )
            if pid in pids_seen
        ]
        return {
            "traceEvents": metadata + events,
            "displayTimeUnit": "ms",
            "otherData": {
                "clock": "simulated cycles (1 cycle = 1us of trace time)",
                "windows": len(self.windows),
                "repair_chains": len(self.chains),
            },
        }

    def write_chrome_trace(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_chrome_trace(), fh, sort_keys=True, indent=1)
            fh.write("\n")

    def __repr__(self):
        return "<SpanTrace %d windows, %d chains>" % (
            len(self.windows), len(self.chains))


def build_spans(events) -> SpanTrace:
    """Derive the causal span trees from an emission-ordered event list.

    ``events`` is a list of :class:`~repro.obs.trace.TraceEvent` (or
    anything with ``name``/``cycle``/``args``).  Causality is recovered
    from emission order: drains and batches pend until the window roll
    that consumed them; threshold crossings pend until a repair trigger
    claims the matching lines; lifecycle events append to the open
    chain (trigger → attach) or to the attached one (watchdog/detach).
    """
    trace = SpanTrace()
    next_sid = [0]

    def make_span(event) -> Span:
        next_sid[0] += 1
        return Span(next_sid[0], event.name, event.cycle, event.args)

    pending_feed: List[Span] = []      # drains + batches since last roll
    pending_thresholds: List[Span] = []
    active: Optional[_RepairChain] = None
    attached: Optional[_RepairChain] = None

    for event in events:
        name = event.name
        if name not in _CAUSAL_EVENTS:
            continue
        span = make_span(event)
        if name in ("driver.drain", "detect.batch"):
            pending_feed.append(span)
        elif name == "detect.window_roll":
            span.children.extend(pending_feed)
            pending_feed = []
            trace.windows.append(span)
        elif name == "detect.line_over_threshold":
            if trace.windows:
                trace.windows[-1].children.append(span)
                pending_thresholds.append(span)
            else:
                trace.orphans.append(span)
        elif name == "repair.trigger":
            active = _RepairChain(len(trace.chains), span)
            trace.chains.append(active)
            lines = set(span.args.get("lines") or ())
            claimed = [t for t in pending_thresholds
                       if t.args.get("location") in lines]
            if not claimed:
                claimed = list(pending_thresholds)
            for threshold in claimed:
                window = next(w for w in trace.windows
                              if threshold in w.children)
                if window not in active.windows:
                    active.windows.append(window)
            pending_thresholds = [t for t in pending_thresholds
                                  if t not in claimed]
        elif name in ("repair.plan", "repair.verify",
                      "repair.plan_rejected"):
            if active is not None:
                active.stages.append(span)
            else:
                trace.orphans.append(span)
        elif name == "repair.attach":
            if active is not None:
                active.stages.append(span)
                active.resolved = True
                attached, active = active, None
            else:
                trace.orphans.append(span)
        elif name == "repair.backoff":
            if active is not None:
                active.stages.append(span)
                active.resolved = True
                active = None
            else:
                trace.orphans.append(span)
        elif name in ("repair.watchdog", "repair.detach"):
            if attached is not None:
                attached.stages.append(span)
            else:
                trace.orphans.append(span)
        elif name == "repair.quarantine":
            # Emitted inside trigger evaluation *before* any trigger
            # event; it is its own (refused) causal endpoint.
            trace.orphans.append(span)
    trace.orphans.extend(pending_feed)
    return trace
