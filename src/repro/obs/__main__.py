"""``python -m repro.obs`` — run a workload, show where the time went.

Prints a per-run "Figure 12": the phase timeline (per-window HITM rate,
record flow and repair state) and the per-component cycle breakdown
(application, PMU assist stalls, kernel driver, userspace detector),
plus the repair/degradation lifecycle events from the trace.

Subcommands extend the report into the performance observatory:
``profile`` counts the bytecodes the host interpreter executes for one
run, per layer, per function and per simulated instruction (exact and
repeatable, as opposed to host time), and ``spans`` renders the causal
flow trees linking record batches to the repairs they caused.

Examples::

    python -m repro.obs linear_regression
    python -m repro.obs kmeans --seed 3 --trace kmeans_trace.json
    python -m repro.obs profile "histogram'" --scale 0.25 --json prof.json
    python -m repro.obs spans histogram' --out spans_trace.json
    python -m repro.obs --smoke          # CI smoke: run + verify exports
    python -m repro.obs --list
"""

import argparse
import sys
from typing import List, Optional

from repro.core.config import LaserConfig
from repro.core.laser import Laser, LaserRunResult

#: Trace events worth narrating to an operator, in one line each.
_LIFECYCLE_PREFIXES = (
    "laser.", "repair.", "detector.", "detect.line_over_threshold",
)


def _breakdown(result: LaserRunResult) -> str:
    """Per-component cycle shares (the per-run Figure 12)."""
    app = max(1, result.application_cpu_cycles)
    pmu_stalls = sum(core.stats.pmu_stall_cycles
                     for core in result.machine.cores)
    rows = [
        ("application busy", app - pmu_stalls),
        ("PMU assist stalls", pmu_stalls),
        ("kernel driver", result.driver_cycles),
        ("userspace detector", result.detector_cycles),
    ]
    lines = ["%-20s %12s %8s" % ("component", "cycles", "share")]
    for name, cycles in rows:
        lines.append(
            "%-20s %12d %7.2f%%" % (name, cycles, 100.0 * cycles / app)
        )
    stats = result.pipeline.stats
    lines.append(
        "records: %d seen, %d admitted, %d undecodable PCs, "
        "%d dropped, %d pending at exit"
        % (stats.records_seen, stats.records_admitted,
           stats.undecodable_pcs, result.health.records_dropped,
           result.health.records_pending_at_exit)
    )
    tracer = result.telemetry.tracer
    lines.append(
        "ring: %d events emitted, %d retained, %d dropped "
        "(capacity %d)"
        % (tracer.events_emitted, len(tracer), tracer.events_dropped,
           tracer.capacity)
    )
    return "\n".join(lines)


def _lifecycle(result: LaserRunResult, limit: int = 40) -> str:
    events = [
        e for e in result.telemetry.tracer.events()
        if e.name.startswith(_LIFECYCLE_PREFIXES)
    ]
    if not events:
        return "(no lifecycle events recorded)"
    lines = []
    shown = events[:limit]
    for event in shown:
        args = ""
        if event.args:
            args = " " + " ".join(
                "%s=%s" % (k, v) for k, v in sorted(event.args.items())
            )
        lines.append("%10d  %-28s%s" % (event.cycle, event.name, args))
    if len(events) > limit:
        lines.append("... %d more lifecycle events" % (len(events) - limit))
    return "\n".join(lines)


def run_one(name: str, seed: int = 0, scale: float = 1.0,
            repair: bool = True, capacity: int = 65_536,
            spans: bool = False) -> LaserRunResult:
    from repro.workloads.registry import get_workload

    config = LaserConfig(seed=seed, repair_enabled=repair,
                         trace_enabled=True, trace_capacity=capacity,
                         trace_spans=spans)
    return Laser(config).run_workload(get_workload(name), scale=scale)


def report(result: LaserRunResult, name: str) -> str:
    sections = [
        "== %s: %d cycles, %d HITM events, repaired=%s" % (
            name, result.cycles, result.pmu.total_hitm_count,
            result.repaired),
        "health: %s" % result.health.summary(),
        "",
        "-- phase timeline (%d detection windows)"
        % result.telemetry.window_count,
        result.telemetry.render_timeline(),
        "",
        "-- cycle breakdown",
        _breakdown(result),
        "",
        "-- lifecycle events",
        _lifecycle(result),
    ]
    return "\n".join(sections)


def smoke() -> int:
    """CI smoke: trace a run, verify determinism and export sanity."""
    import json

    name = "linear_regression"
    first = run_one(name)
    second = run_one(name)
    print(report(first, name))
    failures = []
    if first.telemetry.tracer.to_jsonl() != second.telemetry.tracer.to_jsonl():
        failures.append("trace JSONL not deterministic across identical runs")
    if first.telemetry.windows_jsonl() != second.telemetry.windows_jsonl():
        failures.append("windows JSONL not deterministic across identical runs")
    if not first.telemetry.windows:
        failures.append("no detection windows recorded")
    doc = first.telemetry.to_chrome_trace()
    if not doc.get("traceEvents"):
        failures.append("empty Chrome trace export")
    json.dumps(doc)  # must serialize
    if failures:
        for failure in failures:
            print("SMOKE FAILURE: %s" % failure, file=sys.stderr)
        return 1
    print("\nsmoke ok: %d events, %d windows, deterministic exports"
          % (len(first.telemetry.tracer), first.telemetry.window_count))
    return 0


def _profile_main(argv: List[str]) -> int:
    """``python -m repro.obs profile <workload>``: exact bytecode counts."""
    import json
    import platform

    from repro.obs.profile import count_bytecodes
    from repro.workloads.registry import get_workload

    parser = argparse.ArgumentParser(
        prog="python -m repro.obs profile",
        description="Count the bytecodes one untraced monitored run "
                    "executes, after one uncounted warm-up run: per "
                    "layer, per function and per simulated instruction.",
    )
    parser.add_argument("workload", nargs="?", default="linear_regression")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--no-repair", action="store_true")
    parser.add_argument("--json", metavar="FILE",
                        help="also write the counts as JSON")
    args = parser.parse_args(argv)

    workload = get_workload(args.workload)
    config = LaserConfig(seed=args.seed, repair_enabled=not args.no_repair)

    def run() -> LaserRunResult:
        return Laser(config).run_workload(workload, scale=args.scale)

    # The warm-up pays for imports and compiled trace code, so the count
    # is of a run in steady state, as perfbench's warm-up cell does.
    run()
    result, profile = count_bytecodes(run)
    instructions = sum(core.stats.instructions
                       for core in result.machine.cores)
    print("== bytecodes: %s (%d simulated cycles), Python %s"
          % (args.workload, result.cycles, platform.python_version()))
    print(profile.render(instructions))
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(profile.as_dict(instructions), fh, indent=1)
            fh.write("\n")
        print("wrote profile JSON to %s" % args.json)
    return 0


def _spans_main(argv: List[str]) -> int:
    """``python -m repro.obs spans <workload>``: the causal flow trees."""
    from repro.obs.spans import build_spans

    parser = argparse.ArgumentParser(
        prog="python -m repro.obs spans",
        description="Run a workload with span tracing and render the "
                    "causal flow trees (records -> window -> threshold "
                    "-> repair lifecycle).",
    )
    parser.add_argument("workload", nargs="?", default="histogram'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--no-repair", action="store_true")
    parser.add_argument("--max-windows", type=int, default=8,
                        help="window trees to print (0 = all)")
    parser.add_argument("--out", metavar="FILE",
                        help="write the Chrome trace with flow arrows "
                             "(open in Perfetto)")
    args = parser.parse_args(argv)

    result = run_one(args.workload, seed=args.seed, scale=args.scale,
                     repair=not args.no_repair, spans=True)
    spans = build_spans(result.telemetry.tracer.events())
    print("== causal spans: %s" % args.workload)
    print(spans.render(max_windows=args.max_windows))
    if args.out:
        spans.write_chrome_trace(args.out)
        print("wrote flow trace to %s (open at https://ui.perfetto.dev)"
              % args.out)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # Observatory subcommands; the bare form keeps its legacy surface
    # (`python -m repro.obs <workload>`).
    if argv and argv[0] == "profile":
        return _profile_main(argv[1:])
    if argv and argv[0] == "spans":
        return _spans_main(argv[1:])

    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Run a workload under LASER with tracing on and "
                    "print the phase timeline + cycle breakdown.  "
                    "Subcommands: profile (bytecode counts), "
                    "spans (causal flow trees).",
    )
    parser.add_argument("workload", nargs="?", default="linear_regression",
                        help="registered workload name "
                             "(default: %(default)s)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--no-repair", action="store_true",
                        help="detection only (repair disabled)")
    parser.add_argument("--capacity", type=int, default=65_536,
                        help="trace ring capacity (default: %(default)s)")
    parser.add_argument("--trace", metavar="FILE",
                        help="write Chrome trace JSON (open in Perfetto)")
    parser.add_argument("--jsonl", metavar="FILE",
                        help="write the raw event stream as JSONL")
    parser.add_argument("--smoke", action="store_true",
                        help="CI smoke mode: run, verify exports, exit")
    parser.add_argument("--list", action="store_true",
                        help="list registered workloads and exit")
    args = parser.parse_args(argv)

    if args.list:
        from repro.workloads.registry import workload_names

        print("\n".join(workload_names()))
        return 0
    if args.smoke:
        return smoke()

    result = run_one(args.workload, seed=args.seed, scale=args.scale,
                     repair=not args.no_repair, capacity=args.capacity)
    print(report(result, args.workload))
    if args.trace:
        result.telemetry.write_chrome_trace(args.trace)
        print("\nwrote Chrome trace to %s (open at https://ui.perfetto.dev)"
              % args.trace)
    if args.jsonl:
        result.telemetry.tracer.write_jsonl(args.jsonl)
        print("wrote %d events to %s"
              % (len(result.telemetry.tracer), args.jsonl))
    return 0


if __name__ == "__main__":
    sys.exit(main())
