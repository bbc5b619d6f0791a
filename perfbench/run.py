"""Host seconds per monitored LASER run, end to end and layer by layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload monitor --seed 0 --seconds 15 --trace 0

One process, one thread.  The run:

1. times its own set-up (importing ``repro``, the lazy numpy import,
   the registry) and that of a few fresh interpreters, and reports the
   median as ``setup_s``;
2. runs one untimed warm-up cell;
3. makes whole passes over the workload's cells until ``--seconds``
   have gone by (at least one pass and ``MIN_SAMPLES`` executions),
   timing each cell's native and monitored parts and a host-speed probe
   around them;
4. runs every cell once more with the layer wrappers installed (the
   *traced run*) when ``--trace 1`` asks for layer metrics, or when the
   seed has no committed reference digests to check against;
5. checks every execution's simulated outputs against the reference,
   prints every metric by name with its unit, and ends with one JSON
   line: ``{"correct", "attempted", "failed", "metrics"}`` holding the
   ``end_to_end`` metrics of ``BENCHMARK.json`` (``--trace 0``) or its
   ``per_layer`` metrics (``--trace 1``).

Full results, including every sample, probe time and span, are written
under ``perfbench/out/``.
"""

import time

_START = time.perf_counter()  # set-up is timed from this first statement

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _path in (ROOT, os.path.join(ROOT, "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from perfbench import cells as cellmod  # noqa: E402
from perfbench import stats  # noqa: E402

#: Set-up samples per run: this process plus fresh interpreters.
SETUP_SAMPLES = 5
#: Timed executions per run at least: with ten samples beyond the tail,
#: the tail is then no lower than the 52nd percentile.
MIN_SAMPLES = 2 * stats.TAIL_BEYOND + 1
OUT_DIR = os.path.join(ROOT, "perfbench", "out")


class BenchError(Exception):
    """The benchmark cannot run here (no program, stale reference...)."""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload",
                        help="a workload of perfbench/workloads.json, or"
                        " 'all' to run each in its own process")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time set-up in this interpreter and exit")
    args = parser.parse_args(argv)
    if not args.setup_only and args.workload is None:
        parser.error("--workload is required")
    return args


def setup() -> float:
    """Import the program and build its registry; seconds since start."""
    # Measure the repository's default engines, whatever the caller's
    # environment asks for.
    os.environ.pop("LASER_ENGINE", None)
    os.environ.pop("LASER_SIM_ENGINE", None)
    # Measure this checkout's program, never an installed copy.
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        raise BenchError("no program under test: %s is missing"
                         % os.path.join(ROOT, "src", "repro"))
    try:
        cellmod.prepare()
    except ImportError as exc:
        raise BenchError("cannot import the program under test: %s" % exc)
    return time.perf_counter() - _START


def fresh_setup() -> float:
    """``setup()`` of a fresh interpreter running this file."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise BenchError("set-up sample failed: %s" % proc.stderr.strip())
    return float(proc.stdout.split()[-1])


def load_metric_names():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as fh:
            bench = json.load(fh)
    except OSError as exc:
        raise BenchError("cannot read %s: %s" % (path, exc))
    return bench["end_to_end"], bench["per_layer"]


def reference_digests(spec, cells, seed):
    """Committed reference digests by cell index, or None for this seed."""
    if seed != cellmod.DEFAULT_SEED:
        return None
    with open(cellmod.DIGESTS) as fh:
        table = json.load(fh)
    entry = table["workloads"].get(spec.name)
    stale = (entry is None
             or [entry["program"], entry["config"], entry["faults"]]
             != [spec.program, spec.config, spec.faults]
             or [(c["index"], c["seed"], c["plan_seed"])
                 for c in entry["cells"]]
             != [(c.index, c.seed, c.plan_seed) for c in cells])
    if stale:
        raise BenchError(
            "perfbench/digests.json does not match workload %r; "
            "regenerate it with python3 perfbench/make_digests.py"
            % spec.name)
    return {c["index"]: c["digest"] for c in entry["cells"]}


def timed_window(spec, cells, seconds):
    """Whole passes over ``cells`` until ``seconds`` have gone by.

    Whole passes weigh every cell alike, so the seed mix of the cells
    is the same in every run of a seed.
    """
    runs = []
    start = time.perf_counter()
    while (len(runs) < MIN_SAMPLES
           or time.perf_counter() - start < seconds):
        runs.extend(cellmod.run_cell(spec, cell) for cell in cells)
    return runs


def traced_pass(spec, cells, tracer):
    """Each cell once more, its monitored part under the layer wrappers."""
    from perfbench import layers
    from repro.workloads import get_workload

    points = layers.entry_points(get_workload(spec.program))
    runs = []
    for cell in cells:
        def monitor(fn, cell=cell):
            with layers.installed(tracer, points):
                result, root = tracer.run_cell(cell.index, fn)
            return result, (root.end - root.start) / 1e9

        runs.append(cellmod.run_cell(spec, cell, monitor))
    return runs


def check(runs, reference):
    """Mark every run whose digest differs from its cell's reference."""
    for run in runs:
        if not run.ok:
            continue
        expected = reference.get(run.cell.index)
        if expected is None:
            run.error = "no reference digest (its traced run failed)"
            continue
        diff = cellmod.first_difference(run.digest, expected)
        if diff is not None:
            run.error = "digest differs: " + diff


def first_per_cell(runs):
    seen = {}
    for run in runs:
        seen.setdefault(run.cell.index, run)
    return [seen[i] for i in sorted(seen)]


def end_to_end(runs, checked, setup_samples, peak_rss_mb):
    """Every end-to-end metric as ``name -> (value, unit, note)``.

    ``runs`` are the timed executions, ``checked`` every execution whose
    outputs were checked (timed and traced).  Host times are scaled to
    the reference host by the probes timed around the cells
    (``cells.host_scale``); set-up, a few seconds before them, by the
    same probes with its own exponent.
    """
    good = [r for r in runs if r.ok]
    attempted, failed, fail_frac = stats.fail_frac([r.ok for r in checked])
    out = {
        "peak_rss_mb": (peak_rss_mb, "MB", ""),
        "fail_frac": (fail_frac, "fraction",
                      "%d of %d executions" % (failed, attempted)),
    }
    if not good:
        return out
    scale = cellmod.host_scale(good)
    setup_scale = cellmod.host_scale(good, cellmod.SETUP_PROBE_EXPONENT)
    run_s = [r.run_s * scale for r in good]
    distinct = first_per_cell(good)
    if len(run_s) > stats.TAIL_BEYOND:
        tail, percentile, samples = stats.tail(run_s)
        out["run_s_tail"] = (tail, "s", "p%.1f of %d samples, %d beyond"
                             % (percentile, samples, stats.TAIL_BEYOND))
    out.update({
        "setup_s": (statistics.median(setup_samples) * setup_scale, "s",
                    "median of %d set-ups" % len(setup_samples)),
        "run_s_p50": (statistics.median(run_s), "s",
                      "%d samples" % len(run_s)),
        "native_s_p50": (statistics.median(r.native_s * scale for r in good),
                         "s", ""),
        "sim_insts_per_s": (
            sum(r.digest["instructions"] for r in good) / sum(run_s),
            "insn/s", ""),
        "sim_overhead": (
            stats.geomean(r.digest["cycles"] / r.digest["native_cycles"]
                          for r in distinct),
            "ratio", "geomean over %d cells" % len(distinct)),
        "report_fp": (sum(r.report_fp for r in distinct), "count", ""),
        "report_fn": (sum(r.report_fn for r in distinct), "count", ""),
    })
    return out


def per_layer(tracer, traced, untraced):
    """Every per-layer metric as ``name -> (value, unit, note)``."""
    from perfbench import layers

    good = [r for r in traced if r.ok]
    totals, unattributed, cell_ns = layers.layer_totals(tracer.spans)
    cells = max(1, len(good))
    out = {}
    for layer in layers.layer_names():
        calls, self_ns = totals.get(layer, (0, 0))
        out[layer + ".calls"] = (calls / cells, "count", "per cell")
        out[layer + ".self_share"] = (stats.ratio(self_ns, cell_ns),
                                      "fraction", "")

    def total(key):
        return sum(r.counters.get(key, 0) for r in good)

    sizes = tracer.batch_sizes
    instructions = sum(r.digest["instructions"] for r in good)
    out.update({
        "sim.core.fallback_frac": (
            stats.ratio(totals.get("sim.core", (0, 0))[0], instructions),
            "fraction", "interpreter steps per instruction retired"),
        "sim.coherence.hitm": (total("hitm") / cells, "count", "per cell"),
        "core.repair.attach_frac": (
            stats.ratio(_op_calls(tracer, "attach"),
                        _op_calls(tracer, "plan")),
            "fraction", "attaches per plan"),
        "pebs.pmu.records": (total("records_generated") / cells, "count",
                             "per cell"),
        "pebs.driver.batch_p50": (statistics.median(sizes) if sizes else 0,
                                  "count", "records per poll, %d polls"
                                  % len(sizes)),
        "pebs.driver.batch_ge128_frac": (
            stats.ratio(sum(1 for s in sizes if s >= 128), len(sizes)),
            "fraction", ""),
        "pebs.driver.lost_frac": (
            stats.ratio(total("records_lost"), total("records_generated")),
            "fraction", "(dropped + shed) / generated"),
        "core.detect.admit_frac": (
            stats.ratio(total("records_admitted"), total("records_seen")),
            "fraction", "admitted / seen"),
        "unattributed.self_share": (stats.ratio(unattributed, cell_ns),
                                    "fraction", ""),
    })
    plain = [r for r in untraced if r.ok]
    out["trace_overhead"] = (
        stats.ratio(_scaled_p50(good), _scaled_p50(plain)),
        "ratio", "traced / untraced run_s_p50")
    return out


def _scaled_p50(runs):
    if not runs:
        return 0.0
    return statistics.median(r.run_s for r in runs) * cellmod.host_scale(runs)


def _op_calls(tracer, op):
    return sum(1 for s in tracer.spans
               if s.layer == "core.repair" and s.op == op)


def run_all(args) -> int:
    """Every workload, one fresh process each, one after another.

    A process per workload keeps ``peak_rss_mb`` that workload's own.
    """
    status = 0
    for name in cellmod.load_specs():
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        status = status or proc.returncode
    return status


def write_results(name, payload):
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, name)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
    return path


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_only:
        print(repr(setup()))
        return 0
    if args.workload == "all":
        return run_all(args)
    end_names, layer_names = load_metric_names()
    specs = cellmod.load_specs()
    if args.workload not in specs:
        raise BenchError("unknown workload %r (have: %s)"
                         % (args.workload, ", ".join(sorted(specs))))
    spec = specs[args.workload]
    setup_samples = [setup()]
    if not args.trace:
        setup_samples += [fresh_setup()
                          for _ in range(SETUP_SAMPLES - 1)]

    cells = cellmod.cells_for(spec, args.seed)
    reference = reference_digests(spec, cells, args.seed)
    warmup = cellmod.run_cell(spec, cellmod.warmup_cell(spec, args.seed))
    if not warmup.ok:
        print("warm-up cell failed: %s" % warmup.error, file=sys.stderr)
    runs = timed_window(spec, cells, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    from perfbench.layers import Tracer

    tracer = Tracer()
    traced = []
    if args.trace or reference is None:
        traced = traced_pass(spec, cells, tracer)
    if reference is None:
        reference = {r.cell.index: r.digest for r in traced if r.ok}
    else:
        check(traced, reference)
    check(runs, reference)

    executions = runs + traced
    attempted, failed, _ = stats.fail_frac([r.ok for r in executions])
    for run in executions:
        if not run.ok:
            print("FAIL %s cell %d (seed %d): %s" % (
                spec.name, run.cell.index, run.cell.seed, run.error),
                file=sys.stderr)
            break
    if args.trace:
        metrics = per_layer(tracer, traced, runs)
    else:
        metrics = end_to_end(runs, executions, setup_samples, peak_rss_mb)
    wanted = layer_names if args.trace else end_names
    wanted_names = {metric["name"] for metric in wanted}

    stem = "%s-seed%d-trace%d" % (spec.name, args.seed, args.trace)
    path = write_results(stem + ".json", {
        "workload": spec.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "setup_samples": setup_samples,
        "warmup": warmup.as_dict(),
        "runs": [r.as_dict() for r in runs],
        "traced": [r.as_dict() for r in traced],
        "metrics": {k: list(v) for k, v in sorted(metrics.items())},
    })
    if tracer.spans:
        os.makedirs(OUT_DIR, exist_ok=True)
        with open(os.path.join(OUT_DIR, stem + "-spans.jsonl"), "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span.as_dict(), sort_keys=True) + "\n")

    print("perfbench %s: %s, %d executions (%d distinct cells), %d failed;"
          " results in %s" % (spec.name, spec.program, attempted,
                              len(cells), failed, os.path.relpath(path, ROOT)))
    for name in sorted(metrics, key=lambda n: (n not in wanted_names, n)):
        value, unit, note = metrics[name]
        print("  %-40s %14.6g %-9s %s" % (name, value, unit, note))
    reported = {}
    for metric in wanted:
        name = metric["name"]
        if name not in metrics:
            raise BenchError("metric %s was not measured" % name)
        value, unit, _ = metrics[name]
        if unit != metric["unit"]:
            raise BenchError("metric %s: unit %s, BENCHMARK.json says %s"
                             % (name, unit, metric["unit"]))
        reported[name] = {"value": value, "unit": unit}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": reported}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        sys.exit(2)
