"""Regenerate ``perfbench/digests.json``, the committed reference digests.

The reference for the cells the default seed generates comes from the
reference interpreter (``sim_engine="interp"``), so the benchmark's
correctness check also holds the fast execution plane to it::

    python3 perfbench/make_digests.py
"""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _path in (ROOT, os.path.join(ROOT, "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from perfbench import cells as cellmod  # noqa: E402


def main() -> int:
    # ``auto`` engines resolve through these variables; pin the
    # reference interpreter for every machine the cells build.
    os.environ.pop("LASER_ENGINE", None)
    os.environ["LASER_SIM_ENGINE"] = "interp"
    from repro.accel import resolve_sim_engine

    if resolve_sim_engine("auto") != "interp":
        raise SystemExit("cannot select the reference interpreter")
    default_seed = cellmod.DEFAULT_SEED
    table = {"default_seed": default_seed, "sim_engine": "interp",
             "workloads": {}}
    for name, spec in sorted(cellmod.load_specs().items()):
        entries = []
        for cell in cellmod.cells_for(spec, default_seed):
            run = cellmod.run_cell(spec, cell)
            if not run.ok:
                raise SystemExit("%s cell %d failed: %s"
                                 % (name, cell.index, run.error))
            entries.append({"index": cell.index, "seed": cell.seed,
                            "plan_seed": cell.plan_seed,
                            "digest": run.digest})
            print(name, cell.index, run.digest, flush=True)
        table["workloads"][name] = {
            "program": spec.program, "config": spec.config,
            "faults": spec.faults, "cells": entries,
        }
    with open(cellmod.DIGESTS, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
