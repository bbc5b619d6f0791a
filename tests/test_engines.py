"""Engine bit-identity: the execution plane is observationally invisible.

The acceleration engines (``repro.accel``) change *how* the hot paths
run — struct-of-arrays numpy kernels vs scalar loops for the record
plane, precompiled traces vs the per-instruction interpreter for the
simulator — and must never change *what* they compute.  This module
pins that contract three ways:

* the full golden grid (``tests/golden/run_built_golden.json``) replayed
  under every engine combination, byte-for-byte;
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

sys.path.insert(0, os.path.dirname(__file__))

from golden_runbuilt import assert_cell_matches, golden_cells, load_golden  # noqa: E402

from repro.accel import numpy_available, resolve_engine, resolve_sim_engine  # noqa: E402
from repro.core.config import LaserConfig  # noqa: E402
from repro.core.detect.linemodel import CacheLineModel, SharingType  # noqa: E402

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
def test_run_health_reports_resolved_engines(engine, sim_engine):
    """RunHealth carries engine provenance without entering as_dict."""
    from repro.core.laser import Laser
    from repro.workloads import get_workload

    _needs_numpy(engine)
    cfg = LaserConfig().replace(engine=engine, sim_engine=sim_engine)
    result = Laser(cfg).run_workload(get_workload("histogram'"))
    assert result.health.engine == engine
    assert result.health.sim_engine == sim_engine
    assert "engine" not in result.health.as_dict()
    assert "sim_engine" not in result.health.as_dict()


def test_config_rejects_unknown_engines():
    with pytest.raises(ValueError):
        LaserConfig(engine="fortran")
    with pytest.raises(ValueError):
        LaserConfig(sim_engine="jit")


# ----------------------------------------------------------------------
# Property tests: vectorized kernels vs their scalar twins
# ----------------------------------------------------------------------

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

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
    from repro.workloads import get_workload

    built = get_workload("histogram'").build(heap_offset=0, seed=0, scale=1.0)
    from repro.sim.machine import Machine

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
    from repro.sim.machine import Machine
    from repro.workloads import get_workload

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
