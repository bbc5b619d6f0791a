"""Tests for RNG streams and the error hierarchy."""

from repro import errors
from repro.rng import RngStreams, derive_seed


class TestDeriveSeed:
    def test_stable_across_calls(self):
        assert derive_seed(42, "pebs") == derive_seed(42, "pebs")

    def test_distinct_names_distinct_seeds(self):
        assert derive_seed(42, "a") != derive_seed(42, "b")

    def test_distinct_bases_distinct_seeds(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_seed_fits_in_63_bits(self):
        assert 0 <= derive_seed(2 ** 70, "x") < 2 ** 63


class TestRngStreams:
    def test_streams_are_independent(self):
        family = RngStreams(7)
        a = family.stream("a")
        _ = a.random()  # consuming one stream...
        b_after = RngStreams(7).stream("b").random()
        assert family.stream("b").random() == b_after  # ...leaves others alone

    def test_stream_identity_cached(self):
        family = RngStreams(1)
        assert family.stream("x") is family.stream("x")

    def test_fork_produces_distinct_family(self):
        family = RngStreams(3)
        child = family.fork("child")
        assert child.seed != family.seed
        assert child.stream("a").random() != family.stream("a").random()


class TestErrorHierarchy:
    def test_all_errors_are_repro_errors(self):
        for name in ("AssemblyError", "SimulationError", "AllocationError",
                     "RepairError", "WorkloadError", "SheriffCrash",
                     "SheriffIncompatible"):
            assert issubclass(getattr(errors, name), errors.ReproError)

    def test_htm_abort_carries_reason(self):
        abort = errors.HtmAbort("capacity: 9 lines")
        assert abort.reason.startswith("capacity")

    def test_allocation_error_is_simulation_error(self):
        assert issubclass(errors.AllocationError, errors.SimulationError)
