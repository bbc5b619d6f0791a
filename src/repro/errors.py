"""Exception hierarchy for the LASER reproduction."""

__all__ = [
    "ReproError",
    "AssemblyError",
    "SimulationError",
    "AllocationError",
    "HtmAbort",
    "RepairError",
    "DetectorStall",
    "FaultInjectionError",
    "WorkloadError",
    "SheriffIncompatible",
    "SheriffCrash",
]


class ReproError(Exception):
    """Base class for every error raised by this package."""


class AssemblyError(ReproError):
    """A program could not be assembled (unknown label, bad operand...)."""


class SimulationError(ReproError):
    """The machine entered an invalid state (bad address, deadlock...)."""


class AllocationError(SimulationError):
    """The simulated allocator ran out of heap or got bad arguments."""


class HtmAbort(ReproError):
    """A hardware transaction aborted (capacity, conflict, or injected).

    Raised internally by the HTM model and handled by the SSB flush
    logic, which counts consecutive aborts itself.  ``reason`` is a
    short classification string that starts with ``"capacity"`` or
    ``"conflict"`` (free text after the classification is allowed for
    diagnostics, e.g. ``"capacity: 9 lines > 8 ways"``).
    """

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class RepairError(ReproError):
    """LASERREPAIR could not analyze or instrument the target program."""


class DetectorStall(ReproError):
    """The userspace detector missed one or more poll intervals.

    Raised at the detector's poll site (by fault injection, or by any
    future real stall condition) and handled by ``Laser.run_built``,
    which skips the poll, lets driver buffers back up, and resyncs on
    the next healthy poll.  Never escapes the run loop.
    """


class FaultInjectionError(ReproError):
    """A fault plan is malformed (unknown site, bad probability...)."""


class WorkloadError(ReproError):
    """A workload was misconfigured or references unknown resources."""


class SheriffIncompatible(ReproError):
    """The workload uses features Sheriff does not support (Section 7.3)."""


class SheriffCrash(ReproError):
    """The workload encounters a runtime error under Sheriff (Table 1)."""
