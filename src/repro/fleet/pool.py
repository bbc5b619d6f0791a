"""The shard pool: fleet fan-out over the experiment runner.

:class:`FleetPool` is the resident service's process plane.  Shards
are independent by construction (a tenant spec is a small picklable
value; every heavy object is built inside the shard), so the pool is
nothing more exotic than :class:`~repro.experiments.runner.SweepRunner`
— the same order-preserving fan-out every experiment harness uses,
with the same guarantees: results merge in tenant order, byte-identical
at any worker count, serial fallback where subprocess pools are
unavailable.  Each pool owns its runner; the fleet chaos soak shares
one runner across its cells instead, and runs each cell's fleet on a
serial pool (no nested pools).
"""

from typing import List, Optional

from repro.experiments.runner import SweepRunner
from repro.fleet.health import FleetHealth
from repro.fleet.shard import TenantOutcome, run_shard
from repro.fleet.tenants import FleetSpec, TenantSpec

__all__ = ["FleetPool", "FleetResult"]


class FleetResult:
    """One fleet run: outcomes in tenant order plus the health roll-up."""

    __slots__ = ("spec", "outcomes", "health")

    def __init__(self, spec: FleetSpec, outcomes: List[TenantOutcome]):
        self.spec = spec
        self.outcomes = outcomes
        self.health = FleetHealth(outcomes)

    def tenant(self, name: str) -> TenantOutcome:
        return self.health.tenant(name)

    def as_dict(self) -> dict:
        return {
            "seed": self.spec.seed,
            "tenants": [outcome.as_dict() for outcome in self.outcomes],
            "summary": self.health.summary(),
        }

    def render(self) -> str:
        return self.health.render()

    def __repr__(self):
        return "<FleetResult %s>" % self.health.summary()


def _shard_cell(tenant: TenantSpec, fleet: FleetSpec) -> TenantOutcome:
    """One shard, shaped for pool workers (module-level, picklable)."""
    return run_shard(tenant, fleet)


class FleetPool:
    """Run every tenant's shard and merge outcomes in tenant order."""

    def __init__(self, spec: FleetSpec, workers: Optional[int] = None):
        self.spec = spec
        #: The fan-out runner (and its cost accounting).
        self.runner = SweepRunner(workers)

    def run(self) -> FleetResult:
        cells = [(tenant, self.spec) for tenant in self.spec.tenants]
        outcomes = self.runner.starmap(_shard_cell, cells)
        return FleetResult(self.spec, outcomes)

    def cost_summary(self) -> str:
        return self.runner.cost_summary()

    def __repr__(self):
        return "<FleetPool tenants=%d workers=%d>" % (
            len(self.spec.tenants), self.runner.workers)
