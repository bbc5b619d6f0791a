"""Fleet-level health: per-tenant states and the contention table.

:class:`FleetHealth` is the fleet analog of
:class:`~repro.core.health.RunHealth`: it aggregates every tenant's
run-health dict, classifies each tenant into a
:class:`TenantState`, and builds the *cross-tenant contention table* —
which (source line, TS/FS verdict) diagnoses recur across tenants.  A
line that contends the same way in several tenants' reports is a
shared-library or allocator-layout problem worth one fleet-wide fix; a
line seen by one tenant is that tenant's bug.  That roll-up is the
fleet operator's first screen, which is why :meth:`render` leads with
it.

Isolation makes the aggregation honest: every counter summed here was
tallied inside exactly one tenant's shard, so a column moving for one
tenant cannot move any other tenant's row (the blast-radius invariant
``tests/test_fleet.py`` asserts).
"""

from typing import Dict, List, Sequence, Tuple

__all__ = ["TenantState", "FleetHealth"]


class TenantState:
    """Terminal state of one tenant's shard (string constants)."""

    #: Completed with a pristine RunHealth and no session restarts.
    NOMINAL = "NOMINAL"
    #: Completed, but something was lost, restarted, shed or degraded
    #: along the way (the shard's own ladder handled it).
    DEGRADED = "DEGRADED"
    #: Session-restart budget exhausted: the shard stopped without a
    #: report.  The fleet keeps running.
    EVICTED = "EVICTED"

    ALL = (NOMINAL, DEGRADED, EVICTED)


class FleetHealth:
    """Roll-up over one fleet run's :class:`TenantOutcome` list."""

    def __init__(self, outcomes: Sequence):
        #: Outcomes in tenant (plan) order — the order is part of the
        #: fleet's determinism contract.
        self.outcomes = list(outcomes)

    # ------------------------------------------------------------------
    # Per-tenant views
    # ------------------------------------------------------------------

    def tenant(self, name: str):
        for outcome in self.outcomes:
            if outcome.tenant == name:
                return outcome
        raise KeyError("no outcome for tenant %r" % name)

    def states(self) -> Dict[str, str]:
        return {outcome.tenant: outcome.state for outcome in self.outcomes}

    @property
    def evicted(self) -> List[str]:
        return [o.tenant for o in self.outcomes
                if o.state == TenantState.EVICTED]

    # ------------------------------------------------------------------
    # Fleet-wide tallies
    # ------------------------------------------------------------------

    def total(self, field: str) -> int:
        """Sum one RunHealth counter over every reporting tenant."""
        return sum(
            outcome.health.get(field, 0)
            for outcome in self.outcomes
            if outcome.health is not None
        )

    @property
    def total_restarts(self) -> int:
        return sum(outcome.restarts for outcome in self.outcomes)

    @property
    def total_shed(self) -> int:
        return sum(outcome.records_shed for outcome in self.outcomes)

    @property
    def degraded(self) -> bool:
        """True if any tenant left NOMINAL."""
        return any(
            outcome.state != TenantState.NOMINAL
            for outcome in self.outcomes
        )

    # ------------------------------------------------------------------
    # Cross-tenant contention
    # ------------------------------------------------------------------

    def contention_table(self) -> Dict[Tuple[str, str], List[str]]:
        """(location, verdict) -> tenant names whose report carries it.

        Built from each tenant's report signature (the same
        line+dominant-verdict digest the chaos soak compares), so the
        table inherits the signature's crash-invariance: a tenant that
        crashed and recovered contributes the same rows it would have
        fault-free.
        """
        table: Dict[Tuple[str, str], List[str]] = {}
        for outcome in self.outcomes:
            for entry in sorted(outcome.signature):
                table.setdefault(entry, []).append(outcome.tenant)
        return table

    def recurring(self, min_tenants: int = 2) -> Dict[Tuple[str, str], List[str]]:
        """The fleet-wide rows: diagnoses shared by >= ``min_tenants``."""
        return {
            entry: tenants
            for entry, tenants in self.contention_table().items()
            if len(tenants) >= min_tenants
        }

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------

    def summary(self) -> str:
        states = self.states().values()
        counts = {
            state: sum(1 for s in states if s == state)
            for state in TenantState.ALL
        }
        return ("fleet: %d tenants (%d nominal, %d degraded, %d evicted), "
                "restarts=%d shed=%d partitions=%d" % (
                    len(self.outcomes), counts[TenantState.NOMINAL],
                    counts[TenantState.DEGRADED], counts[TenantState.EVICTED],
                    self.total_restarts, self.total_shed,
                    sum(o.transport_partitions for o in self.outcomes)))

    def render(self) -> str:
        """Operator view: the per-tenant table plus recurring rows."""
        lines = [self.summary(), "", "%-24s %-18s %-9s %8s %6s %10s %6s" % (
            "tenant", "workload", "state", "restarts", "shed",
            "partitions", "lines")]
        for outcome in self.outcomes:
            lines.append("%-24s %-18s %-9s %8d %6d %10d %6d" % (
                outcome.tenant, outcome.workload, outcome.state,
                outcome.restarts, outcome.records_shed,
                outcome.transport_partitions, len(outcome.signature)))
        recurring = self.recurring()
        if recurring:
            lines.append("")
            lines.append("recurring contention (shared by >=2 tenants):")
            for (location, verdict), tenants in sorted(recurring.items()):
                lines.append("  %-40s %-3s %s" % (
                    location, verdict, ", ".join(tenants)))
        return "\n".join(lines)

    def __repr__(self):
        return "<FleetHealth %s>" % self.summary()
