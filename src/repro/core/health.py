"""Run-health accounting: what one run lost, and what it survived.

:class:`RunHealth` is the degradation tally every ``Laser.run_built``
returns.  Each counter is declared exactly once, in :data:`RunHealth
.FIELDS` — a registry of :class:`HealthField` specs — and everything
else derives from it: ``__slots__``, ``as_dict``, ``__eq__``, the
``degraded`` predicate and both summaries.  A counter added to the
registry therefore *cannot* be silently omitted from equality or
serialization (the drift that previously had to be guarded by hand
whenever a PR added fields).
"""

from typing import Dict, Tuple

__all__ = ["HealthField", "RunHealth"]


class HealthField:
    """One :class:`RunHealth` counter: name plus its interpretation.

    ``info`` marks fields that are reported but are *not* degradation:
    a repair *rejection* is the healthy path (Section 5.4); undecodable
    PCs are expected PEBS skid noise (most wrong PCs are not memory
    ops); records pending at application exit are drained into the
    final report, not lost; checkpoints are *written* on every healthy
    run (recovery insurance, not degradation) — restoring one, or
    finding one corrupt, is what counts.
    """

    __slots__ = ("name", "info")

    def __init__(self, name: str, info: bool = False):
        self.name = name
        self.info = info

    def __repr__(self):
        return "<HealthField %s%s>" % (self.name, " info" if self.info else "")


class RunHealth:
    """Degradation tally for one run: what was lost, what was survived.

    All-zero counters mean the run was pristine — the graceful-
    degradation machinery observed nothing and changed nothing.
    """

    #: The single source of truth.  Every derived view below iterates
    #: this registry; adding a counter here is the whole change.
    FIELDS: Tuple[HealthField, ...] = (
        HealthField("records_dropped"),
        HealthField("records_lost"),
        HealthField("records_corrupted"),
        HealthField("detector_stalls"),
        HealthField("detector_restarts"),
        HealthField("repair_rejections", info=True),
        HealthField("repair_verifier_rejections"),
        HealthField("repair_errors"),
        HealthField("rollbacks"),
        HealthField("htm_aborts"),
        HealthField("injected_htm_aborts"),
        HealthField("ssb_fallback_activations"),
        HealthField("faults_injected"),
        HealthField("undecodable_pcs", info=True),
        HealthField("records_pending_at_exit", info=True),
        # Crash recovery (``repro.resilience``).
        HealthField("detector_crashes"),
        HealthField("detector_crash_restarts"),
        HealthField("driver_crashes"),
        HealthField("driver_crash_restarts"),
        HealthField("breaker_trips"),
        HealthField("records_replayed"),
        HealthField("records_deduped"),
        HealthField("checkpoints_written", info=True),
        HealthField("checkpoints_restored"),
        HealthField("checkpoints_corrupt"),
        # Overload control (``repro.control``).  All stay zero unless
        # the controller actually left NOMINAL: shed records are lost
        # observations, residency above NOMINAL is degraded time, and
        # the knob excursions record how far sampling/cadence strayed
        # from the configured base.
        HealthField("records_shed"),
        HealthField("control_mode_changes"),
        HealthField("control_throttled_windows"),
        HealthField("control_shedding_windows"),
        HealthField("control_passthrough_windows"),
        HealthField("control_sav_max_excess"),
        HealthField("control_poll_max_excess"),
        HealthField("control_stuck_intervals"),
        # Static race certification (``repro.static.race``).  Info
        # field: a quarantined repair is the gate *working* (refusing
        # to mask a certified race).
        HealthField("repairs_quarantined", info=True),
        # Observability (``repro.obs``).  Info: trace events evicted
        # from the tracer's ring buffer are a capacity-sizing signal,
        # not a run degradation — the run behaves identically with or
        # without the tracer.
        HealthField("trace_events_dropped", info=True),
        # Fleet transport (``repro.fleet``).  Both stay zero on every
        # single-run path (no transport attached): a partitioned poll
        # is degraded time for that tenant's shard, while delayed
        # records are delivered late — not lost — when the link heals.
        HealthField("transport_partitions"),
        HealthField("transport_records_delayed", info=True),
    )
    #: Derived views (kept as the historical class-attribute names —
    #: they are part of the public surface; tests and harnesses iterate
    #: them).  Neither is ever written by hand again.
    _FIELDS = tuple(field.name for field in FIELDS)
    _INFO_FIELDS = frozenset(field.name for field in FIELDS if field.info)
    #: Which simulator engine served the run (``repro.accel``), as the
    #: resolved string "trace" or "interp".  It is provenance, not a
    #: degradation counter: it lives outside the FIELDS registry so
    #: ``as_dict``/``__eq__``/``degraded`` — and the golden health pins
    #: built on them — are engine-invariant, exactly like the outputs
    #: they certify.
    _ENGINE_SLOTS = ("sim_engine",)
    __slots__ = _FIELDS + _ENGINE_SLOTS

    def __init__(self, **counts: int):
        for field in self._FIELDS:
            setattr(self, field, counts.pop(field, 0))
        for slot in self._ENGINE_SLOTS:
            setattr(self, slot, counts.pop(slot, ""))
        if counts:
            raise TypeError("unknown RunHealth fields: %s" % sorted(counts))

    @property
    def degraded(self) -> bool:
        """True if anything was lost, restarted, rolled back or faulted.

        Fields marked ``info`` in the registry are reported but not
        counted here (see :class:`HealthField`).  A *verifier*
        rejection is different from a profitability rejection: the
        rewriter produced code the static TSO/SSB checker could not
        prove safe, so ``repair_verifier_rejections`` does count.
        """
        return any(
            getattr(self, field.name)
            for field in self.FIELDS
            if not field.info
        )

    def as_dict(self) -> Dict[str, int]:
        return {field: getattr(self, field) for field in self._FIELDS}

    def recovery_summary(self) -> str:
        """One line of crash-recovery accounting (quickstart prints it)."""
        return (
            "recovery: restarts detector=%d driver=%d breaker_trips=%d "
            "replayed=%d deduped=%d checkpoints=%d/%d/%d (written/restored/corrupt)"
            % (
                self.detector_crash_restarts,
                self.driver_crash_restarts,
                self.breaker_trips,
                self.records_replayed,
                self.records_deduped,
                self.checkpoints_written,
                self.checkpoints_restored,
                self.checkpoints_corrupt,
            )
        )

    def summary(self) -> str:
        """One line for operators (quickstart prints this)."""
        if not self.degraded:
            info = [
                "%s=%d" % (field.name, getattr(self, field.name))
                for field in self.FIELDS
                if field.info and getattr(self, field.name)
            ]
            base = "healthy (no drops, stalls, rollbacks or faults)"
            return base + (" [info: %s]" % " ".join(info) if info else "")
        parts = [
            "%s=%d" % (field, getattr(self, field))
            for field in self._FIELDS
            if getattr(self, field)
        ]
        return "degraded: " + " ".join(parts)

    def __eq__(self, other):
        return isinstance(other, RunHealth) and self.as_dict() == other.as_dict()

    def __repr__(self):
        return "<RunHealth %s>" % self.summary()
