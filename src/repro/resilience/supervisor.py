"""Component lifecycle supervision.

The supervisor owns the crash/restart state machine for the two
monitoring components (``driver`` and ``detector``):

* components **beat** while healthy (every supervised loop iteration);
* a **crash** marks the component DOWN and consults its
  :class:`~repro.resilience.policy.RetryPolicy` for a restart delay
  (exponential backoff, measured in detector check intervals);
* when the policy's attempt budget is exhausted the **circuit breaker**
  trips: the component is HALTED and the caller is told to degrade
  (detection-only, then passthrough) — supervision never aborts the
  monitored application;
* ``rearm`` hands a halted component a fresh budget after a degrade
  step (the degrade ladder in :mod:`repro.resilience.runtime`).

Every transition emits a ``resil.*`` trace event, so a recovery is a
readable story in the Perfetto export: crash → (backoff) → restart, or
crash → breaker_trip → degrade.
"""

from typing import Dict, Optional

from repro.obs.trace import NULL_TRACER
from repro.resilience.policy import RetryPolicy

__all__ = ["ComponentStatus", "SupervisedComponent", "Supervisor"]


class ComponentStatus:
    """Lifecycle states (plain constants; json-serializable)."""

    RUNNING = "running"
    DOWN = "down"        # crashed, restart pending
    HALTED = "halted"    # circuit breaker tripped


class SupervisedComponent:
    """One supervised component's lifecycle record."""

    __slots__ = ("name", "policy", "status", "last_beat", "restart_at",
                 "crashes", "restarts", "breaker_trips")

    def __init__(self, name: str, policy: RetryPolicy):
        self.name = name
        self.policy = policy
        self.status = ComponentStatus.RUNNING
        self.last_beat = 0
        #: Interval index at which the pending restart fires (DOWN only).
        self.restart_at: Optional[int] = None
        self.crashes = 0
        self.restarts = 0
        self.breaker_trips = 0

    @property
    def running(self) -> bool:
        return self.status == ComponentStatus.RUNNING

    def __repr__(self):
        return "<SupervisedComponent %s %s crashes=%d restarts=%d>" % (
            self.name, self.status, self.crashes, self.restarts,
        )


class Supervisor:
    """Heartbeats, backoff-scheduled restarts and the circuit breaker.

    Time is counted in *detector check intervals* (the granularity at
    which ``Laser.run_built`` services the monitoring pipeline); the
    caller passes the current interval index to every method.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._components: Dict[str, SupervisedComponent] = {}

    def register(self, name: str, policy: RetryPolicy) -> SupervisedComponent:
        if name in self._components:
            raise ValueError("component %r already registered" % name)
        component = SupervisedComponent(name, policy)
        self._components[name] = component
        return component

    def __getitem__(self, name: str) -> SupervisedComponent:
        return self._components[name]

    def __contains__(self, name: str) -> bool:
        return name in self._components

    @property
    def components(self):
        return list(self._components.values())

    # ------------------------------------------------------------------
    # Heartbeats and crashes
    # ------------------------------------------------------------------

    def beat(self, name: str, interval: int) -> None:
        """A healthy liveness signal from a RUNNING component."""
        component = self._components[name]
        if component.running:
            component.last_beat = interval

    def crash(self, name: str, interval: int, cycle: int) -> bool:
        """Component died.  Returns True if a restart was scheduled,
        False if the circuit breaker tripped (component HALTED)."""
        component = self._components[name]
        component.crashes += 1
        if self.tracer.enabled:
            self.tracer.emit("resil.crash", cycle, component=name,
                             interval=interval, crashes=component.crashes)
        delay = component.policy.next_delay()
        if delay is None:
            component.status = ComponentStatus.HALTED
            component.restart_at = None
            component.breaker_trips += 1
            if self.tracer.enabled:
                self.tracer.emit("resil.breaker_trip", cycle, component=name,
                                 attempts=component.policy.attempts)
            return False
        component.status = ComponentStatus.DOWN
        component.restart_at = interval + delay
        if self.tracer.enabled:
            self.tracer.emit("resil.restart_scheduled", cycle, component=name,
                             delay=delay, restart_at=component.restart_at)
        return True

    # ------------------------------------------------------------------
    # Restarts
    # ------------------------------------------------------------------

    def due(self, name: str, interval: int) -> bool:
        """Is a scheduled restart ready to fire at this interval?"""
        component = self._components[name]
        return (component.status == ComponentStatus.DOWN
                and component.restart_at is not None
                and interval >= component.restart_at)

    def restart(self, name: str, interval: int, cycle: int) -> None:
        """Bring a DOWN component back to RUNNING."""
        component = self._components[name]
        component.status = ComponentStatus.RUNNING
        component.restart_at = None
        component.last_beat = interval
        component.restarts += 1
        if self.tracer.enabled:
            self.tracer.emit("resil.restart", cycle, component=name,
                             interval=interval, restarts=component.restarts)

    def rearm(self, name: str, interval: int, cycle: int,
              max_attempts: Optional[int] = None,
              immediate: bool = True) -> None:
        """Fresh budget for a HALTED component (after a degrade step).

        With ``immediate`` the component comes back RUNNING right away —
        the degrade already paid the price; making it serve another
        backoff delay would only lose more records.  A stateful
        component (the detector, whose restart runs the restore path)
        instead passes ``immediate=False``: it is marked DOWN with a
        restart due next interval, so the revival flows through the
        caller's normal ``due``/``restart`` sequence.
        """
        component = self._components[name]
        component.policy.rearm(max_attempts)
        if immediate:
            component.status = ComponentStatus.RUNNING
            component.restart_at = None
            component.last_beat = interval
            component.restarts += 1
        else:
            component.status = ComponentStatus.DOWN
            component.restart_at = interval + 1
        if self.tracer.enabled:
            self.tracer.emit("resil.rearm", cycle, component=name,
                             interval=interval, immediate=immediate)

    def __repr__(self):
        return "<Supervisor %s>" % (
            ", ".join("%s=%s" % (c.name, c.status)
                      for c in self._components.values()) or "empty",
        )
