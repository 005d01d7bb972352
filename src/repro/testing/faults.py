"""Named-site fault injection for crash and degraded-mode testing.

The durability subsystem threads one :class:`FaultInjector` through the
audit journal, the trigger pipeline, trigger firing, and recovery.
Production code calls :meth:`FaultInjector.fire` at each named site; an
unarmed injector (the default :data:`NO_FAULTS`) is a counter-only no-op,
so the hot path pays one attribute load and a dict update.

Two kinds of injected failure are distinguished by exception type:

* :class:`CrashError` derives from ``BaseException`` — it models *process
  death*. Nothing in the engine catches it (error-isolation handlers in
  the pipeline deliberately let it through), so it tears down whatever
  thread it fires on, exactly like a kill signal would.
* Any ``Exception`` subclass (e.g. ``OSError``) models a *component
  failure* the engine is expected to survive according to its
  ``audit_policy`` — retries, dead-lettering, fail-open gaps, or a typed
  ``AuditUnavailableError`` under fail-closed.

A third failure mode is *latency*: :meth:`FaultInjector.arm_latency`
makes a site sleep before returning (or before raising, when combined
with an error), modelling a slow or hung component. The sleep ends at
the deadline of the optional token the caller passes to
:meth:`FaultInjector.fire`, so a "hung" shard holds the statement's
thread only until its fragment deadline.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass


class CrashError(BaseException):
    """Simulated process death at an injected fault site.

    Derives from ``BaseException`` on purpose: the engine's error
    isolation (pipeline retry loops, gap recording) catches ``Exception``
    and must *not* swallow a simulated crash.
    """


#: the named sites instrumented across the engine
FAULT_SITES = (
    "journal-write",     # AuditJournal.append, before bytes reach the file
    "journal-fsync",     # AuditJournal fsync call
    "trigger-action",    # Database._fire_accessed, before actions run
    "pipeline-worker",   # TriggerPipeline worker, after dequeue — kills
    #                      the worker thread without requeueing the batch
    "recovery-replay",   # per-intent during Database.recover (mid-recovery
    #                      crash)
    "shard-scatter",     # coordinator worker, before a shard's read
    #                      fragment runs — slow/erroring/dead shard on
    #                      the scatter path
    "shard-dml",         # coordinator, before a DML statement is handed
    #                      to a shard — write-path shard failure (never
    #                      retried: DML is not idempotent)
    "shard-journal",     # coordinator, before a shard's slice of an
    #                      intent is journaled — per-shard audit-trail
    #                      failure (fail_open gap / fail_closed refusal)
)


@dataclass
class _Plan:
    at_hit: int
    error: BaseException | type[BaseException] | None
    repeat: bool
    delay_s: float = 0.0


class FaultInjector:
    """Arms exceptions to be raised at named sites on chosen hit counts."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._plans: dict[str, _Plan] = {}
        #: site -> number of times the site has been reached
        self.hits: dict[str, int] = {}

    def arm(
        self,
        site: str,
        at_hit: int = 1,
        error: BaseException | type[BaseException] = CrashError,
        repeat: bool = False,
        delay_s: float = 0.0,
    ) -> None:
        """Raise ``error`` the ``at_hit``-th time ``site`` is reached.

        ``repeat=True`` keeps raising on every hit from ``at_hit`` on
        (models a persistently-broken component rather than a one-shot
        crash). ``error`` may be an instance or a class; a class is
        instantiated with a message naming the site and hit.
        ``delay_s`` sleeps before raising (a slow *and* failing
        component).
        """
        if site not in FAULT_SITES:
            raise ValueError(
                f"unknown fault site {site!r}; expected one of {FAULT_SITES}"
            )
        with self._lock:
            self._plans[site] = _Plan(at_hit, error, repeat, delay_s)

    def arm_latency(
        self,
        site: str,
        delay_s: float,
        at_hit: int = 1,
        repeat: bool = False,
    ) -> None:
        """Sleep ``delay_s`` seconds at ``site`` instead of raising.

        Models a slow (``delay_s`` below a deadline) or hung (above it)
        component. A deadline token passed to :meth:`fire` cuts the
        sleep short with :class:`~repro.errors.OperationCancelledError`,
        so a "hang" releases its thread at the deadline.
        """
        if site not in FAULT_SITES:
            raise ValueError(
                f"unknown fault site {site!r}; expected one of {FAULT_SITES}"
            )
        with self._lock:
            self._plans[site] = _Plan(at_hit, None, repeat, delay_s)

    def disarm(self, site: str | None = None) -> None:
        """Remove one site's plan (or all plans); hit counters survive."""
        with self._lock:
            if site is None:
                self._plans.clear()
            else:
                self._plans.pop(site, None)

    def reset(self) -> None:
        with self._lock:
            self._plans.clear()
            self.hits.clear()

    def hit_count(self, site: str) -> int:
        with self._lock:
            return self.hits.get(site, 0)

    def fire(self, site: str, cancel=None) -> None:
        """Record a hit on ``site``; sleep and/or raise if a plan says so.

        ``cancel`` is an optional :class:`~repro.concurrency.
        DeadlineToken`: a latency plan's sleep ends at its deadline with
        :class:`~repro.errors.OperationCancelledError`.
        """
        with self._lock:
            count = self.hits.get(site, 0) + 1
            self.hits[site] = count
            plan = self._plans.get(site)
            if plan is None:
                return
            if count < plan.at_hit:
                return
            if count > plan.at_hit and not plan.repeat:
                return
        if plan.delay_s > 0:
            from repro.concurrency.cancel import interruptible_sleep

            interruptible_sleep(plan.delay_s, cancel)
        error = plan.error
        if error is None:
            return
        if isinstance(error, type):
            raise error(f"injected fault at {site!r} (hit {count})")
        raise error


class _NullInjector(FaultInjector):
    """The always-disarmed injector production databases default to."""

    def arm(self, *args, **kwargs) -> None:  # pragma: no cover - guard
        raise RuntimeError(
            "NO_FAULTS is shared; create a FaultInjector() to arm faults"
        )

    arm_latency = arm

    def fire(self, site: str, cancel=None) -> None:
        return


#: shared no-op injector (never arms, never raises)
NO_FAULTS = _NullInjector()


__all__ = ["FAULT_SITES", "NO_FAULTS", "CrashError", "FaultInjector"]
