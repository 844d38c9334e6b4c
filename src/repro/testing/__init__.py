"""Deterministic fault-injection harness for the distributed runtime.

The queue/worker/supervisor stack is crash-tolerant by design — leases
expire, attempts are capped, crashed workers are excluded from their own
casualties — but none of that is trustworthy until it has been exercised
against *actual* faults on a schedule the test controls.  This package is
that control plane:

* :class:`~repro.testing.clock.FakeClock` — a deterministic stand-in for
  ``time.time`` / ``time.monotonic`` / ``time.sleep``, injectable into
  :class:`~repro.store.task_queue.TaskQueue` (``clock=``) and
  :class:`~repro.runtime.supervisor.SupervisorPolicy` (``clock=``), so
  lease expiry and scaling decisions are tested by *advancing a number*,
  never by sleeping through wall-clock time;
* :mod:`repro.testing.chaos` — a drop-in replacement for the
  ``repro.runtime.worker`` CLI (``python -m repro.testing.chaos``) whose
  :class:`~repro.testing.chaos.ChaosPlan` injects crashes (between tasks
  or mid-lease), stalls, slow-downs, and lease refusals on a
  deterministic schedule, driven by CLI flags (a supervisor arms its
  fleet through ``worker_args``).  The supervisor's fault-recovery story
  (F5, the soak test) runs real fleets of these.

Nothing in here is imported by the production modules — the harness
depends on the runtime, never the reverse.  :mod:`repro.testing.chaos`
is deliberately *not* imported here: ``python -m repro.testing.chaos``
must be able to runpy-execute the module without it already sitting in
``sys.modules`` (import it explicitly where needed).
"""

from repro.testing.clock import FakeClock

__all__ = ["FakeClock"]
