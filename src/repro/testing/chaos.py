"""Chaos worker: a queue drain loop that injects faults on schedule.

::

    python -m repro.testing.chaos --store PATH [--worker-id ID]
        [--crash-after N] [--crash-mid-task] [--crash-exit-code C]
        [--stall-s S] [--slow-s S] [--refuse-leases N]
        [--lease-s S] [--poll-s S] [--idle-exit S] [--max-tasks N]

A drop-in replacement for ``python -m repro.runtime.worker`` that behaves
exactly like a healthy worker *until its* :class:`ChaosPlan` *says
otherwise*.  Because the faults fire on deterministic counters (leases
processed, polls seen) rather than timers or randomness, a test that
arms, say, ``--crash-after 3`` knows precisely which lease the crash
lands on — the fault schedule is part of the test's arrange step, not a
flakiness source.

Fault repertoire
----------------

``crash_after=N``
    ``os._exit`` with ``crash_exit_code`` after *completing* N leases —
    the worker dies **between** tasks, holding no lease.  This is the
    restart-pressure fault: it exercises the supervisor's crash-restart
    path without ever putting exactly-once compute at risk.
``crash_mid_task`` (modifies ``crash_after``)
    Die right **after leasing** the (N+1)-th task, before computing it —
    the OOM-kill shape.  The abandoned lease must expire, be reclaimed
    with this worker excluded, and land on someone else's desk.
``stall_s=S``
    Hold the first lease for S seconds before computing (a worker that
    leased and then hung).  With ``stall_s > lease_s`` the lease expires
    under a live-but-stuck worker.
``slow_s=S``
    Sleep S before *every* compute — a uniformly slow machine, for
    budget-enforcement tests.
``refuse_leases=N``
    Spend the first N polls idling without leasing — a worker that joins
    the fleet but initially contributes nothing (supervisor scaling must
    not count on instant uptake).

The schedule comes from the flags alone; a supervisor-spawned fleet is
armed through ``Supervisor(worker_args=[...])``.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import dataclass, fields
from typing import Callable, List, Optional

from repro.runtime.backends.queue import _WORKER_STATS_KEYS, process_lease
from repro.store import ResultStore, TaskQueue

__all__ = ["ChaosPlan", "chaos_drain", "main"]


@dataclass(frozen=True)
class ChaosPlan:
    """A deterministic fault schedule for one chaos-worker incarnation."""

    crash_after: Optional[int] = None
    crash_mid_task: bool = False
    crash_exit_code: int = 9
    stall_s: float = 0.0
    slow_s: float = 0.0
    refuse_leases: int = 0


def chaos_drain(store: ResultStore, queue: TaskQueue, worker_id: str,
                plan: ChaosPlan, *, poll_s: float = 0.05,
                idle_exit: Optional[float] = 10.0,
                max_tasks: Optional[int] = None,
                sleep: Callable[[float], None] = time.sleep) -> dict:
    """The worker drain loop with ``plan``'s faults injected.

    Semantically identical to :func:`repro.runtime.worker.drain` (same
    :func:`~repro.runtime.backends.queue.process_lease` core, same budget
    enforcement, same stats dict) until a fault fires.  Crashes leave the
    process via ``os._exit`` — no cleanup, no flushed buffers — because
    that is exactly what the lease protocol claims to survive.

    ``sleep`` is injectable so plan *mechanics* (stalls, refusals) can be
    unit-tested against a :class:`~repro.testing.clock.FakeClock` without
    real subprocesses or wall-clock waits.
    """
    stats = dict.fromkeys(_WORKER_STATS_KEYS, 0)
    processed = 0
    refusals_left = max(0, plan.refuse_leases)
    stalled = False
    idle_for = 0.0
    while True:
        queue.reclaim_expired()
        if refusals_left > 0:
            refusals_left -= 1
            sleep(poll_s)
            continue
        leased = queue.lease(worker_id)
        if leased is None:
            if idle_exit is not None and idle_for >= idle_exit:
                return stats
            sleep(poll_s)
            idle_for += poll_s
            continue
        idle_for = 0.0
        if (plan.crash_after is not None and plan.crash_mid_task
                and processed >= plan.crash_after):
            # Die holding the lease — the OOM-kill shape.  The row stays
            # 'leased' until expiry; reclaim must exclude this worker.
            os._exit(plan.crash_exit_code)
        if plan.stall_s > 0 and not stalled:
            stalled = True
            sleep(plan.stall_s)
        if plan.slow_s > 0:
            sleep(plan.slow_s)
        outcome, payload, _elapsed = process_lease(store, queue, leased,
                                                   worker_id)
        stats[outcome] += 1
        if outcome == "computed" and payload.meta.get("over_budget"):
            stats["overtime"] += 1
        processed += 1
        if (plan.crash_after is not None and not plan.crash_mid_task
                and processed >= plan.crash_after):
            # Die *between* tasks: no lease held, exactly-once unharmed —
            # pure restart pressure for the supervisor.
            os._exit(plan.crash_exit_code)
        if max_tasks is not None and processed >= max_tasks:
            return stats


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.testing.chaos",
        description="A queue worker that injects faults on a deterministic "
                    "schedule (testing only).")
    parser.add_argument("--store", required=True,
                        help="path to the shared SQLite store file")
    parser.add_argument("--worker-id", default=None,
                        help="queue identity (default: chaos-<pid>)")
    parser.add_argument("--lease-s", type=float, default=60.0,
                        help="lease duration in seconds (default: 60)")
    parser.add_argument("--poll-s", type=float, default=0.05,
                        help="sleep between idle polls (default: 0.05)")
    parser.add_argument("--idle-exit", type=float, default=10.0,
                        help="exit after this long with nothing claimable")
    parser.add_argument("--max-tasks", type=int, default=None,
                        help="exit after processing this many leases")
    plan = ChaosPlan()
    parser.add_argument("--crash-after", type=int, default=plan.crash_after,
                        help="os._exit after completing N leases")
    parser.add_argument("--crash-mid-task", action="store_true",
                        help="crash holding the (N+1)-th lease instead of "
                             "between tasks")
    parser.add_argument("--crash-exit-code", type=int,
                        default=plan.crash_exit_code,
                        help="exit code of the injected crash (default: 9)")
    parser.add_argument("--stall-s", type=float, default=plan.stall_s,
                        help="hold the first lease this long before computing")
    parser.add_argument("--slow-s", type=float, default=plan.slow_s,
                        help="sleep this long before every compute")
    parser.add_argument("--refuse-leases", type=int,
                        default=plan.refuse_leases,
                        help="idle through the first N polls without leasing")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    plan = ChaosPlan(**{f.name: getattr(args, f.name)
                        for f in fields(ChaosPlan)})
    worker_id = args.worker_id or f"chaos-{os.getpid()}"
    store = ResultStore(args.store)
    queue = TaskQueue(args.store, lease_s=args.lease_s)
    try:
        stats = chaos_drain(store, queue, worker_id, plan,
                            poll_s=args.poll_s, idle_exit=args.idle_exit,
                            max_tasks=args.max_tasks)
    finally:
        queue.close()
        store.close()
    print(f"{worker_id}: computed={stats['computed']} "
          f"deduped={stats['deduped']} failed={stats['failed']} "
          f"overtime={stats['overtime']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
