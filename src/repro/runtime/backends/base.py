"""The execution-backend protocol and shared worker-side helpers.

:class:`ExecutionBackend` is the seam between *orchestration* and
*execution*: :class:`~repro.runtime.runner.BatchRunner` owns everything
about a batch that is independent of where the work runs (cache and store
lookup, cost-model ordering, streaming merge, result finalisation and
stats), and delegates the cold remainder to a backend whose single job is

    ``submit(tasks) -> iterator of (local_index, result)``

yielding one :class:`~repro.algorithms.base.AlgorithmResult` per submitted
task, in whatever order they finish.  Three implementations ship:

* :class:`~repro.runtime.backends.serial.SerialBackend` — in-process, zero
  pool overhead;
* :class:`~repro.runtime.backends.pool.PoolBackend` — chunked
  ``concurrent.futures`` process pool with wave-based timeouts and
  worker-death recovery;
* :class:`~repro.runtime.backends.queue.QueueBackend` — a distributed
  SQLite work queue drained by any number of worker processes
  (``python -m repro.runtime.worker``) sharing one store file.

The module-level functions below are the *worker-side* execution core.
They must stay module-level and self-contained: the pool backend ships
them to child processes by pickled reference, and the queue worker imports
them in a separate process.
"""

from __future__ import annotations

import traceback
from typing import (TYPE_CHECKING, Callable, Dict, Iterator, List, Sequence,
                    Tuple)

from repro.core.instance import Instance
from repro.runtime.registry import get_algorithm

if TYPE_CHECKING:
    from repro.algorithms.base import AlgorithmResult
    from repro.runtime.runner import BatchRunner, BatchTask

__all__ = ["ExecutionBackend", "run_one", "run_chunk", "map_chunk",
           "resolve_chunk_size"]


# ---------------------------------------------------------------------------
# worker-side execution (must stay module-level: shipped to pool workers)
# ---------------------------------------------------------------------------
def run_one(algorithm: str, instance: Instance,
            kwargs: Dict[str, object]) -> Tuple[str, object]:
    """Run one task, capturing any exception instead of raising.

    Returns ``("ok", result)`` or ``("error", (message, traceback_text))``
    — a failing task must never take a batch, a pool, or a queue worker
    down with it.
    """
    try:
        result = get_algorithm(algorithm).run(instance, **kwargs)
        return ("ok", result)
    except Exception as exc:  # capture, never kill the batch
        return ("error", (f"{type(exc).__name__}: {exc}", traceback.format_exc()))


def run_chunk(payload: List[Tuple[str, Instance, Dict[str, object]]]
              ) -> List[Tuple[str, object]]:
    """Run a chunk of tasks in one worker invocation (amortises pickling)."""
    return [run_one(algorithm, instance, kwargs)
            for algorithm, instance, kwargs in payload]


def map_chunk(func: Callable, items: List[object]) -> List[object]:
    """Apply ``func`` to a chunk of items (``BatchRunner.map``'s worker)."""
    return [func(item) for item in items]


def resolve_chunk_size(num_tasks: int, max_workers: int) -> int:
    """Tasks per pool submission: ``ceil(num_tasks/4·workers)`` capped at 16
    (big enough to amortise pickling, small enough to spread heavy tasks
    across workers)."""
    spread = max(1, -(-num_tasks // (4 * max_workers)))
    return min(16, spread)


class ExecutionBackend:
    """Base class / protocol for pluggable cold-task execution.

    A backend is constructed bound to its :class:`BatchRunner` and reads
    execution policy (worker count, timeout, mp context) from
    it, reporting outcomes through the runner's ``_finalise`` /
    ``_sentinel`` helpers so error/timeout accounting lives in exactly one
    place regardless of where the work ran.

    Subclasses implement :meth:`submit`.  The contract:

    * every submitted task yields exactly one ``(local_index, result)``
      pair, in completion (not submission) order;
    * failures become sentinel results (``meta["error"]`` /
      ``meta["timeout"]``), never exceptions;
    * closing the returned generator early (consumer ``break``) must
      promptly abandon outstanding work — no hanging on stuck tasks, no
      leaked worker processes, no unclaimed queue rows.  The queue
      backend cancels the batch's unclaimed rows; its autoscaled fleet
      outlives the batch and retires once idle past the supervisor's
      grace period, or on :meth:`close`.
    """

    #: Registry name (``BatchRunner(backend="<name>")``).
    name: str = "abstract"

    #: Whether the backend itself writes successful results to the
    #: persistent store (the queue backend does: the store is its result
    #: transport).  The runner skips its own write-through when set, so a
    #: result is never persisted twice.
    persists_results: bool = False

    def __init__(self, runner: "BatchRunner") -> None:
        self.runner = runner

    def submit(self, tasks: Sequence["BatchTask"]
               ) -> Iterator[Tuple[int, "AlgorithmResult"]]:
        """Execute ``tasks``, yielding ``(index into tasks, result)``."""
        raise NotImplementedError

    def close(self) -> None:
        """Release processes the backend keeps across batches (none here)."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"
