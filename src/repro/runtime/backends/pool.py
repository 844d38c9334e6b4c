"""Process-pool execution backend: one dispatch pass, crash retries on fresh pools."""

from __future__ import annotations

from concurrent.futures import (FIRST_COMPLETED, Future,
                                ProcessPoolExecutor, wait)
from concurrent.futures.process import BrokenProcessPool
from typing import TYPE_CHECKING, Iterable, Iterator, List, Sequence, Tuple

import time

from repro.runtime.backends.base import (ExecutionBackend,
                                         resolve_chunk_size, run_chunk)

if TYPE_CHECKING:
    from repro.algorithms.base import AlgorithmResult
    from repro.runtime.runner import BatchTask

__all__ = ["PoolBackend", "terminate_workers"]


def terminate_workers(pool: ProcessPoolExecutor) -> None:
    """Shut ``pool`` down without waiting and terminate its workers.

    ``cancel_futures`` cannot stop a *running* task, so an abandoned pool
    would otherwise keep a stuck worker alive (and the interpreter's exit
    would wait for it).  The worker table is read before ``shutdown``,
    which clears it; guarded so a CPython-internals change degrades to
    that leak instead of an error.
    """
    processes = list((getattr(pool, "_processes", None) or {}).values())
    pool.shutdown(wait=False, cancel_futures=True)
    for process in processes:
        try:
            process.terminate()
        except Exception:
            pass


def _submit_or_fail(pool: ProcessPoolExecutor, fn, *args) -> Future:
    """``pool.submit``, but a pool already broken by a dead worker yields
    a failed future instead of raising, so a task submitted after a
    sibling's worker died is counted a casualty like the in-flight ones.
    """
    try:
        return pool.submit(fn, *args)
    except BrokenProcessPool as exc:
        failed: Future = Future()
        failed.set_exception(exc)
        return failed


class PoolBackend(ExecutionBackend):
    """``concurrent.futures`` process-pool execution in one dispatch pass.

    :meth:`_pass` dispatches *waves* of :func:`run_chunk` futures:

    * without a runner ``timeout``, one wave holds every task, grouped into
      chunks (see :func:`resolve_chunk_size`) so per-task pickling
      amortises;
    * with a ``timeout``, a wave is ``max_workers`` single-task chunks
      under one deadline, so every task starts its budget when it actually
      starts running; tasks still running at the deadline time out;
    * a stuck or broken wave (a timeout, or a dying worker: OOM kill,
      native-code crash) gets its pool terminated and a fresh pool serves
      the next wave.

    A dying worker breaks the whole pool, failing healthy siblings along
    with the culprit.  :meth:`submit` therefore re-runs the casualties
    together in a second pass (which recovers everything when the death
    was load-induced), then each repeat casualty alone, so a deterministic
    culprit cannot keep poisoning the others; after that it is an error.
    """

    name = "pool"

    def submit(self, tasks: Sequence["BatchTask"]
               ) -> Iterator[Tuple[int, "AlgorithmResult"]]:
        """Pool execution, yielding each result as its chunk completes.

        Results arrive in arbitrary order; the yielded local indices keep
        the caller aligned.  Casualties of a dead worker are withheld until
        their retry settles them, so a streaming consumer still sees
        exactly one result per task.
        """
        died: List[int] = []
        for idx, status, outcome in self._pass(tasks, range(len(tasks))):
            if status == "died":
                died.append(idx)
            else:
                yield idx, self._settle(tasks[idx], status, outcome)
        died_again: List[int] = []
        for idx, status, outcome in self._pass(tasks, sorted(died)):
            if status == "died":
                died_again.append(idx)
            else:
                yield idx, self._settle(tasks[idx], status, outcome)
        for culprit in sorted(died_again):
            for idx, status, outcome in self._pass(tasks, [culprit]):
                yield idx, self._settle(tasks[idx], status, outcome)

    def _settle(self, task: "BatchTask", status: str,
                outcome: object) -> "AlgorithmResult":
        """Turn one ``_pass`` status into a result, counted exactly once."""
        if status == "timeout":
            self.runner.stats["timeouts"] += 1
            return self.runner._sentinel(task, timeout=True)
        return self.runner._finalise(task, status, outcome)

    def _pass(self, tasks: Sequence["BatchTask"], indices: Iterable[int]
              ) -> Iterator[Tuple[int, str, object]]:
        """Run ``tasks[i]`` for each of ``indices`` on a process pool.

        Yields ``(index, status, outcome)`` as results arrive: ``status``
        is :func:`run_one`'s ``"ok"``/``"error"``, ``"timeout"`` (outcome
        ``None``), or ``"died"`` when the task's worker died (outcome is
        an error payload).
        """
        runner = self.runner
        indices = list(indices)
        if not indices:
            return
        timed = runner.timeout is not None
        size = 1 if timed else resolve_chunk_size(runner.chunk_size, len(indices),
                                                  runner.max_workers)
        chunks = [indices[lo:lo + size] for lo in range(0, len(indices), size)]
        step = runner.max_workers if timed else len(chunks)
        waves = [chunks[lo:lo + step] for lo in range(0, len(chunks), step)]
        pool = None
        try:
            for wave in waves:
                if pool is None:
                    pool = ProcessPoolExecutor(max_workers=runner.max_workers,
                                               mp_context=runner._mp_context)
                future_to_chunk = {
                    _submit_or_fail(pool, run_chunk,
                                    [(tasks[i].algorithm, tasks[i].instance,
                                      tasks[i].kwargs_dict()) for i in chunk]): chunk
                    for chunk in wave}
                deadline = time.monotonic() + runner.timeout if timed else None
                pending = set(future_to_chunk)
                broken = False
                while pending:
                    window = deadline - time.monotonic() if timed else None
                    if timed and window <= 0:
                        break
                    done, pending = wait(pending, timeout=window,
                                         return_when=FIRST_COMPLETED)
                    for future in done:
                        chunk = future_to_chunk[future]
                        try:
                            outcomes = future.result()
                        except Exception as exc:  # worker died (OOM kill, segfault, …)
                            broken = True
                            message = f"worker died: {type(exc).__name__}: {exc}"
                            outcomes = [("died", (message, None))] * len(chunk)
                        for idx, (status, outcome) in zip(chunk, outcomes):
                            yield idx, status, outcome
                for future in pending:  # still running at the deadline
                    for idx in future_to_chunk[future]:
                        yield idx, "timeout", None
                if pending or broken:  # stuck or broken: the next wave gets a fresh pool
                    terminate_workers(pool)
                    pool = None
        finally:
            # Also reached when the consumer closes the stream early; a
            # barrier-style shutdown would block on the remaining work.
            if pool is not None:
                terminate_workers(pool)
