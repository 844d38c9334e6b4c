"""Pluggable execution backends for :class:`repro.runtime.BatchRunner`.

The runner owns orchestration (cache/store lookup, cost ordering,
streaming merge, finalisation); a backend owns *where cold tasks run*:

========  ==================================================================
name      execution
========  ==================================================================
serial    in-process, one task at a time (zero pool overhead)
pool      ``concurrent.futures`` process pool: chunks, timeout waves and
          crash retries in one dispatch pass
queue     distributed SQLite work queue shared with ``repro.runtime.worker``
          processes (requires a persistent store)
========  ==================================================================

Select one with ``BatchRunner(backend="pool")``, through
``Session(backend=...)``, or fleet-wide with the ``REPRO_BACKEND``
environment variable (read by :class:`repro.api.SessionConfig`).  The
default (``backend=None`` / ``"auto"``) is a process pool iff the runner's
``max_workers > 1``, in-process execution otherwise.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Type, Union

from repro.runtime.backends.base import ExecutionBackend
from repro.runtime.backends.pool import PoolBackend
from repro.runtime.backends.queue import QueueBackend
from repro.runtime.backends.serial import SerialBackend

if TYPE_CHECKING:
    from repro.runtime.runner import BatchRunner

__all__ = ["ExecutionBackend", "SerialBackend", "PoolBackend", "QueueBackend",
           "BACKENDS", "make_backend"]

#: Name -> class registry behind ``BatchRunner(backend="<name>")``.
BACKENDS: Dict[str, Type[ExecutionBackend]] = {
    SerialBackend.name: SerialBackend,
    PoolBackend.name: PoolBackend,
    QueueBackend.name: QueueBackend,
}


def make_backend(spec: Union[None, str, ExecutionBackend],
                 runner: "BatchRunner",
                 options: Optional[dict] = None) -> ExecutionBackend:
    """Resolve a backend spec into a backend bound to ``runner``.

    ``None`` / ``"auto"`` picks :class:`PoolBackend` when the runner has
    more than one worker and :class:`SerialBackend` otherwise; a registry
    name builds that class with ``options`` as constructor kwargs; a ready
    instance is re-bound to ``runner`` and used as-is (``options`` must
    then be empty — the instance already made its choices).
    """
    if isinstance(spec, ExecutionBackend):
        if options:
            raise ValueError("backend options cannot be combined with a "
                             "ready-made backend instance")
        spec.runner = runner
        return spec
    if spec is None or spec == "auto":
        cls: Type[ExecutionBackend] = (PoolBackend if runner.max_workers > 1
                                       else SerialBackend)
        return cls(runner, **(options or {}))
    try:
        cls = BACKENDS[spec]
    except KeyError:
        raise ValueError(f"unknown execution backend {spec!r}; "
                         f"known: {sorted(BACKENDS)}") from None
    return cls(runner, **(options or {}))
