"""The canonical keyed runner pool: one :class:`BatchRunner` per tenant.

Each distinct ``(store file, backend)`` pair gets its own runner
(independent cache and stats), while runners keyed on the same store file
share a single :class:`~repro.store.ResultStore` handle (one SQLite
connection, one put counter feeding cost-model auto-refits).

The pool is a plain cache: it reads no environment variables and takes
its key as given.  :class:`repro.api.SessionConfig` resolves
``REPRO_RESULT_STORE`` / ``REPRO_BACKEND`` and passes the values down.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Optional, Tuple, Union

from repro.runtime.runner import BatchRunner
from repro.store import ResultStore

__all__ = ["get_runner", "reset_runner_pool", "shared_store"]

#: Keyed runner pool: one runner per ``(store file, backend)`` pair, every
#: runner on the same store file sharing one :class:`ResultStore` handle.
#: Within a runner, one content-hash cache spans all experiments, so e.g.
#: the LPT baseline measured by E2 for every epsilon is computed once.
_RUNNERS: Dict[Tuple[Optional[str], Optional[str]], BatchRunner] = {}
_SHARED_STORES: Dict[str, ResultStore] = {}


def shared_store(path: Union[str, Path]) -> ResultStore:
    """One ``ResultStore`` handle per store file, shared by every runner
    keyed on it (so their put counters — and hence cost-model auto-refits —
    see each other's writes).  Callers building off-pool runners on the
    same file (``Session``'s budget-carrying scenarios) reuse this handle
    instead of opening — and leaking — their own connection."""
    norm = str(Path(path))
    store = _SHARED_STORES.get(norm)
    if store is None:
        store = ResultStore(norm)
        _SHARED_STORES[norm] = store
    return store


def get_runner(store_path: Union[None, str, Path] = None,
               backend: Optional[str] = None,
               **runner_kwargs: object) -> BatchRunner:
    """The pooled runner for ``(store_path, backend)``.

    ``store_path`` selects a persistent :class:`~repro.store.ResultStore`
    (``None``: in-memory only); ``backend`` selects the execution backend
    (``"serial"``, ``"pool"``, ``"queue"``; ``None``: auto).  Extra
    keyword arguments are forwarded to :class:`BatchRunner` **only when
    this call constructs the runner** — an existing runner for the key is
    returned as-is (a pool entry never reconfigures mid-flight).
    """
    norm = str(Path(store_path)) if store_path is not None else None
    key = (norm, backend)
    runner = _RUNNERS.get(key)
    if runner is None:
        store = shared_store(norm) if norm is not None else None
        runner = BatchRunner(store=store, backend=backend, **runner_kwargs)
        _RUNNERS[key] = runner
    return runner


def reset_runner_pool(*, close_stores: bool = True) -> None:
    """Drop every pooled runner (and close shared store handles).

    A test/embedding hook: production code never needs it — the pool is
    the point.  Each pooled runner's backend is closed, which stops an
    autoscaled queue fleet; runners handed out earlier keep working (a
    queue backend spawns a new fleet on its next batch), they just stop
    being the ones future ``get_runner`` calls return.
    """
    for runner in _RUNNERS.values():
        runner.backend.close()
    if close_stores:
        for store in _SHARED_STORES.values():
            store.close()
    _RUNNERS.clear()
    _SHARED_STORES.clear()
