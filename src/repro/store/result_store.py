"""Persistent, content-addressed store for :class:`AlgorithmResult` objects.

:class:`ResultStore` is the durability layer under
:class:`repro.runtime.BatchRunner`: every successful task result is written
to a single SQLite file (WAL mode) keyed by
:meth:`repro.runtime.BatchTask.cache_key`, so a grid re-run in a *fresh
process* — or on another process sharing the file — streams its results
straight from disk instead of recomputing minutes of MILP/PTAS work.

Alongside the pickled result, each row records run metadata (algorithm
name, machine-environment tag, instance dimensions, wall time, payload
size, creation time).  The metadata serves two purposes:

* inspection — ``python -m repro.store stats`` aggregates it without
  unpickling a single payload;
* cost modelling — :class:`repro.store.cost_model.CostModel` fits
  per-algorithm runtime predictors from the recorded wall times.

Nothing is evicted: the store grows until it is cleared or deleted, and
a read never writes (a hit costs one SELECT).

The store is self-healing: a corrupted file or an old on-disk schema is
rebuilt empty rather than crashing the runner (losing a cache is cheap;
refusing to serve is not).  Rows are also stamped with the package
version that produced them and rows from *another* version are purged on
open: a task's cache key hashes the inputs, not the code, so without the
purge a persisted store would keep serving results computed by old
algorithm implementations after an upgrade.  Consequently: **bump
``repro._version`` in any change that alters algorithm outputs.**
"""

from __future__ import annotations

import json
import os
import pickle
import sqlite3
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, Optional, Sequence, Union

from repro._version import __version__ as _REPRO_VERSION

if TYPE_CHECKING:  # imported lazily at runtime to keep the package cheap
    from repro.algorithms.base import AlgorithmResult
    from repro.runtime.runner import BatchTask

__all__ = ["ResultStore", "StoreRecord", "SCHEMA_VERSION"]

#: Bump when the row layout or the pickle payload contract changes; stores
#: written under another version are rebuilt empty on open.  Version 3
#: dropped the per-row access time that fed LRU eviction.
SCHEMA_VERSION = 3

#: SQLite caps host parameters per statement (999 on older builds); bulk
#: SELECTs are chunked below this.
_MAX_SQL_PARAMS = 500

_SCHEMA = """
CREATE TABLE IF NOT EXISTS store_meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS results (
    key           TEXT PRIMARY KEY,
    repro_version TEXT NOT NULL,
    algorithm     TEXT NOT NULL,
    environment   TEXT NOT NULL,
    num_jobs      INTEGER NOT NULL,
    num_machines  INTEGER NOT NULL,
    num_classes   INTEGER NOT NULL,
    wall_seconds  REAL NOT NULL,
    payload       BLOB NOT NULL,
    payload_bytes INTEGER NOT NULL,
    created_at    REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_results_algorithm ON results (algorithm);
"""


@dataclass(frozen=True)
class StoreRecord:
    """Run metadata of one stored result (payload excluded)."""

    key: str
    algorithm: str
    environment: str
    num_jobs: int
    num_machines: int
    num_classes: int
    wall_seconds: float
    payload_bytes: int
    created_at: float


#: Seconds a connection waits on another process's (or thread's) lock.
BUSY_TIMEOUT_S = 30.0


def is_busy(exc: sqlite3.Error) -> bool:
    """Whether ``exc`` is lock contention rather than a broken file."""
    code = getattr(exc, "sqlite_errorcode", None)
    return code is not None and code & 0xFF in (sqlite3.SQLITE_BUSY,
                                                sqlite3.SQLITE_LOCKED)


def connect_wal(path: Union[str, Path]) -> sqlite3.Connection:
    """Open ``path`` in WAL mode, waiting out concurrent openers.

    SQLite answers ``PRAGMA journal_mode=WAL`` with "database is locked"
    at once, without calling the busy handler, while another connection
    is switching the same fresh file to WAL.  Two connections opening a new
    store together (a submitter and a worker) hit that race, so the
    switch is retried for up to :data:`BUSY_TIMEOUT_S`.
    """
    conn = sqlite3.connect(str(path), timeout=BUSY_TIMEOUT_S)
    deadline = time.monotonic() + BUSY_TIMEOUT_S
    while True:
        try:
            conn.execute("PRAGMA journal_mode=WAL")
            break
        except sqlite3.OperationalError as exc:
            if not is_busy(exc) or time.monotonic() > deadline:
                conn.close()
                raise
            time.sleep(0.01)
    conn.execute("PRAGMA synchronous=NORMAL")
    return conn


class ResultStore:
    """Content-addressed, on-disk result store (single SQLite file, WAL).

    Parameters
    ----------
    path:
        The SQLite file; parent directories are created.  The conventional
        suffix is ``.sqlite`` (ignored by git under ``benchmarks/results/``).

    The store can be used as a context manager; :meth:`close` is otherwise
    the caller's responsibility.  One ``ResultStore`` instance must not be
    shared across processes — open the same *file* from each process
    instead (WAL mode serialises the writers).
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self.stats_counters: Dict[str, int] = {
            "gets": 0, "hits": 0, "puts": 0, "rebuilds": 0,
            "version_purged": 0}
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._conn = self._open_or_rebuild()

    # ------------------------------------------------------------------
    # connection lifecycle
    # ------------------------------------------------------------------
    def _connect(self) -> sqlite3.Connection:
        return connect_wal(self.path)

    def _open_or_rebuild(self) -> sqlite3.Connection:
        """Open the store, rebuilding it empty when unreadable or outdated.

        A store is a cache: any corruption (truncated file, non-SQLite
        bytes, missing tables) or a schema-version mismatch makes the file
        disposable, never an error for the caller.
        """
        conn: Optional[sqlite3.Connection] = None
        try:
            conn = self._connect()
            conn.executescript(_SCHEMA)
            row = conn.execute(
                "SELECT value FROM store_meta WHERE key = 'schema_version'").fetchone()
            if row is None:
                # OR IGNORE: a concurrent opener of the same fresh file
                # may have stamped it between the SELECT and here.
                conn.execute(
                    "INSERT OR IGNORE INTO store_meta (key, value)"
                    " VALUES ('schema_version', ?)",
                    (str(SCHEMA_VERSION),))
                conn.commit()
                return conn
            if int(row[0]) == SCHEMA_VERSION:
                # The purge doubles as a column-level sanity probe: a file
                # whose meta claims the right version but whose table lost
                # (or never had) the expected columns raises here and falls
                # through to the rebuild.
                self._purge_other_versions(conn)
                return conn
            conn.close()
        except (sqlite3.Error, ValueError) as exc:
            # A lock held past the busy timeout is contention, not damage:
            # rebuilding would unlink a file other connections are using.
            if isinstance(exc, sqlite3.Error) and is_busy(exc):
                if conn is not None:
                    conn.close()
                raise
            # Close before unlinking: a still-open handle would leak (and on
            # Windows block the unlink, making the rebuild re-open the same
            # corrupt file and fail the constructor).
            if conn is not None:
                try:
                    conn.close()
                except sqlite3.Error:
                    pass
        # Unreadable or wrong version: start over.
        self.stats_counters["rebuilds"] += 1
        self._remove_files()
        conn = self._connect()
        conn.executescript(_SCHEMA)
        conn.execute(
            "INSERT INTO store_meta (key, value) VALUES ('schema_version', ?)",
            (str(SCHEMA_VERSION),))
        conn.commit()
        return conn

    def _purge_other_versions(self, conn: sqlite3.Connection) -> None:
        """Drop rows written by a different package version.

        Cache keys hash the task *inputs*, not the code: results persisted
        by an older ``repro`` would otherwise keep serving after the
        algorithms changed.  (Changes that alter outputs must bump
        ``repro._version``.)
        """
        with conn:
            cur = conn.execute(
                "DELETE FROM results WHERE repro_version != ?", (_REPRO_VERSION,))
        self.stats_counters["version_purged"] += cur.rowcount

    def _remove_files(self) -> None:
        for suffix in ("", "-wal", "-shm"):
            try:
                os.unlink(f"{self.path}{suffix}")
            except OSError:
                pass

    def close(self) -> None:
        """Close the underlying connection (idempotent)."""
        if self._conn is not None:
            self._conn.close()
            self._conn = None  # type: ignore[assignment]

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # core API
    # ------------------------------------------------------------------
    def put(self, task: "BatchTask", result: "AlgorithmResult") -> None:
        """Persist ``result`` under ``task.cache_key()``.

        Failure sentinels (``meta["error"]`` / ``meta["timeout"]``) are the
        caller's responsibility to filter; the store persists whatever it is
        given.
        """
        key = task.cache_key()
        payload = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        inst = task.instance
        with self._conn:
            self._conn.execute(
                "INSERT OR REPLACE INTO results (key, repro_version, algorithm,"
                " environment, num_jobs, num_machines, num_classes, wall_seconds,"
                " payload, payload_bytes, created_at)"
                " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (key, _REPRO_VERSION, task.algorithm,
                 inst.environment.value, inst.num_jobs, inst.num_machines,
                 inst.num_classes, float(result.runtime_seconds), payload,
                 len(payload), time.time()))
        self.stats_counters["puts"] += 1

    def get(self, task_or_key: Union["BatchTask", str]) -> Optional["AlgorithmResult"]:
        """Fetch one result, or ``None`` on a miss (or unreadable payload).

        Given a task, the result's schedule is bound to ``task.instance``
        (see :meth:`prefetch`).
        """
        key = self._as_key(task_or_key)
        self.stats_counters["gets"] += 1
        try:
            row = self._conn.execute(
                "SELECT payload FROM results WHERE key = ?", (key,)).fetchone()
        except sqlite3.Error:
            return None
        if row is None:
            return None
        result = self._unpickle(key, row[0])
        if result is not None:
            self.stats_counters["hits"] += 1
            if not isinstance(task_or_key, str):
                result.schedule.instance = task_or_key.instance
        return result

    def contains(self, task_or_key: Union["BatchTask", str]) -> bool:
        """Whether a result is stored under this key (payload not validated)."""
        key = self._as_key(task_or_key)
        row = self._conn.execute(
            "SELECT 1 FROM results WHERE key = ?", (key,)).fetchone()
        return row is not None

    def prefetch(self, tasks: Sequence["BatchTask"]
                 ) -> Dict[str, "AlgorithmResult"]:
        """Bulk-fetch every stored result for ``tasks`` in one pass.

        Returns ``{cache_key: result}`` for the warm subset.  One chunked
        SELECT replaces ``len(tasks)`` point lookups, which matters when a
        sweep re-submits a multi-thousand-task grid.

        Each result's schedule is bound to the caller's ``task.instance``
        instead of the copy unpickled with it.  The key includes the
        instance fingerprint, so the two are equal, and a caller caching
        many results holds each instance once.
        """
        keys = [task.cache_key() for task in tasks]
        instances = dict(zip(keys, (task.instance for task in tasks)))
        out: Dict[str, "AlgorithmResult"] = {}
        for lo in range(0, len(keys), _MAX_SQL_PARAMS):
            chunk = keys[lo:lo + _MAX_SQL_PARAMS]
            placeholders = ",".join("?" * len(chunk))
            try:
                rows = self._conn.execute(
                    f"SELECT key, payload FROM results WHERE key IN ({placeholders})",
                    chunk).fetchall()
            except sqlite3.Error:
                continue
            for key, payload in rows:
                result = self._unpickle(key, payload)
                if result is not None:
                    result.schedule.instance = instances[key]
                    out[key] = result
        self.stats_counters["gets"] += len(keys)
        self.stats_counters["hits"] += len(out)
        return out

    def _unpickle(self, key: str, payload: bytes) -> Optional["AlgorithmResult"]:
        """Decode a payload; drop the row (stale pickle) when it fails."""
        try:
            return pickle.loads(payload)
        except Exception:
            with self._conn:
                self._conn.execute("DELETE FROM results WHERE key = ?", (key,))
            return None

    def _as_key(self, task_or_key: Union["BatchTask", str]) -> str:
        if isinstance(task_or_key, str):
            return task_or_key
        return task_or_key.cache_key()

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def vacuum(self) -> None:
        """Reclaim file space via ``VACUUM``."""
        self._conn.execute("VACUUM")

    def clear(self) -> None:
        """Drop every stored result (schema and file kept)."""
        with self._conn:
            self._conn.execute("DELETE FROM results")

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        row = self._conn.execute("SELECT COUNT(*) FROM results").fetchone()
        return int(row[0])

    def _total_bytes(self) -> int:
        row = self._conn.execute(
            "SELECT COALESCE(SUM(payload_bytes), 0) FROM results").fetchone()
        return int(row[0])

    def records(self, algorithm: Optional[str] = None) -> Iterator[StoreRecord]:
        """Iterate run metadata (no payloads), optionally for one algorithm.

        This is the cost model's training-set query: deterministic order
        (key ASC) so repeated fits see identical data.
        """
        sql = ("SELECT key, algorithm, environment, num_jobs, num_machines,"
               " num_classes, wall_seconds, payload_bytes, created_at"
               " FROM results")
        params: tuple = ()
        if algorithm is not None:
            sql += " WHERE algorithm = ?"
            params = (algorithm,)
        sql += " ORDER BY key ASC"
        for row in self._conn.execute(sql, params):
            yield StoreRecord(*row)

    def stats(self) -> Dict[str, object]:
        """Aggregate store statistics (cheap: metadata only)."""
        per_algorithm: Dict[str, Dict[str, float]] = {}
        for (algorithm, count, total_bytes, total_wall) in self._conn.execute(
                "SELECT algorithm, COUNT(*), SUM(payload_bytes), SUM(wall_seconds)"
                " FROM results GROUP BY algorithm ORDER BY algorithm"):
            per_algorithm[algorithm] = {
                "entries": int(count),
                "payload_bytes": int(total_bytes),
                "recorded_wall_seconds": float(total_wall),
            }
        return {
            "path": str(self.path),
            "schema_version": SCHEMA_VERSION,
            "repro_version": _REPRO_VERSION,
            "entries": len(self),
            "total_payload_bytes": self._total_bytes(),
            "per_algorithm": per_algorithm,
            "session": dict(self.stats_counters),
        }

    def export(self, records: Optional[Iterable[StoreRecord]] = None) -> str:
        """Render run metadata as JSON lines (one record per line)."""
        lines = []
        for record in (self.records() if records is None else records):
            lines.append(json.dumps({
                "key": record.key,
                "algorithm": record.algorithm,
                "environment": record.environment,
                "n": record.num_jobs,
                "m": record.num_machines,
                "K": record.num_classes,
                "wall_seconds": record.wall_seconds,
                "payload_bytes": record.payload_bytes,
                "created_at": record.created_at,
            }, sort_keys=True))
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ResultStore({str(self.path)!r}, entries={len(self)}, "
                f"bytes={self._total_bytes()})")
