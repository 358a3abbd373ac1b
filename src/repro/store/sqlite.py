"""SQLite backend of the run store.

One file, two tables:

* ``store_meta`` — ``magic`` (identifies the file as a repro run
  store) and ``schema_version`` (see
  :data:`~repro.store.base.STORE_SCHEMA_VERSION`); a database missing
  the marker, or stamped with a different version, is rejected on open
  with a clear :class:`~repro.store.base.StoreError` instead of being
  misread.
* ``runs`` — one row per recorded run: provenance columns (kind,
  label, engine, scheduler, seed, quick, replayable, argv), the JSON
  config, the canonical trace BLOB + its SHA-256 fingerprint, and the
  optional observability payloads (span JSONL, metrics snapshot,
  QoS/fleet report, timings).

Concurrency and atomicity come from SQLite itself: every operation
opens a fresh connection (safe across threads *and* forked/spawned
worker processes), every write runs in one transaction (a reader never
observes a half-written run), and a generous busy timeout serializes
concurrent writers on the database lock instead of failing them.
``synchronous=NORMAL`` keeps the post-run insert off the hot path's
critical ~milliseconds without giving up crash consistency of the
journal.
"""

from __future__ import annotations

import json
import os
import sqlite3
from contextlib import closing
from pathlib import Path

from .base import (
    STORE_MAGIC,
    STORE_SCHEMA_VERSION,
    RunRecord,
    RunStore,
    RunSummary,
    StoredRun,
    StoreError,
)

#: How long a writer waits on a locked database before erroring (s).
BUSY_TIMEOUT_S = 30.0

_SCHEMA = """
CREATE TABLE IF NOT EXISTS store_meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS runs (
    run_id      INTEGER PRIMARY KEY AUTOINCREMENT,
    created_at  REAL    NOT NULL,
    kind        TEXT    NOT NULL,
    label       TEXT,
    engine      TEXT,
    scheduler   TEXT,
    seed        INTEGER,
    quick       INTEGER NOT NULL DEFAULT 0,
    replayable  INTEGER NOT NULL DEFAULT 1,
    argv        TEXT    NOT NULL DEFAULT '[]',
    config      TEXT    NOT NULL,
    fingerprint TEXT    NOT NULL,
    trace       BLOB    NOT NULL,
    spans       TEXT,
    metrics     TEXT,
    report      TEXT,
    timings     TEXT    NOT NULL DEFAULT '{}'
);
CREATE INDEX IF NOT EXISTS runs_kind_idx ON runs (kind, created_at);
"""

_COLUMNS = ("created_at", "kind", "label", "engine", "scheduler",
            "seed", "quick", "replayable", "argv", "config",
            "fingerprint", "trace", "spans", "metrics", "report",
            "timings")


def _opt_json(value) -> str | None:
    return None if value is None else json.dumps(value, sort_keys=True)


def _opt_load(text: str | None):
    return None if text is None else json.loads(text)


class SqliteRunStore(RunStore):
    """The sqlite-backed :class:`~repro.store.base.RunStore`."""

    def __init__(self, path: str, *, read_only: bool = False) -> None:
        self.path = str(path)
        #: Read-only stores open sqlite with ``mode=ro``: a missing
        #: file is an error instead of a new store, and nothing is
        #: ever written.
        self.read_only = read_only
        if read_only:
            if not os.path.isfile(self.path):
                raise StoreError(f"no run store at {self.path}")
        else:
            parent = os.path.dirname(self.path)
            if parent:
                os.makedirs(parent, exist_ok=True)
        self._init_schema()

    # -- connection / schema -----------------------------------------------

    def _connect(self) -> sqlite3.Connection:
        if self.read_only:
            uri = f"{Path(self.path).resolve().as_uri()}?mode=ro"
            return sqlite3.connect(uri, uri=True, timeout=BUSY_TIMEOUT_S)
        conn = sqlite3.connect(self.path, timeout=BUSY_TIMEOUT_S)
        conn.execute("PRAGMA synchronous=NORMAL")
        return conn

    def _init_schema(self) -> None:
        try:
            with closing(self._connect()) as conn:
                tables = {
                    row[0] for row in conn.execute(
                        "SELECT name FROM sqlite_master "
                        "WHERE type = 'table'")
                }
                if not tables:
                    if self.read_only:
                        raise StoreError(
                            f"{self.path} is empty, not a run store")
                    with conn:
                        conn.executescript(_SCHEMA)
                        conn.execute(
                            "INSERT OR IGNORE INTO store_meta VALUES "
                            "('magic', ?), ('schema_version', ?)",
                            (STORE_MAGIC, str(STORE_SCHEMA_VERSION)),
                        )
                    return
                self._validate_schema(conn, tables)
        except sqlite3.DatabaseError as exc:
            raise StoreError(
                f"{self.path} is not a readable SQLite database "
                f"(corrupt file or not a run store): {exc}"
            ) from exc

    def _validate_schema(self, conn: sqlite3.Connection,
                         tables: set[str]) -> None:
        if "store_meta" not in tables or "runs" not in tables:
            raise StoreError(
                f"{self.path} is a SQLite database but not a repro "
                "run store (missing store_meta/runs tables); "
                "refusing to touch a foreign database"
            )
        meta = dict(conn.execute(
            "SELECT key, value FROM store_meta"))
        if meta.get("magic") != STORE_MAGIC:
            raise StoreError(
                f"{self.path} carries no '{STORE_MAGIC}' marker; "
                "refusing to touch a foreign database"
            )
        version = int(meta.get("schema_version", -1))
        if version != STORE_SCHEMA_VERSION:
            raise StoreError(
                f"{self.path} uses run-store schema v{version}, this "
                f"build reads v{STORE_SCHEMA_VERSION}; refusing to "
                "mix schema versions"
            )

    # -- RunStore interface ------------------------------------------------

    def record(self, record: RunRecord) -> int:
        record = record.sealed()
        row = (
            record.created_at, record.kind, record.label,
            record.engine, record.scheduler, record.seed,
            int(record.quick), int(record.replayable),
            json.dumps(list(record.argv)),
            json.dumps(record.config, sort_keys=True),
            record.fingerprint, record.trace, record.spans_jsonl,
            _opt_json(record.metrics), _opt_json(record.report),
            json.dumps(record.timings, sort_keys=True),
        )
        placeholders = ", ".join("?" * len(_COLUMNS))
        with closing(self._connect()) as conn:
            with conn:
                cursor = conn.execute(
                    f"INSERT INTO runs ({', '.join(_COLUMNS)}) "
                    f"VALUES ({placeholders})", row)
                return int(cursor.lastrowid)

    def get(self, run_id: int) -> StoredRun:
        with closing(self._connect()) as conn:
            row = conn.execute(
                f"SELECT run_id, {', '.join(_COLUMNS)} FROM runs "
                "WHERE run_id = ?", (run_id,)).fetchone()
        if row is None:
            raise StoreError(f"run {run_id} not found in {self.path}")
        (rid, created_at, kind, label, engine, scheduler, seed, quick,
         replayable, argv, config, fingerprint, trace, spans, metrics,
         report, timings) = row
        return StoredRun(
            run_id=int(rid),
            created_at=created_at,
            kind=kind,
            label=label,
            engine=engine,
            scheduler=scheduler,
            seed=seed,
            quick=bool(quick),
            replayable=bool(replayable),
            argv=tuple(json.loads(argv)),
            config=json.loads(config),
            fingerprint=fingerprint,
            trace=bytes(trace),
            spans_jsonl=spans,
            metrics=_opt_load(metrics),
            report=_opt_load(report),
            timings=json.loads(timings),
        )

    def list(self, *, kind: str | None = None,
             scheduler: str | None = None,
             engine: str | None = None,
             label: str | None = None,
             since: float | None = None,
             limit: int | None = None) -> list[RunSummary]:
        clauses, params = [], []
        for column, value in (("kind", kind), ("scheduler", scheduler),
                              ("engine", engine), ("label", label)):
            if value is not None:
                clauses.append(f"{column} = ?")
                params.append(value)
        if since is not None:
            clauses.append("created_at >= ?")
            params.append(since)
        where = f"WHERE {' AND '.join(clauses)}" if clauses else ""
        tail = f"LIMIT {int(limit)}" if limit is not None else ""
        query = (
            "SELECT run_id, created_at, kind, label, engine, "
            "scheduler, seed, quick, replayable, fingerprint "
            f"FROM runs {where} ORDER BY run_id DESC {tail}"
        )
        with closing(self._connect()) as conn:
            rows = conn.execute(query, params).fetchall()
        return [
            RunSummary(
                run_id=int(rid), created_at=created_at, kind=row_kind,
                label=row_label, engine=row_engine,
                scheduler=row_scheduler, seed=row_seed,
                quick=bool(row_quick), replayable=bool(row_replayable),
                fingerprint=row_fingerprint,
            )
            for (rid, created_at, row_kind, row_label, row_engine,
                 row_scheduler, row_seed, row_quick, row_replayable,
                 row_fingerprint) in rows
        ]

    def close(self) -> None:
        """Connections are per-operation; nothing is held open."""
