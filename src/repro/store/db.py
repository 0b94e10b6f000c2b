"""The campaign database: one SQLite file of campaigns, runs and jobs.

DAVOS keeps every injection campaign in one queryable datamanager store;
this is the equivalent for the simulator.  The schema (v3):

``campaigns``
    One row per named corpus of runs -- a service job, an ingested JSONL
    file, or an ad-hoc insert.
``runs``
    One row per campaign run, keyed ``(campaign_id, config_key)``: the
    full :func:`~repro.fault.results.result_to_dict` payload, the run's
    position in the campaign, and the two columns :meth:`campaigns`
    sums (``upsets``, ``total_errors``).  Every other view decodes the
    payload.  Ingest is **idempotent**: re-inserting a run upserts the
    payload and keeps the row's original position, so re-running an
    ingest -- or resuming a crashed job -- never duplicates and never
    reorders.
``events``
    Telemetry trace events (the SEU lifecycles), ``(campaign, run, seq)``
    ordered, payloads verbatim -- folding them back through
    :func:`repro.telemetry.fold_stats` is byte-identical to folding the
    JSONL trace they came from.
``jobs``
    The service's job queue (:mod:`repro.service.jobs`): submitted
    configs, lifecycle state, and progress counts.  Persisted here so a
    restarted server resumes interrupted jobs against the runs already
    stored.

Results read back from the database are bit-for-bit the results that
went in: the payload is the only copy of a run's record.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
import time
from typing import Dict, Iterable, List, Optional, Sequence

from repro.errors import ConfigurationError
from repro.fault.campaign import CampaignConfig, CampaignResult
from repro.fault.results import (
    config_from_dict,
    config_key,
    config_to_dict,
    result_from_dict,
    result_to_dict,
)

#: Bump when the schema changes incompatibly.
SCHEMA_VERSION = 3

_RUNS = """
CREATE TABLE IF NOT EXISTS runs (
    id           INTEGER PRIMARY KEY,
    campaign_id  INTEGER NOT NULL REFERENCES campaigns(id) ON DELETE CASCADE,
    position     INTEGER NOT NULL,
    config_key   TEXT NOT NULL,
    upsets       INTEGER NOT NULL,
    total_errors INTEGER NOT NULL,
    payload      TEXT NOT NULL,
    UNIQUE (campaign_id, config_key)
);
CREATE INDEX IF NOT EXISTS runs_by_position
    ON runs (campaign_id, position);
"""

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS campaigns (
    id         INTEGER PRIMARY KEY,
    name       TEXT NOT NULL UNIQUE,
    source     TEXT NOT NULL DEFAULT '',
    created_at REAL NOT NULL DEFAULT 0.0
);
""" + _RUNS + """
CREATE TABLE IF NOT EXISTS events (
    campaign_id INTEGER NOT NULL REFERENCES campaigns(id) ON DELETE CASCADE,
    run         INTEGER NOT NULL,
    seq         INTEGER NOT NULL,
    ev          TEXT NOT NULL,
    payload     TEXT NOT NULL,
    PRIMARY KEY (campaign_id, run, seq)
);
CREATE TABLE IF NOT EXISTS jobs (
    id           INTEGER PRIMARY KEY,
    name         TEXT NOT NULL,
    state        TEXT NOT NULL,
    campaign_id  INTEGER REFERENCES campaigns(id),
    configs      TEXT NOT NULL,
    options      TEXT NOT NULL DEFAULT '{}',
    total        INTEGER NOT NULL,
    completed    INTEGER NOT NULL DEFAULT 0,
    error        TEXT NOT NULL DEFAULT '',
    submitted_at REAL NOT NULL DEFAULT 0.0
);
"""

#: v1/v2 -> v3 in one transaction.  v2 also held 16 typed result columns,
#: the per-run ``upsets``/``readouts`` tables and the ``runs_by_let``
#: index, none of which any view read; v1 lacks only ``runs.fault_model``,
#: so both rebuild the same way.
_MIGRATE = """
BEGIN;
DROP TABLE IF EXISTS upsets;
DROP TABLE IF EXISTS readouts;
DROP INDEX IF EXISTS runs_by_let;
DROP INDEX IF EXISTS runs_by_position;
ALTER TABLE runs RENAME TO runs_old;
""" + _RUNS + f"""
INSERT INTO runs (id, campaign_id, position, config_key, upsets,
                  total_errors, payload)
    SELECT id, campaign_id, position, config_key, upsets, total_errors,
           payload FROM runs_old;
DROP TABLE runs_old;
UPDATE meta SET value = '{SCHEMA_VERSION}' WHERE key = 'schema_version';
COMMIT;
"""


def _wall_clock() -> float:
    """Submission/creation timestamps -- dashboard bookkeeping only,
    never part of any measured result."""
    return time.time()  # lint: ok=det-time -- service bookkeeping timestamp


class CampaignDatabase:
    """SQLite-backed store of campaigns, runs, lifecycles and jobs.

    Thread-safe: a single connection guarded by one lock serves every
    thread (the HTTP handler pool, the job scheduler, and the CLI), and
    each write method is one transaction.  ``path`` may be ``":memory:"``
    for tests.
    """

    def __init__(self, path: str = ":memory:") -> None:
        self.path = path
        self._lock = threading.RLock()
        self._conn = sqlite3.connect(path, check_same_thread=False)
        self._conn.row_factory = sqlite3.Row
        try:
            with self._lock, self._conn:
                self._conn.execute("PRAGMA foreign_keys = ON")
                if path != ":memory:" and not path.startswith("file:"):
                    self._conn.execute("PRAGMA journal_mode = WAL")
                self._conn.executescript(_SCHEMA)
                row = self._conn.execute(
                    "SELECT value FROM meta WHERE key = 'schema_version'"
                ).fetchone()
                if row is None:
                    self._conn.execute(
                        "INSERT INTO meta (key, value) VALUES (?, ?)",
                        ("schema_version", str(SCHEMA_VERSION)))
                else:
                    self._migrate(path, int(row["value"]))
        except BaseException:
            self._conn.close()  # a refused or failed open owns no connection
            raise

    def _migrate(self, path: str, version: int) -> None:
        """Upgrade a v1 or v2 file to v3 in place (caller holds lock).

        One transaction rebuilds ``runs`` from the kept columns and drops
        the rest, so a failure part-way leaves the old file as it was.
        Payloads are copied verbatim, so results read back bit-for-bit.
        Newer-than-us schemas refuse to open.
        """
        if version == SCHEMA_VERSION:
            return
        if version > SCHEMA_VERSION:
            raise ConfigurationError(
                f"{path}: campaign database schema v{version} "
                f"(this build reads v{SCHEMA_VERSION})")
        if version not in (1, 2):
            raise ConfigurationError(
                f"{path}: no migration path from campaign database "
                f"schema v{version} to v{SCHEMA_VERSION}")
        self._conn.executescript(_MIGRATE)

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    def __enter__(self) -> "CampaignDatabase":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- campaigns ---------------------------------------------------------

    def ensure_campaign(self, name: str, *, source: str = "") -> int:
        """The campaign's id, creating the row on first use."""
        with self._lock, self._conn:
            row = self._conn.execute(
                "SELECT id FROM campaigns WHERE name = ?", (name,)).fetchone()
            if row is not None:
                return int(row["id"])
            cursor = self._conn.execute(
                "INSERT INTO campaigns (name, source, created_at) "
                "VALUES (?, ?, ?)", (name, source, _wall_clock()))
            return int(cursor.lastrowid)

    def campaign_id(self, name_or_id) -> int:
        """Resolve a campaign by exact name, else by numeric id.

        The name wins: ``repro ingest 1.jsonl`` names its campaign ``1``,
        whatever campaign holds id 1.  An ``int`` is always an id.
        """
        label = str(name_or_id)
        with self._lock:
            row = None
            if not isinstance(name_or_id, int):
                row = self._conn.execute(
                    "SELECT id FROM campaigns WHERE name = ?",
                    (label,)).fetchone()
            if row is None and label.isdecimal():
                row = self._conn.execute(
                    "SELECT id FROM campaigns WHERE id = ?",
                    (int(label),)).fetchone()
        if row is None:
            raise ConfigurationError(f"unknown campaign {name_or_id!r}")
        return int(row["id"])

    def campaigns(self) -> List[Dict[str, object]]:
        """Every campaign with its run count, insertion-ordered."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT c.id, c.name, c.source, c.created_at, "
                "       COUNT(r.id) AS runs, "
                "       COALESCE(SUM(r.total_errors), 0) AS total_errors, "
                "       COALESCE(SUM(r.upsets), 0) AS upsets "
                "FROM campaigns c LEFT JOIN runs r ON r.campaign_id = c.id "
                "GROUP BY c.id ORDER BY c.id").fetchall()
        return [dict(row) for row in rows]

    # -- runs --------------------------------------------------------------

    def add_results(self, campaign: int,
                    results: Iterable[CampaignResult]) -> int:
        """Upsert results into the campaign; returns rows written.

        Idempotent by ``(campaign, config_key)``: a re-inserted run
        replaces its payload but keeps its original position, so ingest
        retries and job resumes leave the corpus unchanged.
        """
        with self._lock, self._conn:
            top = self._conn.execute(
                "SELECT COALESCE(MAX(position), -1) FROM runs "
                "WHERE campaign_id = ?", (campaign,)).fetchone()[0]
            rows = [(campaign, top + 1 + index, config_key(result.config),
                     result.upsets, result.counts.get("Total", 0),
                     json.dumps(result_to_dict(result), sort_keys=True))
                    for index, result in enumerate(results)]
            self._conn.executemany(
                "INSERT INTO runs (campaign_id, position, config_key, "
                " upsets, total_errors, payload) VALUES (?, ?, ?, ?, ?, ?) "
                "ON CONFLICT (campaign_id, config_key) DO UPDATE SET "
                " upsets = excluded.upsets, "
                " total_errors = excluded.total_errors, "
                " payload = excluded.payload", rows)
        return len(rows)

    def results(self, campaign: int) -> List[CampaignResult]:
        """Every stored result of the campaign, in insertion order.

        Bit-for-bit the results that were inserted: rows decode through
        :func:`~repro.fault.results.result_from_dict` exactly like a
        JSONL result log.
        """
        with self._lock:
            rows = self._conn.execute(
                "SELECT payload FROM runs WHERE campaign_id = ? "
                "ORDER BY position", (campaign,)).fetchall()
        return [result_from_dict(json.loads(row["payload"])) for row in rows]

    def result_keys(self, campaign: int) -> List[str]:
        """The stored ``config_key`` strings, insertion-ordered."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT config_key FROM runs WHERE campaign_id = ? "
                "ORDER BY position", (campaign,)).fetchall()
        return [row["config_key"] for row in rows]

    def split_pending(
        self, campaign: int, configs: Sequence[CampaignConfig]
    ) -> "tuple[Dict[str, CampaignResult], List[CampaignConfig]]":
        """Partition configs into (already-stored results, still-to-run).

        The database analogue of
        :meth:`repro.fault.results.ResultStore.split_pending`.  It decodes
        every stored payload; a caller that only needs to know which runs
        are stored should match :meth:`result_keys` instead, as the job
        scheduler does.
        """
        stored = {config_key(result.config): result
                  for result in self.results(campaign)}
        done: Dict[str, CampaignResult] = {}
        pending: List[CampaignConfig] = []
        for config in configs:
            key = config_key(config)
            if key in stored:
                done[key] = stored[key]
            else:
                pending.append(config)
        return done, pending

    # -- telemetry events --------------------------------------------------

    def add_run_events(self, campaign: int, run: int,
                       events: Sequence[Dict[str, object]]) -> None:
        """Replace the stored trace of one run (idempotent per run).

        Events are stored with their ``run`` tag normalized to *run* --
        the same framing :class:`repro.telemetry.JsonlTraceSink.write_run`
        applies -- so reading them back reproduces the trace file's
        event stream byte for byte.
        """
        with self._lock, self._conn:
            self._conn.execute(
                "DELETE FROM events WHERE campaign_id = ? AND run = ?",
                (campaign, run))
            rows = []
            for seq, event in enumerate(events):
                tagged = {"run": run}
                tagged.update(event)
                tagged["run"] = run
                rows.append((campaign, run, seq, str(tagged.get("ev", "")),
                             json.dumps(tagged, sort_keys=True)))
            self._conn.executemany(
                "INSERT INTO events (campaign_id, run, seq, ev, payload) "
                "VALUES (?, ?, ?, ?, ?)", rows)

    def events(self, campaign: int) -> List[Dict[str, object]]:
        """The campaign's trace events in (run, seq) order."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT payload FROM events WHERE campaign_id = ? "
                "ORDER BY run, seq", (campaign,)).fetchall()
        return [json.loads(row["payload"]) for row in rows]

    # -- ingest ------------------------------------------------------------

    def ingest_results(self, path: str, *,
                       name: Optional[str] = None) -> "tuple[int, int]":
        """Import a JSONL result log; returns (campaign id, rows written).

        Reads through the crash-tolerant :mod:`repro.store.sources`
        loader (truncated tail lines are skipped, later duplicates win)
        and upserts -- re-ingesting the same file is a no-op.
        """
        from repro.store.sources import load_results

        label = name or os.path.splitext(os.path.basename(path))[0]
        campaign = self.ensure_campaign(label, source=path)
        return campaign, self.add_results(campaign, load_results(path))

    def ingest_trace(self, path: str, *,
                     name: Optional[str] = None) -> "tuple[int, int]":
        """Import a JSONL telemetry trace; returns (campaign id, events).

        Events land in the campaign named after the trace file (or
        *name*), grouped by their ``run`` tags; re-ingesting replaces
        each run's events in place.
        """
        from repro.telemetry import read_trace

        label = name or os.path.splitext(os.path.basename(path))[0]
        campaign = self.ensure_campaign(label, source=path)
        events = read_trace(path)
        by_run: Dict[int, List[Dict[str, object]]] = {}
        for event in events:
            by_run.setdefault(int(event.get("run", 0)), []).append(event)
        total = 0
        for run in sorted(by_run):
            self.add_run_events(campaign, run, by_run[run])
            total += len(by_run[run])
        return campaign, total

    # -- jobs --------------------------------------------------------------

    def create_job(self, configs: Sequence[CampaignConfig], *,
                   name: Optional[str] = None,
                   options: Optional[Dict[str, object]] = None) -> int:
        """Persist a submitted job (state ``queued``); returns its id.

        Without a *name* the job gets ``job-<id>`` and its own campaign;
        a named job appends to the campaign of that name -- submitting
        under one name accumulates a shared corpus across jobs.
        """
        payload = json.dumps([config_to_dict(config) for config in configs])
        with self._lock, self._conn:
            cursor = self._conn.execute(
                "INSERT INTO jobs (name, state, configs, options, total, "
                " submitted_at) VALUES ('', 'queued', ?, ?, ?, ?)",
                (payload, json.dumps(options or {}, sort_keys=True),
                 len(configs), _wall_clock()))
            job_id = int(cursor.lastrowid)
            label = name or f"job-{job_id}"
            campaign = self.ensure_campaign(label, source="job")
            self._conn.execute(
                "UPDATE jobs SET name = ?, campaign_id = ? WHERE id = ?",
                (label, campaign, job_id))
            return job_id

    def job(self, job_id: int) -> Dict[str, object]:
        with self._lock:
            row = self._conn.execute(
                "SELECT * FROM jobs WHERE id = ?", (job_id,)).fetchone()
        if row is None:
            raise ConfigurationError(f"unknown job {job_id}")
        record = dict(row)
        record["options"] = json.loads(record["options"])
        return record

    def job_configs(self, job_id: int) -> List[CampaignConfig]:
        with self._lock:
            row = self._conn.execute(
                "SELECT configs FROM jobs WHERE id = ?",
                (job_id,)).fetchone()
        if row is None:
            raise ConfigurationError(f"unknown job {job_id}")
        return [config_from_dict(payload)
                for payload in json.loads(row["configs"])]

    def jobs(self, states: Optional[Sequence[str]] = None
             ) -> List[Dict[str, object]]:
        """Job rows (without the config payload), submission-ordered."""
        query = ("SELECT id, name, state, campaign_id, total, completed, "
                 "error, submitted_at FROM jobs")
        args: tuple = ()
        if states:
            marks = ",".join("?" for _ in states)
            query += f" WHERE state IN ({marks})"
            args = tuple(states)
        with self._lock:
            rows = self._conn.execute(query + " ORDER BY id", args).fetchall()
        return [dict(row) for row in rows]

    def update_job(self, job_id: int, *, state: Optional[str] = None,
                   completed: Optional[int] = None,
                   error: Optional[str] = None) -> None:
        sets, args = [], []
        if state is not None:
            sets.append("state = ?")
            args.append(state)
        if completed is not None:
            sets.append("completed = ?")
            args.append(completed)
        if error is not None:
            sets.append("error = ?")
            args.append(error)
        if not sets:
            return
        args.append(job_id)
        with self._lock, self._conn:
            self._conn.execute(
                f"UPDATE jobs SET {', '.join(sets)} WHERE id = ?", args)
