"""The campaign database: schema, idempotent ingest, job rows."""

import json
import sqlite3

import pytest

from repro.errors import ConfigurationError
from repro.fault.campaign import CampaignConfig, CampaignResult
from repro.fault.results import (
    ResultStore,
    config_key,
    config_to_dict,
    result_to_dict,
)
from repro.store import CampaignDatabase, load_results

FAST = dict(flux=400.0, fluence=500.0, instructions_per_second=30_000.0)


def _config(seed=1, let=110.0, **overrides):
    settings = dict(FAST)
    settings.update(overrides)
    return CampaignConfig(program="iutest", let=let, seed=seed, **settings)


def _result(seed=1, counts=None, **overrides) -> CampaignResult:
    return CampaignResult(
        config=_config(seed=seed, **overrides),
        counts=counts or {"ITE": 1, "IDE": 0, "DTE": 0, "DDE": 0,
                          "RFE": 2, "Total": 3},
        upsets=4,
        upsets_by_target={"regfile": 2, "icache-tag": 2},
        sw_errors=0,
        error_traps=1,
        halted=False,
        iterations=12,
        instructions=25_000,
        wall_seconds=0.5,
    )


@pytest.fixture()
def db():
    with CampaignDatabase(":memory:") as database:
        yield database


def test_results_round_trip_in_order(db):
    campaign = db.ensure_campaign("alpha")
    results = [_result(seed=seed) for seed in (3, 1, 2)]
    assert db.add_results(campaign, results) == 3
    loaded = db.results(campaign)
    # Insertion order is preserved, not seed order.
    assert [r.config.seed for r in loaded] == [3, 1, 2]
    assert [r.comparable() for r in loaded] == \
        [r.comparable() for r in results]


def test_upsert_keeps_position(db):
    campaign = db.ensure_campaign("alpha")
    db.add_results(campaign, [_result(seed=seed) for seed in (1, 2, 3)])
    replacement = _result(seed=2)
    replacement.iterations = 99
    db.add_results(campaign, [replacement])
    loaded = db.results(campaign)
    assert [r.config.seed for r in loaded] == [1, 2, 3]
    assert loaded[1].iterations == 99


def test_huge_derived_seeds_survive(db):
    """splitmix64 seeds exceed SQLite's signed 64-bit INTEGER range."""
    campaign = db.ensure_campaign("alpha")
    big = _result(seed=2**64 - 99)
    db.add_results(campaign, [big])
    loaded = db.results(campaign)
    assert loaded[0].config.seed == 2**64 - 99


def test_split_pending_resumes(db):
    campaign = db.ensure_campaign("alpha")
    configs = [_config(seed=seed) for seed in (1, 2, 3)]
    db.add_results(campaign, [_result(seed=2)])
    done, pending = db.split_pending(campaign, configs)
    assert set(done) == {config_key(configs[1])}
    assert [config.seed for config in pending] == [1, 3]


def test_campaign_resolution(db):
    cid = db.ensure_campaign("alpha")
    assert db.campaign_id("alpha") == cid
    assert db.campaign_id(cid) == cid
    assert db.campaign_id(str(cid)) == cid
    with pytest.raises(ConfigurationError):
        db.campaign_id("missing")
    # `repro ingest 1.jsonl` names its campaign "1": an exact name wins
    # over the id, and digits that name no campaign still resolve as one.
    digits = db.ensure_campaign(str(cid))
    assert digits != cid
    assert db.campaign_id(str(cid)) == digits
    assert db.campaign_id(str(digits)) == digits
    assert db.campaign_id(cid) == cid


def test_ingest_results_idempotent(db, tmp_path):
    path = str(tmp_path / "runs.jsonl")
    with ResultStore(path) as store:
        store.append([_result(seed=seed) for seed in (1, 2)])
    campaign, written = db.ingest_results(path, name="imported")
    assert written == 2
    again_campaign, _ = db.ingest_results(path, name="imported")
    assert again_campaign == campaign
    assert len(db.results(campaign)) == 2


def test_jsonl_and_database_sources_agree(db, tmp_path):
    path = str(tmp_path / "runs.jsonl")
    results = [_result(seed=seed) for seed in (1, 2, 3)]
    with ResultStore(path) as store:
        store.append(results)
    campaign, _ = db.ingest_results(path, name="imported")
    from_file = load_results(path)
    from_db = db.results(campaign)
    assert [r.comparable() for r in from_file] == \
        [r.comparable() for r in from_db]


def test_run_events_round_trip(db):
    campaign = db.ensure_campaign("alpha")
    events = [{"ev": "strike", "target": "regfile", "run": 0},
              {"ev": "detect", "target": "regfile", "run": 0}]
    db.add_run_events(campaign, 4, events)
    stored = db.events(campaign)
    assert [event["ev"] for event in stored] == ["strike", "detect"]
    assert all(event["run"] == 4 for event in stored)
    # Idempotent per run: replacing shrinks, never accumulates.
    db.add_run_events(campaign, 4, events[:1])
    assert len(db.events(campaign)) == 1


def test_job_rows(db):
    configs = [_config(seed=seed) for seed in (1, 2)]
    job_id = db.create_job(configs, options={"jobs": 2})
    record = db.job(job_id)
    assert record["state"] == "queued"
    assert record["name"] == f"job-{job_id}"
    assert record["total"] == 2
    assert record["options"]["jobs"] == 2
    assert [config_to_dict(config) for config in db.job_configs(job_id)] \
        == [config_to_dict(config) for config in configs]
    db.update_job(job_id, state="running", completed=1)
    assert db.job(job_id)["completed"] == 1
    assert [row["id"] for row in db.jobs(states=("running",))] == [job_id]
    assert db.jobs(states=("done",)) == []


def test_named_job_shares_campaign(db):
    first = db.create_job([_config(seed=1)], name="corpus")
    second = db.create_job([_config(seed=2)], name="corpus")
    assert db.job(first)["campaign_id"] == db.job(second)["campaign_id"]


# -- payloads, schema v3 and migration ----------------------------------------


def _stored_payload(db) -> dict:
    return json.loads(
        db._conn.execute("SELECT payload FROM runs").fetchone()["payload"])


def test_fault_model_round_trips(db):
    campaign = db.ensure_campaign("attack")
    result = _result(seed=1, fault_model="stuck-at-1",
                     fault_params={"pc": 0x40000000})
    db.add_results(campaign, [result])
    loaded, = db.results(campaign)
    assert loaded.config.fault_model == "stuck-at-1"
    assert loaded.config.fault_params == {"pc": 0x40000000}
    assert loaded.comparable() == result.comparable()
    assert _stored_payload(db) == result_to_dict(result)


def test_default_rows_store_seu(db):
    campaign = db.ensure_campaign("alpha")
    db.add_results(campaign, [_result(seed=1)])
    # The default model stays out of the payload, as in every row written
    # before the model layer, and decodes as 'seu'.
    assert "fault_model" not in _stored_payload(db)["config"]
    loaded, = db.results(campaign)
    assert loaded.config.fault_model == "seu"


def _schema(conn) -> tuple:
    """(tables, named indexes, runs columns) of an open database."""
    names = {kind: {row[0] for row in conn.execute(
        "SELECT name FROM sqlite_master WHERE type = ? "
        "AND name NOT LIKE 'sqlite_%'", (kind,))}
        for kind in ("table", "index")}
    columns = [row[1] for row in conn.execute("PRAGMA table_info(runs)")]
    return names["table"], names["index"], columns


def test_new_database_matches_schema_v3(db):
    assert _schema(db._conn) == (
        {"meta", "campaigns", "runs", "events", "jobs"},
        {"runs_by_position"},
        ["id", "campaign_id", "position", "config_key", "upsets",
         "total_errors", "payload"])


#: The v2 schema's CREATE statements; v1 is the same without
#: ``runs.fault_model``.
_V2_SCHEMA = """
CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT NOT NULL);
CREATE TABLE campaigns (
    id INTEGER PRIMARY KEY, name TEXT NOT NULL UNIQUE,
    source TEXT NOT NULL DEFAULT '', created_at REAL NOT NULL DEFAULT 0.0);
CREATE TABLE runs (
    id           INTEGER PRIMARY KEY,
    campaign_id  INTEGER NOT NULL REFERENCES campaigns(id) ON DELETE CASCADE,
    position     INTEGER NOT NULL,
    config_key   TEXT NOT NULL,
    program      TEXT NOT NULL,
    let          REAL NOT NULL,
    flux         REAL NOT NULL,
    fluence      REAL NOT NULL,
    seed         TEXT NOT NULL,
    recovery     TEXT NOT NULL,
    fault_model  TEXT NOT NULL DEFAULT 'seu',
    upsets       INTEGER NOT NULL,
    sw_errors    INTEGER NOT NULL,
    error_traps  INTEGER NOT NULL,
    halted       INTEGER NOT NULL,
    iterations   INTEGER NOT NULL,
    instructions INTEGER NOT NULL,
    cycles       INTEGER NOT NULL,
    halts        INTEGER NOT NULL,
    unrecovered  INTEGER NOT NULL,
    exit_reason  TEXT NOT NULL,
    total_errors INTEGER NOT NULL,
    payload      TEXT NOT NULL,
    UNIQUE (campaign_id, config_key)
);
CREATE INDEX runs_by_position ON runs (campaign_id, position);
CREATE INDEX runs_by_let ON runs (campaign_id, program, let);
CREATE TABLE upsets (
    run_id INTEGER NOT NULL REFERENCES runs(id) ON DELETE CASCADE,
    target TEXT NOT NULL, count INTEGER NOT NULL,
    PRIMARY KEY (run_id, target));
CREATE TABLE readouts (
    run_id INTEGER NOT NULL REFERENCES runs(id) ON DELETE CASCADE,
    counter TEXT NOT NULL, count INTEGER NOT NULL,
    PRIMARY KEY (run_id, counter));
CREATE TABLE events (
    campaign_id INTEGER NOT NULL REFERENCES campaigns(id) ON DELETE CASCADE,
    run INTEGER NOT NULL, seq INTEGER NOT NULL, ev TEXT NOT NULL,
    payload TEXT NOT NULL, PRIMARY KEY (campaign_id, run, seq));
CREATE TABLE jobs (
    id INTEGER PRIMARY KEY, name TEXT NOT NULL, state TEXT NOT NULL,
    campaign_id INTEGER REFERENCES campaigns(id), configs TEXT NOT NULL,
    options TEXT NOT NULL DEFAULT '{}', total INTEGER NOT NULL,
    completed INTEGER NOT NULL DEFAULT 0, error TEXT NOT NULL DEFAULT '',
    submitted_at REAL NOT NULL DEFAULT 0.0);
"""


def _legacy_add(conn, campaign, results, version) -> None:
    """The v1/v2 ``add_results``: typed columns plus side-table rows."""
    position = conn.execute(
        "SELECT COALESCE(MAX(position), -1) + 1 FROM runs "
        "WHERE campaign_id = ?", (campaign,)).fetchone()[0]
    for result in results:
        config = result.config
        row = {"config_key": config_key(config), "program": config.program,
               "let": config.let, "flux": config.flux,
               "fluence": config.fluence, "seed": str(config.seed),
               "recovery": config.recovery, "upsets": result.upsets,
               "sw_errors": result.sw_errors,
               "error_traps": result.error_traps,
               "halted": int(result.halted), "iterations": result.iterations,
               "instructions": result.instructions, "cycles": result.cycles,
               "halts": result.halts, "unrecovered": int(result.unrecovered),
               "exit_reason": result.exit_reason,
               "total_errors": result.counts.get("Total", 0),
               "payload": json.dumps(result_to_dict(result), sort_keys=True)}
        if version == 2:
            row["fault_model"] = config.fault_model
        updates = ", ".join(f"{name} = excluded.{name}" for name in row)
        conn.execute(
            f"INSERT INTO runs (campaign_id, position, {', '.join(row)}) "
            f"VALUES ({', '.join('?' * (len(row) + 2))}) "
            f"ON CONFLICT (campaign_id, config_key) DO UPDATE SET {updates}",
            (campaign, position, *row.values()))
        run_id = conn.execute(
            "SELECT id FROM runs WHERE campaign_id = ? AND config_key = ?",
            (campaign, row["config_key"])).fetchone()[0]
        for table, tally in (("upsets", result.upsets_by_target),
                             ("readouts", result.counts)):
            conn.execute(f"DELETE FROM {table} WHERE run_id = ?", (run_id,))
            conn.executemany(f"INSERT INTO {table} VALUES (?, ?, ?)",
                             [(run_id, *item) for item in sorted(tally.items())])
        position += 1


def _legacy_database(path, version) -> tuple:
    """A v1 or v2 file as that build wrote it; returns (results, events)
    as that build reads them back."""
    first = [_result(seed=seed) for seed in (1, 2, 3)]
    replacement = _result(seed=2, counts={"RFE": 5, "Total": 5})
    replacement.iterations = 99
    big = _result(seed=2**64 - 5)
    event = {"ev": "run-end", "run": 0, "counts": {"Total": 3}}
    schema = _V2_SCHEMA if version == 2 else _V2_SCHEMA.replace(
        "    fault_model  TEXT NOT NULL DEFAULT 'seu',\n", "")
    conn = sqlite3.connect(path)
    conn.executescript(schema)
    conn.execute("INSERT INTO meta VALUES ('schema_version', ?)",
                 (str(version),))
    conn.execute("INSERT INTO campaigns (name) VALUES ('legacy')")
    _legacy_add(conn, 1, first, version)
    # The upsert keeps seed 2 at position 1 but still uses up position 3.
    _legacy_add(conn, 1, [replacement, big], version)
    conn.execute("INSERT INTO events VALUES (1, 0, 0, 'run-end', ?)",
                 (json.dumps(event, sort_keys=True),))
    conn.commit()
    conn.close()
    return [first[0], replacement, first[2], big], [event]


def _check_migrated(path, version) -> None:
    expected, events = _legacy_database(path, version)
    with CampaignDatabase(path) as database:
        assert database._conn.execute(
            "SELECT value FROM meta WHERE key = 'schema_version'"
        ).fetchone()[0] == "3"
        with CampaignDatabase(":memory:") as fresh:
            assert _schema(database._conn) == _schema(fresh._conn)
        campaign = database.campaign_id("legacy")
        loaded = database.results(campaign)
        assert [r.config.seed for r in loaded] == [1, 2, 3, 2**64 - 5]
        assert [r.comparable() for r in loaded] == \
            [r.comparable() for r in expected]
        summary, = database.campaigns()
        assert (summary["runs"], summary["upsets"], summary["total_errors"]) \
            == (4, 16, 14)
        assert database.events(campaign) == events
        # New rows insert after the gap, and the old rows keep theirs.
        database.add_results(campaign, [_result(seed=7)])
        positions = [row[0] for row in database._conn.execute(
            "SELECT position FROM runs ORDER BY position")]
        assert positions == [0, 1, 2, 4, 5]
        assert database.results(campaign)[-1].config.seed == 7


def test_v1_database_migrates_in_place(tmp_path):
    """A file written before the fault-model layer (no runs.fault_model)
    opens as v3: payloads decode to the same results, 'seu' included."""
    _check_migrated(str(tmp_path / "v1.sqlite"), 1)


def test_v2_database_migrates_in_place(tmp_path):
    _check_migrated(str(tmp_path / "v2.sqlite"), 2)


def test_failed_migration_leaves_file_intact(tmp_path):
    path = str(tmp_path / "v2.sqlite")
    _legacy_database(path, 2)
    conn = sqlite3.connect(path)
    # A stray table where the migration parks the old runs makes it fail
    # after it has already dropped the side tables.
    conn.execute("CREATE TABLE runs_old (x)")
    conn.commit()

    def dump():
        return list(conn.iterdump())

    before = dump()
    with pytest.raises(sqlite3.OperationalError):
        CampaignDatabase(path)
    assert dump() == before
    conn.close()


def test_newer_schema_is_refused(tmp_path):
    path = str(tmp_path / "future.sqlite")
    with CampaignDatabase(path) as database:
        database._conn.execute(
            "UPDATE meta SET value = '99' WHERE key = 'schema_version'")
        database._conn.commit()
    with pytest.raises(ConfigurationError):
        CampaignDatabase(path)
