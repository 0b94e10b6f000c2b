"""The campaign database: schema, idempotent ingest, job rows."""

import pytest

from repro.errors import ConfigurationError
from repro.fault.campaign import CampaignConfig, CampaignResult
from repro.fault.results import ResultStore, config_key, config_to_dict
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


# -- fault-model column and schema migration -----------------------------------


def test_fault_model_round_trips(db):
    campaign = db.ensure_campaign("attack")
    result = _result(seed=1, fault_model="stuck-at-1",
                     fault_params={"pc": 0x40000000})
    db.add_results(campaign, [result])
    loaded, = db.results(campaign)
    assert loaded.config.fault_model == "stuck-at-1"
    assert loaded.config.fault_params == {"pc": 0x40000000}
    assert loaded.comparable() == result.comparable()
    row = db._conn.execute("SELECT fault_model FROM runs").fetchone()
    assert row["fault_model"] == "stuck-at-1"


def test_default_rows_store_seu(db):
    campaign = db.ensure_campaign("alpha")
    db.add_results(campaign, [_result(seed=1)])
    row = db._conn.execute("SELECT fault_model FROM runs").fetchone()
    assert row["fault_model"] == "seu"


def test_v1_database_migrates_in_place(tmp_path):
    """A database written before the fault-model layer (schema v1, no
    runs.fault_model column) opens cleanly: the column is added and
    every pre-existing row reads back as the default 'seu' model."""
    path = str(tmp_path / "v1.sqlite")
    with CampaignDatabase(path) as database:
        campaign = database.ensure_campaign("legacy")
        database.add_results(campaign, [_result(seed=1)])
        # Rewind the file to the v1 shape.
        database._conn.execute("ALTER TABLE runs DROP COLUMN fault_model")
        database._conn.execute(
            "UPDATE meta SET value = '1' WHERE key = 'schema_version'")
        database._conn.commit()
    with CampaignDatabase(path) as database:
        row = database._conn.execute(
            "SELECT value FROM meta WHERE key = 'schema_version'").fetchone()
        assert row["value"] == "2"
        loaded, = database.results(database.campaign_id("legacy"))
        assert loaded.config.fault_model == "seu"
        # And new-model rows insert fine post-migration.
        campaign = database.ensure_campaign("legacy")
        database.add_results(
            campaign, [_result(seed=2, fault_model="sefi")])
        rows = database._conn.execute(
            "SELECT fault_model FROM runs ORDER BY position").fetchall()
        assert [r["fault_model"] for r in rows] == ["seu", "sefi"]


def test_newer_schema_is_refused(tmp_path):
    path = str(tmp_path / "future.sqlite")
    with CampaignDatabase(path) as database:
        database._conn.execute(
            "UPDATE meta SET value = '99' WHERE key = 'schema_version'")
        database._conn.commit()
    with pytest.raises(ConfigurationError):
        CampaignDatabase(path)
