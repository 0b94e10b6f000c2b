"""The job queue: lifecycle, resume, cancel, concurrent submitters."""

import threading

import pytest

from repro.fault.campaign import CampaignConfig
from repro.fault.executor import CampaignExecutor, expand_runs
from repro.fault.results import config_key
from repro.service import JobQueue
from repro.store import CampaignDatabase

#: Tiny settings (2.25k instructions end to end): queue turnaround in
#: well under a second per run.
TINY = dict(flux=400.0, fluence=150.0, instructions_per_second=2_000.0,
            beam_delay_s=0.25, beam_tail_s=0.5,
            flush_period_instructions=400)


def _tiny(let=60.0, seed=11, **overrides):
    settings = dict(TINY)
    settings.update(overrides)
    return CampaignConfig(program="iutest", let=let, seed=seed, **settings)


@pytest.fixture()
def db():
    with CampaignDatabase(":memory:") as database:
        yield database


@pytest.fixture()
def queue(db):
    q = JobQueue(db).start()
    yield q
    q.stop()


def test_job_runs_to_done(db, queue):
    configs = expand_runs(_tiny(), 3)
    job_id = queue.submit(configs, name="smoke")
    record = queue.wait(job_id, timeout_s=120)
    assert record["state"] == "done"
    assert record["completed"] == 3
    results = db.results(db.campaign_id("smoke"))
    assert [config_key(r.config) for r in results] == \
        [config_key(config) for config in configs]


def test_job_results_match_direct_executor(db, queue):
    configs = expand_runs(_tiny(), 3)
    job_id = queue.submit(configs, name="via-queue")
    queue.wait(job_id, timeout_s=120)
    direct = CampaignExecutor(1).run_many(configs)
    stored = db.results(db.campaign_id("via-queue"))
    assert [r.comparable() for r in stored] == \
        [r.comparable() for r in direct]


def test_concurrent_submitters_both_complete(db, queue):
    """Two submitters racing: both jobs finish and their campaigns hold
    exactly their own configs' results (jobs-invariant)."""
    jobs = {}

    def submit(name, seed):
        jobs[name] = queue.submit(expand_runs(_tiny(seed=seed), 2),
                                  name=name)

    threads = [threading.Thread(target=submit, args=(f"racer-{i}", 20 + i))
               for i in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for name, job_id in jobs.items():
        record = queue.wait(job_id, timeout_s=120)
        assert record["state"] == "done"
        assert len(db.results(db.campaign_id(name))) == 2
    direct = CampaignExecutor(1).run_many(expand_runs(_tiny(seed=20), 2))
    stored = db.results(db.campaign_id("racer-0"))
    assert [r.comparable() for r in stored] == \
        [r.comparable() for r in direct]


def test_cancel_queued_job(db, queue):
    # Pin the scheduler down with a real job, then cancel one behind it.
    first = queue.submit(expand_runs(_tiny(), 2), name="ahead")
    victim = queue.submit(expand_runs(_tiny(seed=77), 50), name="victim")
    assert queue.cancel(victim)
    queue.wait(first, timeout_s=120)
    record = queue.wait(victim, timeout_s=120)
    assert record["state"] == "cancelled"
    assert not queue.cancel(victim)  # already finished


def test_resume_skips_stored_runs(db):
    """A restarted queue re-enqueues unfinished jobs and only runs the
    configs whose results are not already stored."""
    configs = expand_runs(_tiny(), 3)
    job_id = db.create_job(configs, name="interrupted")
    campaign = db.campaign_id("interrupted")
    # Simulate a crash after two runs landed.
    done = CampaignExecutor(1).run_many(configs[:2])
    db.add_results(campaign, done)
    db.update_job(job_id, state="running", completed=2)

    q = JobQueue(db).start()
    try:
        record = q.wait(job_id, timeout_s=120)
    finally:
        q.stop()
    assert record["state"] == "done"
    assert record["completed"] == 3
    stored = db.results(campaign)
    assert [config_key(r.config) for r in stored] == \
        [config_key(config) for config in configs]
    direct = CampaignExecutor(1).run_many(configs)
    assert [r.comparable() for r in stored] == \
        [r.comparable() for r in direct]


def test_resume_counts_stored_runs_without_decoding_them(db, monkeypatch):
    """Resume matches the stored config keys: the scheduler reports the
    same completed counts but never decodes the stored results."""
    configs = expand_runs(_tiny(), 3)
    job_id = db.create_job(configs, name="keyed")
    campaign = db.campaign_id("keyed")
    db.add_results(campaign, CampaignExecutor(1).run_many(configs[:2]))
    db.update_job(job_id, state="running", completed=2)

    started = []

    class Recording(CampaignExecutor):
        def run_many(self, pending, **kwargs):
            started.append((len(pending), db.job(job_id)["completed"]))
            return super().run_many(pending, **kwargs)

    decoded = []
    results = CampaignDatabase.results
    monkeypatch.setattr(
        CampaignDatabase, "results",
        lambda self, campaign: decoded.append(campaign)
        or results(self, campaign))
    q = JobQueue(db, executor=Recording(1)).start()
    try:
        record = q.wait(job_id, timeout_s=120)
    finally:
        q.stop()
    assert decoded == []
    assert started == [(1, 2)]
    assert record["state"] == "done"
    assert record["completed"] == 3


def test_early_exit_option_runs_every_run_in_full(db, queue):
    """Stored configs do not carry ``early_exit``, so the job option must
    turn grading off for the reloaded configs too."""
    configs = expand_runs(_tiny(early_exit=False), 4)
    job_id = queue.submit(configs, name="oracle",
                          options={"warm_start": True, "early_exit": False})
    assert queue.wait(job_id, timeout_s=120)["state"] == "done"
    results = db.results(db.campaign_id("oracle"))
    assert len(results) == 4
    assert all(r.exit_reason == "full" for r in results)


def test_trace_option_stores_run_events(db, queue):
    job_id = queue.submit(expand_runs(_tiny(), 2), name="traced",
                          options={"trace": True})
    queue.wait(job_id, timeout_s=120)
    events = db.events(db.campaign_id("traced"))
    assert events
    assert {event["run"] for event in events} <= {0, 1}
    assert any(event["ev"] == "run-end" for event in events)


def test_traced_jobs_sharing_a_campaign_keep_every_trace(db, queue):
    """A second traced job under the same name tags its runs after the
    first job's, so neither job's events replace the other's."""
    for seed in (11, 30):
        job_id = queue.submit(expand_runs(_tiny(seed=seed), 2),
                              name="shared", options={"trace": True})
        assert queue.wait(job_id, timeout_s=120)["state"] == "done"
    campaign = db.campaign_id("shared")
    assert len(db.results(campaign)) == 4
    assert [event["run"] for event in db.events(campaign)
            if event["ev"] == "run-end"] == [0, 1, 2, 3]


def test_submit_rejects_empty(queue):
    with pytest.raises(ValueError):
        queue.submit([])


def _stored_trace(db, name):
    """A campaign's stored events without their host wall times."""
    return [{key: value for key, value in event.items() if key != "wall_s"}
            for event in db.events(db.campaign_id(name))]


def test_each_job_traces_into_its_own_events(db, queue):
    """The scheduler thread runs every job on one device: a traced job,
    a struck untraced one, then a traced warm one.  The untraced job
    stores no events, and each traced job stores exactly the events a
    fresh queue (a fresh thread, hence a fresh device) stores for it."""
    jobs = [("traced", _tiny(seed=11), {"trace": True}),
            ("untraced", _tiny(let=110.0, seed=12), {}),
            ("traced-warm", _tiny(seed=13),
             {"trace": True, "warm_start": True})]
    for name, config, options in jobs:
        job_id = queue.submit(expand_runs(config, 2), name=name,
                              options=options)
        assert queue.wait(job_id, timeout_s=120)["state"] == "done"
    assert db.events(db.campaign_id("untraced")) == []
    for name, config, options in jobs:
        if not options.get("trace"):
            continue
        with CampaignDatabase(":memory:") as fresh_db:
            fresh = JobQueue(fresh_db).start()
            try:
                job_id = fresh.submit(expand_runs(config, 2), name=name,
                                      options=options)
                assert fresh.wait(job_id, timeout_s=120)["state"] == "done"
            finally:
                fresh.stop()
            expected = _stored_trace(fresh_db, name)
        assert any(event["ev"] == "run-end" for event in expected)
        assert _stored_trace(db, name) == expected
