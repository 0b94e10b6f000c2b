"""The async campaign job queue behind ``repro serve``.

A submitter hands over a list of :class:`CampaignConfig`s and gets a job
id back immediately; a single scheduler thread drains the queue onto the
existing process-pool :class:`~repro.fault.executor.CampaignExecutor`,
streaming every completed batch into the campaign database as
``on_results`` fires.  Because one scheduler runs jobs strictly in
submission order and every run's randomness lives in its config seed,
concurrent submitters get exactly the results a serial CLI invocation of
the same configs would produce -- the determinism contract extends
across the HTTP boundary.

Lifecycle: ``queued -> running -> done | failed | cancelled``.  Jobs are
persisted before they are scheduled, so a queue restarted over the same
database re-enqueues whatever was queued or mid-flight (completed runs
are skipped via :meth:`CampaignDatabase.split_pending` -- the same
resume primitive the CLI's ``--resume`` uses).
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import replace
from typing import Dict, List, Optional, Sequence

from repro.fault.campaign import CampaignConfig, prepare_warm_start
from repro.fault.executor import (
    CampaignExecutionError,
    CampaignExecutor,
    run_campaign,
    run_campaign_traced,
)
from repro.store.db import CampaignDatabase

#: Job states a restarted queue picks back up.
RESUMABLE_STATES = ("queued", "running")

#: Terminal job states (nothing further will happen to the job).
FINISHED_STATES = ("done", "failed", "cancelled")


class JobCancelled(Exception):
    """Raised inside the result stream when a cancel request lands."""


class JobQueue:
    """One scheduler thread draining persisted jobs onto the executor."""

    def __init__(self, db: CampaignDatabase, *, jobs: int = 1,
                 executor: Optional[CampaignExecutor] = None) -> None:
        self.db = db
        self.jobs = max(1, int(jobs))
        self._executor = executor
        self._queue: "queue.SimpleQueue[Optional[int]]" = queue.SimpleQueue()
        self._cancel_requested: set = set()
        self._lock = threading.Lock()
        self._thread: Optional[threading.Thread] = None
        self._active: Optional[int] = None

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "JobQueue":
        """Re-enqueue unfinished persisted jobs and launch the scheduler."""
        for record in self.db.jobs(states=RESUMABLE_STATES):
            # A job found ``running`` was interrupted mid-flight; its
            # completed runs are already in the database and are skipped
            # when it re-runs.
            self.db.update_job(int(record["id"]), state="queued")
            self._queue.put(int(record["id"]))
        self._thread = threading.Thread(
            target=self._drain, name="repro-job-queue", daemon=True)
        self._thread.start()
        return self

    def stop(self, timeout_s: float = 10.0) -> None:
        """Stop after the in-flight job finishes its current batch."""
        self._queue.put(None)
        if self._thread is not None:
            self._thread.join(timeout_s)

    # -- submitter side ----------------------------------------------------

    def submit(self, configs: Sequence[CampaignConfig], *,
               name: Optional[str] = None,
               options: Optional[Dict[str, object]] = None) -> int:
        """Persist and enqueue a job; returns its id immediately.

        A job may ask for at most the worker processes the queue was
        built with (``repro serve --jobs``): the requested count becomes
        the job's process-pool size.
        """
        if not configs:
            raise ValueError("a job needs at least one config")
        requested = int((options or {}).get("jobs", self.jobs))
        if requested > self.jobs:
            raise ValueError(f"jobs must be at most {self.jobs} (the "
                             f"server's --jobs), got {requested}")
        job_id = self.db.create_job(configs, name=name, options=options)
        self._queue.put(job_id)
        return job_id

    def cancel(self, job_id: int) -> bool:
        """Request cancellation; returns False if the job already finished.

        A queued job is cancelled outright; a running one stops at its
        next completed batch (results streamed so far stay in the
        database, so a resubmission under the same name resumes them).
        """
        record = self.db.job(job_id)
        if record["state"] in FINISHED_STATES:
            return False
        with self._lock:
            self._cancel_requested.add(job_id)
            if self._active != job_id:
                self.db.update_job(job_id, state="cancelled")
        return True

    def wait(self, job_id: int, timeout_s: float = 300.0,
             poll_s: float = 0.05) -> Dict[str, object]:
        """Poll until the job reaches a terminal state; returns its row."""
        deadline = time.monotonic() + timeout_s
        while True:
            record = self.db.job(job_id)
            if record["state"] in FINISHED_STATES:
                return record
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {record['state']} after "
                    f"{timeout_s:g}s")
            time.sleep(poll_s)

    # -- scheduler side ----------------------------------------------------

    def _drain(self) -> None:
        while True:
            job_id = self._queue.get()
            if job_id is None:
                return
            with self._lock:
                if job_id in self._cancel_requested:
                    continue  # cancelled while queued; row already updated
                self._active = job_id
            try:
                self._process(job_id)
            except Exception as exc:  # never kill the scheduler thread
                self.db.update_job(job_id, state="failed",
                                   error=f"scheduler: {exc}")
            finally:
                with self._lock:
                    self._active = None
                    self._cancel_requested.discard(job_id)

    def _process(self, job_id: int) -> None:
        record = self.db.job(job_id)
        options = record["options"]
        campaign = int(record["campaign_id"])
        configs = self.db.job_configs(job_id)
        if not options.get("early_exit", True):
            # Stored configs omit the strategy flag (it is not part of a
            # run's identity), so they reload with the default; re-apply
            # the submitted one.
            configs = [replace(config, early_exit=False)
                       for config in configs]
        done, pending = self.db.split_pending(campaign, configs)
        completed = len(configs) - len(pending)
        self.db.update_job(job_id, state="running", completed=completed)
        if not pending:
            self.db.update_job(job_id, state="done")
            return

        trace = bool(options.get("trace", False))
        runner = run_campaign_traced if trace else run_campaign
        executor = self._executor or CampaignExecutor(
            int(options.get("jobs", self.jobs)), runner=runner)
        warm = (prepare_warm_start(pending[0])
                if options.get("warm_start") and pending else None)
        # Trace run indices continue the campaign's stored runs: pending
        # run i is tagged ``stored + i``, so a job appending to a shared
        # campaign never replaces another job's events.
        stored = len(self.db.result_keys(campaign))
        landed = [0]

        def on_results(batch: List) -> None:
            self.db.add_results(campaign, batch)
            if trace:
                for run, result in enumerate(batch, stored + landed[0]):
                    self.db.add_run_events(campaign, run, result.trace or [])
            landed[0] += len(batch)
            with self._lock:
                if job_id in self._cancel_requested:
                    raise JobCancelled(f"job {job_id} cancelled")
            self.db.update_job(job_id, completed=completed + landed[0])

        try:
            executor.run_many(pending, warm=warm, on_results=on_results)
        except JobCancelled:
            self.db.update_job(job_id, state="cancelled")
            return
        except CampaignExecutionError as exc:
            self.db.update_job(job_id, state="failed", error=str(exc))
            return
        _, still_pending = self.db.split_pending(campaign, configs)
        self.db.update_job(job_id, state="done",
                           completed=len(configs) - len(still_pending))
