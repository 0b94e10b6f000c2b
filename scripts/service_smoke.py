#!/usr/bin/env python
"""CI service smoke: the campaign service end to end over real HTTP.

Starts ``repro.service`` on an ephemeral port, submits a tiny IUTEST
campaign through ``POST /api/jobs``, polls the job to completion, pulls
the cross-section curve and folded Table-2 JSON back out, and checks the
acceptance invariants directly:

  * the stored results are byte-identical (``comparable()``) to a direct
    in-process executor run of the same configs -- HTTP submission adds
    nothing and loses nothing;
  * the ``/api/campaigns/<c>/curve`` JSON equals the curve rebuilt from
    the direct run (the service's query layer is the same math);
  * two submitters racing on separate threads both reach ``done`` and
    each campaign holds exactly its own runs (jobs-invariance);
  * ``/api/diff`` between the HTTP campaign and an ingested copy of the
    direct run reports zero changed runs;
  * a second traced job under the first job's name adds its runs to the
    shared campaign, and ``/api/campaigns/<c>/stats`` folds the traces of
    every stored run (no job's events replace another's);
  * that job runs on the scheduler thread's device after two untraced
    jobs, yet stores exactly the events of a direct traced run of its
    configs (host wall times aside): each run's telemetry is its own.

Exit code 1 on any violation.

Usage: PYTHONPATH=src python scripts/service_smoke.py [campaigns.db]
"""

import json
import os
import sys
import tempfile
import threading
import urllib.request

from repro.fault.executor import CampaignExecutor, run_campaign_traced
from repro.fault.results import ResultStore, config_key
from repro.service.api import build_job_request, make_server
from repro.store import curve_from_results

PAYLOAD = {
    "program": "iutest", "let": 110.0, "flux": 400.0, "fluence": 600.0,
    "seed": 11, "ips": 20_000.0, "beam_delay": 0.1, "beam_tail": 0.5,
    "runs": 2,
}


def stable(events):
    """Trace events as the database stores them (JSON values), without
    run tags or host wall times."""
    return [{key: value for key, value in json.loads(json.dumps(event)).items()
             if key not in ("run", "wall_s")} for event in events]


def call(url, payload=None):
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode() if payload is not None else None,
        headers={"Content-Type": "application/json"} if payload else {},
    )
    with urllib.request.urlopen(request) as response:
        return json.loads(response.read())


def main() -> int:
    if len(sys.argv) > 1:
        db_path = sys.argv[1]
    else:
        handle, db_path = tempfile.mkstemp(suffix=".db", prefix="service-")
        os.close(handle)
        os.unlink(db_path)

    server = make_server(db_path, port=0)
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    print(f"service listening on {server.url} (db: {db_path})")
    failed = False
    try:
        # One campaign over HTTP, polled to done.
        job = call(server.url + "/api/jobs",
                   dict(PAYLOAD, name="http-smoke", trace=True))
        print(f"submitted job #{job['id']}: {job['total']} run(s)")
        record = server.queue.wait(job["id"], timeout_s=300)
        print(f"job #{job['id']} finished: {record['state']} "
              f"({record['completed']}/{record['total']})")
        if record["state"] != "done":
            print(f"FAIL: job ended {record['state']}: {record['error']}")
            return 1

        # Byte-identity against a direct in-process run of the same configs.
        configs, _, _ = build_job_request(PAYLOAD)
        direct = CampaignExecutor(1).run_many(configs)
        stored = server.db.results(server.db.campaign_id("http-smoke"))
        if [r.comparable() for r in stored] != \
                [r.comparable() for r in direct]:
            print("FAIL: HTTP-submitted results differ from a direct run")
            failed = True
        else:
            print("stored results identical to direct execution: OK")

        curve = call(server.url + "/api/campaigns/http-smoke/curve")
        curve.pop("campaign", None)  # endpoint envelope, not curve data
        if curve != curve_from_results(direct).as_dict():
            print("FAIL: served cross-section curve differs from direct run")
            failed = True
        else:
            print("served cross-section curve identical: OK")

        table2 = call(server.url + "/api/campaigns/http-smoke/table2")
        print("\n" + table2["rendered"])
        if table2["runs"] != len(configs):
            print("FAIL: Table-2 fold covers the wrong run count")
            failed = True

        # Diff against an ingested JSONL copy of the direct run.
        handle, jsonl = tempfile.mkstemp(suffix=".jsonl", prefix="smoke-")
        os.close(handle)
        try:
            with ResultStore(jsonl) as store:
                store.append(direct)
            server.db.ingest_results(jsonl, name="direct-copy")
        finally:
            os.unlink(jsonl)
        diff = call(server.url + "/api/diff?a=http-smoke&b=direct-copy")
        if diff["changed"] or diff["matched"] != len(configs):
            print(f"FAIL: diff vs direct copy not clean: {diff}")
            failed = True
        else:
            print(f"diff vs ingested direct copy clean "
                  f"({diff['matched']} matched): OK")

        # Two submitters racing: both complete, campaigns stay disjoint.
        jobs = {}

        def submit(name, seed):
            jobs[name] = call(server.url + "/api/jobs",
                              dict(PAYLOAD, seed=seed, name=name))["id"]

        racers = [threading.Thread(target=submit, args=(f"racer-{i}", 20 + i))
                  for i in range(2)]
        for racer in racers:
            racer.start()
        for racer in racers:
            racer.join()
        for name, job_id in sorted(jobs.items()):
            record = server.queue.wait(job_id, timeout_s=300)
            if record["state"] != "done":
                print(f"FAIL: concurrent job {name} ended {record['state']}")
                failed = True
                continue
            results = server.db.results(server.db.campaign_id(name))
            expected, _, _ = build_job_request(
                dict(PAYLOAD, seed=20 + int(name.split("-")[1])))
            if [config_key(r.config) for r in results] != \
                    [config_key(c) for c in expected]:
                print(f"FAIL: campaign {name} holds foreign runs")
                failed = True
            else:
                print(f"concurrent submitter {name}: done, "
                      f"{len(results)} run(s): OK")

        # A second traced job appends to the first job's campaign.
        job = call(server.url + "/api/jobs",
                   dict(PAYLOAD, seed=30, name="http-smoke", trace=True))
        record = server.queue.wait(job["id"], timeout_s=300)
        stored = len(server.db.results(server.db.campaign_id("http-smoke")))
        traced = call(server.url + "/api/campaigns/http-smoke/stats")["runs"]
        if record["state"] != "done" or traced != stored:
            print(f"FAIL: shared campaign holds {stored} run(s) but the "
                  f"traces of {traced} (job {record['state']})")
            failed = True
        else:
            print(f"shared campaign: traces of all {stored} run(s): OK")

        # Its events, recorded on a device that ran two untraced jobs
        # since, equal a direct traced run of the same configs.
        second, _, _ = build_job_request(dict(PAYLOAD, seed=30))
        events = server.db.events(server.db.campaign_id("http-smoke"))
        first = len(configs)
        mismatched = [
            run for run, config in enumerate(second, first)
            if stable(event for event in events if event["run"] == run)
            != stable(run_campaign_traced(config).trace)]
        if mismatched:
            print(f"FAIL: stored events of run(s) {mismatched} differ from "
                  f"a direct traced run of the same configs")
            failed = True
        else:
            print(f"second traced job: events of its {len(second)} run(s) "
                  f"equal a direct traced run: OK")
    finally:
        server.shutdown()
        server.queue.stop()
        server.db.close()

    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
