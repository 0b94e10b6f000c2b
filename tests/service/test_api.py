"""The HTTP API: submission payloads, endpoints, error mapping."""

import http.client
import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.fault.executor import CampaignExecutor
from repro.fault.results import config_key
from repro.service.api import build_job_request, make_server

#: Tiny submission: 2.25k instructions end to end per run.
TINY_PAYLOAD = {
    "program": "iutest", "let": 60.0, "flux": 400.0, "fluence": 150.0,
    "seed": 11, "ips": 2_000.0, "beam_delay": 0.25, "beam_tail": 0.5,
    "flush_period": 400,
}


# -- payload validation --------------------------------------------------------


def test_build_job_request_single_point():
    configs, name, options = build_job_request(dict(TINY_PAYLOAD, runs=3))
    assert len(configs) == 3
    assert configs[0].seed == 11  # replica 0 keeps the seed
    assert configs[0].let == 60.0
    assert configs[0].flush_period_instructions == 400
    assert name is None
    assert options["jobs"] == 1 and options["early_exit"] is True


def test_build_job_request_lets_mirror_measure_curve():
    configs, _, _ = build_job_request(
        dict(TINY_PAYLOAD, lets=[25.0, 60.0, 110.0]))
    assert [config.let for config in configs] == [25.0, 60.0, 110.0]
    # The published seed-plus-index mapping of measure_curve.
    assert [config.seed for config in configs] == [11, 12, 13]


def test_build_job_request_rejects_bad_input():
    with pytest.raises(ValueError):
        build_job_request(dict(TINY_PAYLOAD, program="rowhammer"))
    with pytest.raises(ValueError):
        build_job_request(dict(TINY_PAYLOAD, recovery="prayer"))
    with pytest.raises(ValueError):
        build_job_request(dict(TINY_PAYLOAD, runs=0))
    with pytest.raises(ValueError):
        build_job_request(dict(TINY_PAYLOAD, let="not-a-number"))
    with pytest.raises(ValueError):
        build_job_request(dict(TINY_PAYLOAD, lets=[]))
    with pytest.raises(ValueError, match="JSON array"):
        build_job_request(dict(TINY_PAYLOAD, lets="110"))
    with pytest.raises(ValueError):
        build_job_request([1, 2, 3])


@pytest.mark.parametrize("overrides", [
    {"beam_delay": 1e9},
    {"beam_tail": 1e9},
    {"flux": float("nan")},
    {"lets": [60.0, float("nan")]},
    {"ips": float("inf")},
    {"seed": float("inf")},
    {"jobs": float("inf")},
    {"flux": 0},
    {"ips": -2_000.0},
    {"fluence": -150.0},
    {"beam_delay": -0.25},
    {"beam_tail": -0.5},
    {"flush_period": -400},
])
def test_build_job_request_rejects_out_of_range_numbers(overrides):
    """Numbers that would hold the scheduler thread for ever, or fail
    later inside it, are rejected before the job exists."""
    with pytest.raises(ValueError):
        build_job_request(dict(TINY_PAYLOAD, **overrides))


# -- the server ----------------------------------------------------------------


@pytest.fixture(scope="module")
def server():
    instance = make_server(":memory:", port=0)
    thread = threading.Thread(target=instance.serve_forever,
                              kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    yield instance
    instance.shutdown()
    instance.queue.stop()
    instance.db.close()


def _call(server, path, payload=None):
    request = urllib.request.Request(
        server.url + path,
        data=json.dumps(payload).encode() if payload is not None else None,
        headers={"Content-Type": "application/json"}
        if payload is not None else {},
    )
    with urllib.request.urlopen(request) as response:
        return json.loads(response.read())


def test_submit_poll_and_read_back(server):
    job = _call(server, "/api/jobs",
                dict(TINY_PAYLOAD, runs=2, name="api-smoke"))
    assert job["state"] == "queued" and job["total"] == 2
    record = server.queue.wait(job["id"], timeout_s=120)
    assert record["state"] == "done"

    results = _call(server, "/api/campaigns/api-smoke/results")
    assert results["runs"] == 2
    table2 = _call(server, "/api/campaigns/api-smoke/table2")
    assert table2["runs"] == 2 and "totals" in table2
    curve = _call(server, "/api/campaigns/api-smoke/curve")
    assert [point["let"] for point in curve["points"]["Total"]] == [60.0]
    availability = _call(server, "/api/campaigns/api-smoke/availability")
    assert availability["runs"] == 2
    diff = _call(server, "/api/diff?a=api-smoke&b=api-smoke")
    assert diff["matched"] == 2 and diff["changed"] == []

    configs, _, _ = build_job_request(dict(TINY_PAYLOAD, runs=2))
    direct = CampaignExecutor(1).run_many(configs)
    stored = server.db.results(server.db.campaign_id("api-smoke"))
    assert [r.comparable() for r in stored] == \
        [r.comparable() for r in direct]
    assert [config_key(r.config) for r in stored] == \
        [config_key(config) for config in configs]


def test_status_and_job_listing(server):
    status = _call(server, "/api/status")
    assert status["jobs"] >= 1
    jobs = _call(server, "/api/jobs")["jobs"]
    assert any(job["name"] == "api-smoke" for job in jobs)
    campaigns = _call(server, "/api/campaigns")["campaigns"]
    assert any(campaign["name"] == "api-smoke" for campaign in campaigns)


def test_dashboard_served(server):
    with urllib.request.urlopen(server.url + "/") as response:
        body = response.read().decode()
    assert "campaign service" in body
    assert "/api/jobs" in body


def test_build_job_request_fault_model():
    configs, _, _ = build_job_request(
        dict(TINY_PAYLOAD, fault_model="stuck-at-1"))
    assert all(config.fault_model == "stuck-at-1" for config in configs)
    configs, _, _ = build_job_request(dict(TINY_PAYLOAD, program="random:3"))
    assert configs[0].program == "random:3"
    with pytest.raises(ValueError):
        build_job_request(dict(TINY_PAYLOAD, fault_model="rowhammer"))
    with pytest.raises(ValueError):
        build_job_request(dict(TINY_PAYLOAD, fault_params="pc=0x40000000"))


def test_attack_job_end_to_end(server):
    """An instruction-skip job through the HTTP API: the stored rows keep
    their fault model, table2 carries the security fold, and the
    fault-model filter selects rows."""
    from repro.fault.campaign import resolve_builder

    program, _ = resolve_builder("iutest")(None)
    payload = dict(
        TINY_PAYLOAD, runs=3, name="attack-api",
        fault_model="instruction-skip",
        fault_params={"pc": program.symbols["iutest_iteration"],
                      "window": 8, "time_s": 0.1})
    job = _call(server, "/api/jobs", payload)
    record = server.queue.wait(job["id"], timeout_s=120)
    assert record["state"] == "done"

    stored = server.db.results(server.db.campaign_id("attack-api"))
    assert [r.config.fault_model for r in stored] == \
        ["instruction-skip"] * 3

    table2 = _call(server, "/api/campaigns/attack-api/table2")
    fold = table2["security"]["instruction-skip"]
    assert sum(fold.values()) == 3
    assert set(fold) == {"detected", "silent", "masked"}

    filtered = _call(
        server, "/api/campaigns/attack-api/results?fault_model=instruction-skip")
    assert filtered["runs"] == 3
    empty = _call(server, "/api/campaigns/attack-api/results?fault_model=seu")
    assert empty["runs"] == 0


def test_default_model_table2_has_no_security_block(server):
    table2 = _call(server, "/api/campaigns/api-smoke/table2")
    assert "security" not in table2


def test_error_mapping(server):
    with pytest.raises(urllib.error.HTTPError) as err:
        _call(server, "/api/campaigns/absent/table2")
    assert err.value.code == 404
    with pytest.raises(urllib.error.HTTPError) as err:
        _call(server, "/api/jobs", {"program": "rowhammer"})
    assert err.value.code == 400
    with pytest.raises(urllib.error.HTTPError) as err:
        _call(server, "/api/nope")
    assert err.value.code == 404
    with pytest.raises(urllib.error.HTTPError) as err:
        _call(server, "/api/diff?a=missing")
    assert err.value.code == 400


@pytest.mark.parametrize("clock", ["0", "nan", "-5"])
def test_availability_rejects_bad_clock(server, clock):
    server.db.ensure_campaign("clock-check")
    with pytest.raises(urllib.error.HTTPError) as err:
        _call(server,
              f"/api/campaigns/clock-check/availability?clock_hz={clock}")
    assert err.value.code == 400
    assert "clock_hz" in json.loads(err.value.read())["error"]


# -- input bounds and connection handling --------------------------------------


def _post_with_length(server, length: str):
    """POST /api/jobs declaring *length* but sending no body: the server
    must answer from the header alone, without waiting for bytes."""
    host, port = server.server_address[:2]
    conn = http.client.HTTPConnection(host, port, timeout=10)
    try:
        conn.putrequest("POST", "/api/jobs")
        conn.putheader("Content-Type", "application/json")
        conn.putheader("Content-Length", length)
        conn.endheaders()
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


def test_negative_content_length_rejected(server):
    status, body = _post_with_length(server, "-1")
    assert status == 400
    assert "Content-Length" in body["error"]
    assert _post_with_length(server, "twelve")[0] == 400


def test_oversized_body_rejected_before_reading(server):
    status, body = _post_with_length(server, str(64 * 1024 + 1))
    assert status == 413
    assert "exceeds" in body["error"]


def test_oversized_job_rejected(server):
    with pytest.raises(ValueError, match="too large"):
        build_job_request(dict(TINY_PAYLOAD, lets=[1.0] * 11, runs=10_000))
    with pytest.raises(urllib.error.HTTPError) as err:
        _call(server, "/api/jobs",
              dict(TINY_PAYLOAD, lets=[1.0] * 101, runs=1_000))
    assert err.value.code == 400
    # One worker process per run is not the submitter's to choose: the
    # server was started with one.
    configs, _, options = build_job_request(dict(TINY_PAYLOAD, jobs=2))
    with pytest.raises(ValueError, match="at most 1"):
        server.queue.submit(configs, options=options)
    with pytest.raises(urllib.error.HTTPError) as err:
        _call(server, "/api/jobs", dict(TINY_PAYLOAD, jobs=1_000_000))
    assert err.value.code == 400


def test_keep_alive_requests_do_not_stall(server):
    """Twenty GETs on one keep-alive connection: with Nagle's algorithm
    on, each response waits out the client's delayed ACK (~40 ms)."""
    host, port = server.server_address[:2]
    conn = http.client.HTTPConnection(host, port, timeout=10)
    try:
        started = time.perf_counter()
        for _ in range(20):
            conn.request("GET", "/api/status")
            response = conn.getresponse()
            assert response.status == 200
            response.read()
        elapsed = time.perf_counter() - started
    finally:
        conn.close()
    assert elapsed < 0.4
