"""The campaign service's HTTP API and server (stdlib only).

``repro serve`` binds a :class:`CampaignServer` -- a threading HTTP
server over one :class:`~repro.store.db.CampaignDatabase` and one
:class:`~repro.service.jobs.JobQueue` -- and every endpoint answers from
the same :mod:`repro.store` query layer the CLI renders from, so the
numbers over HTTP are byte-identical to the terminal's.

JSON endpoints::

    POST /api/jobs                          submit a campaign, get a job id
    GET  /api/jobs                          every job with queue state
    GET  /api/jobs/<id>                     one job's progress row
    POST /api/jobs/<id>/cancel              cancel queued/running job
    GET  /api/status                        service heartbeat + queue depth
    GET  /api/campaigns                     stored campaigns with run counts
    GET  /api/campaigns/<c>/results         full result payloads, run order
    GET  /api/campaigns/<c>/table2          Table-2 fold (rows + totals)
    GET  /api/campaigns/<c>/curve           per-bit cross-section curve
    GET  /api/campaigns/<c>/availability    measured availability readout
    GET  /api/campaigns/<c>/lifecycles      per-upset lifecycle rows
    GET  /api/campaigns/<c>/stats           folded trace statistics
    GET  /api/diff?a=<c>&b=<c>              run-for-run campaign diff

``<c>`` is a campaign name or, when no campaign has that exact name, a
numeric id.  ``GET /`` serves the polling dashboard.  Submission
payload::

    {"program": "iutest", "let": 110.0, "lets": [...], "flux": 400.0,
     "fluence": 2000.0, "seed": 1, "ips": 50000.0, "runs": 1,
     "flush_period": 0, "beam_delay": 0.0, "beam_tail": 0.0,
     "recovery": "none", "name": "...", "jobs": 1, "warm_start": false,
     "trace": false, "early_exit": true,
     "fault_model": "seu", "fault_params": {}}

``program`` also accepts ``random:<seed>`` (the seeded generator);
``fault_model`` is any registered :mod:`repro.fault.models` name, and
``?fault_model=<kind>`` filters the ``results``/``table2`` campaign
views down to runs of that model.

``lets`` (a JSON array) submits one run per LET point with the
``seed + index`` mapping of :func:`repro.fault.crosssection.measure_curve`;
``runs`` replicates each point with derived seeds exactly like
``repro campaign --runs``.  ``jobs`` may not exceed the worker processes
the server was started with (``repro serve --jobs``).
"""

from __future__ import annotations

import json
import math
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from repro.errors import ConfigurationError
from repro.fault.campaign import CampaignConfig, resolve_builder
from repro.fault.executor import expand_runs
from repro.fault.models import (
    model_names,
    validate_attack_params,
    validate_attack_site,
)
from repro.fault.results import result_to_dict
from repro.recovery import POLICIES
from repro.service.dashboard import DASHBOARD_HTML
from repro.service.jobs import JobQueue
from repro.store import (
    CampaignDatabase,
    availability_readout,
    curve_from_results,
    diff_results,
    fold_results,
    lifecycle_rows,
    trace_stats,
)

#: Largest request body read, bytes (a job submission is a few hundred).
MAX_BODY_BYTES = 64 * 1024
#: Largest job accepted: LET points times replicas per point.
MAX_JOB_RUNS = 100_000


class PayloadTooLarge(ValueError):
    """A request body over :data:`MAX_BODY_BYTES` (HTTP 413)."""


def build_job_request(payload: Dict[str, object]
                      ) -> Tuple[List[CampaignConfig], Optional[str],
                                 Dict[str, object]]:
    """Validate a submission payload into (configs, name, options).

    Raises :class:`ValueError` with a submitter-facing message on bad
    input -- the handler maps that to HTTP 400.
    """
    if not isinstance(payload, dict):
        raise ValueError("payload must be a JSON object")
    program = str(payload.get("program", "iutest"))
    try:
        resolve_builder(program)  # named builder or random:<seed>
    except ConfigurationError as exc:
        raise ValueError(str(exc)) from None
    fault_model = str(payload.get("fault_model", "seu"))
    if fault_model not in model_names():
        raise ValueError(f"unknown fault model {fault_model!r} "
                         f"(expected one of {', '.join(model_names())})")
    fault_params = payload.get("fault_params", {})
    if not isinstance(fault_params, dict):
        raise ValueError("fault_params must be a JSON object")
    try:
        validate_attack_params(fault_params)
    except ConfigurationError as exc:
        raise ValueError(f"bad fault_params: {exc}") from None
    recovery = str(payload.get("recovery", "none"))
    if recovery not in POLICIES:
        raise ValueError(f"unknown recovery policy {recovery!r}")
    lets = payload.get("lets", [payload.get("let", 110.0)])
    if not isinstance(lets, list):
        raise ValueError("lets must be a JSON array")
    try:
        lets = [float(let) for let in lets]
        flux = float(payload.get("flux", 400.0))
        fluence = float(payload.get("fluence", 2.0e3))
        seed = int(payload.get("seed", 1))
        ips = float(payload.get("ips", 50_000.0))
        runs = int(payload.get("runs", 1))
        flush_period = int(payload.get("flush_period", 0))
        beam_delay = float(payload.get("beam_delay", 0.0))
        beam_tail = float(payload.get("beam_tail", 0.0))
        jobs = max(1, int(payload.get("jobs", 1)))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"bad numeric field: {exc}") from None
    if not lets:
        raise ValueError("lets must not be empty")
    # json.loads accepts NaN and Infinity; a NaN compares false against
    # every bound below, so finiteness is checked first.
    if not all(math.isfinite(value) for value in
               (*lets, flux, fluence, ips, beam_delay, beam_tail)):
        raise ValueError("numeric fields must be finite")
    if flux <= 0 or ips <= 0:
        raise ValueError("flux and ips must be positive")
    if min(fluence, beam_delay, beam_tail, flush_period) < 0:
        raise ValueError("fluence, beam_delay, beam_tail and flush_period "
                         "must not be negative")
    # The window is capped at max_instructions; the prefix and the tail
    # are not, and one scheduler thread runs every job.
    limit = CampaignConfig.max_instructions
    if beam_delay * ips > limit or beam_tail * ips > limit:
        raise ValueError(f"beam_delay and beam_tail must each span at most "
                         f"{limit} instructions at {ips:g} ips")
    if runs < 1 or runs > 10_000:
        raise ValueError("runs must be between 1 and 10000")
    if len(lets) * runs > MAX_JOB_RUNS:
        raise ValueError(f"job too large: {len(lets)} LET point(s) x "
                         f"{runs} run(s) exceeds {MAX_JOB_RUNS} runs")
    early_exit = bool(payload.get("early_exit", True))
    configs: List[CampaignConfig] = []
    for index, let in enumerate(lets):
        point = CampaignConfig(
            program=program, let=let, flux=flux, fluence=fluence,
            seed=seed + index, instructions_per_second=ips,
            flush_period_instructions=flush_period,
            beam_delay_s=beam_delay, beam_tail_s=beam_tail,
            recovery=recovery, early_exit=early_exit,
            fault_model=fault_model, fault_params=dict(fault_params),
        )
        configs.extend(expand_runs(point, runs))
    try:
        validate_attack_site(configs[0])  # every point shares the site
    except ConfigurationError as exc:
        raise ValueError(f"bad fault_params: {exc}") from None
    name = payload.get("name")
    if name is not None:
        name = str(name)
        if not name:
            raise ValueError("name must not be empty when given")
    options = {
        "jobs": jobs,
        "warm_start": bool(payload.get("warm_start", False)),
        "trace": bool(payload.get("trace", False)),
        "early_exit": early_exit,
    }
    return configs, name, options


class CampaignServer(ThreadingHTTPServer):
    """HTTP server bound to one campaign database and job queue."""

    daemon_threads = True

    def __init__(self, address: Tuple[str, int], db: CampaignDatabase,
                 queue: JobQueue) -> None:
        super().__init__(address, ServiceHandler)
        self.db = db
        self.queue = queue

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"


class ServiceHandler(BaseHTTPRequestHandler):
    """Routes ``/api/...`` onto the store query layer."""

    server: CampaignServer
    protocol_version = "HTTP/1.1"
    # Headers and body go out in separate writes; without TCP_NODELAY
    # Nagle's algorithm holds the body back for the client's delayed ACK
    # and every keep-alive request stalls about 40 ms.
    disable_nagle_algorithm = True

    # -- plumbing ----------------------------------------------------------

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass  # quiet by default; smoke/CI output stays readable

    def _send(self, code: int, body: bytes, content_type: str) -> None:
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _json(self, payload: object, code: int = 200) -> None:
        body = json.dumps(payload, indent=2).encode("utf-8")
        self._send(code, body, "application/json")

    def _error(self, code: int, message: str) -> None:
        self._json({"error": message}, code)

    def _read_body(self) -> Dict[str, object]:
        """The request's JSON object body, bounded before anything is read.

        A rejected body stays unread, so the connection closes after the
        error response instead of parsing it as the next request.
        """
        header = self.headers.get("Content-Length") or "0"
        length = int(header) if header.isascii() and header.isdigit() else -1
        if length < 0 or length > MAX_BODY_BYTES:
            self.close_connection = True
            if length < 0:
                raise ValueError(f"bad Content-Length: {header!r}")
            raise PayloadTooLarge(f"request body of {length} bytes exceeds "
                                  f"{MAX_BODY_BYTES}")
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return {}
        try:
            payload = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ValueError(f"bad JSON body: {exc}") from None
        if not isinstance(payload, dict):
            raise ValueError("body must be a JSON object")
        return payload

    # -- routing -----------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (stdlib handler contract)
        url = urlparse(self.path)
        parts = [part for part in url.path.split("/") if part]
        query = parse_qs(url.query)
        try:
            if not parts:
                self._send(200, DASHBOARD_HTML.encode("utf-8"),
                           "text/html; charset=utf-8")
            elif parts[:2] == ["api", "status"]:
                self._json(self._status())
            elif parts[:2] == ["api", "jobs"] and len(parts) == 2:
                self._json({"jobs": self.server.db.jobs()})
            elif parts[:2] == ["api", "jobs"] and len(parts) == 3:
                record = self.server.db.job(int(parts[2]))
                self._json(record)
            elif parts[:2] == ["api", "campaigns"] and len(parts) == 2:
                self._json({"campaigns": self.server.db.campaigns()})
            elif parts[:2] == ["api", "campaigns"] and len(parts) == 4:
                self._campaign_view(parts[2], parts[3], query)
            elif parts[:2] == ["api", "diff"]:
                self._diff(query)
            else:
                self._error(404, f"no such endpoint: {url.path}")
        except (ConfigurationError, ValueError) as exc:
            self._error(404 if isinstance(exc, ConfigurationError) else 400,
                        str(exc))
        except BrokenPipeError:
            pass

    def do_POST(self) -> None:  # noqa: N802 (stdlib handler contract)
        parts = [part for part in urlparse(self.path).path.split("/") if part]
        try:
            if parts[:2] == ["api", "jobs"] and len(parts) == 2:
                configs, name, options = build_job_request(self._read_body())
                job_id = self.server.queue.submit(
                    configs, name=name, options=options)
                self._json(self.server.db.job(job_id), 201)
            elif (parts[:2] == ["api", "jobs"] and len(parts) == 4
                  and parts[3] == "cancel"):
                cancelled = self.server.queue.cancel(int(parts[2]))
                self._json({"job": int(parts[2]), "cancelled": cancelled})
            else:
                self._error(404, f"no such endpoint: {self.path}")
        except PayloadTooLarge as exc:
            self._error(413, str(exc))
        except (ConfigurationError, ValueError) as exc:
            self._error(404 if isinstance(exc, ConfigurationError) else 400,
                        str(exc))
        except BrokenPipeError:
            pass

    # -- views -------------------------------------------------------------

    def _status(self) -> Dict[str, object]:
        jobs = self.server.db.jobs()
        by_state: Dict[str, int] = {}
        for record in jobs:
            state = str(record["state"])
            by_state[state] = by_state.get(state, 0) + 1
        return {
            "campaigns": len(self.server.db.campaigns()),
            "jobs": len(jobs),
            "by_state": by_state,
        }

    def _campaign_view(self, campaign: str, view: str, query) -> None:
        db = self.server.db
        cid = db.campaign_id(campaign)
        if view in ("results", "table2", "curve", "availability"):
            results = db.results(cid)
            wanted = query.get("fault_model")
            if wanted and view in ("results", "table2"):
                results = [result for result in results
                           if result.config.fault_model == wanted[0]]
            if view == "results":
                self._json({"campaign": cid, "runs": len(results),
                            "results": [result_to_dict(result)
                                        for result in results]})
            elif view == "table2":
                self._json({"campaign": cid, **fold_results(results)})
            elif view == "curve":
                self._json({"campaign": cid,
                            **curve_from_results(results).as_dict()})
            else:
                clock = query.get("clock_hz")
                self._json({"campaign": cid, **availability_readout(
                    results,
                    clock_hz=float(clock[0]) if clock else None)})
        elif view in ("lifecycles", "stats"):
            events = db.events(cid)
            if view == "lifecycles":
                self._json({"campaign": cid,
                            "lifecycles": lifecycle_rows(events)})
            else:
                self._json({"campaign": cid, **trace_stats(events)})
        else:
            self._error(404, f"no such campaign view: {view}")

    def _diff(self, query) -> None:
        try:
            a, b = query["a"][0], query["b"][0]
        except (KeyError, IndexError):
            raise ValueError("diff needs ?a=<campaign>&b=<campaign>") \
                from None
        db = self.server.db
        results_a = db.results(db.campaign_id(a))
        results_b = db.results(db.campaign_id(b))
        self._json({"a": a, "b": b, **diff_results(results_a, results_b)})


def make_server(db_path: str, *, host: str = "127.0.0.1", port: int = 0,
                jobs: int = 1) -> CampaignServer:
    """Build a ready-to-run server (not yet serving) over *db_path*.

    ``port=0`` binds an ephemeral port -- the smoke test and unit tests
    read the chosen one back from :attr:`CampaignServer.server_address`.
    """
    db = CampaignDatabase(db_path)
    queue = JobQueue(db, jobs=jobs).start()
    return CampaignServer((host, port), db, queue)


def serve(db_path: str, *, host: str = "127.0.0.1", port: int = 8321,
          jobs: int = 1, ready: Optional[threading.Event] = None) -> None:
    """Run the campaign service until interrupted (the CLI entry)."""
    server = make_server(db_path, host=host, port=port, jobs=jobs)
    print(f"repro service on {server.url} (db: {db_path})")
    if ready is not None:
        ready.set()
    try:
        server.serve_forever(poll_interval=0.2)
    except KeyboardInterrupt:
        pass
    finally:
        server.queue.stop()
        server.server_close()
        server.db.close()
