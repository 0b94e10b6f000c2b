"""Measure one pass of one benchmark workload in this process.

``bench/run.py`` starts this module in a fresh interpreter for every
pass (``python -m bench.campaign --workload W --seed S ...``), so each
pass is one ``repro`` process running one whole campaign, and prints
one JSON line: the phase walls, the peak RSS, a digest per run and, for
a traced pass, the per-layer sums.  Every call into the simulator goes
through the public functions ``repro campaign`` and ``repro serve`` use.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import http.client
import json
import os
import resource
import shutil
import sys
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro import fault, service, store
from repro.analysis.program import analyze_program
from repro.core.config import CacheConfig, LeonConfig
from repro.core.system import LeonSystem
from repro.fault.campaign import Campaign, CampaignConfig
from repro.fault.executor import CampaignExecutionError, CampaignExecutor
from repro.fault.models import MODELS
from repro.fault.report import render_table2
from repro.fault.results import ResultStore
from repro.service.api import ServiceHandler
from repro.state.snapshot import Snapshot
from repro.store.db import CampaignDatabase
from repro.telemetry.bus import Telemetry

from bench.trace import Tracer, jit_delta, phase_of, self_times

#: Read-backs timed per pass for ``query_s``, which reports the fastest
#: (the first one is also part of the campaign wall).  A JSONL read-back
#: is under a millisecond, so one sample would be mostly timer noise.
QUERY_REPEATS = 51
SERVICE_QUERY_REPEATS = 3
#: The service client polls the job this often.  A 3 s job polled every
#: 0.25 s would read up to 8 % late, more than ``exec_s``'s bound.
POLL_S = 0.05
#: Campaign views the service client reads back once the job is done.
SERVICE_VIEWS = ("table2", "curve", "stats", "lifecycles")


@dataclass(frozen=True)
class Workload:
    #: The shared phase shape and device; ``seed`` is the base seed.
    base: CampaignConfig
    lets: Tuple[float, ...]
    replicas: int
    #: Submit as one HTTP job to an in-process ``repro.service``.
    service: bool = False

    def configs(self, seed: int) -> List[CampaignConfig]:
        """The campaign's runs, in the order ``repro campaign`` runs them."""
        if self.service:
            configs, _name, _options = service.build_job_request(
                self.payload(seed))
            return configs
        runs: List[CampaignConfig] = []
        for let in self.lets:
            runs.extend(fault.expand_runs(
                replace(self.base, let=let, seed=seed), self.replicas))
        return runs

    def payload(self, seed: int) -> Dict[str, object]:
        """The ``POST /api/jobs`` body of a service campaign."""
        base = self.base
        return {
            "program": base.program, "lets": list(self.lets),
            "flux": base.flux, "fluence": base.fluence, "seed": seed,
            "ips": base.instructions_per_second, "runs": self.replicas,
            "flush_period": base.flush_period_instructions,
            "beam_delay": base.beam_delay_s, "beam_tail": base.beam_tail_s,
            "name": "sweep", "warm_start": True, "trace": True, "jobs": 1,
        }


_TINY_CACHES = LeonConfig.leon_express(icache=CacheConfig(size_bytes=64),
                                       dcache=CacheConfig(size_bytes=64))

# Why each workload exists is in bench/README.md.  Shapes are chosen so
# a run costs about the same whichever exit it takes: the spread over
# seeds must stay inside each metric's bound.
WORKLOADS: Dict[str, Workload] = {
    "reconverge": Workload(
        CampaignConfig(program="iutest", let=5.0, flux=400.0,
                       fluence=1.0e5, seed=1101,
                       instructions_per_second=20.0,
                       beam_delay_s=800.0, beam_tail_s=600.0,
                       flush_period_instructions=4000),
        lets=(5.0, 6.0), replicas=6),
    "tiny-cache": Workload(
        CampaignConfig(program="random:7", let=6.0, flux=400.0,
                       fluence=1.0e5, seed=1102,
                       instructions_per_second=40.0,
                       beam_delay_s=100.0, beam_tail_s=150.0,
                       flush_period_instructions=4000, leon=_TINY_CACHES),
        lets=(6.0, 8.0), replicas=5),
    "upset-dense": Workload(
        CampaignConfig(program="paranoia", let=40.0, flux=400.0,
                       fluence=2.0e4, seed=1103,
                       instructions_per_second=300.0,
                       beam_delay_s=5.0, beam_tail_s=5.0),
        lets=(40.0, 110.0), replicas=8),
    "service-sweep": Workload(
        CampaignConfig(program="iutest", let=1.0, flux=400.0,
                       fluence=1.0e5, seed=1104,
                       instructions_per_second=20.0,
                       beam_delay_s=100.0, beam_tail_s=50.0,
                       flush_period_instructions=4000),
        lets=(1.0, 2.0, 3.0, 4.0), replicas=300, service=True),
}

#: ``--smoke``: the same code paths at a fraction of the size.
SMOKE: Dict[str, Workload] = {
    "reconverge": replace(WORKLOADS["reconverge"], replicas=1),
    "tiny-cache": replace(
        WORKLOADS["tiny-cache"], replicas=1,
        base=replace(WORKLOADS["tiny-cache"].base, beam_tail_s=50.0)),
    "upset-dense": replace(
        WORKLOADS["upset-dense"], replicas=1,
        base=replace(WORKLOADS["upset-dense"].base, fluence=5.0e3)),
    "service-sweep": replace(WORKLOADS["service-sweep"], replicas=10),
}


def campaign_seed(workload: Workload, seed: int) -> int:
    """The campaign's base seed at benchmark seed *seed*."""
    base = workload.base.seed
    return base if seed == 0 else fault.derive_seed(base, seed)


def digest(result) -> str:
    """First 16 hex digits of the sha256 of ``result.comparable()``."""
    payload = json.dumps(result.comparable(), sort_keys=True, default=str)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


# -- one campaign --------------------------------------------------------


@dataclass
class Measured:
    """What one pass over the campaign measured."""

    setup_s: float
    exec_s: float
    query_s: float
    #: Set-up (CLI workloads) or the POST (service) through the first
    #: read-back: the phase walls, without the collections between them.
    campaign_s: float
    #: perf_counter interval of the campaign, for selecting its spans.
    window: Tuple[float, float]
    #: :func:`digest` of every run, in config order.
    digests: List[str]
    #: :func:`exit_counts` of the runs.
    exact: Dict[str, float]
    failed: int


def _execute(configs, warm, on_results) -> Tuple[List, int]:
    """``run_many`` at jobs 1: (completed results, runs that raised)."""
    try:
        return CampaignExecutor(1).run_many(configs, warm=warm,
                                           on_results=on_results), 0
    except CampaignExecutionError as exc:
        return exc.completed, len(exc.failures)


def _timed(call: Callable[[], object]) -> Tuple[object, float]:
    """``(call(), wall)``, timed from a freshly collected heap.

    Garbage left by the previous phase would trigger the cyclic
    collector at a different point of the next one each time;
    collecting first gives every phase the same starting heap.
    """
    gc.collect()
    started = time.perf_counter()
    value = call()
    return value, time.perf_counter() - started


def run_cli(configs, workdir: Path) -> Measured:
    """``repro campaign --warm-start [--results]`` then the read-back.

    Results persist to a JSONL ``ResultStore`` like ``--results`` does,
    which only stores the default device.
    """
    path = workdir / "results.jsonl"
    path.unlink(missing_ok=True)
    results_store = ResultStore(str(path)) \
        if configs[0].leon is None else None
    results: List = []

    def execute():
        try:
            return _execute(configs, warm, results_store.append
                            if results_store is not None else None)
        finally:
            if results_store is not None:
                results_store.close()

    def read_back():
        rows = store.load_results(str(path)) if results_store is not None \
            else results
        return store.fold_results(rows)

    window_start = time.perf_counter()
    warm, setup_s = _timed(lambda: fault.prepare_warm_start(configs[0]))
    (results, failed), exec_s = _timed(execute)
    _fold, query_s = _timed(read_back)
    window = (window_start, time.perf_counter())
    campaign_s = setup_s + exec_s + query_s
    queries = [query_s] + [_timed(read_back)[1]
                           for _ in range(QUERY_REPEATS - 1)]
    digests = [digest(result) for result in results]
    if results_store is not None:
        # What was persisted must read back as exactly what ran.
        stored = [digest(row) for row in store.load_results(str(path))]
        failed += sum(1 for a, b in zip(stored, digests) if a != b) \
            + abs(len(stored) - len(digests))
    return Measured(setup_s, exec_s, min(queries), campaign_s, window,
                    digests, exit_counts(results), failed)


def _request(conn: http.client.HTTPConnection, method: str, path: str,
             body: Optional[dict] = None) -> dict:
    payload = json.dumps(body).encode() if body is not None else None
    conn.request(method, path, body=payload,
                 headers={"Content-Type": "application/json"})
    response = conn.getresponse()
    data = response.read()
    if response.status >= 400:
        raise RuntimeError(f"{method} {path}: HTTP {response.status} {data!r}")
    return json.loads(data)


def run_service(workload: Workload, seed: int, workdir: Path) -> Measured:
    """One sweep job over HTTP: POST, poll until done, read the views."""
    payload = workload.payload(seed)
    configs = workload.configs(seed)
    # The job prepares this same warm start inside ``exec_s``; timed here
    # on its own so set-up cost shows as ``setup_s``.
    _warm, setup_s = _timed(lambda: fault.prepare_warm_start(configs[0]))
    db_path = workdir / "service.db"
    for suffix in ("", "-wal", "-shm"):
        Path(str(db_path) + suffix).unlink(missing_ok=True)
    server = service.make_server(str(db_path))
    serving = threading.Thread(target=server.serve_forever,
                               kwargs={"poll_interval": 0.05})
    serving.start()
    host, port = server.server_address[:2]
    conn = http.client.HTTPConnection(host, port, timeout=120)
    name = str(payload["name"])
    try:
        gc.collect()
        started = time.perf_counter()
        job = _request(conn, "POST", "/api/jobs", payload)
        while True:
            record = _request(conn, "GET", f"/api/jobs/{job['id']}")
            if record["state"] in service.FINISHED_STATES:
                break
            time.sleep(POLL_S)
        done = time.perf_counter()

        def read_back():
            for view in SERVICE_VIEWS:
                _request(conn, "GET", f"/api/campaigns/{name}/{view}")

        _views, query_s = _timed(read_back)
        window = (started, time.perf_counter())
        queries = [query_s] + [_timed(read_back)[1]
                               for _ in range(SERVICE_QUERY_REPEATS - 1)]
        results = server.db.results(server.db.campaign_id(name))
    finally:
        conn.close()
        server.shutdown()
        serving.join()
        server.queue.stop()
        server.server_close()
        server.db.close()
    failed = len(configs) - len(results)
    if record["state"] != "done":
        failed = max(failed, 1)
    exec_s = done - started
    return Measured(setup_s, exec_s, min(queries), exec_s + query_s, window,
                    [digest(result) for result in results],
                    exit_counts(results), failed)


def run_workload(workload: Workload, seed: int, workdir: Path) -> Measured:
    if workload.service:
        return run_service(workload, seed, workdir)
    return run_cli(workload.configs(seed), workdir)


# -- correctness ---------------------------------------------------------


def plain_reference(configs) -> List:
    """The oracle: cold start, JIT off, no early exit, no static grading,
    unbatched -- ``REPRO_JIT=0 repro campaign --no-early-exit
    --no-static``."""
    saved = os.environ.get("REPRO_JIT")
    os.environ["REPRO_JIT"] = "0"
    try:
        plain = [replace(config, early_exit=False, static_grading=False)
                 for config in configs]
        return CampaignExecutor(1).run_many(plain, batch=False)
    finally:
        if saved is None:
            os.environ.pop("REPRO_JIT", None)
        else:
            os.environ["REPRO_JIT"] = saved


# -- the traced campaign -------------------------------------------------

SETUP_ROOT = "campaign.prepare_warm_start"
DB_WRITES = ("add_results", "add_run_events", "update_job", "create_job",
             "ensure_campaign")
DB_READS = ("results", "events", "job", "jobs", "job_configs",
            "campaigns", "campaign_id", "split_pending", "result_keys")


def instrument(tracer: Tracer) -> None:
    """Wrap the layer boundaries the per-layer metrics are named after."""
    tracer.wrap_function(fault.prepare_warm_start, SETUP_ROOT)
    tracer.wrap_function(analyze_program, "analysis.analyze")
    tracer.wrap(LeonSystem, "__init__", "core.system_build")
    tracer.wrap(LeonSystem, "run_fast", "core.run_fast", observe=jit_delta)
    tracer.wrap(LeonSystem, "state_digest", "state.digest")
    tracer.wrap(LeonSystem, "snapshot", "state.snapshot")
    tracer.wrap(Snapshot, "to_bytes", "state.snapshot")
    tracer.wrap(LeonSystem, "restore", "state.restore")
    tracer.wrap(Snapshot, "from_bytes", "state.decode")
    tracer.wrap(Campaign, "run", "campaign.run")
    models = {owner for model in MODELS.values() for owner in model.__mro__}
    for owner in models:
        for method, name in (("schedule", "fault.schedule"),
                             ("apply", "fault.apply")):
            if method in vars(owner):
                tracer.wrap(owner, method, name)
    tracer.wrap(CampaignExecutor, "run_many", "executor.run_many")
    tracer.wrap(ResultStore, "append", "store.append")
    tracer.wrap(ResultStore, "load", "store.read")
    for method in DB_WRITES:
        tracer.wrap(CampaignDatabase, method, "store.db_write")
    for method in DB_READS:
        tracer.wrap(CampaignDatabase, method, "store.read")
    tracer.wrap_function(store.load_results, "store.read")
    for fold in (store.fold_results, store.curve_from_results,
                 store.trace_stats, store.lifecycle_rows,
                 store.availability_readout, store.diff_results,
                 render_table2):
        tracer.wrap_function(fold, "store.fold")
    tracer.wrap(ServiceHandler, "do_GET", "service.request")
    tracer.wrap(ServiceHandler, "do_POST", "service.request")
    tracer.count(Telemetry, "emit", "telemetry.events")


def breakdown(tracer: Tracer, window: Tuple[float, float]) -> Dict:
    """Per-layer sums over the spans inside one campaign's *window*.

    ``self_s``/``calls``/``info`` are keyed ``<span name>.<phase>``,
    the phase being ``setup`` under :data:`SETUP_ROOT` and ``exec``
    elsewhere; ``named_s`` is the summed self time of every span.
    """
    spans = tracer.spans
    indices = tracer.window(*window)
    own = self_times(spans, indices)
    self_s: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    info: Dict[str, float] = {}
    first_job_write = None
    for index in indices:
        span = spans[index]
        key = f"{span.name}.{phase_of(spans, index, SETUP_ROOT)}"
        self_s[key] = self_s.get(key, 0.0) + own[index]
        calls[key] = calls.get(key, 0) + 1
        for name, value in span.info.items():
            info[f"{key}.{name}"] = info.get(f"{key}.{name}", 0) + value
        if (span.name == "store.db_write" and first_job_write is None
                and span.thread == "repro-job-queue"):
            first_job_write = span.end
    return {
        "self_s": self_s, "calls": calls, "info": info,
        "named_s": sum(own.values()),
        # POST until the scheduler's first write (state = running).
        "queue_wait_s": (first_job_write - window[0]
                         if first_job_write is not None else 0.0),
        "events": tracer.counts.get("telemetry.events", 0),
    }


EXIT_REASONS = ("full", "reconverged", "diverged", "static_masked")


def exit_counts(results: List) -> Dict[str, float]:
    """Exact counts from the results themselves (no trace needed)."""
    metrics: Dict[str, float] = {
        "fault.upsets": sum(result.upsets for result in results)}
    for reason in EXIT_REASONS:
        metrics[f"fault.exit.{reason}"] = sum(
            1 for result in results if result.exit_reason == reason)
    reported = sum(result.instructions for result in results)
    skipped = sum(result.instructions - result.graded_at_instruction
                  for result in results
                  if result.graded_at_instruction is not None)
    metrics["fault.skipped_fraction"] = skipped / reported if reported \
        else 0.0
    return metrics


# -- the record ----------------------------------------------------------


def measure(workload_name: str, seed: int, trace: bool, smoke: bool,
            workdir: Path) -> Dict[str, object]:
    """One pass, as the JSON-ready record ``bench/run.py`` aggregates."""
    workload = (SMOKE if smoke else WORKLOADS)[workload_name]
    base = campaign_seed(workload, seed)
    tracer = Tracer()
    if trace:
        instrument(tracer)
    try:
        done = run_workload(workload, base, workdir)
    finally:
        tracer.unwrap()
    record: Dict[str, object] = {
        "setup_s": done.setup_s, "exec_s": done.exec_s,
        "query_s": done.query_s, "campaign_s": done.campaign_s,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "digests": done.digests, "exact": done.exact, "failed": done.failed,
    }
    if trace:
        record["layers"] = breakdown(tracer, done.window)
    return record


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--reference", type=int, default=None, metavar="N",
                        help="only digest the plain reference of the first "
                             "N runs (0: all)")
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.reference is not None:
            workload = (SMOKE if args.smoke else WORKLOADS)[args.workload]
            configs = workload.configs(campaign_seed(workload, args.seed))
            record: Dict[str, object] = {"digests": [
                digest(r) for r in
                plain_reference(configs[:args.reference or None])]}
        else:
            record = measure(args.workload, args.seed, bool(args.trace),
                             args.smoke, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
